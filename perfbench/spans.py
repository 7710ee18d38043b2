"""Spans around calls into each bevssl layer, installed from outside the
package.

`engine`, `model` and `bench` import `forward`, `backward`, `warp_raster`,
`forward_op`, `build_dataset` and the rest by name, so a wrapper replaces the
name in the namespace of the module that calls it.  The per-layer conv
backward is reached only through autograd's rule table, so its `conv2d` entry
is wrapped there.  Everything is restored by `uninstall`.

A span is [name, start, end, parent index, group]; the spans of one training
step share the group `step<k>`.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from bevssl import autograd, bench, engine, model, world

CONV_LAYERS = ("enc0", "enc1", "enc2", "lift", "dec0", "dec1", "head")

# Dataset-build spans; metric is the mean per call.
WORLD_SPANS = ("world.generate_world", "world.render_observation",
               "world.rasterize_gt")
# Spans inside a training step; metric is the per-step sum.
STEP_SPANS = (
    "engine.train_step", "augment.strong_augment", "model.forward_taped",
    "model.forward_untaped",
    *(f"autograd.conv2d_fwd.{k}" for k in CONV_LAYERS),
    *(f"autograd.conv2d_bwd.{k}" for k in CONV_LAYERS),
    "autograd.backward", "autograd.optimizer_step", "engine.select_frames",
    "engine.fuse_teacher", "engine.pseudo_labels", "engine.ema_update",
    "geometry.warp_raster", "losses.focal", "losses.featsim",
)
# Evaluation spans; metric is the mean per call (per frame for the first
# two, per pass for evaluate_pairs).
EVAL_SPANS = ("model.forward_eval", "bench.iou_update", "bench.evaluate_pairs")
# Spans with children; their self time (duration minus the children) is
# reported too.  For every other span the self time equals the duration.
PARENT_SPANS = (
    "bench.build_dataset", "world.build_sequence", "world.render_observation",
    "engine.train_step", "model.forward_taped", "model.forward_untaped",
    "autograd.backward", "engine.fuse_teacher", "model.forward_eval",
    "bench.evaluate_pairs",
)


class Tracer:
    """Spans and counts of one run, and the patches that record them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)   # (group, key) -> value
        self._stack: list[int] = []
        self._group = "setup"
        self._saved: list[tuple] = []
        self._tape = None

    # ------------------------------------------------------------ spans --

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._group])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    @contextmanager
    def group(self, name: str):
        outer, self._group = self._group, name
        try:
            yield
        finally:
            self._group = outer

    def count(self, key: str, value: float = 1.0) -> None:
        self.counts[(self._group, key)] += value

    # ---------------------------------------------------------- patches --

    def _patch(self, owner, attr: str, new) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        p, w = self._patch, self.wrap
        # world (dataset build)
        p(bench, "build_dataset", self._counting(
            "bench.build_dataset", bench.build_dataset, "builds"))
        p(world, "generate_world", w("world.generate_world",
                                     world.generate_world))
        p(world, "build_sequence", w("world.build_sequence",
                                     world.build_sequence))
        p(world, "render_observation", self._counting(
            "world.render_observation", world.render_observation, "frames"))
        p(world, "rasterize_gt", self._counting(
            "world.rasterize_gt", world.rasterize_gt, "rasterize_gt"))
        # engine and the layers it calls by name
        p(engine, "forward", self._model_forward(engine.forward))
        p(engine, "backward", self._backward(engine.backward))
        p(engine, "optimizer_step", w("autograd.optimizer_step",
                                      engine.optimizer_step))
        p(engine, "select_fusion_frames", w("engine.select_frames",
                                            engine.select_fusion_frames))
        p(engine, "fuse_teacher", self._fuse(engine.fuse_teacher))
        p(engine, "make_pseudo_labels", self._pseudo(engine.make_pseudo_labels))
        p(engine, "ema_update", w("engine.ema_update", engine.ema_update))
        p(engine, "warp_raster", self._counting(
            "geometry.warp_raster", engine.warp_raster, "warp_calls"))
        p(engine, "strong_augment", w("augment.strong_augment",
                                      engine.strong_augment))
        p(engine, "focal_loss", w("losses.focal", engine.focal_loss))
        p(engine, "feature_similarity_loss", w(
            "losses.featsim", engine.feature_similarity_loss))
        # per-layer convs
        p(model, "forward_op", self._conv_forward(model.forward_op))
        p(autograd._BACKWARD_RULES, "conv2d",
          self._conv_backward(autograd._BACKWARD_RULES["conv2d"]))
        # evaluation
        p(bench.IoUAccumulator, "update", w(
            "bench.iou_update", bench.IoUAccumulator.update))
        p(bench, "evaluate_pairs", w("bench.evaluate_pairs",
                                     bench.evaluate_pairs))

    # --------------------------------------------------------- wrappers --

    def _counting(self, name, fn, key):
        def wrapper(*args, **kwargs):
            self.count(key)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _model_forward(self, fn):
        def wrapper(params, observation, bev_drop_mask=None, tape=None,
                    config=None):
            if tape is not None:
                name = "model.forward_taped"
            else:
                name = "model.forward_untaped"
                vals = getattr(observation, "values", observation)
                self.count("teacher_frames", 1 if vals.ndim == 3
                           else vals.shape[0])
            return self.call(name, fn, params, observation, bev_drop_mask,
                             tape, config)
        return wrapper

    def _backward(self, fn):
        def wrapper(loss, params):
            tape = loss.tape
            if tape is not None:
                values, cols = _tape_bytes(tape)
                self.count("tape_nodes", len(tape.nodes))
                self.count("tape_bytes", values + cols)
                self.count("tape_cols_bytes", cols)
            self._tape = tape
            try:
                return self.call("autograd.backward", fn, loss, params)
            finally:
                self._tape = None
        return wrapper

    def _conv_forward(self, fn):
        def wrapper(kind, *inputs, **attrs):
            if kind != "conv2d" or inputs[1].param_name is None:
                return fn(kind, *inputs, **attrs)
            layer = inputs[1].param_name.rsplit(".", 1)[0]
            out = self.call(f"autograd.conv2d_fwd.{layer}", fn, kind, *inputs,
                            **attrs)
            _, ci, kh, kw = inputs[1].shape
            self.count(f"mac.{layer}", out.values.size * ci * kh * kw)
            return out
        return wrapper

    def _conv_backward(self, fn):
        def wrapper(node, g, ins):
            param = None
            if self._tape is not None:
                param = self._tape.nodes[node.input_ids[1]].saved.get("param")
            if param is None:
                return fn(node, g, ins)
            layer = param.rsplit(".", 1)[0]
            return self.call(f"autograd.conv2d_bwd.{layer}", fn, node, g, ins)
        return wrapper

    def _fuse(self, fn):
        def wrapper(current, extras, mode, spec, params=None,
                    current_index=0, warp_mode="nearest"):
            res = self.call("engine.fuse_teacher", fn, current, extras, mode,
                            spec, params, current_index, warp_mode)
            self.count("fused_cells", float(
                np.count_nonzero(res.provenance != current_index)))
            self.count("fusion_cells", float(res.provenance.size))
            return res
        return wrapper

    def _pseudo(self, fn):
        def wrapper(probs, cfg, validity=None, provenance=None):
            res = self.call("engine.pseudo_labels", fn, probs, cfg, validity,
                            provenance)
            valid = probs.valid if validity is None else validity
            self.count("kept_cells", float(res.mask.count))
            self.count("candidate_cells",
                       float(np.count_nonzero(valid)) * probs.values.shape[0])
            return res
        return wrapper

    # ---------------------------------------------------------- metrics --

    def metrics(self, untraced_step_ms: list[float],
                traced_step_ms: list[float]) -> dict:
        """Per-layer metrics as {name: {"value": v, "unit": u}}."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        child: dict = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (name, t0, t1, _, grp) in enumerate(self.spans):
            total[(grp, name)] += (t1 - t0) * 1000.0
            own[(grp, name)] += (t1 - t0 - child[idx]) * 1000.0
            calls[(grp, name)] += 1
        steps = sorted({g for g, _ in total if g.startswith("step")})

        def per_step(table, key):
            return statistics.median(table.get((g, key), 0.0) for g in steps)

        def per_call(table, key, group):
            n = calls.get((group, key), 0)
            return table.get((group, key), 0.0) / n if n else 0.0

        def summed(key):
            return sum(self.counts.get((g, key), 0.0) for g in steps)

        def scoped(table, name):
            if name.startswith(("world.", "bench.build")):
                return per_call(table, name, "setup")
            if name in EVAL_SPANS:
                return per_call(table, name, "eval")
            return per_step(table, name)

        out: dict = {}
        for name in WORLD_SPANS + STEP_SPANS + EVAL_SPANS:
            out[_metric(name)] = scoped(total, name)
        frames = self.counts.get(("setup", "frames"), 0.0)
        builds = self.counts.get(("setup", "builds"), 0.0)
        out["world.rasterize_gt_per_frame"] = (
            self.counts.get(("setup", "rasterize_gt"), 0.0) / frames
            if frames else 0.0)
        out["world.frames_built"] = frames / builds if builds else 0.0
        for layer in CONV_LAYERS:
            out[f"autograd.conv2d_mmac.{layer}"] = per_step(
                self.counts, f"mac.{layer}") / 1e6
        out["autograd.tape_nodes"] = per_step(self.counts, "tape_nodes")
        out["autograd.tape_mb"] = per_step(self.counts, "tape_bytes") / 2 ** 20
        out["autograd.tape_cols_mb"] = per_step(
            self.counts, "tape_cols_bytes") / 2 ** 20
        out["engine.teacher_frames_per_step"] = per_step(
            self.counts, "teacher_frames")
        cand = summed("candidate_cells")
        out["engine.pseudo_kept_frac"] = (summed("kept_cells") / cand
                                          if cand else 0.0)
        cells = summed("fusion_cells")
        out["engine.fused_cell_frac"] = (summed("fused_cells") / cells
                                         if cells else 0.0)
        out["geometry.warp_calls_per_step"] = per_step(self.counts,
                                                       "warp_calls")
        for name in PARENT_SPANS:
            out[f"self.{_metric(name)}"] = scoped(own, name)

        traced = statistics.median(traced_step_ms) if traced_step_ms else 0.0
        untraced = (statistics.median(untraced_step_ms)
                    if untraced_step_ms else 0.0)
        out["trace.step_ms_p50_traced"] = traced
        out["trace.step_ms_p50_untraced"] = untraced
        out["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
        out["trace.steps_traced"] = float(len(steps))
        out["trace.spans_per_step"] = (
            sum(calls[(g, n)] for g, n in calls if g in steps) / len(steps)
            if steps else 0.0)
        return {name: {"value": v, "unit": _unit(name)}
                for name, v in out.items()}


@contextmanager
def tracing(tracer: Tracer | None, group: str):
    """Run the body traced under `group`, or untraced without a tracer."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        with tracer.group(group):
            yield
    finally:
        tracer.uninstall()


def _metric(span: str) -> str:
    """Span name to metric name: `a.b` -> `a.b_ms`, `a.b.layer` -> `a.b_ms.layer`."""
    parts = span.split(".")
    parts[1] += "_ms"
    return ".".join(parts)


def _unit(metric: str) -> str:
    if "_ms" in metric:
        return "ms"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_frac", "_ratio", "_per_frame")):
        return "ratio"
    if ".conv2d_mmac." in metric:
        return "MMAC"
    return "count"


def _tape_bytes(tape) -> tuple[int, int]:
    """Bytes the tape holds: node values plus saved arrays other than the
    im2col columns, and the saved im2col columns on their own."""
    seen: set[int] = set()
    values = cols = 0
    for node in tape.nodes:
        arrays = [("v", node.values)] + [
            (k, v) for k, v in node.saved.items() if isinstance(v, np.ndarray)]
        for key, arr in arrays:
            base = arr.base if isinstance(arr.base, np.ndarray) else arr
            if id(base) in seen:
                continue
            seen.add(id(base))
            if key == "_cols":
                cols += base.nbytes
            else:
                values += base.nbytes
    return values, cols
