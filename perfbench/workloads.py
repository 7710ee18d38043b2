"""The benchmark's workloads and the closed loop that measures one of them.

Each workload is a JSON config as a user would pass it to `bevssl train`.  It
is resolved with `bench.config_from_dict` and mapped to a `Trainer` the way
`bench.run_one` maps it, so the benchmark times the program users run (for
example the CLI's focal_alpha of 0.75, not the `LossWeights()` default).

One run: build the dataset and trainer at the reference seed and check the
first steps' losses against the values held below; build them again at the
workload seed (the median of these builds is `setup_s`); train with
consecutive `Trainer.train_step` calls until `seconds` have passed, timing
one held-out frame after each step; then evaluate every held-out frame.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass

from bevssl import bench, model
from bevssl.augment import AugmentConfig
from bevssl.engine import OptimConfig, Trainer
from bevssl.errors import ConfigurationError, ContractError, NumericError
from bevssl.rng import Stream
from spans import tracing

REFERENCE_SEED = 0
LOSS_KEYS = ("loss_sup", "loss_cls", "loss_feat")
# Losses must match the reference to float rounding: a rewrite that keeps the
# arithmetic passes, one that changes what is computed does not.
LOSS_REL_TOL = 1e-9
LOSS_ABS_TOL = 1e-12
# A tail percentile is reported only with at least ten samples beyond it.
P90_MIN_STEPS = 100

RUN_ERRORS = (NumericError, ContractError, ConfigurationError)
MAX_ERRORS_KEPT = 20


@dataclass(frozen=True)
class Workload:
    config: dict        # the JSON config document
    setup_reps: int     # dataset+trainer builds per run; setup_s is their median
    eval_stride: int    # evaluate every n-th held-out frame
    ref_losses: tuple   # (loss_sup, loss_cls, loss_feat) of the first steps
    ref_eval_frames: int  # held-out frames the config yields


WORKLOADS = {
    # The CLI's resolution of `{}`: small preset, 50 worlds, probs fusion
    # over 2 extra frames.  Student convs and backward dominate a step.
    "ssl_small": Workload(
        config={},
        setup_reps=2, eval_stride=1,
        ref_losses=((0.09514169856576318, 0.0, 0.0),
                    (0.09374118196421499, 0.0, 0.3690909332190407)),
        ref_eval_frames=72),
    # The heaviest fusion-frames ablation variant: the teacher's untaped
    # 7-frame forward and bilinear warps of 64-channel features dominate.
    "fusion_feats6_small": Workload(
        config={"ssl": {"fusion_mode": "feats", "fusion_extra": 6,
                        "fusion_warp": "bilinear",
                        "fusion_max_range": 20.0}},
        setup_reps=2, eval_stride=1,
        ref_losses=((0.09514169856576318, 0.0, 0.0),
                    (0.09374118196421499, 0.0, 0.3366646421631387)),
        ref_eval_frames=72),
    # Paper preset with the fewest worlds the splits allow (one labelled and
    # one unlabelled training world).  The tape sets the memory ceiling here.
    "ssl_paper": Workload(
        config={"world": {"grid_preset": "paper", "n_worlds": 4,
                          "val_worlds": 1, "test_worlds": 1}},
        setup_reps=3, eval_stride=2,
        ref_losses=((0.09156170950442699, 0.0, 0.0),
                    (0.08767106214178755, 0.0, 0.364350843247154)),
        ref_eval_frames=12),
}


class Checks:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(what)
        return ok


def config_hash(cfg: bench.ScenarioConfig) -> str:
    return hashlib.sha256(
        bench.canonical_json(cfg.to_dict()).encode()).hexdigest()[:16]


def build_trainer(cfg: bench.ScenarioConfig, seed: int) -> Trainer:
    """Dataset and trainer for one seed, mapped as `bench.run_one` maps them."""
    spec = bench.RunSpec(cfg.name, bench.scenario_variants(cfg)[0], seed, cfg)
    # a cached dataset would turn the next build into a lookup
    bench._DATASET_CACHE.clear()
    dataset = bench._build_run_dataset(spec)
    t = cfg.train
    augment = (spec.variant.augment if spec.variant.augment is not None
               else cfg.augment)
    if spec.variant.ssl:
        sup_augment = augment
    else:
        sup_augment = (augment if t.supervised_augment == "same"
                       else AugmentConfig.none())
    return Trainer(
        dataset, cfg.model, bench._weights_for(spec), augment,
        bench._pseudo_for(spec),
        OptimConfig(t.lr, t.wd, (t.beta1, t.beta2), t.ema_keep),
        seed=Stream(spec.seed).child("run").seed,
        total_steps=t.total_steps, ssl=spec.variant.ssl,
        batch_labelled=t.batch_labelled, batch_unlabelled=t.batch_unlabelled,
        supervised_augment=sup_augment)


def held_out_samples(trainer: Trainer) -> list:
    ds = trainer.dataset
    return [s for sid in ds.split.test for s in ds.sequences[sid].samples]


def reference_gate(trainer: Trainer, wl: Workload, checks: Checks) -> None:
    """Run the first steps at the reference seed and compare their losses."""
    for k, want in enumerate(wl.ref_losses):
        try:
            rep = trainer.train_step()
        except RUN_ERRORS as exc:
            checks.expect(False, f"reference step {k}: {exc}")
            continue
        got = tuple(getattr(rep, key) for key in LOSS_KEYS)
        checks.expect(
            all(math.isclose(g, w, rel_tol=LOSS_REL_TOL, abs_tol=LOSS_ABS_TOL)
                for g, w in zip(got, want)),
            f"reference step {k}: losses {got} != {want}")
    n = len(held_out_samples(trainer))
    checks.expect(n == wl.ref_eval_frames,
                  f"held-out frames {n} != {wl.ref_eval_frames}")


class FrameEval:
    """Times held-out frames: an untaped forward of the student plus an IoU
    update, as `Trainer.evaluate` and `bench.evaluate_pairs` do per frame."""

    def __init__(self, trainer: Trainer, wl: Workload, checks: Checks):
        self.trainer = trainer
        self.samples = held_out_samples(trainer)[::wl.eval_stride]
        self.checks = checks
        self.frame_ms: list[float] = []
        self._next = 0

    def frame(self, sample, acc: bench.IoUAccumulator, forward=model.forward):
        """Evaluate one frame into `acc`; returns its probabilities or None."""
        try:
            trace = forward(self.trainer.student, sample.observation, None,
                            None, self.trainer.model_cfg)
            acc.update(trace.prob_values, sample.gt.values)
        except RUN_ERRORS as exc:
            self.checks.expect(False, f"eval frame {sample.sequence_id}/"
                                      f"{sample.frame_index}: {exc}")
            return None
        self.checks.expect(True, "eval frame")
        return trace.prob_values

    def next_frame(self) -> None:
        """One timed frame during training, cycling through the held-out
        frames.  Only these frames are timed: spread over the window, they
        see the same machine as the steps, where a pass after training would
        see only its last second or two."""
        sample = self.samples[self._next % len(self.samples)]
        self._next += 1
        t0 = time.perf_counter()
        if self.frame(sample, bench.IoUAccumulator()) is not None:
            self.frame_ms.append((time.perf_counter() - t0) * 1000.0)

    def final_pass(self, tracer=None) -> float:
        """Every held-out frame after training; checks the counts against
        `bench.evaluate_pairs` and returns the test mIoU."""
        forward = model.forward
        if tracer is not None:
            forward = tracer.wrap("model.forward_eval", forward)
        acc = bench.IoUAccumulator()
        pairs = []
        step = self.trainer.step_count
        with tracing(tracer, "eval"):
            for s in self.samples:
                probs = self.frame(s, acc, forward)
                if probs is not None:
                    pairs.append((probs, s.gt.values))
            m = acc.metrics("test", step)
            # the program's own evaluation path must agree with the counts
            again = bench.evaluate_pairs(pairs, "test", step)
        self.checks.expect(
            (again.tp, again.fp, again.fn) == (m.tp, m.fp, m.fn),
            "evaluate_pairs disagrees with the accumulated counts")
        ious = [m.miou] + [v for v in m.per_class if v is not None]
        self.checks.expect(all(0.0 <= v <= 1.0 for v in ious),
                           f"IoU outside [0, 1]: {ious}")
        return m.miou


def train_loop(trainer: Trainer, seconds: float, checks: Checks,
               evals: FrameEval, tracer=None,
               ) -> tuple[list[float], float, list[float]]:
    """Consecutive steps until `seconds` pass, each followed by one timed
    held-out frame.

    Returns the wall time of each completed step after step 0 (which has no
    unsupervised branch, the ramp weight being 0), the sum of those times
    and, with a tracer, the times of the odd steps, which run traced; the
    even steps run untraced.  Alternating keeps the drift of the first steps
    out of the tracing overhead.
    """
    step_ms: list[float] = []
    traced_ms: list[float] = []
    deadline = time.perf_counter() + seconds
    while trainer.step_count < trainer.total_steps:
        step = trainer.step_count
        traced = tracer is not None and step % 2 == 1
        with tracing(tracer if traced else None, f"step{step}"):
            t0 = time.perf_counter()
            try:
                rep = (tracer.call("engine.train_step", trainer.train_step)
                       if traced else trainer.train_step())
            except RUN_ERRORS as exc:
                # the trainer would retry the same step; end the window
                checks.expect(False, f"step {step}: {exc}")
                break
            ms = (time.perf_counter() - t0) * 1000.0
        losses = [getattr(rep, key) for key in LOSS_KEYS]
        if (checks.expect(all(math.isfinite(v) for v in losses),
                          f"step {step}: non-finite losses {losses}")
                and step >= 1):
            (traced_ms if traced else step_ms).append(ms)
        evals.next_frame()
        if time.perf_counter() >= deadline:
            break
    return step_ms, sum(step_ms) / 1000.0, traced_ms


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> dict:
    """Set up, train for `seconds`, evaluate; returns measurements and checks.

    With a tracer, set-up, evaluation and every other training step run
    traced; the untraced steps give the end-to-end figures and, against the
    traced ones, the tracing overhead.
    """
    wl = WORKLOADS[name]
    cfg = bench.config_from_dict(wl.config)
    checks = Checks()
    setup_s = []

    def setup(s: int) -> Trainer:
        gc.collect()
        t0 = time.perf_counter()
        tr = build_trainer(cfg, s)
        setup_s.append(time.perf_counter() - t0)
        return tr

    with tracing(tracer, "setup"):
        trainer = setup(REFERENCE_SEED)
        reference_gate(trainer, wl, checks)
        for _ in range(wl.setup_reps - 1):
            trainer = None   # free the previous dataset before the next build
            trainer = setup(seed)
    evals = FrameEval(trainer, wl, checks)
    step_ms, step_s, traced_ms = train_loop(trainer, seconds, checks, evals,
                                            tracer)
    miou = evals.final_pass(tracer)
    frame_ms = evals.frame_ms
    checks.expect(bool(step_ms) and bool(frame_ms),
                  "no step or eval frame completed")

    n = len(step_ms)
    res = {
        "config_sha256": config_hash(cfg),
        "steps": n,
        "eval_frames": len(frame_ms),
        "test_miou": miou,
        "setup_s": statistics.median(setup_s),
        "step_ms_p50": statistics.median(step_ms) if n else math.nan,
        "step_ms_p90": (statistics.quantiles(step_ms, n=10,
                                             method="inclusive")[-1]
                        if n >= P90_MIN_STEPS else None),
        "steps_per_s": n / step_s if step_s > 0 else math.nan,
        "eval_frames_per_s": (1000.0 / statistics.median(frame_ms)
                              if frame_ms else math.nan),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "errors": checks.errors,
        "step_ms": step_ms,
        "traced_step_ms": traced_ms,
    }
    res["failed_frac"] = checks.failed / max(1, checks.attempted)
    return res
