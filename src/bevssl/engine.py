"""Teacher-student training: EMA weights, pseudo-map pipeline, temporal
teacher fusion, and the per-step training transaction.

The teacher is a copy of the student's parameters that never touches a
tape: its forwards are plain numeric evaluation, it holds no gradient, and
its weights move only through the EMA update.  It runs one frame at a
time: the current frame, then each fusion frame as `fuse_teacher` folds it
in and drops it, so one extra frame's trace is alive at most; only the
current frame's trace lives on into the student's loss.  Each sample of a
step gets a tape of its own that is backpropagated as soon as its loss
exists, so one sample's graph is alive at a time, and the per-sample
gradients add up in the order one tape over the whole step would add them.
Every random draw comes from a stream keyed by (seed, step, role), so
disabling one branch cannot perturb another and fixed seeds give
bit-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .augment import AugmentConfig, strong_augment
from .autograd import (ParamSet, Tape, Tensor, backward, forward_op,
                       optimizer_step)
from .errors import ConfigurationError, ContractError, check_fields
from .geometry import Pose2, Raster, relative_pose, warp_raster
from .losses import (LossMask, LossWeights, feature_similarity_loss,
                     focal_loss, rampup_weight, total_loss)
from .model import ForwardTrace, ModelConfig, forward, init_params
from .rng import Stream
from .world import Dataset, Sample

_IDENTITY = Pose2(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class SslConfig:
    """The config file's `ssl` section: the unsupervised loss weights and
    their ramp-up, the feature-similarity term, and the pseudo-label scheme.

    Defaults reproduce the final scheme: fusion of probabilities over two
    extra frames within 30 m, soft targets, confidence threshold 0.6."""

    w_cls: float = 1.0
    w_feat: float = 0.25
    rampup_fraction: float = 1.0 / 3.0
    feat_mode: str = "cosine"       # "cosine" | "mse"
    feat_level: str = "late"        # "early" | "late"
    threshold: float | None = 0.6
    temperature: float | None = None
    hard: bool = False
    fusion_mode: str = "probs"      # "none" | "probs" | "feats"
    fusion_extra: int = 2
    fusion_max_range: float = 30.0
    fusion_warp: str = "nearest"
    confidence: str = "two_sided"   # "two_sided" | "positive"

    def __post_init__(self):
        check_fields("ssl", self, (
            ("w_cls", self.w_cls >= 0, ">= 0"),
            ("w_feat", self.w_feat >= 0, ">= 0"),
            ("rampup_fraction", 0 < self.rampup_fraction <= 1, "in (0, 1]"),
            ("feat_mode", self.feat_mode in ("cosine", "mse"),
             "'cosine' or 'mse'"),
            ("feat_level", self.feat_level in ("early", "late"),
             "'early' or 'late'"),
            ("threshold", self.threshold is None or 0.5 <= self.threshold < 1,
             "in [0.5, 1) or None"),
            ("temperature", self.temperature is None or self.temperature > 0,
             "> 0 or None"),
            ("fusion_mode", self.fusion_mode in ("none", "probs", "feats"),
             "'none', 'probs' or 'feats'"),
            ("fusion_extra", self.fusion_extra >= 0, ">= 0"),
            ("fusion_max_range", self.fusion_max_range > 0, "> 0"),
            ("fusion_warp", self.fusion_warp in ("nearest", "bilinear"),
             "'nearest' or 'bilinear'"),
            ("confidence", self.confidence in ("two_sided", "positive"),
             "'two_sided' or 'positive'")))


@dataclass
class PseudoLabelBundle:
    targets: np.ndarray          # (3, rows, cols), soft in [0,1] or hard {0,1}
    mask: LossMask               # false where invalid or under-confident
    provenance: np.ndarray       # (3, rows, cols) source frame per cell/class


def ema_update(teacher: ParamSet, student: ParamSet,
               keep_rate: float) -> None:
    """theta_T <- a * theta_T + (1 - a) * theta_S, elementwise, with a the
    keep rate."""
    t_names, s_names = teacher.names(), student.names()
    if t_names != s_names:
        raise ContractError("teacher/student parameter names differ")
    for name in t_names:
        t, s = teacher[name], student[name]
        if t.values.shape != s.values.shape:
            raise ContractError(f"shape mismatch for '{name}'")
        t.values[...] = keep_rate * t.values + (1.0 - keep_rate) * s.values


def sharpen(logits, temperature: float):
    """Rescale logits by 1/T; T < 1 raises certainty, T > 1 lowers it."""
    if temperature <= 0:
        raise ConfigurationError(f"temperature must be positive, got {temperature}")
    return np.asarray(logits) / temperature


def prob_logit(p: np.ndarray) -> np.ndarray:
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.log(pc / (1.0 - pc))


def make_pseudo_labels(probs: Raster, cfg: SslConfig,
                       validity: np.ndarray | None = None,
                       provenance: np.ndarray | None = None,
                       ) -> PseudoLabelBundle:
    """Threshold on raw fused confidence, then sharpen/binarize targets.

    Confidence is two-sided, max(p, 1-p), unless configured positive-only;
    sharpening happens in logit space and never flips a cell across 0.5.
    """
    p = probs.values
    valid = probs.valid if validity is None else np.asarray(validity, bool)
    include = np.broadcast_to(valid, p.shape)
    if cfg.threshold is not None:
        conf = np.maximum(p, 1.0 - p) if cfg.confidence == "two_sided" else p
        include = include & (conf >= cfg.threshold)

    targets = p
    if cfg.temperature is not None:
        z = sharpen(prob_logit(p), cfg.temperature)
        targets = 1.0 / (1.0 + np.exp(-z))
    if cfg.hard:
        targets = (targets > 0.5).astype(np.float64)
    if provenance is None:
        provenance = np.full(p.shape, -1, dtype=np.int64)
    return PseudoLabelBundle(targets.copy(), LossMask(include.copy()),
                             provenance)


# ------------------------------------------------------------- fusion -----

def trajectory_distances(poses: list[Pose2]) -> np.ndarray:
    """Cumulative along-trajectory arc length per frame."""
    s = np.zeros(len(poses))
    for i in range(1, len(poses)):
        s[i] = s[i - 1] + math.hypot(poses[i].x - poses[i - 1].x,
                                     poses[i].y - poses[i - 1].y)
    return s


def draw_fusion_distance(stream: Stream, max_range: float) -> float:
    """Uniform on (0, max_range]."""
    return max_range * (1.0 - stream.uniform())


def select_fusion_frames(poses: list[Pose2], current_frame: int, n_extra: int,
                         max_range: float, stream: Stream,
                         ) -> list[tuple[int, Pose2]]:
    """Pick frames whose along-trajectory distance best matches draws uniform
    in (0, max_range], past or future.  Stationary spans contribute at most
    one frame; frames repeat only when the sequence is too short."""
    if n_extra <= 0 or len(poses) < 2:
        return []
    s = trajectory_distances(poses)
    reps = [j for j in range(len(poses)) if j == 0 or s[j] > s[j - 1]]
    candidates = [j for j in reps if j != current_frame]
    if not candidates:
        return []

    picks: list[int] = []
    used: set[int] = set()
    for k in range(n_extra):
        d = draw_fusion_distance(stream.child(f"dist{k}"), max_range)
        side = 1 if stream.child(f"side{k}").uniform() < 0.5 else -1
        target = s[current_frame] + side * d
        pool = [j for j in candidates
                if (s[j] > s[current_frame]) == (side > 0)
                and s[j] != s[current_frame]]
        if not pool:
            pool = candidates
        fresh = [j for j in pool if j not in used]
        if fresh:
            pool = fresh
        j = min(pool, key=lambda k: (abs(s[k] - target), k))
        picks.append(j)
        used.add(j)
    return [(j, relative_pose(poses[current_frame], poses[j])) for j in picks]


@dataclass
class FusionResult:
    probs: Raster
    provenance: np.ndarray               # (3, rows, cols)
    fused_feats: np.ndarray | None = None


def _in_frame_order(extras: Iterable[tuple[int, Pose2, ForwardTrace]]):
    """`extras` one at a time, checked to come in ascending frame index.
    A frame is dropped here once handed on, so a lazy `extras` computes the
    next trace only after the caller let go of the last one."""
    last = -math.inf
    for extra in extras:
        if extra[0] < last:
            raise ContractError("fusion frames must come in ascending "
                                "frame index")
        last = extra[0]
        yield extra
        del extra


def fuse_teacher(current: ForwardTrace,
                 extras: Iterable[tuple[int, Pose2, ForwardTrace]],
                 mode: str, spec, params: ParamSet | None = None,
                 current_index: int = 0,
                 warp_mode: str = "nearest") -> FusionResult:
    """Combine teacher predictions from nearby frames in the current frame.

    `extras` yields (frame index, pose in the current frame, trace) in
    ascending frame index and is folded in one frame at a time: given a lazy
    iterable, at most one extra frame's trace is alive.
    probs mode keeps, per cell and class, the prediction of maximal
    confidence |p - 0.5| (ties: current frame, then lower frame index).
    feats mode averages warped decoded features over valid contributors and
    re-applies the classification head.
    """
    cur_probs = current.prob_values
    prov = np.full(cur_probs.shape, current_index, dtype=np.int64)
    if mode == "none":
        return FusionResult(Raster(spec, cur_probs.copy()), prov)

    if mode == "probs":
        fused = cur_probs.copy()
        conf = np.abs(fused - 0.5)
        for fi, rel, trace in _in_frame_order(extras):
            warped = warp_raster(Raster(spec, trace.prob_values), rel,
                                 _IDENTITY, warp_mode)
            wconf = np.abs(warped.values - 0.5)
            take = warped.valid[None] & (wconf > conf)
            fused[take] = warped.values[take]
            conf[take] = wconf[take]
            prov[take] = fi
            del trace, warped   # before the next frame's trace is computed
        return FusionResult(Raster(spec, fused), prov)

    if mode != "feats":
        raise ConfigurationError(f"unknown fusion mode '{mode}'")
    if params is None:
        raise ContractError("feats fusion needs the teacher parameters")
    acc = current.decoded_feats.values[0].copy()
    count = np.ones((spec.rows, spec.cols))
    folded = False
    for fi, rel, trace in _in_frame_order(extras):
        warped = warp_raster(Raster(spec, trace.decoded_feats.values[0]),
                             rel, _IDENTITY, warp_mode)
        acc += warped.values        # an invalid cell comes back exactly 0
        count[warped.valid] += 1.0
        folded = True
        del trace, warped   # before the next frame's trace is computed
    if not folded:   # no extra frame: the current frame's own prediction
        return FusionResult(Raster(spec, cur_probs.copy()), prov)
    feats = acc / count
    # the model's head, untaped
    logits = forward_op("conv2d", Tensor(feats[None]),
                        params.leaf(None, "head.w"),
                        params.leaf(None, "head.b"))
    probs = forward_op("sigmoid", logits).values[0]
    return FusionResult(Raster(spec, probs), prov, feats)


# -------------------------------------------------------------- trainer ---

@dataclass(frozen=True)
class OptimConfig:
    lr: float = 3e-3
    wd: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    ema_keep: float = 0.99


@dataclass
class StepReport:
    step: int
    loss_total: float
    loss_sup: float
    loss_cls: float
    loss_feat: float
    w_cls: float
    w_feat: float
    pseudo_kept_frac: float


class Trainer:
    """One (student, optional teacher) pair bound to a dataset and configs."""

    def __init__(self, dataset: Dataset, model_cfg: ModelConfig,
                 weights: LossWeights, augment_cfg: AugmentConfig,
                 ssl_cfg: SslConfig, optim: OptimConfig,
                 seed: int, total_steps: int, ssl: bool = True, *,
                 batch_labelled: int, batch_unlabelled: int,
                 supervised_augment: AugmentConfig | None = None):
        if not dataset.split.labelled:
            raise ContractError("training requires at least one labelled sequence")
        if total_steps <= 0:
            raise ConfigurationError("total_steps must be positive")
        self.dataset = dataset
        self.model_cfg = model_cfg
        self.weights = weights
        self.augment_cfg = augment_cfg
        # the labelled student never takes the BEV dropout mask, so it
        # draws none
        self.sup_augment = replace(
            supervised_augment if supervised_augment is not None
            else augment_cfg, bevdrop=False)
        self.ssl_cfg = ssl_cfg
        self.optim = optim
        self.total_steps = total_steps
        self.ssl = ssl and bool(dataset.split.unlabelled)
        self.batch_labelled = batch_labelled
        self.batch_unlabelled = batch_unlabelled
        self.seed = seed

        self.student = init_params(model_cfg, seed)
        # the student's gradient, zeroed at the start of every step; the
        # teacher has none and moves only by `ema_update`
        self.grads = {name: np.zeros_like(p.values)
                      for name, p in self.student.items()}
        self.teacher = self.student.copy() if self.ssl else None
        self.step_count = 0

    def _pick(self, stream: Stream, seq_ids: list[int]) -> Sample:
        seq = self.dataset.sequences[seq_ids[stream.randint(len(seq_ids))]]
        return seq.samples[stream.randint(len(seq.samples))]

    def _fused_pseudo(self, sample: Sample, stream: Stream,
                      ) -> tuple[PseudoLabelBundle, ForwardTrace, FusionResult]:
        cfg = self.ssl_cfg
        seq = self.dataset.sequences[sample.sequence_id]
        sel: list[tuple[int, Pose2]] = []
        if cfg.fusion_mode != "none" and cfg.fusion_extra > 0:
            sel = select_fusion_frames(seq.poses, sample.frame_index,
                                       cfg.fusion_extra, cfg.fusion_max_range,
                                       stream.child("frames"))
        # the teacher sees the unaugmented observations (weak view), one
        # frame per forward; the extras are computed as fusion folds them in
        params, model_cfg = self.teacher, self.model_cfg
        cur = forward(params, sample.observation, None, None, model_cfg)
        extras = ((fi, rel, forward(params, seq.samples[fi].observation,
                                    None, None, model_cfg))
                  for fi, rel in sorted(sel, key=lambda e: e[0]))
        fusion = fuse_teacher(cur, extras, cfg.fusion_mode, self.dataset.spec,
                              params, sample.frame_index, cfg.fusion_warp)
        bundle = make_pseudo_labels(fusion.probs, cfg,
                                    provenance=fusion.provenance)
        return bundle, cur, fusion

    def train_step(self) -> StepReport:
        step = self.step_count
        if step >= self.total_steps:
            raise ContractError("training past total_steps")
        split = self.dataset.split
        if not split.labelled:
            raise ContractError("empty labelled batch")
        st = Stream(self.seed).child("train").child(step)
        cfg = self.ssl_cfg
        w_cls_eff = rampup_weight(step, self.total_steps, cfg.w_cls,
                                  cfg.rampup_fraction)
        w_feat_eff = rampup_weight(step, self.total_steps, cfg.w_feat,
                                   cfg.rampup_fraction)
        use_unsup = (self.ssl and self.teacher is not None
                     and (w_cls_eff > 0.0 or w_feat_eff > 0.0))
        if not use_unsup:   # no unsupervised branch applies a ramp weight
            w_cls_eff = w_feat_eff = 0.0

        # One tape per sample, backpropagated as soon as its loss exists, so
        # one sample's graph is alive at a time.  The branches run in the
        # reverse of their order in the objective, so each parameter
        # gradient adds its per-sample contributions in the order one tape
        # over the whole objective would add them.
        for g in self.grads.values():
            g.fill(0.0)
        n_unsup = self.batch_unlabelled if use_unsup else 0
        unsup = [self._unsup_branch(st.child(f"unsup{b}"), w_cls_eff,
                                    w_feat_eff)
                 for b in reversed(range(n_unsup))][::-1]
        sup = [self._sup_branch(st.child(f"sup{b}"))
               for b in reversed(range(self.batch_labelled))][::-1]
        # the objective's value, summed in its order from the branch values
        _, breakdown = total_loss(
            [Tensor(v) for v in sup], [Tensor(u[0]) for u in unsup],
            [Tensor(u[1]) for u in unsup if w_feat_eff > 0.0],
            w_cls_eff, w_feat_eff)
        kept = sum(u[2] for u in unsup)
        total_cells = sum(u[3] for u in unsup)

        optimizer_step(self.student, self.grads, self.optim.lr,
                       self.optim.wd, self.optim.betas, step + 1)
        if self.teacher is not None:
            ema_update(self.teacher, self.student, self.optim.ema_keep)
        self.step_count += 1
        return StepReport(step, breakdown["loss_total"], breakdown["loss_sup"],
                          breakdown["loss_cls"], breakdown["loss_feat"],
                          w_cls_eff, w_feat_eff,
                          kept / total_cells if total_cells else 0.0)

    def _sup_branch(self, sb: Stream) -> float:
        """One labelled sample's focal loss, backpropagated on its own tape;
        returns the loss value."""
        sample = self._pick(sb.child("pick"), self.dataset.split.labelled)
        view, fov, _ = strong_augment(sample.observation, self.sup_augment,
                                      sb.child("aug"))
        trace = forward(self.student, view, None, Tape(), self.model_cfg)
        loss, _ = focal_loss(trace.probs, sample.gt.values[None],
                             fov.include[None], self.weights.focal_gamma,
                             self.weights.focal_alpha)
        if loss.tape is not None:   # untaped when every cell is masked out
            backward(loss, self.grads)
        return loss.item()

    def _unsup_branch(self, su: Stream, w_cls: float, w_feat: float,
                      ) -> tuple[float, float, int, int]:
        """One unlabelled sample's pseudo-label and feature terms, weighted
        and backpropagated on their own tape.  Returns the two unweighted
        values (the feature term 0 when it is off), the included cells and
        the candidate cells."""
        sample = self._pick(su.child("pick"), self.dataset.split.unlabelled)
        bundle, cur_trace, fusion = self._fused_pseudo(sample,
                                                       su.child("fusion"))
        # the feature target is all the student needs of the teacher's
        # trace and fusion, so both are dropped before its forward
        target = self._feat_target(cur_trace, fusion) if w_feat > 0.0 else None
        del cur_trace, fusion
        view, fov, drop = strong_augment(sample.observation, self.augment_cfg,
                                         su.child("aug"))
        trace = forward(self.student, view, drop, Tape(), self.model_cfg)
        mask = bundle.mask.intersect(fov)
        cls, n_inc = focal_loss(trace.probs, bundle.targets[None],
                                mask.include[None], self.weights.focal_gamma,
                                self.weights.focal_alpha)
        feat = ([self._feat_term(trace, target)]
                if target is not None else [])
        loss, parts = total_loss([], [cls], feat, w_cls, w_feat)
        if loss.tape is not None:   # untaped when every cell is masked out
            backward(loss, self.grads)
        return parts["loss_cls"], parts["loss_feat"], n_inc, mask.include.size

    def _feat_target(self, teacher_trace: ForwardTrace,
                     fusion: FusionResult) -> np.ndarray:
        """The teacher's features at the configured tap: the fused map
        under feats fusion with the late tap."""
        cfg = self.ssl_cfg
        if cfg.feat_level == "early":
            return teacher_trace.bev_feats.values
        if cfg.fusion_mode == "feats" and fusion.fused_feats is not None:
            return fusion.fused_feats[None]
        return teacher_trace.decoded_feats.values

    def _feat_term(self, student_trace: ForwardTrace, target: np.ndarray):
        s_tap = (student_trace.bev_feats if self.ssl_cfg.feat_level == "early"
                 else student_trace.decoded_feats)
        return feature_similarity_loss(s_tap, target, self.ssl_cfg.feat_mode)
