import math
import tracemalloc
import weakref

import numpy as np
import pytest

from bevssl import augment, engine
from bevssl.augment import AugmentConfig, bevdrop_mask, strong_augment
from bevssl.autograd import Tape, Tensor, backward, optimizer_step
from bevssl.engine import (OptimConfig, SslConfig, StepReport, Trainer,
                           draw_fusion_distance, ema_update, fuse_teacher,
                           make_pseudo_labels, prob_logit,
                           select_fusion_frames, sharpen,
                           trajectory_distances)
from bevssl.errors import ConfigurationError, ContractError
from bevssl.geometry import GridSpec, Pose2, Raster, SMALL_GRID, warp_raster
from bevssl.losses import LossWeights, focal_loss, rampup_weight, total_loss
from bevssl.model import ForwardTrace, ModelConfig, forward, init_params
from bevssl.rng import Stream
from bevssl.world import CITY_A, Sample, build_dataset

from helpers_dense import dense_forward
from helpers_fd import zero_grads
from helpers_geo import fuse_probs_bruteforce, random_pose, random_prob_raster

TINY = ModelConfig(enc_widths=(4, 6), lift_channels=8, dec_widths=(4, 6))
TRACE_FIELDS = ("encoder_feats", "bev_feats", "decoded_feats", "logits",
                "probs")


def _param_sets(seed=1):
    return init_params(TINY, seed), init_params(TINY, seed + 1)


# --------------------------------------------------------------------- EMA --

def test_ema_keep_rate_one_freezes_teacher():
    student, teacher = _param_sets()
    before = {name: p.values.copy() for name, p in teacher.items()}
    ema_update(teacher, student, 1.0)
    for name, val in before.items():
        assert np.array_equal(teacher[name].values, val)


def test_ema_keep_rate_zero_copies_student():
    student, teacher = _param_sets()
    ema_update(teacher, student, 0.0)
    for name in student.names():
        assert np.array_equal(teacher[name].values, student[name].values)


def test_ema_geometric_decay_closed_form():
    student, teacher = _param_sets(3)
    for name in student.names():
        student[name].values[...] = 0.0
        teacher[name].values[...] = 1.0
    for alpha in (0.9, 0.99, 0.999):
        for name in teacher.names():
            teacher[name].values[...] = 1.0
        for k in range(1, 201):
            ema_update(teacher, student, alpha)
            expect = alpha ** k
            err = np.abs(teacher["head.w"].values - expect).max()
            assert err < 1e-12, (alpha, k, err)


def test_ema_scalar_example():
    student, teacher = _param_sets(5)
    name = student.names()[0]
    student[name].values[...] = 0.0
    teacher[name].values[...] = 1.0
    ema_update(teacher, student, 0.9)
    assert abs(teacher[name].values.flat[0] - 0.9) < 1e-15


def test_ema_mismatched_names_rejected():
    student, teacher = _param_sets()
    other = init_params(ModelConfig(enc_widths=(4,), lift_channels=8,
                                    dec_widths=(4,)), 2)
    with pytest.raises(ContractError):
        ema_update(other, student, 0.99)


def test_ema_leaves_optimizer_state_untouched():
    """The EMA moves values only: a teacher holds no optimizer moments
    before or after an update."""
    student, teacher = _param_sets()
    optimizer_step(student, zero_grads(student), 1e-3, 0.0, (0.9, 0.999))
    ema_update(teacher, student, 0.9)
    for _, p in teacher.items():
        assert p.m is None and p.v is None


# ----------------------------------------------------------------- sharpen --

def test_sharpen_temperature_one_is_bitwise_identity():
    z = Stream(1).uniforms(100, -4, 4)
    assert np.array_equal(sharpen(z, 1.0), z)


def test_sharpen_example_values():
    z = np.array([2.0])
    zs = sharpen(z, 0.5)
    assert zs[0] == 4.0
    p_before = 1.0 / (1.0 + math.exp(-2.0))
    p_after = 1.0 / (1.0 + math.exp(-4.0))
    assert abs(p_before - 0.8808) < 1e-4
    assert abs(p_after - 0.9820) < 1e-4


def test_sharpen_monotonicity_both_directions():
    z = Stream(2).uniforms(10_000, -6, 6)
    z = z[np.abs(z) > 1e-9]
    p1 = 1.0 / (1.0 + np.exp(-z))
    p_lo = 1.0 / (1.0 + np.exp(-sharpen(z, 0.5)))
    p_hi = 1.0 / (1.0 + np.exp(-sharpen(z, 2.0)))
    assert (np.abs(p_lo - 0.5) > np.abs(p1 - 0.5)).all()
    assert (np.abs(p_hi - 0.5) < np.abs(p1 - 0.5)).all()


def test_sharpen_rejects_nonpositive_temperature():
    with pytest.raises(ConfigurationError):
        sharpen(np.zeros(3), 0.0)
    with pytest.raises(ConfigurationError):
        SslConfig(temperature=-1.0)


# ----------------------------------------------------------- pseudo labels --

def _prob_raster(values):
    vals = np.asarray(values, dtype=float)
    spec = GridSpec(0.0, vals.shape[1] * 1.0, 0.0, vals.shape[2] * 1.0, 1.0)
    return Raster(spec, vals)


def test_threshold_two_sided_cases():
    probs = _prob_raster([[[0.61, 0.55, 0.2]]])
    cfg = SslConfig(threshold=0.6, fusion_mode="none")
    bundle = make_pseudo_labels(probs, cfg)
    assert bundle.mask.include[0, 0].tolist() == [True, False, True]
    assert bundle.targets[0, 0, 0] == 0.61
    assert bundle.targets[0, 0, 2] == 0.2


def test_threshold_positive_only_variant():
    probs = _prob_raster([[[0.61, 0.55, 0.2]]])
    cfg = SslConfig(threshold=0.6, fusion_mode="none",
                            confidence="positive")
    bundle = make_pseudo_labels(probs, cfg)
    assert bundle.mask.include[0, 0].tolist() == [True, False, False]


def test_hard_mode_binarizes():
    probs = _prob_raster([[[0.7, 0.3, 0.5]]])
    cfg = SslConfig(threshold=None, hard=True, fusion_mode="none")
    bundle = make_pseudo_labels(probs, cfg)
    assert bundle.targets[0, 0].tolist() == [1.0, 0.0, 0.0]
    assert set(np.unique(bundle.targets)) <= {0.0, 1.0}
    assert bundle.mask.include.all()


def test_masked_count_matches_bruteforce():
    for case in range(100):
        st = Stream(3000 + case)
        p = st.uniforms(3 * 6 * 6, 0.01, 0.99).reshape(3, 6, 6)
        valid = st.uniforms(36).reshape(6, 6) < 0.85
        tau = st.uniform(0.5, 0.95)
        cfg = SslConfig(threshold=tau, fusion_mode="none")
        bundle = make_pseudo_labels(
            Raster(GridSpec(0, 6, 0, 6, 1.0), p, valid), cfg)
        count = 0
        for c in range(3):
            for r in range(6):
                for q in range(6):
                    if valid[r, q] and max(p[c, r, q], 1 - p[c, r, q]) >= tau:
                        count += 1
        assert bundle.mask.count == count


def test_validity_always_excludes():
    probs = _prob_raster([[[0.99, 0.99]]])
    probs.valid[0, 1] = False
    cfg = SslConfig(threshold=None, fusion_mode="none")
    bundle = make_pseudo_labels(probs, cfg)
    assert bundle.mask.include[0, 0].tolist() == [True, False]


def test_sharpening_applied_to_targets_in_logit_space():
    probs = _prob_raster([[[0.8]]])
    cfg = SslConfig(threshold=None, temperature=0.5,
                            fusion_mode="none")
    bundle = make_pseudo_labels(probs, cfg)
    z = prob_logit(np.array(0.8)) / 0.5
    assert abs(bundle.targets[0, 0, 0] - 1.0 / (1.0 + np.exp(-z))) < 1e-12
    assert bundle.targets[0, 0, 0] > 0.8


# --------------------------------------------------------- frame selection --

def _poses_line(xs):
    return [Pose2(float(x), 0.0, 0.0) for x in xs]


def test_select_none_when_no_extras():
    assert select_fusion_frames(_poses_line([0, 1, 2]), 0, 0, 30.0,
                                Stream(1)) == []


def test_select_stationary_sequence_gives_identity_poses():
    poses = [Pose2(2.0, 1.0, 0.5)] * 6
    sel = select_fusion_frames(poses, 3, 2, 30.0, Stream(2))
    assert sel  # the single representative of the span
    for fi, rel in sel:
        assert abs(rel.x) < 1e-12 and abs(rel.y) < 1e-12
        assert abs(rel.yaw) < 1e-12


def test_select_distances_within_range():
    st = Stream(3)
    for _ in range(1000):
        assert 0.0 < draw_fusion_distance(st, 30.0) <= 30.0


def test_select_prefers_frames_near_draw():
    poses = _poses_line([0, 5, 10, 15, 20, 40, 80])
    s = trajectory_distances(poses)
    assert s.tolist() == [0, 5, 10, 15, 20, 40, 80]
    sel = select_fusion_frames(poses, 0, 2, 30.0, Stream(4))
    for fi, rel in sel:
        # along-trajectory distance of chosen frames bounded by grid of draws
        assert 0 < s[fi] <= 80
    assert len({fi for fi, _ in sel}) == len(sel)  # no duplicates when roomy


def test_select_stationary_span_contributes_once():
    poses = _poses_line([0, 10, 10, 10, 20])
    sel = select_fusion_frames(poses, 0, 4, 25.0, Stream(5))
    chosen = [fi for fi, _ in sel]
    span = {j for j in chosen if math.isclose(
        trajectory_distances(poses)[j], 10.0)}
    assert span <= {1}  # only the first frame of the 10 m span is eligible


# ------------------------------------------------------------------ fusion --

def _trace_from_probs(probs: np.ndarray) -> ForwardTrace:
    t = Tensor(probs[None])
    return ForwardTrace(t, t, t, Tensor(prob_logit(probs)[None]), t)


def test_fusion_no_extras_returns_current():
    spec = GridSpec(-4, 4, -4, 4, 0.5)
    probs = random_prob_raster(Stream(6), spec).values
    out = fuse_teacher(_trace_from_probs(probs), [], "probs", spec)
    assert np.array_equal(out.probs.values, probs)
    assert (out.provenance == 0).all()


def test_fusion_max_confidence_rule():
    spec = GridSpec(0, 1, 0, 1, 1.0)
    cur = np.full((3, 1, 1), 0.6)
    hi = np.full((3, 1, 1), 0.9)
    lo = np.full((3, 1, 1), 0.1)
    for extra_p, expect in ((hi, 0.9), (lo, 0.1)):
        out = fuse_teacher(_trace_from_probs(cur),
                           [(1, Pose2(0, 0, 0), _trace_from_probs(extra_p))],
                           "probs", spec, current_index=0)
        assert out.probs.values[0, 0, 0] == expect
        assert (out.provenance == 1).all()
    # equal confidence: current frame wins the tie
    tie = np.full((3, 1, 1), 0.4)
    cur2 = np.full((3, 1, 1), 0.6)
    out = fuse_teacher(_trace_from_probs(cur2),
                       [(1, Pose2(0, 0, 0), _trace_from_probs(tie))],
                       "probs", spec, current_index=0)
    assert out.probs.values[0, 0, 0] == 0.6
    assert (out.provenance == 0).all()


def test_fusion_matches_bruteforce_enumerator():
    spec = GridSpec(-4.0, 4.0, -4.0, 4.0, 0.5)  # 16 x 16
    for case in range(25):
        st = Stream(5000 + case)
        cur = random_prob_raster(st, spec).values
        extras = []
        for fi in (1, 2):
            pose = random_pose(st, span=3.0)
            extras.append((fi, pose, random_prob_raster(st, spec).values))
        got = fuse_teacher(
            _trace_from_probs(cur),
            [(fi, pose, _trace_from_probs(p)) for fi, pose, p in extras],
            "probs", spec, current_index=0)
        want_vals, want_prov = fuse_probs_bruteforce(spec, cur, 0, extras)
        assert np.array_equal(got.probs.values, want_vals)
        assert np.array_equal(got.provenance, want_prov)


def test_fusion_probs_honours_bilinear_warp():
    spec = GridSpec(-4.0, 4.0, -4.0, 4.0, 0.5)
    bilinear = lambda src, a, b: warp_raster(src, a, b, "bilinear")
    for case in range(10):
        st = Stream(5500 + case)
        cur = random_prob_raster(st, spec).values
        extras = [(fi, random_pose(st, span=3.0),
                   random_prob_raster(st, spec).values) for fi in (1, 2)]
        got = fuse_teacher(
            _trace_from_probs(cur),
            [(fi, pose, _trace_from_probs(p)) for fi, pose, p in extras],
            "probs", spec, current_index=0, warp_mode="bilinear")
        want_vals, want_prov = fuse_probs_bruteforce(spec, cur, 0, extras,
                                                     warp=bilinear)
        assert np.array_equal(got.probs.values, want_vals)
        assert np.array_equal(got.provenance, want_prov)


def test_fusion_dominance_confidence_never_decreases():
    spec = GridSpec(-4.0, 4.0, -4.0, 4.0, 0.5)
    for case in range(10):
        st = Stream(6000 + case)
        cur = random_prob_raster(st, spec).values
        extras = [(fi, random_pose(st, 2.0),
                   _trace_from_probs(random_prob_raster(st, spec).values))
                  for fi in (1, 2)]
        out = fuse_teacher(_trace_from_probs(cur), extras, "probs", spec)
        assert (np.abs(out.probs.values - 0.5) >= np.abs(cur - 0.5) - 1e-15).all()


def test_fusion_feats_mode_averages_and_reapplies_head():
    params = init_params(TINY, 3)
    spec = SMALL_GRID
    obs = Stream(7).uniforms(5 * 96 * 32).reshape(5, 96, 32)
    cur = forward(params, obs, None, None, TINY)
    # identical extra frame at identity pose: average equals current features
    out = fuse_teacher(cur, [(1, Pose2(0, 0, 0), cur)], "feats", spec,
                       params=params)
    assert np.allclose(out.fused_feats, cur.decoded_feats.values[0],
                       atol=1e-12)
    assert np.allclose(out.probs.values, cur.prob_values, atol=1e-10)


@pytest.mark.parametrize("cfg", [TINY, ModelConfig()], ids=["tiny", "default"])
@pytest.mark.parametrize("warp", ["nearest", "bilinear"])
def test_feats_fusion_of_a_frame_with_itself_is_its_prediction(cfg, warp):
    """Fused with itself at the identity pose, a frame's decoded features
    average to themselves, and the head fusion re-applies is the model's:
    the fused probabilities are the frame's own to 1e-14 relative."""
    params = init_params(cfg, 4)
    obs = Stream(8).uniforms(5 * 96 * 32).reshape(5, 96, 32)
    cur = forward(params, obs, None, None, cfg)
    out = fuse_teacher(cur, [(1, Pose2(0, 0, 0), cur)], "feats", SMALL_GRID,
                       params=params, warp_mode=warp)
    assert np.array_equal(out.fused_feats, cur.decoded_feats.values[0])
    rel = np.abs(out.probs.values - cur.prob_values) / cur.prob_values
    assert rel.max() <= 1e-14


# ----------------------------------------------------------------- trainer --

def _tiny_dataset(seed=11):
    return build_dataset(SMALL_GRID, CITY_A, seed, n_worlds=6,
                         seqs_per_world=1, n_frames=5, utilisation=0.5,
                         val_worlds=1, test_worlds=2)


def _mk_trainer(ds, ssl=True, seed=21, ssl_cfg=None, total=50, cls=Trainer,
                batch_labelled=1, batch_unlabelled=1):
    return cls(ds, TINY, LossWeights(), AugmentConfig(),
               ssl_cfg or SslConfig(), OptimConfig(), seed=seed,
               total_steps=total, ssl=ssl, batch_labelled=batch_labelled,
               batch_unlabelled=batch_unlabelled)


def test_trainer_deterministic_loss_trajectory():
    ds = _tiny_dataset()
    t1, t2 = _mk_trainer(ds), _mk_trainer(ds)
    for _ in range(6):
        r1, r2 = t1.train_step(), t2.train_step()
        assert r1.loss_total == r2.loss_total
    for name in t1.student.names():
        assert np.array_equal(t1.student[name].values, t2.student[name].values)


def test_trainer_zero_weights_match_supervised_bitwise():
    ds = _tiny_dataset()
    ssl = _mk_trainer(ds, ssl=True,
                      ssl_cfg=SslConfig(w_cls=0.0, w_feat=0.0))
    sup = _mk_trainer(ds, ssl=False)
    for _ in range(8):
        ssl.train_step()
        sup.train_step()
    for name in ssl.student.names():
        assert np.array_equal(ssl.student[name].values,
                              sup.student[name].values)


def test_trainer_step_zero_gradient_is_supervised_only():
    ds = _tiny_dataset()
    a = _mk_trainer(ds, ssl=True)
    b = _mk_trainer(ds, ssl=False)
    ra, rb = a.train_step(), b.train_step()
    assert ra.w_cls == 0.0  # ramp starts at zero
    assert ra.loss_sup == rb.loss_sup
    name = a.student.names()[0]
    assert np.array_equal(a.student[name].values, b.student[name].values)


def test_only_the_unlabelled_student_draws_a_bev_dropout_mask(monkeypatch):
    """With two labelled samples and one unlabelled, an SSL step draws one
    mask: the labelled student never takes it."""
    ds = _tiny_dataset()
    tr = _mk_trainer(ds, batch_labelled=2)
    tr.step_count = 1   # past the ramp's zero, so the unlabelled branch runs
    calls = []

    def spy(*args):
        calls.append(args)
        return bevdrop_mask(*args)
    monkeypatch.setattr(augment, "bevdrop_mask", spy)
    assert tr.train_step().w_cls > 0.0
    assert len(calls) == 1


def test_trainer_reports_only_the_ramp_weights_it_applies():
    ds = _tiny_dataset()
    no_pool = build_dataset(SMALL_GRID, CITY_A, 11, n_worlds=6,
                            seqs_per_world=1, n_frames=5, utilisation=1.0,
                            val_worlds=1, test_worlds=2)
    # no unsupervised branch: a supervised run, or no unlabelled frames
    for trainer in (_mk_trainer(ds, ssl=False, total=6),
                    _mk_trainer(no_pool, ssl=True, total=6)):
        reports = [trainer.train_step() for _ in range(6)]
        assert [(r.w_cls, r.w_feat) for r in reports] == [(0.0, 0.0)] * 6
    ssl = _mk_trainer(ds, ssl=True, total=6)
    cfg = ssl.ssl_cfg
    for step in range(6):
        r = ssl.train_step()
        assert (r.w_cls, r.w_feat) == (
            rampup_weight(step, 6, cfg.w_cls, cfg.rampup_fraction),
            rampup_weight(step, 6, cfg.w_feat, cfg.rampup_fraction))
    assert r.w_cls == cfg.w_cls and r.w_feat == cfg.w_feat


def test_trainer_full_threshold_masks_everything():
    ds = _tiny_dataset()
    tr = Trainer(ds, TINY, LossWeights(), AugmentConfig(),
                 SslConfig(threshold=0.999), OptimConfig(), seed=5,
                 total_steps=50, ssl=True, batch_labelled=1,
                 batch_unlabelled=1)
    for _ in range(3):
        rep = tr.train_step()
    assert rep.loss_cls == 0.0
    assert rep.pseudo_kept_frac < 0.7  # early teacher is uncertain
    assert rep.loss_feat != 0.0        # feature term still active


def test_trainer_teacher_isolated_from_gradients():
    """The trainer's gradient dict holds the student's names and nothing
    else; neither parameter set has a gradient slot, and the teacher moves
    only by the EMA of the student's new weights."""
    ds = _tiny_dataset()
    tr = _mk_trainer(ds)
    tr.step_count = 1   # past the ramp's zero, so the unlabelled branch runs
    before = {name: p.values.copy() for name, p in tr.teacher.items()}
    rep = tr.train_step()
    assert rep.w_cls > 0.0
    assert list(tr.grads) == tr.student.names()
    assert any(g.any() for g in tr.grads.values())
    alpha = tr.optim.ema_keep
    for name, p in tr.teacher.items():
        assert not hasattr(p, "grad") and not hasattr(tr.student[name], "grad")
        assert np.array_equal(p.values, alpha * before[name]
                              + (1.0 - alpha) * tr.student[name].values)
        # teacher moved only through EMA: close to, but not equal to, start
        assert np.allclose(p.values, before[name], atol=1e-2)


def test_trainer_requires_labelled_data():
    ds = _tiny_dataset()
    ds.split.labelled, ds.split.unlabelled = [], ds.split.labelled
    with pytest.raises(ContractError):
        _mk_trainer(ds)


def test_trainer_teacher_tracks_student_ema():
    ds = _tiny_dataset()
    tr = _mk_trainer(ds)
    tr.train_step()
    alpha = tr.optim.ema_keep
    name = tr.student.names()[-1]
    init = init_params(TINY, 21)  # same seed as trainer student
    expect = alpha * init[name].values + (1 - alpha) * tr.student[name].values
    assert np.allclose(tr.teacher[name].values, expect, atol=1e-12)


def _root(a: np.ndarray) -> np.ndarray:
    """The array that owns the buffer under `a`."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _held_bytes(arrays) -> int:
    """Bytes of the distinct buffers under `arrays`."""
    return sum({id(r): r.nbytes for r in map(_root, arrays)}.values())


def test_fused_pseudo_current_trace_owns_one_frame(monkeypatch):
    """One teacher forward per frame, the current frame first.  The extras
    are computed as fusion folds them in, and each is dropped once folded:
    with six extras, no earlier extra frame's trace is alive when the next
    one is computed."""
    ds = _tiny_dataset()
    tr = _mk_trainer(ds, ssl_cfg=SslConfig(fusion_mode="feats", fusion_extra=6,
                                           fusion_warp="bilinear"))
    seen, alive_before, buffers = [], [], []

    def spy(params, obs, *args):
        seen.append(obs)
        alive_before.append(sum(any(r() is not None for r in refs)
                                for refs in buffers[1:]))
        trace = forward(params, obs, *args)
        buffers.append([weakref.ref(_root(getattr(trace, f).values))
                        for f in TRACE_FIELDS])
        return trace

    monkeypatch.setattr(engine, "forward", spy)
    sample = ds.sequences[ds.split.unlabelled[0]].samples[2]
    _, cur, _ = tr._fused_pseudo(sample, Stream(3).child("fusion"))
    assert len(seen) == 1 + 6
    assert np.array_equal(seen[0].values, sample.observation.values)
    assert all(obs.values.ndim == 3 for obs in seen)
    assert alive_before == [0] * 7
    assert not any(r() is not None for refs in buffers[1:] for r in refs)
    solo = forward(tr.teacher, sample.observation, None, None, TINY)
    for field in TRACE_FIELDS:
        assert np.array_equal(getattr(cur, field).values,
                              getattr(solo, field).values), field


def test_fusion_feats_matches_masked_accumulation():
    """feats fusion adds every warped map whole: an invalid warped cell is
    exactly 0, so the sum equals adding the valid cells alone, bit for bit."""
    spec = GridSpec(-4.0, 4.0, -4.0, 4.0, 0.5)
    params = init_params(TINY, 4)
    for case in range(10):
        st = Stream(7000 + case)
        maps = [st.uniforms(6 * 16 * 16).reshape(1, 6, 16, 16)
                for _ in range(3)]
        poses = [random_pose(st, span=3.0) for _ in range(2)]
        traces = [ForwardTrace(None, None, Tensor(m), None,
                               Tensor(np.full((1, 3, 16, 16), 0.5)))
                  for m in maps]
        got = fuse_teacher(traces[0], [(1, poses[0], traces[1]),
                                       (2, poses[1], traces[2])],
                           "feats", spec, params, 0, "bilinear")
        acc, count = maps[0][0].copy(), np.ones((16, 16))
        for m, pose in zip(maps[1:], poses):
            w = warp_raster(Raster(spec, m[0]), pose, Pose2(), "bilinear")
            acc[:, w.valid] += w.values[:, w.valid]
            count[w.valid] += 1.0
        assert count.max() > 1.0
        assert np.array_equal(got.fused_feats, acc / count), case


def test_fusion_rejects_frames_out_of_order():
    spec = GridSpec(0, 1, 0, 1, 1.0)
    trace = _trace_from_probs(np.full((3, 1, 1), 0.6))
    with pytest.raises(ContractError, match="frame index"):
        fuse_teacher(trace, [(2, Pose2(), trace), (1, Pose2(), trace)],
                     "probs", spec)


# -------------------------------------- reference: one tape over the step --
# The training step as it was before each sample got a tape of its own: one
# batched teacher pass over the current and fusion frames, every sample on
# one tape, one backward.  The per-sample step must reproduce it bit for bit.

def _ref_trace_view(trace: ForwardTrace, k: int,
                    copy: bool = False) -> ForwardTrace:
    def pick(t: Tensor) -> Tensor:
        v = t.values[k:k + 1]
        return Tensor(v.copy() if copy else v)
    return ForwardTrace(*(pick(getattr(trace, f)) for f in TRACE_FIELDS))


class _OneTapeTrainer(Trainer):
    def _fused_pseudo(self, sample, stream):
        cfg = self.ssl_cfg
        seq = self.dataset.sequences[sample.sequence_id]
        sel = []
        if cfg.fusion_mode != "none" and cfg.fusion_extra > 0:
            sel = select_fusion_frames(seq.poses, sample.frame_index,
                                       cfg.fusion_extra, cfg.fusion_max_range,
                                       stream.child("frames"))
        frames = [sample] + [seq.samples[fi] for fi, _ in sel]
        batch = np.stack([f.observation.values for f in frames])
        bt = forward(self.teacher, batch, None, None, self.model_cfg)
        cur = _ref_trace_view(bt, 0, copy=True)
        extras = sorted(((fi, rel, _ref_trace_view(bt, k + 1))
                         for k, (fi, rel) in enumerate(sel)),
                        key=lambda e: e[0])
        fusion = fuse_teacher(cur, extras, cfg.fusion_mode, self.dataset.spec,
                              self.teacher, sample.frame_index,
                              cfg.fusion_warp)
        bundle = make_pseudo_labels(fusion.probs, cfg,
                                    provenance=fusion.provenance)
        return bundle, cur, fusion

    def train_step(self):
        step = self.step_count
        split = self.dataset.split
        st = Stream(self.seed).child("train").child(step)
        tape = Tape()
        sup_terms = []
        for b in range(self.batch_labelled):
            sb = st.child(f"sup{b}")
            sample = self._pick(sb.child("pick"), split.labelled)
            view, fov, _ = strong_augment(sample.observation, self.sup_augment,
                                          sb.child("aug"))
            trace = forward(self.student, view, None, tape, self.model_cfg)
            loss, _ = focal_loss(trace.probs, sample.gt.values[None],
                                 fov.include[None], self.weights.focal_gamma,
                                 self.weights.focal_alpha)
            sup_terms.append(loss)
        cls_terms, feat_terms = [], []
        kept = total_cells = 0
        cfg = self.ssl_cfg
        w_cls = rampup_weight(step, self.total_steps, cfg.w_cls,
                              cfg.rampup_fraction)
        w_feat = rampup_weight(step, self.total_steps, cfg.w_feat,
                               cfg.rampup_fraction)
        if self.ssl and (w_cls > 0.0 or w_feat > 0.0):
            for b in range(self.batch_unlabelled):
                su = st.child(f"unsup{b}")
                sample = self._pick(su.child("pick"), split.unlabelled)
                bundle, cur_trace, fusion = self._fused_pseudo(
                    sample, su.child("fusion"))
                view, fov, drop = strong_augment(
                    sample.observation, self.augment_cfg, su.child("aug"))
                trace = forward(self.student, view, drop, tape, self.model_cfg)
                mask = bundle.mask.intersect(fov)
                loss, n_inc = focal_loss(trace.probs, bundle.targets[None],
                                         mask.include[None],
                                         self.weights.focal_gamma,
                                         self.weights.focal_alpha)
                cls_terms.append(loss)
                kept += n_inc
                total_cells += mask.include.size
                if w_feat > 0.0:
                    feat_terms.append(self._feat_term(
                        trace, self._feat_target(cur_trace, fusion)))
        total, parts = total_loss(sup_terms, cls_terms, feat_terms, w_cls,
                                  w_feat)
        grads = zero_grads(self.student)
        backward(total, grads)
        optimizer_step(self.student, grads, self.optim.lr, self.optim.wd,
                       self.optim.betas, step + 1)
        ema_update(self.teacher, self.student, self.optim.ema_keep)
        self.step_count += 1
        return StepReport(step, parts["loss_total"], parts["loss_sup"],
                          parts["loss_cls"], parts["loss_feat"], w_cls, w_feat,
                          kept / total_cells if total_cells else 0.0)


# (ssl overrides, batch_labelled, batch_unlabelled)
_STEP_CASES = {
    "fusion-none": (dict(fusion_mode="none"), 1, 1),
    "probs-nearest-mse-early": (dict(threshold=None, feat_mode="mse",
                                     feat_level="early"), 2, 2),
    "probs-bilinear-early": (dict(fusion_warp="bilinear",
                                  feat_level="early"), 3, 1),
    "feats-nearest-mse": (dict(fusion_mode="feats", feat_mode="mse"), 1, 2),
    "feats-bilinear-6": (dict(fusion_mode="feats", fusion_warp="bilinear",
                              fusion_extra=6, threshold=None), 2, 1),
    "untaped-branch": (dict(threshold=0.999, w_feat=0.0), 1, 2),
}


@pytest.mark.parametrize("case", list(_STEP_CASES))
def test_step_matches_one_tape_reference(case):
    overrides, n_lab, n_unl = _STEP_CASES[case]
    ds = _tiny_dataset()
    kw = dict(ssl_cfg=SslConfig(**overrides), total=12,
              batch_labelled=n_lab, batch_unlabelled=n_unl)
    new = _mk_trainer(ds, **kw)
    ref = _mk_trainer(ds, cls=_OneTapeTrainer, **kw)
    reports = [new.train_step() for _ in range(8)]
    assert reports == [ref.train_step() for _ in range(8)]
    assert reports[-1].w_cls == 1.0  # every branch ran at full weight
    if case == "untaped-branch":
        # every cell masked out: the branch's loss is an untaped constant
        assert reports[-1].loss_cls == 0.0 == reports[-1].loss_feat
    for got, want in ((new.student, ref.student),
                      (new.teacher, ref.teacher)):
        for name, p in got.items():
            q = want[name]
            assert np.array_equal(p.values, q.values), name
            if got is new.student:
                assert np.array_equal(p.m, q.m), name
                assert np.array_equal(p.v, q.v), name
            else:   # the teacher never takes an optimizer step
                assert p.m is p.v is q.m is q.v is None, name


def test_unlabelled_gradients_match_the_dense_path(monkeypatch):
    """Without bevdrop the unlabelled student forward takes the compact
    path; with the early feature tap its gradients match the dense
    oracle's to rounding."""
    ds = _tiny_dataset()
    grads, lifts = [], []
    run = forward

    def spy(params, obs, drop=None, tape=None, config=None):
        trace = run(params, obs, drop, tape, config)
        if tape is not None:
            lifts.append(next(n for n in tape.nodes if n.kind == "conv2d"
                              and tape.nodes[n.input_ids[1]].saved.get(
                                  "param") == "lift.w"))
        return trace

    monkeypatch.setattr(engine, "forward", spy)
    for dense in (False, True):
        if dense:
            run = dense_forward
        tr = Trainer(ds, TINY, LossWeights(), AugmentConfig(bevdrop=False),
                     SslConfig(feat_level="early", threshold=None),
                     OptimConfig(), seed=21, total_steps=12,
                     batch_labelled=1, batch_unlabelled=1)
        tr._unsup_branch(Stream(5).child("unsup0"), 1.0, 1.0)
        grads.append(tr.grads)
    assert [n.saved.get("compact", False) for n in lifts] == [True, False]
    for name, want in grads[1].items():
        got = grads[0][name]
        assert np.abs(want).max() > 0, name
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


# ------------------------------------------------------------ step memory --

def _step_peak(tr: Trainer) -> int:
    """tracemalloc peak of one training step after four warm-up steps."""
    for _ in range(4):
        tr.train_step()
    tracemalloc.start()
    try:
        tr.train_step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_step_peak_holds_one_extra_teacher_frame():
    ds = _tiny_dataset()
    peaks = {n: _step_peak(_mk_trainer(
        ds, total=12, ssl_cfg=SslConfig(fusion_mode="feats", fusion_extra=n,
                                        fusion_warp="bilinear")))
        for n in (0, 6)}
    obs = ds.sequences[ds.split.unlabelled[0]].samples[0].observation
    trace = forward(init_params(TINY, 1), obs, None, None, TINY)
    frame = _held_bytes(getattr(trace, f).values for f in TRACE_FIELDS)
    assert peaks[6] - peaks[0] < frame, (peaks, frame)


def test_step_peak_holds_one_sample_graph():
    ds = _tiny_dataset()
    peaks = {b: _step_peak(_mk_trainer(ds, total=12, batch_labelled=b))
             for b in (1, 3)}
    sample = ds.sequences[ds.split.labelled[0]].samples[0]
    tape = Tape()
    trace = forward(init_params(TINY, 1), sample.observation, None, tape, TINY)
    focal_loss(trace.probs, sample.gt.values[None],
               np.ones((1, 3, 96, 32), dtype=bool), 2.0, 0.25)
    graph = _held_bytes(node.values for node in tape.nodes)
    assert peaks[3] - peaks[1] < graph, (peaks, graph)


def test_labelled_tape_ends_in_one_focal_node(monkeypatch):
    """A labelled sample's tape holds the model's leaves, its convs, the
    sigmoid and one `focal` node, the loss; the one constant leaf is the
    observation."""
    tapes = []

    def spy(loss, grads):
        tapes.append(loss.tape)
        backward(loss, grads)

    monkeypatch.setattr(engine, "backward", spy)
    _mk_trainer(_tiny_dataset(), ssl=False).train_step()
    (tape,) = tapes
    kinds = [node.kind for node in tape.nodes]
    assert set(kinds) == {"leaf", "conv2d", "sigmoid", "focal"}
    assert kinds.count("focal") == 1 and kinds[-1] == "focal"
    assert [node.saved["param"] for node in tape.nodes
            if node.kind == "leaf"].count(None) == 1


def test_feature_term_is_one_node_next_to_its_target(monkeypatch):
    """The feature term adds one `featsim` node to the unlabelled sample's
    tape, recorded right after its constant target leaf; no other node on
    that tape holds a map of the target's shape except the conv outputs."""
    tapes = []

    def spy(loss, grads):
        tapes.append(loss.tape)
        backward(loss, grads)

    monkeypatch.setattr(engine, "backward", spy)
    tr = Trainer(_tiny_dataset(), ModelConfig(), LossWeights(),
                 AugmentConfig(), SslConfig(threshold=None), OptimConfig(),
                 seed=21, total_steps=3, batch_labelled=1, batch_unlabelled=1)
    for _ in range(2):   # the second step runs the feature term
        tr.train_step()
    (tape,) = [t for t in tapes if any(n.kind == "featsim" for n in t.nodes)]
    (fid,) = [i for i, n in enumerate(tape.nodes) if n.kind == "featsim"]
    _, tid = tape.nodes[fid].input_ids
    target = tape.nodes[tid]
    assert tid == fid - 1
    assert target.kind == "leaf" and target.saved["param"] is None
    assert target.values.shape == (1, 64, 96, 32)
    for i, node in enumerate(tape.nodes):
        if i != tid and node.values.shape == target.values.shape:
            assert node.kind == "conv2d", (i, node.kind)


def test_teacher_trace_is_dropped_before_the_student_forward(monkeypatch):
    """Once the feature target is taken, neither the current frame's teacher
    trace nor the fusion result is alive when a taped student forward
    starts."""
    ds = _tiny_dataset()
    tr = _mk_trainer(ds, total=12, ssl_cfg=SslConfig(
        fusion_mode="feats", fusion_extra=2, threshold=None))
    refs, alive = [], []
    fused = tr._fused_pseudo

    def spy_fused(sample, stream):
        bundle, cur, fusion = fused(sample, stream)
        refs[:] = [weakref.ref(cur), weakref.ref(fusion)]
        return bundle, cur, fusion

    def spy_forward(params, obs, drop=None, tape=None, config=None):
        if tape is not None:
            alive.append(any(r() is not None for r in refs))
        return forward(params, obs, drop, tape, config)

    monkeypatch.setattr(tr, "_fused_pseudo", spy_fused)
    monkeypatch.setattr(engine, "forward", spy_forward)
    for _ in range(6):
        report = tr.train_step()
    assert report.w_feat > 0.0
    assert alive and not any(alive)


class _BlindSample(Sample):
    """A frame whose ground truth must never be read."""

    __slots__ = ()

    @property
    def gt(self):
        raise AssertionError(
            f"read the GT of unlabelled sequence {self.sequence_id}")


def test_trainer_never_reads_unlabelled_ground_truth():
    clean, blind = _tiny_dataset(), _tiny_dataset()
    for sid in blind.split.unlabelled:
        samples = blind.sequences[sid].samples
        samples[:] = [_BlindSample(s.sequence_id, s.frame_index, s.pose,
                                   s.observation, s.gt)
                      for s in samples]
    a, b = _mk_trainer(clean), _mk_trainer(blind)
    reports = [(a.train_step(), b.train_step()) for _ in range(3)]
    assert all(ra == rb for ra, rb in reports)
    assert reports[-1][0].w_cls > 0.0  # the unlabelled branch ran
