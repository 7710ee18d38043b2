import math

import numpy as np
import pytest

from bevssl import engine
from bevssl.augment import AugmentConfig
from bevssl.autograd import Tensor
from bevssl.engine import (OptimConfig, SslConfig, TeacherState,
                           Trainer, draw_fusion_distance, ema_update,
                           fuse_teacher, make_pseudo_labels, prob_logit,
                           select_fusion_frames, sharpen,
                           trajectory_distances)
from bevssl.errors import ConfigurationError, ContractError
from bevssl.geometry import GridSpec, Pose2, Raster, SMALL_GRID, warp_raster
from bevssl.losses import LossWeights
from bevssl.model import ForwardTrace, ModelConfig, forward, init_params
from bevssl.rng import Stream
from bevssl.world import CITY_A, Sample, build_dataset

from helpers_geo import fuse_probs_bruteforce, random_pose, random_prob_raster

TINY = ModelConfig(enc_widths=(4, 6), lift_channels=8, dec_widths=(4, 6))


def _param_sets(seed=1):
    student = init_params(TINY, seed)
    teacher = TeacherState(init_params(TINY, seed + 1), keep_rate=0.9)
    return student, teacher


# --------------------------------------------------------------------- EMA --

def test_ema_keep_rate_one_freezes_teacher():
    student, teacher = _param_sets()
    teacher.keep_rate = 1.0
    before = teacher.params.values_dict()
    ema_update(teacher, student)
    for name, val in before.items():
        assert np.array_equal(teacher.params[name].values, val)


def test_ema_keep_rate_zero_copies_student():
    student, teacher = _param_sets()
    teacher.keep_rate = 0.0
    ema_update(teacher, student)
    for name in student.names():
        assert np.array_equal(teacher.params[name].values,
                              student[name].values)


def test_ema_geometric_decay_closed_form():
    student, teacher = _param_sets(3)
    for name in student.names():
        student[name].values[...] = 0.0
        teacher.params[name].values[...] = 1.0
    for alpha in (0.9, 0.99, 0.999):
        teacher.keep_rate = alpha
        for name in teacher.params.names():
            teacher.params[name].values[...] = 1.0
        for k in range(1, 201):
            ema_update(teacher, student)
            expect = alpha ** k
            err = np.abs(teacher.params["head.w"].values - expect).max()
            assert err < 1e-12, (alpha, k, err)


def test_ema_scalar_example():
    student, teacher = _param_sets(5)
    name = student.names()[0]
    student[name].values[...] = 0.0
    teacher.params[name].values[...] = 1.0
    teacher.keep_rate = 0.9
    ema_update(teacher, student)
    assert abs(teacher.params[name].values.flat[0] - 0.9) < 1e-15


def test_ema_mismatched_names_rejected():
    student, teacher = _param_sets()
    other = init_params(ModelConfig(enc_widths=(4,), lift_channels=8,
                                    dec_widths=(4,)), 2)
    with pytest.raises(ContractError):
        ema_update(TeacherState(other), student)


def test_ema_leaves_optimizer_state_untouched():
    student, teacher = _param_sets()
    name = student.names()[0]
    teacher.params[name].m[...] = 7.0
    ema_update(teacher, student)
    assert (teacher.params[name].m == 7.0).all()


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


# ----------------------------------------------------------------- trainer --

def _tiny_dataset(seed=11):
    return build_dataset(SMALL_GRID, CITY_A, seed, n_worlds=6,
                         seqs_per_world=1, n_frames=5, utilisation=0.5,
                         val_worlds=1, test_worlds=2)


def _mk_trainer(ds, ssl=True, seed=21, ssl_cfg=None, total=50, **kw):
    return Trainer(ds, TINY, LossWeights(), AugmentConfig(),
                   ssl_cfg or SslConfig(), OptimConfig(), seed=seed,
                   total_steps=total, ssl=ssl, **kw)


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


def test_trainer_full_threshold_masks_everything():
    ds = _tiny_dataset()
    tr = Trainer(ds, TINY, LossWeights(), AugmentConfig(),
                 SslConfig(threshold=0.999), OptimConfig(), seed=5,
                 total_steps=50, ssl=True)
    for _ in range(3):
        rep = tr.train_step()
    assert rep.loss_cls == 0.0
    assert rep.pseudo_kept_frac < 0.7  # early teacher is uncertain
    assert rep.loss_feat != 0.0        # feature term still active


def test_trainer_teacher_isolated_from_gradients():
    ds = _tiny_dataset()
    tr = _mk_trainer(ds)
    before = tr.teacher.params.values_dict()
    tr.train_step()
    for name, p in tr.teacher.params.items():
        assert not p.grad.any()
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
    alpha = tr.teacher.keep_rate
    name = tr.student.names()[-1]
    init = init_params(TINY, 21)  # same seed as trainer student
    expect = alpha * init[name].values + (1 - alpha) * tr.student[name].values
    assert np.allclose(tr.teacher.params[name].values, expect, atol=1e-12)


def test_fused_pseudo_current_trace_owns_one_frame(monkeypatch):
    """The current frame's teacher trace is copied out of the batched
    teacher pass, so holding it does not keep the batch alive."""
    ds = _tiny_dataset()
    tr = _mk_trainer(ds)
    batches = []

    def spy(params, obs, *args):
        batches.append(np.shape(obs)[0])
        return forward(params, obs, *args)

    monkeypatch.setattr(engine, "forward", spy)
    sample = ds.sequences[ds.split.unlabelled[0]].samples[2]
    _, cur, _ = tr._fused_pseudo(sample, Stream(3).child("fusion"))
    assert batches == [1 + SslConfig().fusion_extra]
    solo = forward(tr.teacher.params, sample.observation, None, None, TINY)
    for field in ("encoder_feats", "bev_feats", "decoded_feats", "logits",
                  "probs"):
        got, want = getattr(cur, field).values, getattr(solo, field).values
        assert got.base is None, field
        assert got.shape == want.shape and got.shape[0] == 1, field
        assert np.allclose(got, want, rtol=0, atol=1e-12), field


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
