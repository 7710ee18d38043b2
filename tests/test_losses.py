import math
from dataclasses import replace

import numpy as np
import pytest

from bevssl.augment import AugmentConfig
from bevssl.autograd import ParamSet, Tape, Tensor, backward, forward_op
from bevssl.engine import OptimConfig, SslConfig, Trainer
from bevssl.errors import ConfigurationError, ContractError
from bevssl.geometry import SMALL_GRID
from bevssl.losses import (LossWeights, feature_similarity_loss, focal_loss,
                           rampup_weight)
from bevssl.model import ModelConfig
from bevssl.rng import Stream
from bevssl.world import Dataset, DatasetSplit

from helpers_fd import zero_grads, zeroed_cells


TINY = ModelConfig(enc_widths=(4,), lift_channels=4, dec_widths=(4,))


def _prob_tensor(values):
    return Tensor(np.asarray(values, dtype=float))


# ------------------------------------------------------------- focal loss --

def test_focal_scalar_hand_value():
    p = _prob_tensor([[0.5]])
    y = np.array([[1.0]])
    loss, n = focal_loss(p, y, np.ones((1, 1), dtype=bool), gamma=2.0,
                         alpha=0.25)
    assert n == 1
    expect = 0.25 * 0.25 * (-math.log(0.5))
    assert abs(loss.item() - expect) < 1e-12
    assert abs(loss.item() - 0.043321698784996581) < 1e-12


def test_focal_gamma_zero_is_half_bce():
    st = Stream(4)
    p = st.uniforms(40, 0.05, 0.95).reshape(4, 10)
    y = (st.uniforms(40).reshape(4, 10) > 0.5).astype(float)
    loss, _ = focal_loss(_prob_tensor(p), y, np.ones(p.shape, dtype=bool),
                         gamma=0.0, alpha=0.5)
    bce = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert abs(loss.item() - 0.5 * bce) < 1e-12


def test_focal_perfect_confident_prediction_is_tiny():
    p = _prob_tensor([[1.0 - 1e-12]])
    y = np.array([[1.0 - 1e-12]])
    loss, _ = focal_loss(p, y, np.ones((1, 1), dtype=bool), 2.0, 0.25)
    assert abs(loss.item()) < 1e-9


def test_focal_empty_mask_returns_exact_zero_flag():
    p = _prob_tensor([[0.3, 0.7]])
    loss, n = focal_loss(p, np.array([[1.0, 0.0]]),
                         np.zeros((1, 2), dtype=bool), 2.0, 0.25)
    assert n == 0
    assert loss.item() == 0.0


def test_focal_mask_soundness_bitwise():
    st = Stream(9)
    p_vals = st.uniforms(24, 0.02, 0.98).reshape(3, 8)
    y = (st.uniforms(24).reshape(3, 8) > 0.6).astype(float)
    include = st.uniforms(24).reshape(3, 8) > 0.4
    base, _ = focal_loss(_prob_tensor(p_vals), y, include, 2.0, 0.25)
    # flip p and y at every excluded cell
    p2 = p_vals.copy()
    y2 = y.copy()
    p2[~include] = st.uniforms(int((~include).sum()), 0.01, 0.99)
    y2[~include] = 1.0 - y2[~include]
    pert, _ = focal_loss(_prob_tensor(p2), y2, include, 2.0, 0.25)
    assert pert.item() == base.item()


def test_focal_soft_target_continuity_at_hard_limit():
    p = _prob_tensor(np.full((1, 4), 0.73))
    hard, _ = focal_loss(p, np.ones((1, 4)), np.ones((1, 4), dtype=bool),
                         2.0, 0.25)
    soft, _ = focal_loss(p, np.full((1, 4), 1.0 - 1e-9),
                         np.ones((1, 4), dtype=bool), 2.0, 0.25)
    assert abs(hard.item() - soft.item()) < 1e-6


def test_focal_gradient_flows_to_student_probs():
    ps = ParamSet()
    ps.add("z", np.array([[0.2, -0.4, 1.1]]))
    tape = Tape()
    p = forward_op("sigmoid", ps.leaf(tape, "z"))
    loss, _ = focal_loss(p, np.array([[1.0, 0.0, 1.0]]),
                         np.ones((1, 3), dtype=bool), 2.0, 0.25)
    grads = zero_grads(ps)
    backward(loss, grads)
    assert np.abs(grads["z"]).min() > 0


def _composed_focal(p, y, include, gamma, alpha):
    """Value and dp of the focal term as a composition of generic ops
    computed it: 1 - p, a clamped log and a power of each of p and 1 - p,
    products with the constant weights, a sum and a scale by -1/n; then
    each op's backward rule in turn.  The oracle of the `focal` op."""
    clamp = 1e-12
    mf = include.astype(np.float64)
    w_pos, w_neg = alpha * y * mf, (1.0 - alpha) * (1.0 - y) * mf
    q = 1.0 - p

    def log(x):
        return np.log(np.maximum(x, clamp))

    def d_log(x, g):
        return np.where(x >= clamp, g / np.maximum(x, clamp), 0.0)

    def d_power(x, g):   # 0 at x == 0
        return g * np.where(x > 0, gamma * np.power(np.where(x > 0, x, 1.0),
                                                    gamma - 1.0), 0.0)

    pw_q, lg_p, pw_p, lg_q = (np.power(q, gamma), log(p), np.power(p, gamma),
                              log(q))
    factor = -1.0 / int(include.sum())
    value = (w_pos * (pw_q * lg_p) + w_neg * (pw_p * lg_q)).sum() * factor
    g_pos, g_neg = factor * w_pos, factor * w_neg
    from_p = d_power(p, g_neg * lg_q) + d_log(p, g_pos * pw_q)
    to_q = d_log(q, g_neg * pw_p) + d_power(q, g_pos * lg_p)
    return value, from_p - to_q


# p at which the clamp of a log or the subgradient of a power applies
_EDGE_P = (0.0, 1e-13, 0.5, 1.0 - 1e-16, 1.0)


@pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
def test_focal_matches_the_composed_formula(gamma):
    """Value and dp of the one op against the composed formula on soft
    targets, with the edge probabilities at included cells and extreme
    ones at excluded cells, which take an exact zero gradient."""
    st = Stream(16).child(str(gamma))
    shape = (1, 3, 12, 8)
    p = st.uniforms(288, 0.05, 0.95).reshape(shape)
    y = st.uniforms(288).reshape(shape)
    include = st.uniforms(288).reshape(shape) > 0.3
    flat_p, flat_inc = p.reshape(-1), include.reshape(-1)
    cells = st.permutation(288)
    excluded_p = (0.0, 1.0, 1e-300, 1.0 - 1e-16, 1.0)
    for k, (edge, extreme) in enumerate(zip(_EDGE_P, excluded_p)):
        i, j = cells[2 * k], cells[2 * k + 1]
        flat_p[i], flat_inc[i] = edge, True
        flat_p[j], flat_inc[j] = extreme, False
    ps = ParamSet()
    ps.add("p", p)
    loss, n = focal_loss(ps.leaf(Tape(), "p"), y, include, gamma, 0.75)
    grads = zero_grads(ps)
    backward(loss, grads)
    want, want_dp = _composed_focal(p, y, include, gamma, 0.75)
    assert n == include.sum()
    assert abs(loss.item() - want) <= 1e-12 * abs(want)
    dp = grads["p"]
    assert np.abs(dp - want_dp).max() <= 1e-12 * np.abs(want_dp).max()
    assert not dp[~include].any() and not want_dp[~include].any()


@pytest.mark.parametrize("gamma", [0.0, 0.01, 0.04])
def test_focal_gradient_is_finite_at_a_subnormal_p(gamma):
    """At an included subnormal p, 1 - p rounds to 1, so the slope of
    p^gamma meets a factor log(1 - p) of exactly 0 while p^(gamma - 1)
    overflows (gamma below ~0.047).  No slope is taken there: dp is what
    reaches 1 - p alone, finite, with no numpy warning."""
    p = np.array([[5e-324, 1e-310, 0.5]])
    y = np.array([[0.25, 0.75, 0.5]])
    ps = ParamSet()
    ps.add("p", p)
    loss, n = focal_loss(ps.leaf(Tape(), "p"), y,
                         np.ones((1, 3), dtype=bool), gamma, 0.75)
    grads = zero_grads(ps)
    backward(loss, grads)
    dp = grads["p"][0, :2]
    # through 1 - p = 1: gamma w_pos log(clamped p) and w_neg p^gamma / 1
    w_pos, w_neg, sub = 0.75 * y[0, :2], 0.25 * (1.0 - y[0, :2]), p[0, :2]
    want = (gamma * w_pos * math.log(1e-12) + w_neg * sub ** gamma) / n
    assert np.isfinite(grads["p"]).all()
    assert np.abs(dp - want).max() <= 1e-12 * np.abs(want).max()


def test_focal_is_one_node_that_keeps_no_map_of_its_own():
    """A focal term on a taped map adds one `focal` node holding the
    targets, the bool mask, gamma, alpha and -1/n."""
    ps = ParamSet()
    ps.add("z", np.zeros((1, 3, 4, 2)))
    tape = Tape()
    p = forward_op("sigmoid", ps.leaf(tape, "z"))
    y = np.full((1, 3, 4, 2), 0.25)
    include = np.ones((1, 3, 4, 2), dtype=bool)
    loss, _ = focal_loss(p, y, include, 2.0, 0.75)
    assert [n.kind for n in tape.nodes] == ["leaf", "sigmoid", "focal"]
    saved = tape.nodes[loss.node_id].saved
    assert sorted(saved) == ["alpha", "factor", "gamma", "include", "target"]
    assert saved["factor"] == -1.0 / 24 and saved["include"].dtype == bool


# ------------------------------------------------------- feature similarity --

def test_featsim_identity_is_zero():
    st = Stream(12)
    z = st.uniforms(2 * 4 * 5 * 5, -2, 2).reshape(2, 4, 5, 5)
    assert feature_similarity_loss(Tensor(z), z, "mse").item() == 0.0
    assert abs(feature_similarity_loss(Tensor(z), z, "cosine").item()) < 1e-12


def test_featsim_cosine_orthogonal_is_one():
    z_s = np.zeros((1, 2, 2, 2))
    z_t = np.zeros((1, 2, 2, 2))
    z_s[0, 0] = 1.0  # student points along channel 0
    z_t[0, 1] = 1.0  # teacher along channel 1
    loss = feature_similarity_loss(Tensor(z_s), z_t, "cosine")
    assert abs(loss.item() - 1.0) < 1e-12


def test_featsim_mse_constant_offset():
    z_t = np.zeros((1, 3, 4, 4))
    z_s = z_t + 2.0
    assert feature_similarity_loss(Tensor(z_s), z_t, "mse").item() == 4.0


def test_featsim_zero_vector_cells_contribute_zero():
    z_s = np.zeros((1, 3, 2, 2))
    z_t = np.zeros((1, 3, 2, 2))
    z_s[0, :, 0, 0] = [1.0, 2.0, 3.0]
    z_t[0, :, 0, 0] = [1.0, 2.0, 3.0]
    # other three cells are zero vectors on both sides
    loss = feature_similarity_loss(Tensor(z_s), z_t, "cosine")
    assert abs(loss.item()) < 1e-12


def test_featsim_gradient_reaches_student_not_teacher():
    st = Stream(13)
    ps = ParamSet()
    ps.add("s", st.uniforms(1 * 3 * 2 * 2, 0.2, 1.0).reshape(1, 3, 2, 2))
    ps.add("t", st.uniforms(1 * 3 * 2 * 2, 0.2, 1.0).reshape(1, 3, 2, 2))
    tape = Tape()
    z_s = ps.leaf(tape, "s")
    loss = feature_similarity_loss(z_s, ps["t"].values, "cosine")
    grads = zero_grads(ps)
    backward(loss, grads)
    assert np.abs(grads["s"]).sum() > 0
    assert not grads["t"].any()


def test_featsim_shape_mismatch_rejected():
    with pytest.raises(ConfigurationError):
        feature_similarity_loss(Tensor(np.zeros((1, 2, 3, 3))),
                                np.zeros((1, 2, 4, 4)), "mse")


def _numpy_featsim(z_s: np.ndarray, z_t: np.ndarray, mode: str):
    """Value and student gradient of the feature term in plain numpy: the
    oracle of the `featsim` op."""
    if mode == "mse":
        d = z_s - z_t
        return (d * d).mean(), 2.0 * d / d.size
    s_norm = np.sqrt((z_s * z_s).sum(axis=1, keepdims=True))
    t_norm = np.sqrt((z_t * z_t).sum(axis=1, keepdims=True))
    kept = (s_norm > 0.0) & (t_norm > 0.0)
    denom = np.where(kept, s_norm * t_norm, 1.0)
    cos = np.where(kept, (z_s * z_t).sum(axis=1, keepdims=True) / denom, 1.0)
    # d(1 - cos)/ds = cos s / |s|^2 - t / (|s| |t|) at a kept cell, per cell
    s_sq = np.where(kept, s_norm * s_norm, 1.0)
    grad = np.where(kept, cos * z_s / s_sq - z_t / denom, 0.0) / cos.size
    return (1.0 - cos).mean(), grad


@pytest.mark.parametrize("mode", ["cosine", "mse"])
def test_featsim_matches_the_composed_formula(mode):
    """Value and student gradient of the one op against the numpy
    formula on 64-channel maps with zero-vector cells on either side and
    both; a zero cell takes no gradient in cosine mode."""
    st = Stream(14).child(mode)
    n, c, h, w = 2, 64, 12, 8
    keep_s, keep_t = zeroed_cells(st, n, h * w)
    keep_s, keep_t = keep_s.reshape(n, 1, h, w), keep_t.reshape(n, 1, h, w)
    z_s = st.normals(n * c * h * w).reshape(n, c, h, w) * keep_s
    z_t = st.normals(n * c * h * w).reshape(n, c, h, w) * keep_t
    ps = ParamSet()
    ps.add("s", z_s)
    loss = feature_similarity_loss(ps.leaf(Tape(), "s"), z_t, mode)
    grads = zero_grads(ps)
    backward(loss, grads)
    value, grad = loss.item(), grads["s"]
    want, want_grad = _numpy_featsim(z_s, z_t, mode)
    assert abs(value - want) <= 1e-12 * abs(want)
    assert np.abs(grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
    if mode == "cosine":
        zero = (keep_s * keep_t == 0.0).repeat(c, axis=1)
        assert zero.sum() == 3 * n * c and not grad[zero].any()


def test_featsim_rejects_a_taped_target():
    ps = ParamSet()
    ps.add("s", np.ones((1, 2, 2, 2)))
    ps.add("t", np.full((1, 2, 2, 2), 0.5))
    tape = Tape()
    loss = forward_op("featsim", ps.leaf(tape, "s"), ps.leaf(tape, "t"),
                      mode="cosine")
    with pytest.raises(ContractError, match="target takes no gradient"):
        backward(loss, zero_grads(ps))


# ----------------------------------------------------------------- ramp-up --

def test_rampup_values():
    assert rampup_weight(0, 300, 1.0) == 0.0
    assert abs(rampup_weight(50, 300, 1.0) - 0.5) < 1e-12
    assert rampup_weight(100, 300, 1.0) == 1.0
    assert rampup_weight(299, 300, 1.0) == 1.0
    assert abs(rampup_weight(50, 300, 0.25) - 0.125) < 1e-12


def test_rampup_contract():
    with pytest.raises(ContractError):
        rampup_weight(-1, 10, 1.0)


# ------------------------------------------------- a step's total loss --
# `Trainer.train_step` adds its loss breakdown up from the branch values in
# the objective's order.  The branches are stubbed with constants, so these
# tests read the breakdown alone.

def _stub_trainer(ssl_cfg, total_steps, sup, unsup=None, ssl=True):
    """A trainer whose labelled branches return the values `sup` in turn
    and whose unlabelled branch returns `unsup` (cls, feat, kept, cells)."""
    split = DatasetSplit(labelled=[0], unlabelled=[1], val=[], test=[])
    tr = Trainer(Dataset(SMALL_GRID, {}, split), TINY, LossWeights(),
                 AugmentConfig(), ssl_cfg, OptimConfig(), seed=0,
                 total_steps=total_steps, ssl=ssl, batch_labelled=len(sup),
                 batch_unlabelled=2)
    values = iter(sup[::-1])   # the branches run in reverse order

    def unsup_branch(stream, w_cls, w_feat):
        assert unsup is not None, "the unlabelled branch ran"
        return unsup

    tr._sup_branch = lambda stream: next(values)
    tr._unsup_branch = unsup_branch
    return tr


def _report_at(tr, step):
    tr.step_count = step
    return tr.train_step()


def test_total_loss_supervised_only():
    rep = _report_at(_stub_trainer(SslConfig(), 300, [1.5, 0.25], ssl=False),
                     200)
    assert rep.loss_total == rep.loss_sup == 1.75
    assert rep.loss_cls == rep.loss_feat == 0.0
    assert (rep.w_cls, rep.w_feat) == (0.0, 0.0)


def test_total_loss_step_zero_masks_unsup():
    rep = _report_at(_stub_trainer(SslConfig(), 300, [1.0]), 0)
    assert rep.loss_total == 1.0
    assert (rep.w_cls, rep.w_feat) == (0.0, 0.0)
    assert rep.loss_cls == rep.loss_feat == rep.pseudo_kept_frac == 0.0


def test_total_loss_weighted_sum_example():
    # sum(sup) + w_cls * sum(cls) + w_feat * sum(feat), in that order
    cfg = SslConfig(w_cls=1.0, w_feat=0.25)
    full = _report_at(_stub_trainer(cfg, 300, [1.0], (2.0, 4.0, 3, 4)), 250)
    assert (full.w_cls, full.w_feat) == (1.0, 0.25)
    assert (full.loss_sup, full.loss_cls, full.loss_feat) == (1.0, 4.0, 8.0)
    assert full.loss_total == 1.0 + 1.0 * 2.0 + 1.0 * 2.0 + 0.25 * 4.0 * 2
    assert full.pseudo_kept_frac == 0.75
    half = _report_at(_stub_trainer(cfg, 300, [1.0], (2.0, 4.0, 3, 4)), 50)
    assert (half.w_cls, half.w_feat) == (0.5, 0.125)
    assert half.loss_total == ((((1.0 + 0.5 * 2.0) + 0.5 * 2.0)
                                + 0.125 * 4.0) + 0.125 * 4.0)
    # without the feature term its value is left out of the breakdown
    off = _report_at(_stub_trainer(replace(cfg, w_feat=0.0), 300, [1.0],
                                   (2.0, 4.0, 3, 4)), 250)
    assert off.loss_feat == 0.0 and off.loss_total == 5.0


def test_loss_weights_validation():
    with pytest.raises(ConfigurationError):
        SslConfig(w_cls=-1.0)
    with pytest.raises(ConfigurationError):
        SslConfig(feat_mode="l1")
