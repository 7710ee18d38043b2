import math

import numpy as np
import pytest

from bevssl.autograd import ParamSet, Tape, Tensor, backward, forward_op
from bevssl.engine import SslConfig
from bevssl.errors import ConfigurationError, ContractError
from bevssl.losses import (feature_similarity_loss, focal_loss, rampup_weight,
                           total_loss)
from bevssl.rng import Stream

from helpers_fd import zero_grads, zeroed_cells


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
        rampup_weight(0, 0, 1.0)
    with pytest.raises(ContractError):
        rampup_weight(-1, 10, 1.0)


# -------------------------------------------------------------- total loss --

def _const_loss(x):
    return Tensor(np.asarray(x, dtype=float))


def _ramped(cfg, step, total_steps):
    """The (w_cls, w_feat) a training step passes to `total_loss`."""
    return (rampup_weight(step, total_steps, cfg.w_cls, cfg.rampup_fraction),
            rampup_weight(step, total_steps, cfg.w_feat, cfg.rampup_fraction))


def test_total_loss_supervised_only():
    total, bd = total_loss([_const_loss(1.5)], [], [],
                           *_ramped(SslConfig(), 200, 300))
    assert total.item() == 1.5
    assert bd["loss_cls"] == 0.0


def test_total_loss_step_zero_masks_unsup():
    w = _ramped(SslConfig(), 0, 300)
    total, _ = total_loss([_const_loss(1.0)], [_const_loss(7.0)],
                          [_const_loss(3.0)], *w)
    assert total.item() == 1.0
    assert w == (0.0, 0.0)


def test_total_loss_weighted_sum_example():
    # sum(sup) + w_cls * sum(cls) + w_feat * sum(feat), ramp complete
    w = SslConfig(w_cls=1.0, w_feat=0.25)
    total, _ = total_loss([_const_loss(1.0)], [_const_loss(2.0)],
                          [_const_loss(4.0)], *_ramped(w, 250, 300))
    assert abs(total.item() - (1.0 + 1.0 * 2.0 + 0.25 * 4.0)) < 1e-12
    assert _ramped(w, 250, 300) == (1.0, 0.25)
    half, _ = total_loss([_const_loss(1.0)], [_const_loss(2.0)],
                         [_const_loss(4.0)], *_ramped(w, 50, 300))
    assert abs(half.item() - (1.0 + 0.5 * 2.0 + 0.125 * 4.0)) < 1e-12


def test_loss_weights_validation():
    with pytest.raises(ConfigurationError):
        SslConfig(w_cls=-1.0)
    with pytest.raises(ConfigurationError):
        SslConfig(rampup_fraction=0.0)
    with pytest.raises(ConfigurationError):
        SslConfig(feat_mode="l1")
