import math

import numpy as np
import pytest

from bevssl.autograd import ParamSet, Tape, Tensor, backward, forward_op
from bevssl.engine import SslConfig
from bevssl.errors import ConfigurationError, ContractError
from bevssl.losses import (LossMask, feature_similarity_loss, focal_loss,
                           rampup_weight, total_loss)
from bevssl.rng import Stream

from helpers_fd import zero_grads, zeroed_cells


def _prob_tensor(values):
    return Tensor(np.asarray(values, dtype=float))


# ------------------------------------------------------------- focal loss --

def test_focal_scalar_hand_value():
    p = _prob_tensor([[0.5]])
    y = np.array([[1.0]])
    loss, n = focal_loss(p, y, LossMask.full((1, 1)), gamma=2.0, alpha=0.25)
    assert n == 1
    expect = 0.25 * 0.25 * (-math.log(0.5))
    assert abs(loss.item() - expect) < 1e-12
    assert abs(loss.item() - 0.043321698784996581) < 1e-12


def test_focal_gamma_zero_is_half_bce():
    st = Stream(4)
    p = st.uniforms(40, 0.05, 0.95).reshape(4, 10)
    y = (st.uniforms(40).reshape(4, 10) > 0.5).astype(float)
    loss, _ = focal_loss(_prob_tensor(p), y, LossMask.full(p.shape),
                         gamma=0.0, alpha=0.5)
    bce = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    assert abs(loss.item() - 0.5 * bce) < 1e-12


def test_focal_perfect_confident_prediction_is_tiny():
    p = _prob_tensor([[1.0 - 1e-12]])
    y = np.array([[1.0 - 1e-12]])
    loss, _ = focal_loss(p, y, LossMask.full((1, 1)), 2.0, 0.25)
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
    hard, _ = focal_loss(p, np.ones((1, 4)), LossMask.full((1, 4)), 2.0,
                         0.25)
    soft, _ = focal_loss(p, np.full((1, 4), 1.0 - 1e-9),
                         LossMask.full((1, 4)), 2.0, 0.25)
    assert abs(hard.item() - soft.item()) < 1e-6


def test_focal_gradient_flows_to_student_probs():
    ps = ParamSet()
    ps.add("z", np.array([[0.2, -0.4, 1.1]]))
    tape = Tape()
    p = forward_op("sigmoid", ps.leaf(tape, "z"))
    loss, _ = focal_loss(p, np.array([[1.0, 0.0, 1.0]]),
                         LossMask.full((1, 3)), 2.0, 0.25)
    grads = zero_grads(ps)
    backward(loss, grads)
    assert np.abs(grads["z"]).min() > 0


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


def _mean(x: Tensor) -> Tensor:
    return forward_op("scale", forward_op("sum", x), factor=1.0 / x.values.size)


def _composed_featsim(z_s: Tensor, z_t: np.ndarray, mode: str) -> Tensor:
    """The feature term composed from generic ops, channel sums through a
    1x1 ones-kernel conv: the oracle of the `featsim` op."""
    if mode == "mse":
        d = forward_op("sub", z_s, Tensor(z_t))
        return _mean(forward_op("mul", d, d))
    sum_kernel = Tensor(np.ones((1, z_s.shape[1], 1, 1)))
    dot = forward_op("conv2d", forward_op("mul", z_s, Tensor(z_t)),
                     sum_kernel, padding=0)
    s_sq = forward_op("conv2d", forward_op("mul", z_s, z_s), sum_kernel,
                      padding=0)
    t_sq = (z_t * z_t).sum(axis=1, keepdims=True)
    zero = ((s_sq.values <= 0.0) | (t_sq <= 0.0)).astype(np.float64)
    kept, zero_cells = Tensor(1.0 - zero), Tensor(zero)
    denom = forward_op("mul", forward_op("powc", s_sq, exponent=0.5),
                       Tensor(np.sqrt(t_sq)))
    denom = forward_op("add", forward_op("mul", denom, kept), zero_cells)
    cos = forward_op("mul", dot, forward_op("powc", denom, exponent=-1.0))
    cos = forward_op("add", forward_op("mul", cos, kept), zero_cells)
    return _mean(forward_op("sub", Tensor(np.ones(cos.shape)), cos))


@pytest.mark.parametrize("mode", ["cosine", "mse"])
def test_featsim_matches_the_composed_formula(mode):
    """Value and student gradient of the one op against the composed
    formula on 64-channel maps with zero-vector cells on either side and
    both; a zero cell takes no gradient in cosine mode."""
    st = Stream(14).child(mode)
    n, c, h, w = 2, 64, 12, 8
    keep_s, keep_t = zeroed_cells(st, n, h * w)
    keep_s, keep_t = keep_s.reshape(n, 1, h, w), keep_t.reshape(n, 1, h, w)
    z_s = st.normals(n * c * h * w).reshape(n, c, h, w) * keep_s
    z_t = st.normals(n * c * h * w).reshape(n, c, h, w) * keep_t
    got = {}
    for name, loss_fn in (("op", feature_similarity_loss),
                          ("oracle", _composed_featsim)):
        ps = ParamSet()
        ps.add("s", z_s)
        loss = loss_fn(ps.leaf(Tape(), "s"), z_t, mode)
        grads = zero_grads(ps)
        backward(loss, grads)
        got[name] = loss.item(), grads["s"]
    (value, grad), (want, want_grad) = got["op"], got["oracle"]
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
