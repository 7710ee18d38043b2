import numpy as np
import pytest

from bevssl.autograd import (CHECKPOINT_MAGIC, ParamSet, Tape, Tensor,
                             backward, finite_difference_check, forward_op,
                             load_checkpoint, optimizer_step, save_checkpoint)
from bevssl.errors import ConfigurationError, ContractError, NumericError
from bevssl.rng import Stream

from helpers_fd import ALL_KINDS, make_case


# ------------------------------------------------------------ op examples --

def test_sigmoid_at_zero():
    assert forward_op("sigmoid", Tensor(np.zeros((1,)))).values[0] == 0.5


def test_relu_definition():
    out = forward_op("relu", Tensor(np.array([-3.2, 3.2])))
    assert out.values.tolist() == [0.0, 3.2]


def test_conv2d_all_ones_3x3():
    x = Tensor(np.ones((1, 1, 3, 3)))
    w = Tensor(np.ones((1, 1, 3, 3)))
    out = forward_op("conv2d", x, w, padding=0)
    assert out.shape == (1, 1, 1, 1)
    assert out.values.item() == 9.0


def test_conv2d_hand_oracle_with_padding():
    st = Stream(3)
    x = st.uniforms(2 * 2 * 4 * 5, -1, 1).reshape(2, 2, 4, 5)
    w = st.uniforms(3 * 2 * 3 * 3, -1, 1).reshape(3, 2, 3, 3)
    b = st.uniforms(3, -1, 1)
    out = forward_op("conv2d", Tensor(x), Tensor(w), Tensor(b), padding=1)
    # direct sum-of-products
    xp = np.zeros((2, 2, 6, 7))
    xp[:, :, 1:5, 1:6] = x
    expect = np.zeros((2, 3, 4, 5))
    for n in range(2):
        for o in range(3):
            for i in range(4):
                for j in range(5):
                    expect[n, o, i, j] = (
                        xp[n, :, i:i + 3, j:j + 3] * w[o]).sum() + b[o]
    assert np.allclose(out.values, expect, atol=1e-12)


def test_slice_with_step():
    a = Tensor(np.arange(12.0).reshape(4, 3))
    sl = forward_op("slice", a, axis=0, start=1, stop=4, step=2)
    assert np.array_equal(sl.values, a.values[1:4:2])


def test_masked_fill_and_log_clamp():
    x = Tensor(np.array([0.5, -2.0, 3.0]))
    out = forward_op("masked_fill", x, mask=np.array([False, True, False]),
                     value=9.0)
    assert out.values.tolist() == [0.5, 9.0, 3.0]
    lg = forward_op("log", Tensor(np.array([0.0, 1.0])))
    assert lg.values[0] == np.log(1e-12)
    assert lg.values[1] == 0.0


# --------------------------------------------------------------- backward --

def _scalar_param(values):
    ps = ParamSet()
    ps.add("p", np.asarray(values, dtype=float))
    return ps


def test_backward_sum_gives_ones():
    ps = _scalar_param(np.arange(5.0))
    tape = Tape()
    loss = forward_op("sum", ps.leaf(tape, "p"))
    backward(loss, ps)
    assert np.array_equal(ps["p"].grad, np.ones(5))


def test_backward_mean_square_hand_oracle():
    vals = np.array([1.0, -2.0, 0.5, 3.0])
    ps = _scalar_param(vals)
    tape = Tape()
    p = ps.leaf(tape, "p")
    loss = forward_op("mean", forward_op("mul", p, p))
    backward(loss, ps)
    assert np.allclose(ps["p"].grad, 2.0 * vals / vals.size, atol=1e-15)


def test_unreachable_parameter_gets_exact_zero():
    ps = ParamSet()
    ps.add("used", np.array([2.0]))
    ps.add("unused", np.array([5.0, 1.0]))
    tape = Tape()
    loss = forward_op("sum", ps.leaf(tape, "used"))
    backward(loss, ps)
    assert ps["unused"].grad.tolist() == [0.0, 0.0]
    assert ps["used"].grad.tolist() == [1.0]


def test_backward_requires_scalar_loss():
    ps = _scalar_param(np.ones(3))
    tape = Tape()
    out = forward_op("relu", ps.leaf(tape, "p"))
    with pytest.raises(ContractError):
        backward(out, ps)


def test_mixing_tapes_is_rejected_and_detach_works():
    ps = _scalar_param(np.array([1.5]))
    t1, t2 = Tape(), Tape()
    hidden = forward_op("mul", ps.leaf(t1, "p"), ps.leaf(t1, "p"))
    with pytest.raises(ContractError, match="tape"):
        forward_op("mul", hidden, ps.leaf(t2, "p"))
    # detaching via a fresh Tensor keeps the value but blocks the gradient
    loss = forward_op("sum", forward_op("mul", Tensor(hidden.values),
                                        ps.leaf(t2, "p")))
    backward(loss, ps)
    assert ps["p"].grad.tolist() == [1.5 * 1.5]


# ------------------------------------------------- finite-difference check --

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    for case in range(12):
        params, f = make_case(kind, Stream(1000 + case).child(kind))
        report = finite_difference_check(f, params, eps=1e-5, tol=1e-4)
        assert report.passed, (
            f"{kind} case {case}: max rel err {report.max_error:.3e}, "
            f"failures {report.failures[:3]}")


def test_fd_check_quadratic_tight():
    ps = _scalar_param(np.array([0.3, -1.2, 2.0]))

    def f(p):
        tape = Tape()
        x = p.leaf(tape, "p")
        return forward_op("mean", forward_op("mul", x, x))

    report = finite_difference_check(f, ps, eps=1e-5, tol=1e-4)
    assert report.max_error < 1e-6


def test_fd_check_constant_loss_exact():
    ps = _scalar_param(np.array([1.0, 2.0]))

    def f(p):
        tape = Tape()
        x = p.leaf(tape, "p")
        zero = forward_op("scale", forward_op("sum", x), factor=0.0)
        return zero

    report = finite_difference_check(f, ps, eps=1e-5, tol=1e-4)
    assert report.max_error == 0.0


# ------------------------------------------------------------------- tape --

def test_tape_replay_bit_identical():
    params, f = make_case("conv2d", Stream(7).child("replay"))
    loss = f(params)
    assert loss.tape.replay()


def test_tape_topological_ids():
    params, f = make_case("mul", Stream(9).child("topo"))
    loss = f(params)
    for nid, node in enumerate(loss.tape.nodes):
        assert all(i < nid for i in node.input_ids)


# ------------------------------------------------------- upsampling conv --

def _conv_grads(x, w, b, probe, **attrs):
    """y, dx, dW, db of sum(conv2d(x, w, b) * probe)."""
    ps = ParamSet()
    for name, v in (("x", x), ("w", w), ("b", b)):
        ps.add(name, v)
    tape = Tape()
    y = forward_op("conv2d", *(ps.leaf(tape, n) for n in ("x", "w", "b")),
                   **attrs)
    backward(forward_op("sum", forward_op("mul", y, Tensor(probe))), ps)
    return y.values, ps["x"].grad, ps["w"].grad, ps["b"].grad


def _upsample_conv_reference(x, w, b, probe, factor, size, padding):
    """The fused op spelled out: np.repeat, crop, plain conv2d; dx summed
    back over each factor x factor block."""
    n, c, h, wd = x.shape
    up = x.repeat(factor, axis=-2).repeat(factor, axis=-1)
    y, dup, dw, db = _conv_grads(up[..., :size[0], :size[1]], w, b, probe,
                                 padding=padding)
    full = np.zeros(up.shape)
    full[..., :size[0], :size[1]] = dup
    dx = full.reshape(n, c, h, factor, wd, factor).sum(axis=(3, 5))
    return y, dx, dw, db


@pytest.mark.parametrize("n,ci,co,k,low,factor,size", [
    (1, 3, 4, 1, (5, 4), 3, (13, 11)), (3, 3, 4, 1, (5, 4), 3, (13, 11)),
    (1, 3, 4, 3, (5, 4), 3, (14, 10)), (3, 3, 4, 3, (4, 6), 2, (7, 11)),
    (1, 2, 3, 5, (4, 3), 4, (15, 9)), (3, 2, 3, 5, (4, 3), 4, (15, 9)),
    (1, 8, 8, 3, (38, 13), 8, (300, 100))],
    ids=["k1-b1", "k1-b3", "k3-b1", "k3-b3", "k5-b1", "k5-b3", "paper"])
def test_upsampling_conv_matches_explicit_reference(n, ci, co, k, low, factor,
                                                    size):
    st = Stream(31).child(f"{n}-{k}-{low}")
    x = st.uniforms(n * ci * low[0] * low[1], -1, 1).reshape(n, ci, *low)
    w = st.uniforms(co * ci * k * k, -1, 1).reshape(co, ci, k, k)
    b = st.uniforms(co, -1, 1)
    pad = k // 2
    probe = st.uniforms(n * co * size[0] * size[1], -1, 1).reshape(
        n, co, *size)
    fused = _conv_grads(x, w, b, probe, padding=pad, upsample=factor,
                        size=size)
    ref = _upsample_conv_reference(x, w, b, probe, factor, size, pad)
    for name, got, want in zip(("y", "dx", "dW", "db"), fused, ref):
        assert got.shape == want.shape, name
        rel = np.abs(got - want).max() / np.abs(want).max()
        assert rel <= 1e-12, (name, rel)


def test_upsampling_conv_rejects_a_size_past_the_upsampled_input():
    x, w = Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ConfigurationError, match="not a crop"):
        forward_op("conv2d", x, w, padding=1, upsample=2, size=(5, 4))


# ---------------------------------------------------------------- errors ---

def test_shape_mismatch_is_configuration_error():
    with pytest.raises(ConfigurationError, match="add"):
        forward_op("add", Tensor(np.ones(3)), Tensor(np.ones(4)))
    with pytest.raises(ConfigurationError):
        forward_op("conv2d", Tensor(np.ones((1, 2, 3, 3))),
                   Tensor(np.ones((1, 3, 3, 3))), padding=0)


def test_nonfinite_output_is_numeric_error():
    with pytest.raises(NumericError, match="powc"):
        forward_op("powc", Tensor(np.array([0.0, 1.0])), exponent=-1.0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        forward_op("transmogrify", Tensor(np.ones(1)))


# ---------------------------------------------------------------- optimizer --

def test_optimizer_zero_gradient_is_bitwise_noop():
    ps = _scalar_param(np.array([0.1, -0.7, 3.14159]))
    before = ps["p"].values.copy()
    optimizer_step(ps, lr=1e-3, wd=0.0, betas=(0.9, 0.999), step=1)
    assert np.array_equal(ps["p"].values, before)


def test_optimizer_lr_zero_is_noop_even_with_decay():
    ps = _scalar_param(np.array([2.0]))
    ps["p"].grad[:] = 5.0
    optimizer_step(ps, lr=0.0, wd=0.1, betas=(0.9, 0.999), step=1)
    assert ps["p"].values.tolist() == [2.0]


def test_optimizer_first_step_hand_value():
    ps = _scalar_param(np.array([1.0]))
    ps["p"].grad[:] = 1.0
    optimizer_step(ps, lr=0.1, wd=0.0, betas=(0.9, 0.999), step=1)
    # bias-corrected first step moves by ~lr
    assert abs(ps["p"].values[0] - 0.9) < 1e-7
    assert ps["p"].grad[0] == 0.0  # cleared


def test_optimizer_weight_decay_decoupled():
    ps = _scalar_param(np.array([10.0]))
    optimizer_step(ps, lr=0.5, wd=0.01, betas=(0.9, 0.999), step=1)
    # zero gradient: only the decay term acts
    assert abs(ps["p"].values[0] - 10.0 * (1 - 0.5 * 0.01)) < 1e-12


def test_optimizer_step_must_be_positive():
    ps = _scalar_param(np.array([1.0]))
    with pytest.raises(ContractError):
        optimizer_step(ps, step=0)


# --------------------------------------------------------------- checkpoint --

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    st = Stream(77)
    entries = {
        "enc0.w": st.uniforms(24, -3, 3).reshape(2, 3, 2, 2),
        "enc0.b": st.uniforms(2, -1, 1),
        "scalar": np.array(0.1234567891234567),
        "unicode-näme": st.uniforms(5),
    }
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, entries)
    loaded = load_checkpoint(path)
    assert list(loaded) == list(entries)
    for k in entries:
        assert np.asarray(entries[k]).shape == loaded[k].shape
        assert np.array_equal(np.asarray(entries[k], dtype=float), loaded[k])
    # and the bytes themselves are reproducible
    save_checkpoint(tmp_path / "again.ckpt", loaded)
    assert (tmp_path / "model.ckpt").read_bytes() == \
        (tmp_path / "again.ckpt").read_bytes()


def test_checkpoint_magic_enforced(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ConfigurationError):
        load_checkpoint(bad)
    assert CHECKPOINT_MAGIC == b"BEVSSL01"
