import tracemalloc

import numpy as np
import pytest

from bevssl import autograd
from bevssl.autograd import (CHECKPOINT_MAGIC, ParamSet, Tape, Tensor,
                             backward, compact_output, finite_difference_check,
                             forward_op, load_checkpoint, optimizer_step,
                             save_checkpoint, upsampled)
from bevssl.errors import ConfigurationError, ContractError, NumericError
from bevssl.rng import Stream

from helpers_fd import ALL_KINDS, make_case, replay, zero_grads


# ------------------------------------------------------------ op examples --

def test_sigmoid_at_zero():
    assert forward_op("sigmoid", Tensor(np.zeros((1,)))).values[0] == 0.5


def test_relu_definition():
    """`relu=True` rectifies after the bias, and backward passes the
    gradient only where the output is positive."""
    ps = ParamSet()
    ps.add("x", np.array([-3.2, 0.5, 3.2]).reshape(1, 1, 1, 3))
    ps.add("w", np.ones((1, 1, 1, 1)))
    ps.add("b", np.array([-1.0]))
    tape = Tape()
    out = forward_op("conv2d", *(ps.leaf(tape, n) for n in ("x", "w", "b")),
                     padding=0, relu=True)
    assert out.values.ravel().tolist() == [0.0, 0.0, 2.2]
    grads = zero_grads(ps)
    backward(out, grads, np.ones(out.shape))
    assert grads["x"].ravel().tolist() == [0.0, 0.0, 1.0]
    assert grads["b"].tolist() == [1.0]


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


# --------------------------------------------------------------- backward --

def _scalar_param(values):
    ps = ParamSet()
    ps.add("p", np.asarray(values, dtype=float))
    return ps


def test_backward_sum_gives_ones():
    """The gradient of sum(p), p seeded with a cotangent of ones."""
    ps = _scalar_param(np.arange(5.0))
    tape = Tape()
    grads = zero_grads(ps)
    backward(ps.leaf(tape, "p"), grads, np.ones(5))
    assert np.array_equal(grads["p"], np.ones(5))


def _mean_square(p):
    """The mean of p^2, as the `featsim` op's mse mode against zeros."""
    return forward_op("featsim", p, target=np.zeros(p.shape), mode="mse")


def test_backward_mean_square_hand_oracle():
    vals = np.array([1.0, -2.0, 0.5, 3.0])
    ps = _scalar_param(vals)
    tape = Tape()
    loss = _mean_square(ps.leaf(tape, "p"))
    grads = zero_grads(ps)
    backward(loss, grads)
    assert np.allclose(grads["p"], 2.0 * vals / vals.size, atol=1e-15)


def test_unreachable_parameter_gets_exact_zero():
    ps = ParamSet()
    ps.add("used", np.array([2.0]))
    ps.add("unused", np.array([5.0, 1.0]))
    tape = Tape()
    loss = forward_op("wsum", ps.leaf(tape, "used"), weights=(1.0,))
    grads = zero_grads(ps)
    backward(loss, grads)
    assert grads["unused"].tolist() == [0.0, 0.0]
    assert grads["used"].tolist() == [1.0]


def test_gradient_handed_to_two_inputs_is_not_mutated():
    """`backward` adds what an input receives out of place: an input read
    twice gets both shares, and neither the caller's cotangent nor an
    earlier share changes."""
    ps = ParamSet()
    ps.add("a", np.array([0.5, -2.0]))
    ps.add("b", np.array([3.0, 1.0]))
    tape = Tape()
    a, b = ps.leaf(tape, "a"), ps.leaf(tape, "b")
    y = forward_op("wsum", a, b, a, weights=(1.0, 1.0, np.array([2.0, 3.0])))
    cot = np.array([1.0, -1.0])
    grads = zero_grads(ps)
    backward(y, grads, cot)
    assert cot.tolist() == [1.0, -1.0]
    assert grads["a"].tolist() == [3.0, -4.0]
    assert grads["b"].tolist() == [1.0, -1.0]


@pytest.mark.parametrize("kind", ["wsum"])
def test_a_constant_second_input_gets_no_gradient(kind):
    """The `wsum` rule computes no gradient for a constant input, which
    `backward` would drop."""
    ps = _scalar_param(np.array([0.5, -2.0]))
    tape = Tape()
    c = np.array([3.0, 1.0])
    y = forward_op(kind, ps.leaf(tape, "p"), Tensor(c), weights=(c, 2.0))
    node = tape.nodes[y.node_id]
    assert node.input_needs == (True, False)
    g = np.array([2.0, -1.0])
    da, db = autograd._BACKWARD_RULES[kind](node, g, [ps["p"].values, c])
    assert db is None
    assert np.array_equal(da, g * c)


def test_backward_drops_each_gradient_once_its_rule_has_run():
    """Backward through a chain of 20 ops on a 1 MB leaf holds about two
    gradients at a time, not one per node."""
    ps = _scalar_param(np.ones(1 << 17))
    tape = Tape()
    y = ps.leaf(tape, "p")
    for _ in range(20):
        y = forward_op("wsum", y, weights=(0.9,))
    cot = np.ones(y.shape)
    grads = zero_grads(ps)
    tracemalloc.start()
    try:
        backward(y, grads, cot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    assert np.allclose(grads["p"], 0.9 ** 20, rtol=1e-12)


def test_backward_adds_to_the_gradient():
    """Gradients accumulate: two backward calls on one tape leave twice the
    gradient of one."""
    vals = np.array([1.0, -2.0, 0.5, 3.0])
    ps = _scalar_param(vals)
    tape = Tape()
    loss = _mean_square(ps.leaf(tape, "p"))
    grads = zero_grads(ps)
    backward(loss, grads)
    assert np.array_equal(grads["p"], 0.5 * vals)
    backward(loss, grads)
    assert np.array_equal(grads["p"], vals)


def test_backward_adds_only_into_the_dict_it_is_given():
    """`backward` writes into the dict it is handed, for the names it holds:
    a second zero dict stays zero, the parameters hold no gradient, and a
    dict without the name takes nothing."""
    vals = np.array([1.0, -2.0, 0.5, 3.0])
    ps = _scalar_param(vals)
    tape = Tape()
    loss = _mean_square(ps.leaf(tape, "p"))
    given, other = zero_grads(ps), zero_grads(ps)
    backward(loss, given)
    assert np.array_equal(given["p"], 0.5 * vals)
    assert not other["p"].any()
    assert not hasattr(ps["p"], "grad")
    none = {}
    backward(loss, none)
    assert none == {}


def test_backward_requires_scalar_loss():
    """A float seeds a scalar root only; an array cotangent must have the
    root's shape."""
    ps = _scalar_param(np.ones(3))
    tape = Tape()
    out = forward_op("wsum", ps.leaf(tape, "p"), weights=(2.0,))
    loss = _mean_square(out)
    grads = zero_grads(ps)
    for root, cot in ((out, 1.0), (out, np.ones(2)), (out, np.ones((3, 1))),
                      (loss, np.ones(1)), (loss, np.ones(3))):
        with pytest.raises(ContractError, match="cotangent"):
            backward(root, grads, cot)
    assert not grads["p"].any()
    backward(out, grads, np.array([1.0, 0.0, -1.0]))
    assert grads["p"].tolist() == [2.0, 0.0, -2.0]
    with pytest.raises(ContractError, match="not on a tape"):
        backward(Tensor(np.zeros(())), grads)


def test_mixing_tapes_is_rejected_and_detach_works():
    ps = _scalar_param(np.array([1.5]))
    t1, t2 = Tape(), Tape()
    hidden = forward_op("sigmoid", ps.leaf(t1, "p"))
    with pytest.raises(ContractError, match="tape"):
        forward_op("wsum", hidden, ps.leaf(t2, "p"), weights=(1.0, 1.0))
    # detaching via a fresh Tensor keeps the value but blocks the gradient
    loss = forward_op("wsum", Tensor(hidden.values), ps.leaf(t2, "p"),
                      weights=(1.0, hidden.values))
    assert loss.values.tolist() == [hidden.values[0] * 2.5]
    grads = zero_grads(ps)
    backward(loss, grads)
    assert grads["p"].tolist() == hidden.values.tolist()


# ------------------------------------------------- finite-difference check --

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_gradients_match_finite_differences(kind):
    for case in range(12):
        params, f, cot = make_case(kind, Stream(1000 + case).child(kind))
        report = finite_difference_check(f, params, eps=1e-5, tol=1e-4,
                                         cotangent=cot)
        assert report.passed, (
            f"{kind} case {case}: max rel err {report.max_error:.3e}, "
            f"failures {report.failures[:3]}")


def test_fd_check_quadratic_tight():
    ps = _scalar_param(np.array([0.3, -1.2, 2.0]))

    def f(p):
        tape = Tape()
        return _mean_square(p.leaf(tape, "p"))

    report = finite_difference_check(f, ps, eps=1e-5, tol=1e-4)
    assert report.max_error < 1e-6


def test_fd_check_constant_loss_exact():
    ps = _scalar_param(np.array([1.0, 2.0]))

    def f(p):
        return forward_op("wsum", p.leaf(Tape(), "p"), weights=(0.0,))

    report = finite_difference_check(f, ps, eps=1e-5, tol=1e-4,
                                     cotangent=np.array([0.5, -1.0]))
    assert report.max_error == 0.0


# ------------------------------------------------------------------- tape --

def test_tape_replay_bit_identical():
    params, f, _ = make_case("conv2d", Stream(7).child("replay"))
    loss = f(params)
    assert replay(loss.tape)


def test_tape_topological_ids():
    params, f, _ = make_case("chained_compact", Stream(9).child("topo"))
    loss = f(params)
    # 6 leaves, bound as the 4 convs read them
    assert len(loss.tape.nodes) == 10
    for nid, node in enumerate(loss.tape.nodes):
        assert all(i < nid for i in node.input_ids)


# ------------------------------------------------ strided and upsampling --

def _conv_grads(x, w, b, probe, **attrs):
    """y, dx, dW, db of sum(conv2d(x, w, b) * probe)."""
    ps = ParamSet()
    for name, v in (("x", x), ("w", w), ("b", b)):
        ps.add(name, v)
    tape = Tape()
    y = forward_op("conv2d", *(ps.leaf(tape, n) for n in ("x", "w", "b")),
                   **attrs)
    grads = zero_grads(ps)
    backward(y, grads, probe)
    return y.values, grads["x"], grads["w"], grads["b"]


@pytest.mark.parametrize("n,k,size,stride", [
    (1, 1, (7, 6), 2), (3, 1, (8, 9), 3), (1, 3, (9, 8), 2),
    (3, 3, (10, 7), 2), (1, 5, (11, 12), 3), (3, 5, (12, 11), 2)],
    ids=["k1-b1", "k1-b3", "k3-b1", "k3-b3", "k5-b1", "k5-b3"])
def test_strided_conv_matches_stride_1_then_slice(n, k, size, stride):
    st = Stream(37).child(f"{n}-{k}-{size}")
    ci, co, pad = 3, 4, k // 2
    x = st.uniforms(n * ci * size[0] * size[1], -1, 1).reshape(n, ci, *size)
    w = st.uniforms(co * ci * k * k, -1, 1).reshape(co, ci, k, k)
    b = st.uniforms(co, -1, 1)
    hh, ww = ((d + 2 * pad - k) // stride + 1 for d in size)
    probe = st.uniforms(n * co * hh * ww, -1, 1).reshape(n, co, hh, ww)
    strided = _conv_grads(x, w, b, probe, padding=pad, stride=stride)
    # the reference computes every stride-1 output; the probe weighs only
    # the kept ones
    full = np.zeros((n, co, *(d + 2 * pad - k + 1 for d in size)))
    full[..., ::stride, ::stride] = probe
    y, dx, dw, db = _conv_grads(x, w, b, full, padding=pad)
    _assert_close(strided, (y[..., ::stride, ::stride], dx, dw, db))


def _saved_columns_conv(x, w, b, probe, pad, stride):
    """y, dx, dW, db of sum(conv2d(x, w, b) * probe) by saved columns: the
    whole batch's im2col columns built once and reused for dW, and dx
    scatter-added back one kernel tap at a time."""
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hh = (h + 2 * pad - kh) // stride + 1
    ww = (wd + 2 * pad - kw) // stride + 1
    s = xp.strides
    cols = np.lib.stride_tricks.as_strided(
        xp, (n, ci, kh, kw, hh, ww),
        (s[0], s[1], s[2], s[3], stride * s[2], stride * s[3]),
    ).reshape(n, ci * kh * kw, hh * ww)
    wm = w.reshape(co, -1)
    y = np.stack([wm @ cols[i] for i in range(n)]).reshape(n, co, hh, ww)
    gflat = probe.reshape(n, co, hh * ww)
    dw = sum(gflat[i] @ cols[i].T for i in range(n)).reshape(w.shape)
    dxp = np.zeros(xp.shape)
    for i in range(n):
        dcols = (wm.T @ gflat[i]).reshape(ci, kh, kw, hh, ww)
        for a in range(kh):
            for c in range(kw):
                dxp[i, :, a:a + stride * (hh - 1) + 1:stride,
                    c:c + stride * (ww - 1) + 1:stride] += dcols[:, a, c]
    dx = dxp[:, :, pad:pad + h, pad:pad + wd]
    return (y + b[:, None, None], dx, dw, probe.sum(axis=(0, 2, 3)))


# k is (rows, cols).  ci < co everywhere but in the cases that narrow 5
# channels to 2.  A non-square kernel's pad can exceed k - 1 along one axis
# only, so the stride-1 dx pads g along one axis and crops it along the other
_PARITY_CASES = ([((k, k), pad, stride, n, size, 3, 4)
                  for k in (1, 3, 5) for pad in range(k + 2)
                  for stride in (1, 2, 3)
                  for n in (1, 3) for size in ((9, 7), (10, 8))]
                 + [((k, k), pad, stride, n, (9, 7), 5, 2)
                    for k in (1, 3, 5) for pad in (0, k // 2, k + 1)
                    for stride in (1, 2, 3) for n in (1, 3)]
                 + [(k, pad, stride, 2, size, 3, 4)
                    for k in ((1, 3), (3, 1), (3, 5))
                    for pad in range(max(k) + 2) for stride in (1, 2, 3)
                    for size in ((9, 7), (10, 8))])


def _kernel_name(k):
    return f"{k[0]}" if k[0] == k[1] else f"{k[0]}x{k[1]}"


@pytest.mark.parametrize(
    "k,pad,stride,n,size,ci,co", _PARITY_CASES,
    ids=[f"k{_kernel_name(k)}-p{p}-s{s}-b{n}-"
         f"{'odd' if size[0] % 2 else 'even'}"
         + ("" if ci < co else f"-ci{ci}-co{co}")
         for k, p, s, n, size, ci, co in _PARITY_CASES])
def test_conv_matches_saved_columns_reference(k, pad, stride, n, size, ci,
                                              co):
    st = Stream(41).child(f"{_kernel_name(k)}-{pad}-{stride}-{n}-{size}"
                          + ("" if ci < co else f"-{ci}-{co}"))
    x = st.uniforms(n * ci * size[0] * size[1], -1, 1).reshape(n, ci, *size)
    w = st.uniforms(co * ci * k[0] * k[1], -1, 1).reshape(co, ci, *k)
    b = st.uniforms(co, -1, 1)
    hh, ww = ((d + 2 * pad - kd) // stride + 1 for d, kd in zip(size, k))
    probe = st.uniforms(n * co * hh * ww, -1, 1).reshape(n, co, hh, ww)
    _assert_close(_conv_grads(x, w, b, probe, padding=pad, stride=stride),
                  _saved_columns_conv(x, w, b, probe, pad, stride))


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("rows", [1, 2, 3],
                         ids=["bands-1x7", "bands-2-2-2-1", "bands-3-3-1"])
def test_banded_columns_match_saved_columns_reference(monkeypatch, rows,
                                                      stride):
    """A budget of `rows` output rows splits the 7 output rows of the
    forward into uneven bands, the last of one row; dx and dW run through
    bands of their own."""
    st = Stream(43).child(f"{rows}-{stride}")
    n, ci, co, k, pad = 2, 3, 4, 3, 1
    size = (6 * stride + 1, 6)
    hh, ww = ((d + 2 * pad - k) // stride + 1 for d in size)
    assert hh == 7
    monkeypatch.setattr(autograd, "_BAND_DOUBLES", rows * ci * k * k * ww)
    x = st.uniforms(n * ci * size[0] * size[1], -1, 1).reshape(n, ci, *size)
    w = st.uniforms(co * ci * k * k, -1, 1).reshape(co, ci, k, k)
    b = st.uniforms(co, -1, 1)
    probe = st.uniforms(n * co * hh * ww, -1, 1).reshape(n, co, hh, ww)
    _assert_close(_conv_grads(x, w, b, probe, padding=pad, stride=stride),
                  _saved_columns_conv(x, w, b, probe, pad, stride))


@pytest.mark.parametrize("factor", [None, 2])
def test_relu_conv_is_the_conv_rectified_and_masked(factor):
    """`relu=True` gives exactly max(y, 0), and exactly the gradients of the
    plain conv with the probe zeroed where y <= 0."""
    st = Stream(47).child(str(factor))
    x = st.uniforms(2 * 3 * 6 * 5, -1, 1).reshape(2, 3, 6, 5)
    w = st.uniforms(4 * 3 * 3 * 3, -1, 1).reshape(4, 3, 3, 3)
    b = st.uniforms(4, -1, 1)
    attrs = ({"stride": 1} if factor is None
             else {"expand": upsampled((11, 9), factor)})
    y = forward_op("conv2d", Tensor(x), Tensor(w), Tensor(b), padding=1,
                   **attrs).values
    assert (y < 0).any() and (y > 0).any()
    probe = st.uniforms(y.size, -1, 1).reshape(y.shape)
    got = _conv_grads(x, w, b, probe, padding=1, relu=True, **attrs)
    want = _conv_grads(x, w, b, probe * (y > 0), padding=1, **attrs)
    assert np.array_equal(got[0], np.maximum(want[0], 0.0))
    for g, wt in zip(got[1:], want[1:]):
        assert np.array_equal(g, wt)


def _assert_close(got, want):
    """y, dx, dW, db each within 1e-12 of `want`, relative to its largest
    entry."""
    for name, g, wt in zip(("y", "dx", "dW", "db"), got, want):
        assert g.shape == wt.shape, name
        rel = np.abs(g - wt).max() / np.abs(wt).max()
        assert rel <= 1e-12, (name, rel)


def test_conv_rejects_a_bad_stride():
    x, w = Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ConfigurationError, match="stride"):
        forward_op("conv2d", x, w, padding=1, stride=0)
    with pytest.raises(ConfigurationError, match="stride"):
        forward_op("conv2d", x, w, padding=1, stride=2,
                   expand=upsampled((8, 8), 2))


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
    fused = _conv_grads(x, w, b, probe, padding=pad,
                        expand=upsampled(size, factor))
    _assert_close(fused,
                  _upsample_conv_reference(x, w, b, probe, factor, size, pad))


def test_upsampling_conv_rejects_a_size_past_the_upsampled_input():
    x, w = Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ConfigurationError, match="does not match its maps"):
        forward_op("conv2d", x, w, padding=1, expand=upsampled((5, 4), 2))


_COMPACT_CASES = [(f, size, k) for f in (1, 2, 4, 8)
                  for size in ((4 * f, 2 * f), (30, 18), (25, 9))
                  for k in (1, 3, 5)]


@pytest.mark.parametrize("f,size,k", _COMPACT_CASES,
                         ids=[f"f{f}-{r}x{c}-k{k}"
                              for f, (r, c), k in _COMPACT_CASES])
def test_compact_lift_and_expanded_conv_match_the_dense_pair(f, size, k):
    """A lift that writes its distinct outputs only, read by a conv that
    expands them, gives the dense lift -> dense conv's output, both kernel
    gradients and dx."""
    st = Stream(53).child(f"{f}-{size}-{k}")
    n, ci, cm, co, pad = 2, 3, 4, 5, k // 2
    low = tuple(-(-d // f) for d in size)
    ps = ParamSet()
    ps.add("x", st.uniforms(n * ci * low[0] * low[1], -1, 1).reshape(
        n, ci, *low))
    ps.add("w1", st.uniforms(cm * ci * k * k, -1, 1).reshape(cm, ci, k, k))
    ps.add("w2", st.uniforms(co * cm * k * k, -1, 1).reshape(co, cm, k, k))
    probe = st.uniforms(n * co * size[0] * size[1], -1, 1).reshape(
        n, co, *size)
    lift = dict(expand=upsampled(size, f), padding=pad)
    results = []
    for compact in (False, True):
        grads = zero_grads(ps)
        tape = Tape()
        x, w1, w2 = (ps.leaf(tape, name) for name in ("x", "w1", "w2"))
        if compact:
            mid = forward_op("conv2d", x, w1, compact=True, **lift)
            read = compact_output(lift["expand"], (k, k), pad)
            assert mid.shape[2:] == _maps(read)
            y = forward_op("conv2d", mid, w2, padding=pad, expand=read)
        else:
            y = forward_op("conv2d", forward_op("conv2d", x, w1, **lift), w2,
                           padding=pad)
        backward(y, grads, probe)
        results.append((y.values, grads["x"], grads["w1"], grads["w2"]))
    dense, compact = results
    for name, g, wt in zip(("y", "dx", "dW1", "dW2"), compact, dense):
        assert g.shape == wt.shape, name
        rel = np.abs(g - wt).max() / np.abs(wt).max()
        assert rel <= 1e-12, (name, rel)


def _maps(expand):
    """The compact input's shape that `expand` reads: one past each axis's
    last entry."""
    return tuple(axis[-1] + 1 for axis in expand)


def _read(size, f, k=3, levels=1):
    """`expand` of the compact map that `levels` k x k convs, padded by
    k // 2, write after a map upsampled by `f` and cropped to `size`."""
    expand = upsampled(size, f)
    for _ in range(levels):
        expand = compact_output(expand, (k, k), k // 2)
    return expand


def test_distinct_outputs_of_the_model_geometries():
    """x8 at kernel 3 repeats cells (36 x 12 of the small grid's 96 x 32,
    114 x 39 of the paper grid's 300 x 100); x2 at kernel 3 repeats none."""
    assert _maps(_read((96, 32), 8)) == (36, 12)
    assert _maps(_read((300, 100), 8)) == (114, 39)
    assert _maps(_read((30, 18), 2)) == (30, 18)
    assert _maps(upsampled((96, 32), 8)) == (12, 4)
    assert _maps(upsampled((25, 9), 4)) == (7, 3)


def test_compact_conv_rejects_a_size_past_the_upsampled_input():
    x, w = Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3)))
    with pytest.raises(ConfigurationError, match="does not match its maps"):
        forward_op("conv2d", x, w, padding=1, expand=upsampled((5, 4), 2),
                   compact=True)
    with pytest.raises(ConfigurationError, match="compact needs expand"):
        forward_op("conv2d", x, w, padding=1, compact=True)


_CHAIN_CASES = [(f, size, k, levels) for f in (2, 4, 8)
                for size in ((4 * f, 2 * f), (30, 18), (25, 9))
                for k in (1, 3) for levels in (2, 3)]


@pytest.mark.parametrize("f,size,k,levels", _CHAIN_CASES,
                         ids=[f"f{f}-{r}x{c}-k{k}-l{n}"
                              for f, (r, c), k, n in _CHAIN_CASES])
def test_compact_chain_matches_the_dense_chain(f, size, k, levels):
    """A compact lift read by convs that each write compactly, the last
    reading a `levels`-level compact map, and a conv that reads that map
    at grid resolution: output, dx and every dW equal the dense chain's."""
    st = Stream(59).child(f"{f}-{size}-{k}-{levels}")
    n, pad = 2, k // 2
    widths = (3, 4, 5, 4, 2)[:levels + 2]
    low = tuple(-(-d // f) for d in size)
    ps = ParamSet()
    ps.add("x", st.uniforms(n * 3 * low[0] * low[1], -1, 1).reshape(
        n, 3, *low))
    names = [f"w{i}" for i in range(levels + 1)]
    for name, c_in, c_out in zip(names, widths, widths[1:]):
        ps.add(name, st.uniforms(c_out * c_in * k * k, -1, 1).reshape(
            c_out, c_in, k, k))
    probe = st.uniforms(n * widths[-1] * size[0] * size[1], -1, 1).reshape(
        n, widths[-1], *size)
    results = []
    for compact in (False, True):
        grads = zero_grads(ps)
        tape = Tape()
        y = ps.leaf(tape, "x")
        expand = upsampled(size, f)
        for i, name in enumerate(names):
            attrs = dict(padding=pad)
            if i == 0 or compact:
                attrs["expand"] = expand
            if compact and i < levels:
                attrs["compact"] = True
                expand = compact_output(expand, (k, k), pad)
            y = forward_op("conv2d", y, ps.leaf(tape, name), **attrs)
        assert y.shape == (n, widths[-1], *size)
        backward(y, grads, probe)
        results.append((y.values, *(grads[name] for name in ["x", *names])))
    dense, compact = results
    for name, g, wt in zip(("y", "dx", *names), compact, dense):
        assert g.shape == wt.shape, name
        rel = np.abs(g - wt).max() / np.abs(wt).max()
        assert rel <= 1e-12, (name, rel)


_ROUTE_CASES = [(f, size, k, levels, compact)
                for f, size, k in ((8, (96, 32), 3), (4, (30, 18), 3),
                                   (3, (25, 9), 5), (2, (12, 10), 1))
                for levels in (0, 1, 2) for compact in (False, True)]


@pytest.mark.parametrize("f,size,k,levels,compact", _ROUTE_CASES,
                         ids=[f"f{f}-{r}x{c}-k{k}-l{n}-{'c' if cp else 'g'}"
                              for f, (r, c), k, n, cp in _ROUTE_CASES])
def test_both_forward_routes_give_the_same_outputs(monkeypatch, f, size, k,
                                                    levels, compact):
    """The tap-matrix and the gathered-column routes of a conv reading
    through `expand`, with no level or some, agree to rounding."""
    st = Stream(61).child(f"{f}-{size}-{k}-{levels}-{compact}")
    pad = k // 2
    attrs = dict(padding=pad, compact=compact,
                 expand=_read(size, f, k, levels))
    shape = _maps(attrs["expand"])
    x = Tensor(st.uniforms(2 * 3 * shape[0] * shape[1], -1, 1).reshape(
        2, 3, *shape))
    w = Tensor(st.uniforms(4 * 3 * k * k, -1, 1).reshape(4, 3, k, k))
    outs = []
    for route in ("taps", "gather"):
        monkeypatch.setattr(autograd, "_upconv_route", lambda *_: route)
        outs.append(forward_op("conv2d", x, w, **attrs).values)
    taps, gathered = outs
    assert taps.shape == gathered.shape
    assert np.abs(taps - gathered).max() <= 1e-12 * np.abs(taps).max()


def test_distinct_outputs_of_the_model_decoder():
    """dec0 and dec1 of the default model, reading the x8 lift at kernel 3,
    have 60 x 20 and 84 x 28 distinct outputs on the small grid, and
    189 x 64 and 263 x 88 on the paper grid."""
    assert _maps(_read((96, 32), 8, levels=2)) == (60, 20)
    assert _maps(_read((96, 32), 8, levels=3)) == (84, 28)
    assert _maps(_read((300, 100), 8, levels=2)) == (189, 64)
    assert _maps(_read((300, 100), 8, levels=3)) == (263, 88)


def test_tap_matrices_and_gather_indices_are_cached_read_only():
    w = (64, 32, 3, 3)
    attrs = dict(padding=1, expand=_read((96, 32), 8, levels=2))
    for expanded in (False, True):
        first = autograd._tap_matrices(w, attrs, expanded)
        again = autograd._tap_matrices(w, attrs, expanded)
        for arr, arr_again in zip(first, again):
            assert arr is arr_again and not arr.flags.writeable
    index = autograd._read_index(attrs["expand"], (3, 3), 1)
    assert index.shape == (84 * 28, 9) and not index.flags.writeable
    assert autograd._read_index(attrs["expand"], (3, 3), 1) is index
    # the helpers are cached too, so each forward reuses one description
    assert _read((96, 32), 8, levels=2) is attrs["expand"]
    assert upsampled((96, 32), 8) is upsampled((96, 32), 8)


@pytest.mark.parametrize("masked", (False, True), ids=("nothing", "masked"))
@pytest.mark.parametrize("f,size,k", _COMPACT_CASES,
                         ids=[f"f{f}-{r}x{c}-k{k}"
                              for f, (r, c), k in _COMPACT_CASES])
def test_read_index_is_the_grid_cell_each_tap_reads(f, size, k, masked):
    """Per output and tap, the read index is the grid cell the tap reads,
    mapped to the compact input through `expand`, or the zero slot where
    the tap reads padding or, in the index a masked conv reads
    (`_masked_index`), a cell of the drop mask; without a mask each
    distinct output stands for every output of its run."""
    pad = k // 2
    st = Stream(71).child(f"{f}-{size}-{k}")
    drop = st.uniforms(size[0] * size[1]).reshape(size) > 0.5
    for expand in (upsampled(size, f), _read(size, f, k)):
        src_r, src_c = expand
        shape = _maps(expand)
        zero = shape[0] * shape[1]
        expect = np.full((*size, k, k), zero)
        for i, j, a, b in np.ndindex(*size, k, k):
            r, c = i + a - pad, j + b - pad
            if (0 <= r < size[0] and 0 <= c < size[1]
                    and not (masked and drop[r, c])):
                expect[i, j, a, b] = src_r[r] * shape[1] + src_c[c]
        expect = expect.reshape(*size, k * k)
        if masked:
            index = autograd._masked_index(
                dict(expand=expand, padding=pad, drop=drop), (k, k))
            assert np.array_equal(index.transpose(1, 2, 0), expect)
            continue
        index = autograd._read_index(expand, (k, k), pad)
        runs = [autograd._axis_runs(axis, k, pad)[1] for axis in expand]
        distinct = index.reshape(runs[0][-1] + 1, runs[1][-1] + 1, k * k)
        assert np.array_equal(distinct[runs[0]][:, runs[1]], expect)


@pytest.mark.parametrize("every", (False, True), ids=("random", "all"))
@pytest.mark.parametrize("f,size,k", _COMPACT_CASES,
                         ids=[f"f{f}-{r}x{c}-k{k}"
                              for f, (r, c), k in _COMPACT_CASES])
def test_kept_taps_are_the_taps_that_read_a_kept_cell(f, size, k, every):
    """Per output and tap, a tap is kept where it reads a cell of the map
    that the drop mask keeps, and not where it reads padding."""
    pad = k // 2
    st = Stream(73).child(f"{f}-{size}-{k}")
    drop = st.uniforms(size[0] * size[1]).reshape(size) > 0.5
    if every:
        drop[...] = True
    expect = np.zeros((*size, k, k), dtype=bool)
    for i, j, a, b in np.ndindex(*size, k, k):
        r, c = i + a - pad, j + b - pad
        expect[i, j, a, b] = (0 <= r < size[0] and 0 <= c < size[1]
                              and not drop[r, c])
    assert np.array_equal(autograd._kept_taps(drop, (k, k), pad), expect)


def test_expand_map_is_the_expanding_identity_conv():
    st = Stream(67)
    x = st.uniforms(2 * 3 * 84 * 28, -1, 1).reshape(2, 3, 84, 28)
    expand = _read((96, 32), 8, levels=3)
    full = autograd.expand_map(x, expand)
    eye = np.eye(3).reshape(3, 3, 1, 1)
    want = forward_op("conv2d", Tensor(x), Tensor(eye), expand=expand).values
    assert full.shape == (2, 3, 96, 32)
    assert np.array_equal(full, want)


def test_conv_rejects_an_unknown_attribute():
    """A misspelt or retired attribute fails by name instead of running a
    plain conv."""
    x, w = Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3)))
    for key in ("upsampel", "upsample", "pad", "size"):
        with pytest.raises(ConfigurationError, match=f"unknown attribute "
                           f"'{key}'"):
            forward_op("conv2d", x, w, padding=1, **{key: 2})
    assert forward_op("conv2d", x, w, padding=1, expand=upsampled((8, 8), 2),
                      stride=1, compact=False, relu=True).shape == (1, 1, 8, 8)


_LIFTED = upsampled((16, 8), 4)         # reads a 4 x 2 map
_READ = _read((16, 8), 4)               # reads a 12 x 6 map
_ROWS, _COLS = _READ
_MALFORMED = {
    "empty-axis": dict(expand=((), _COLS)),
    "not-from-0": dict(expand=((1, 2, 3), _COLS)),
    "step-of-2": dict(expand=((0, 2, 3), _COLS)),
    "step-back": dict(expand=((0, 1, 0), _COLS)),
    "non-int": dict(expand=((0, 1.0, 2), _COLS)),
    "list-axis": dict(expand=(list(_ROWS), _COLS)),
    "one-axis": dict(expand=(_ROWS,)),
    "factor-form": dict(expand=(4,)),
    "chain-form": dict(expand=(4, 3, 3, 1)),
    "input-off-its-shape": dict(expand=_READ, shape=(12, 5),
                                match="does not match its maps"),
    "full-map-input": dict(expand=_READ, shape=(16, 8),
                           match="does not match its maps"),
    "low-res-input": dict(expand=_READ, shape=(4, 2),
                          match="does not match its maps"),
    "drop-off-full-map": dict(expand=_READ, match="no bool mask",
                              drop=np.zeros((16, 7), dtype=bool)),
    "drop-and-compact": dict(expand=_READ, compact=True,
                             match="exclude each other",
                             drop=np.zeros((16, 8), dtype=bool)),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_expand_rejects_a_malformed_description(case):
    """`expand` is a pair of int tuples from 0 in steps of 0 or 1, the
    input one past each tuple's last entry a side, and a `drop` mask the
    full map's shape; anything else, the retired chain form included, is a
    ConfigurationError."""
    w = Tensor(np.ones((1, 1, 3, 3)))
    assert forward_op("conv2d", Tensor(np.ones((1, 1, 4, 2))), w, padding=1,
                      expand=_LIFTED).shape == (1, 1, 16, 8)
    assert forward_op("conv2d", Tensor(np.ones((1, 1, 12, 6))), w, padding=1,
                      expand=_READ).shape == (1, 1, 16, 8)
    attrs = dict(_MALFORMED[case])
    x = Tensor(np.ones((1, 1, *attrs.pop("shape", (12, 6)))))
    with pytest.raises(ConfigurationError,
                       match=attrs.pop("match", "no pair of per-axis")):
        forward_op("conv2d", x, w, padding=1, **attrs)


# ---------------------------------------------------------------- errors ---

def test_shape_mismatch_is_configuration_error():
    with pytest.raises(ConfigurationError, match="wsum"):
        forward_op("wsum", Tensor(np.ones(3)), Tensor(np.ones(4)),
                   weights=(1.0, 1.0))
    with pytest.raises(ConfigurationError, match="wsum"):
        forward_op("wsum", Tensor(np.ones(3)), weights=(np.ones(4),))
    with pytest.raises(ConfigurationError, match="wsum"):
        forward_op("wsum", Tensor(np.ones(3)), weights=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        forward_op("conv2d", Tensor(np.ones((1, 2, 3, 3))),
                   Tensor(np.ones((1, 3, 3, 3))), padding=0)


def test_nonfinite_output_is_numeric_error():
    with pytest.raises(NumericError, match="wsum"):
        forward_op("wsum", Tensor(np.array([1.0, 2.0])), weights=(np.inf,))
    with pytest.raises(NumericError, match="wsum"):
        forward_op("wsum", Tensor(np.ones(2)),
                   weights=(np.array([1.0, np.nan]),))
    # checked before the in-place ReLU, which would turn -inf into 0
    with pytest.raises(NumericError, match="conv2d"):
        forward_op("conv2d", Tensor(np.ones((1, 1, 2, 2))),
                   Tensor(np.ones((1, 1, 1, 1))), Tensor(np.array([-np.inf])),
                   relu=True)


def _rectified_conv_inputs(kind: str):
    """Input, kernel and attrs of a rectified conv of each path: dense,
    strided, upsampling, and expanding with a drop mask."""
    w = np.ones((3, 2, 3, 3))
    if kind == "dense":
        return np.ones((1, 2, 4, 4)), w, dict(padding=1)
    if kind == "strided":
        return np.ones((1, 2, 5, 5)), w, dict(padding=1, stride=2)
    if kind == "upsample":
        return np.ones((1, 2, 4, 4)), w, dict(padding=1,
                                               expand=upsampled((7, 8), 2))
    drop = np.zeros((16, 8), dtype=bool)
    drop[4, 4] = True
    return np.ones((1, 2, 12, 6)), w, dict(padding=1, expand=_READ,
                                           drop=drop)


@pytest.mark.parametrize("kind", ["dense", "strided", "upsample", "drop"])
@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_nan_reaching_a_rectified_conv_is_numeric_error(kind, taped):
    """A rectified conv checks its output once, before the ReLU, on every
    path, taped or not."""
    x, w, attrs = _rectified_conv_inputs(kind)
    x[0, 1, 2, 3] = np.nan
    ps = ParamSet()
    ps.add("x", x)
    tape = Tape() if taped else None
    with pytest.raises(NumericError, match="conv2d"):
        forward_op("conv2d", ps.leaf(tape, "x"), Tensor(w), relu=True,
                   **attrs)


@pytest.mark.parametrize("kind", ["dense", "strided", "upsample", "drop"])
def test_a_constant_kernel_gets_no_gradient(kind):
    """Backward computes dx but not dW when the kernel reaches no
    parameter."""
    x, w, attrs = _rectified_conv_inputs(kind)
    ps = ParamSet()
    ps.add("x", x)
    tape = Tape()
    y = forward_op("conv2d", ps.leaf(tape, "x"), Tensor(w), **attrs)
    node = tape.nodes[y.node_id]
    assert node.input_needs == (True, False)
    dx, dw = autograd._bw_conv2d(node, np.ones(y.shape), [x, w])
    assert dw is None and dx.shape == x.shape
    want = _conv_grads(x, w, np.zeros(3), np.ones(y.shape), **attrs)[1]
    assert np.abs(dx - want).max() <= 1e-12 * np.abs(want).max()


def test_conv_rejects_a_bad_drop_mask():
    x, w, attrs = _rectified_conv_inputs("drop")
    for bad in (attrs["drop"][:, :7], attrs["drop"].astype(float),
                attrs["drop"].tolist()):
        with pytest.raises(ConfigurationError, match="no bool mask"):
            forward_op("conv2d", Tensor(x), Tensor(w), **{**attrs,
                                                          "drop": bad})
    with pytest.raises(ConfigurationError, match="drop needs expand"):
        forward_op("conv2d", Tensor(np.ones((1, 2, 16, 8))), Tensor(w),
                   padding=1, drop=attrs["drop"])


def test_unknown_kind_rejected():
    with pytest.raises(ConfigurationError):
        forward_op("transmogrify", Tensor(np.ones(1)))


# ---------------------------------------------------------------- optimizer --

def test_optimizer_zero_gradient_is_bitwise_noop():
    ps = _scalar_param(np.array([0.1, -0.7, 3.14159]))
    before = ps["p"].values.copy()
    optimizer_step(ps, zero_grads(ps), lr=1e-3, wd=0.0, betas=(0.9, 0.999),
                   step=1)
    assert np.array_equal(ps["p"].values, before)


def test_optimizer_lr_zero_is_noop_even_with_decay():
    ps = _scalar_param(np.array([2.0]))
    optimizer_step(ps, {"p": np.array([5.0])}, lr=0.0, wd=0.1,
                   betas=(0.9, 0.999), step=1)
    assert ps["p"].values.tolist() == [2.0]


def test_optimizer_first_step_hand_value():
    ps = _scalar_param(np.array([1.0]))
    grads = {"p": np.array([1.0])}
    optimizer_step(ps, grads, lr=0.1, wd=0.0, betas=(0.9, 0.999), step=1)
    # bias-corrected first step moves by ~lr
    assert abs(ps["p"].values[0] - 0.9) < 1e-7
    assert grads["p"].tolist() == [1.0]  # read, not cleared


def test_optimizer_step_leaves_the_gradients_unchanged():
    """The step reads `grads` and writes only the parameters: the dict keeps
    its arrays and their values over several steps."""
    ps = _scalar_param(np.array([0.5, -1.5, 2.0]))
    grads = {"p": np.array([0.25, -3.0, 1e-3])}
    array, before = grads["p"], grads["p"].copy()
    for step in (1, 2, 3):
        optimizer_step(ps, grads, lr=0.1, wd=1e-2, betas=(0.9, 0.999),
                       step=step)
    assert list(grads) == ["p"] and grads["p"] is array
    assert np.array_equal(array, before)
    assert not np.array_equal(ps["p"].values, [0.5, -1.5, 2.0])


def test_optimizer_weight_decay_decoupled():
    ps = _scalar_param(np.array([10.0]))
    optimizer_step(ps, zero_grads(ps), lr=0.5, wd=0.01, betas=(0.9, 0.999),
                   step=1)
    # zero gradient: only the decay term acts
    assert abs(ps["p"].values[0] - 10.0 * (1 - 0.5 * 0.01)) < 1e-12


def test_optimizer_step_must_be_positive():
    ps = _scalar_param(np.array([1.0]))
    with pytest.raises(ContractError):
        optimizer_step(ps, zero_grads(ps), 1e-3, 1e-4, (0.9, 0.999), step=0)


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
