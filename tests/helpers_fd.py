"""Random finite-difference cases for every op in the catalog, and a tape
replay check.

Each case packs the differentiable inputs of one op into a ParamSet and
returns a closure building `sum(op(...) * W)` for a fixed random weighting W,
so transposition mistakes in backward rules cannot cancel out.  Besides one
case per op kind there is a `relu` case: the conv2d op with `relu=True`, its
pre-activations kept clear of the kink, a `compact` case: a conv2d reading
its input upsampled (`expand=(f,)`) that writes only its distinct outputs
(`compact=True`), feeding a conv2d that reads them as the full map
(`expand=(f, k, k, pad)`), a `masked_expand` case: the same pair with cells
of the full map dropped (`drop`), and a `chained_compact` case: two more
compact convs after the compact upsampling one, the second reading a
two-level compact map, and a conv that reads the three-level map at grid
resolution.  The `featsim` case feeds the op a student map with cells
zeroed by a constant 0/1 mask and a constant teacher map, with zero-vector
cells on the student side, on the teacher side and on both.  The `focal`
case feeds the op probabilities in [0.05, 0.95] against soft targets, with
about a third of the cells excluded.
"""

from __future__ import annotations

import numpy as np

from bevssl.autograd import (_FORWARD_RULES, OP_KINDS, ParamSet, Tape, Tensor,
                             forward_op)
from bevssl.rng import Stream

ALL_KINDS = list(OP_KINDS) + ["relu", "compact", "masked_expand",
                              "chained_compact"]


def zero_grads(params: ParamSet) -> dict[str, np.ndarray]:
    """A zero gradient per parameter: the dict `backward` adds into."""
    return {name: np.zeros_like(p.values) for name, p in params.items()}


def _arr(stream: Stream, shape, lo=-1.5, hi=1.5):
    return stream.uniforms(int(np.prod(shape)), lo, hi).reshape(shape)


def make_case(kind: str, stream: Stream):
    """(params, f) such that f(params) is a scalar Tensor applying `kind`."""
    if kind in ("compact", "masked_expand"):
        return _compact_case(stream, kind == "masked_expand")
    if kind == "chained_compact":
        return _chain_case(stream)
    if kind == "featsim":
        return _featsim_case(stream)
    if kind == "focal":
        return _focal_case(stream)
    op = "conv2d" if kind == "relu" else kind
    params = ParamSet()
    attrs: dict = {}
    consts: dict = {}

    if kind in ("add", "mul"):
        shape = (stream.randrange(1, 4), stream.randrange(2, 6))
        params.add("a", _arr(stream, shape))
        params.add("b", _arr(stream, shape))
        inputs = ("a", "b")
    elif kind == "conv2d":
        params, attrs = _conv_case(stream)
        inputs = ("a", "b", "c")
    elif kind == "relu":
        while True:
            params, attrs = _conv_case(stream)
            if _clear_of_kink(params, attrs):
                break
        attrs["relu"] = True
        inputs = ("a", "b", "c")
    elif kind in ("sigmoid", "sum"):
        shape = (stream.randrange(2, 5), stream.randrange(2, 5))
        params.add("a", _arr(stream, shape))
        inputs = ("a",)
    elif kind == "scale":
        params.add("a", _arr(stream, (stream.randrange(2, 5),)))
        attrs["factor"] = stream.uniform(-2.0, 2.0)
        inputs = ("a",)
    else:
        raise AssertionError(f"no case builder for op '{kind}'")

    probe_shape = _out_shape(op, params, inputs, attrs)
    consts["probe"] = _arr(stream, probe_shape, -1.0, 1.0)

    def f(ps: ParamSet) -> Tensor:
        tape = Tape()
        args = [ps.leaf(tape, name) for name in inputs]
        out = forward_op(op, *args, **attrs)
        if out.values.ndim == 0:
            return out
        return forward_op("sum", forward_op("mul", out, Tensor(consts["probe"])))

    return params, f


def _conv_case(stream: Stream):
    """Input, kernel and bias of a random conv2d, and its attrs."""
    params = ParamSet()
    attrs: dict = {}
    n = stream.randrange(1, 3)
    ci, co = stream.randrange(1, 4), stream.randrange(1, 4)
    kh, kw = stream.randrange(1, 4), stream.randrange(1, 4)
    pad = stream.randint(2)
    h = stream.randrange(kh, kh + 4)
    w = stream.randrange(kw, kw + 4)
    f = stream.randint(4)
    if f:
        # nearest-upsample by f, then crop to (h, w): the crop is smaller
        # than the upsampled input and, for f > 1, not a multiple of f
        h += int(f > 1 and h % f == 0)
        w += int(f > 1 and w % f == 0)
        attrs.update(expand=(f,), size=(h, w))
        h, w = -(-h // f), -(-w // f)
    else:
        attrs["stride"] = stream.randrange(1, 4)
    params.add("a", _arr(stream, (n, ci, h, w)))
    params.add("b", _arr(stream, (co, ci, kh, kw)))
    params.add("c", _arr(stream, (co,)))
    attrs["padding"] = pad
    return params, attrs


def _compact_case(stream: Stream, masked: bool):
    """A compact upsampling conv (input `a`, kernel `b`, bias `c`) read by
    an expanding conv (kernel `d`, bias `e`), weighted by a random probe;
    if `masked`, the expanding conv drops about half the cells it reads."""
    params = ParamSet()
    n = stream.randrange(1, 3)
    ci, cm, co = (stream.randrange(1, 4) for _ in range(3))
    k1, k2 = (2 * stream.randint(3) + 1 for _ in range(2))
    up = stream.randrange(2, 5)
    size = (stream.randrange(k1, 3 * up + 2), stream.randrange(k1, 3 * up + 2))
    lift = dict(expand=(up,), size=size, padding=k1 // 2)
    read = dict(expand=(up, k1, k1, k1 // 2), size=size, padding=k2 // 2)
    params.add("a", _arr(stream, (n, ci, *(-(-d // up) for d in size))))
    params.add("b", _arr(stream, (cm, ci, k1, k1)))
    params.add("c", _arr(stream, (cm,)))
    params.add("d", _arr(stream, (co, cm, k2, k2)))
    params.add("e", _arr(stream, (co,)))
    probe = _arr(stream, (n, co, *size), -1.0, 1.0)
    if masked:
        read["drop"] = _arr(stream, size) > 0.0

    def f(ps: ParamSet) -> Tensor:
        tape = Tape()
        a, b, c, d, e = (ps.leaf(tape, name) for name in "abcde")
        mid = forward_op("conv2d", a, b, c, compact=True, **lift)
        out = forward_op("conv2d", mid, d, e, **read)
        return forward_op("sum", forward_op("mul", out, Tensor(probe)))

    return params, f


def _chain_case(stream: Stream):
    """A compact upsampling conv (input `a`, kernel `b`) read by a conv
    that writes compactly (kernel `c`), then by one that reads that
    two-level compact map and writes compactly too (kernel `d`), and a
    conv that reads the three-level map at grid resolution as the model's
    head does (kernel `e`, bias `f`), weighted by a random probe."""
    params = ParamSet()
    n = stream.randrange(1, 3)
    widths = [stream.randrange(1, 3) for _ in range(5)]
    ks = [2 * stream.randint(3) + 1 for _ in range(3)] + [
        2 * stream.randint(2) + 1]
    up = stream.randrange(2, 5)
    size = (stream.randrange(ks[0], 3 * up + 2),
            stream.randrange(ks[0], 3 * up + 2))
    params.add("a", _arr(stream, (n, widths[0], *(-(-d // up) for d in size))))
    for name, k, c_in, c_out in zip("bcde", ks, widths, widths[1:]):
        params.add(name, _arr(stream, (c_out, c_in, k, k)))
    params.add("f", _arr(stream, (widths[4],)))
    probe = _arr(stream, (n, widths[4], *size), -1.0, 1.0)

    def f(ps: ParamSet) -> Tensor:
        tape = Tape()
        a, b, c, d, e, bias = (ps.leaf(tape, name) for name in "abcdef")
        x = forward_op("conv2d", a, b, expand=(up,), size=size,
                       padding=ks[0] // 2, compact=True)
        levels = (ks[0], ks[0], ks[0] // 2)
        for w, k in ((c, ks[1]), (d, ks[2])):
            x = forward_op("conv2d", x, w, padding=k // 2, size=size,
                           expand=(up, *levels), compact=True)
            levels += (k, k, k // 2)
        out = forward_op("conv2d", x, e, bias, padding=ks[3] // 2, size=size,
                         expand=(up, *levels))
        return forward_op("sum", forward_op("mul", out, Tensor(probe)))

    return params, f


def zeroed_cells(stream: Stream, n: int, cells: int):
    """Cell keep masks (n, 1, cells) of a student and a teacher map: per
    sample, one cell zero in the student only, one in the teacher only and
    one in both."""
    keep_s, keep_t = np.ones((2, n, 1, cells))
    for i in range(n):
        only_s, only_t, both = stream.permutation(cells)[:3]
        keep_s[i, 0, [only_s, both]] = 0.0
        keep_t[i, 0, [only_t, both]] = 0.0
    return keep_s, keep_t


def _featsim_case(stream: Stream):
    """The feature-similarity op on a student map `a` whose zeroed cells
    stay exactly zero under perturbation (a constant mask multiplies it)
    and a constant teacher map, in either mode."""
    params = ParamSet()
    n, c = stream.randrange(1, 3), stream.randrange(2, 5)
    h, w = stream.randrange(2, 5), stream.randrange(2, 5)
    keep_s, keep_t = zeroed_cells(stream, n, h * w)
    params.add("a", _arr(stream, (n, c, h, w)))
    keep_s = keep_s.reshape(n, 1, h, w).repeat(c, axis=1)
    target = _arr(stream, (n, c, h, w)) * keep_t.reshape(n, 1, h, w)
    mode = ("cosine", "mse")[stream.randint(2)]

    def f(ps: ParamSet) -> Tensor:
        tape = Tape()
        s = forward_op("mul", ps.leaf(tape, "a"), Tensor(keep_s))
        return forward_op("featsim", s, Tensor(target), mode=mode)

    return params, f


def _focal_case(stream: Stream):
    """The focal op on probabilities `a` in [0.05, 0.95] against constant
    soft targets, with about a third of the cells excluded (at least one
    included), for gamma 0, 0.5, 2 or 3 and a random alpha."""
    params = ParamSet()
    shape = (stream.randrange(1, 3), stream.randrange(1, 4),
             stream.randrange(2, 5), stream.randrange(2, 5))
    params.add("a", _arr(stream, shape, 0.05, 0.95))
    target = _arr(stream, shape, 0.0, 1.0)
    include = _arr(stream, shape, 0.0, 1.0) > 1.0 / 3.0
    include.flat[stream.randint(include.size)] = True
    gamma = (0.0, 0.5, 2.0, 3.0)[stream.randint(4)]
    alpha = stream.uniform(0.0, 1.0)

    def f(ps: ParamSet) -> Tensor:
        return forward_op("focal", ps.leaf(Tape(), "a"), target=target,
                          include=include, gamma=gamma, alpha=alpha)

    return params, f


def _clear_of_kink(params, attrs):
    """True if no pre-activation lies within 0.01 of 0, so the finite
    differences of a ReLU'd conv never straddle its kink."""
    args = [Tensor(params[name].values) for name in ("a", "b", "c")]
    pre = forward_op("conv2d", *args, **attrs).values
    return np.abs(pre).min() > 0.01


def _out_shape(kind, params, inputs, attrs):
    args = [Tensor(params[name].values.copy()) for name in inputs]
    return forward_op(kind, *args, **attrs).shape


def replay(tape: Tape) -> bool:
    """Recompute every op node from recorded leaves; True if bit-identical."""
    memo: dict[int, np.ndarray] = {}
    for nid, node in enumerate(tape.nodes):
        if node.kind == "leaf":
            memo[nid] = node.values
            continue
        inputs = [memo[i] for i in node.input_ids]
        out = _FORWARD_RULES[node.kind](inputs, node.saved)
        if isinstance(out, tuple):   # the output and what backward reads
            out = out[0]
        if (out.shape != node.values.shape
                or not np.array_equal(out, node.values)):
            return False
        memo[nid] = out
    return True
