"""Random finite-difference cases for every op in the catalog.

Each case packs the differentiable inputs of one op into a ParamSet and
returns a closure building `sum(op(...) * W)` for a fixed random weighting W,
so transposition mistakes in backward rules cannot cancel out.
"""

from __future__ import annotations

import numpy as np

from bevssl.autograd import OP_KINDS, ParamSet, Tape, Tensor, forward_op
from bevssl.rng import Stream

ALL_KINDS = list(OP_KINDS)


def _arr(stream: Stream, shape, lo=-1.5, hi=1.5):
    return stream.uniforms(int(np.prod(shape)), lo, hi).reshape(shape)


def make_case(kind: str, stream: Stream):
    """(params, f) such that f(params) is a scalar Tensor applying `kind`."""
    params = ParamSet()
    attrs: dict = {}
    consts: dict = {}

    if kind in ("add", "sub", "mul"):
        shape = (stream.randrange(1, 4), stream.randrange(2, 6))
        params.add("a", _arr(stream, shape))
        params.add("b", _arr(stream, shape))
        inputs = ("a", "b")
    elif kind == "conv2d":
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
            attrs.update(upsample=f, size=(h, w))
            h, w = h // f + 1, w // f + 1
        params.add("a", _arr(stream, (n, ci, h, w)))
        params.add("b", _arr(stream, (co, ci, kh, kw)))
        params.add("c", _arr(stream, (co,)))
        inputs = ("a", "b", "c")
        attrs["padding"] = pad
    elif kind == "relu":
        shape = (stream.randrange(2, 5), stream.randrange(2, 5))
        vals = _arr(stream, shape)
        vals[np.abs(vals) < 0.05] = 0.2  # keep clear of the kink
        params.add("a", vals)
        inputs = ("a",)
    elif kind in ("sigmoid", "mean", "sum"):
        shape = (stream.randrange(2, 5), stream.randrange(2, 5))
        params.add("a", _arr(stream, shape))
        inputs = ("a",)
    elif kind == "scale":
        params.add("a", _arr(stream, (stream.randrange(2, 5),)))
        attrs["factor"] = stream.uniform(-2.0, 2.0)
        inputs = ("a",)
    elif kind == "slice":
        shape = (stream.randrange(4, 8), stream.randrange(4, 8))
        params.add("a", _arr(stream, shape))
        axis = stream.randint(2)
        attrs.update(axis=axis, start=stream.randint(2),
                     stop=shape[axis] - stream.randint(2),
                     step=stream.randrange(1, 3))
        inputs = ("a",)
    elif kind == "masked_fill":
        shape = (stream.randrange(2, 5), stream.randrange(2, 5))
        params.add("a", _arr(stream, shape))
        attrs["mask"] = _arr(stream, shape) > 0.0
        attrs["value"] = stream.uniform(-1.0, 1.0)
        inputs = ("a",)
    elif kind == "log":
        shape = (stream.randrange(2, 5), stream.randrange(2, 5))
        params.add("a", _arr(stream, shape, 0.1, 2.0))
        inputs = ("a",)
    elif kind == "powc":
        shape = (stream.randrange(2, 5), stream.randrange(2, 5))
        params.add("a", _arr(stream, shape, 0.2, 2.0))
        attrs["exponent"] = [0.5, 2.0, 3.0, -1.0][stream.randint(4)]
        inputs = ("a",)
    else:
        raise AssertionError(f"no case builder for op '{kind}'")

    probe_shape = _out_shape(kind, params, inputs, attrs)
    consts["probe"] = _arr(stream, probe_shape, -1.0, 1.0)

    def f(ps: ParamSet) -> Tensor:
        tape = Tape()
        args = [ps.leaf(tape, name) for name in inputs]
        out = forward_op(kind, *args, **attrs)
        if out.values.ndim == 0:
            return out
        return forward_op("sum", forward_op("mul", out, Tensor(consts["probe"])))

    return params, f


def _out_shape(kind, params, inputs, attrs):
    args = [Tensor(params[name].values.copy()) for name in inputs]
    return forward_op(kind, *args, **attrs).shape
