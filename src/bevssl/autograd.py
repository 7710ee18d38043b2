"""Dense float64 tensor core with taped reverse-mode differentiation.

The op catalog is closed: every kind has a hand-written backward rule that is
finite-difference tested on its own.  Forward values are recorded on a `Tape`
when any input is differentiable; inference-style calls (no tape anywhere)
pay no recording cost.
"""

from __future__ import annotations

import math
import struct
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigurationError, ContractError, NumericError

LOG_CLAMP = 1e-12

OP_KINDS = (
    "add", "sub", "mul", "conv2d", "relu", "sigmoid", "mean", "sum", "scale",
    "masked_fill", "log", "powc",
)


class Tensor:
    """Shape + float64 values, optionally bound to a tape node."""

    __slots__ = ("values", "tape", "node_id", "param_name")

    def __init__(self, values, tape: "Tape | None" = None,
                 node_id: int | None = None, param_name: str | None = None):
        self.values = np.asarray(values, dtype=np.float64)
        self.tape = tape
        self.node_id = node_id
        self.param_name = param_name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, node={self.node_id})"


class TapeNode:
    __slots__ = ("kind", "input_ids", "saved", "values", "needs", "input_needs")

    def __init__(self, kind: str, input_ids: tuple, saved: dict,
                 values: np.ndarray, needs: bool = False,
                 input_needs: tuple = ()):
        self.kind = kind
        self.input_ids = input_ids
        self.saved = saved
        self.values = values
        self.needs = needs          # some parameter is reachable below
        self.input_needs = input_needs


class Tape:
    """Append-only record of one forward computation."""

    def __init__(self):
        self.nodes: list[TapeNode] = []

    def _record(self, kind: str, input_ids: tuple, saved: dict,
                values: np.ndarray) -> int:
        input_needs = tuple(self.nodes[i].needs for i in input_ids)
        self.nodes.append(TapeNode(kind, input_ids, saved, values,
                                   any(input_needs), input_needs))
        return len(self.nodes) - 1

    def leaf(self, values: np.ndarray, param_name: str | None = None) -> int:
        self.nodes.append(TapeNode("leaf", (), {"param": param_name}, values,
                                   param_name is not None))
        return len(self.nodes) - 1


def _bind(tensor: Tensor, tape: Tape) -> int:
    """Ensure `tensor` has a leaf node on `tape`; returns its node id."""
    if tensor.tape is tape and tensor.node_id is not None:
        return tensor.node_id
    if tensor.tape is not None:
        raise ContractError(
            "tensor belongs to a different tape; wrap its values in a new "
            "Tensor to use it as a constant")
    nid = tape.leaf(tensor.values, tensor.param_name)
    tensor.tape = tape
    tensor.node_id = nid
    return nid


def _finite(values: np.ndarray, kind: str, node_id: int | None) -> None:
    # Summation detects any nan/inf in one cheap pass; magnitudes in this
    # package can never overflow a finite sum.
    if not np.isfinite(values.sum()):
        raise NumericError(f"non-finite output of op '{kind}' (node {node_id})")


def forward_op(kind: str, *inputs: Tensor, **attrs) -> Tensor:
    """Apply one catalog op; records on the tape of the first taped input."""
    if kind not in OP_KINDS:
        raise ConfigurationError(f"unknown op kind '{kind}'")
    vals = [t.values for t in inputs]
    out = _FORWARD_RULES[kind](vals, attrs)

    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise ContractError(
                    f"op '{kind}' mixes tensors from two tapes; detach one "
                    "by wrapping its values in a new Tensor")
            tape = t.tape
    if tape is None:
        _finite(out, kind, None)
        return Tensor(out)
    ids = tuple(_bind(t, tape) for t in inputs)
    nid = tape._record(kind, ids, dict(attrs), out)
    _finite(out, kind, nid)
    return Tensor(out, tape, nid)


# ---------------------------------------------------------------- forward --

def _require(cond: bool, kind: str, msg: str) -> None:
    if not cond:
        raise ConfigurationError(f"op '{kind}': {msg}")


def _fw_add(vals, attrs):
    a, b = vals
    _require(a.shape == b.shape, "add", f"shape mismatch {a.shape} vs {b.shape}")
    return a + b


def _fw_sub(vals, attrs):
    a, b = vals
    _require(a.shape == b.shape, "sub", f"shape mismatch {a.shape} vs {b.shape}")
    return a - b


def _fw_mul(vals, attrs):
    a, b = vals
    _require(a.shape == b.shape, "mul", f"shape mismatch {a.shape} vs {b.shape}")
    return a * b


def _im2col(x: np.ndarray, kh: int, kw: int, pad: int, stride: int = 1):
    n, c, h, w = x.shape
    if pad > 0:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
        xp[:, :, pad:pad + h, pad:pad + w] = x
        x = xp
    hh = (h + 2 * pad - kh) // stride + 1
    ww = (w + 2 * pad - kw) // stride + 1
    if kh == 1 and kw == 1 and stride == 1:
        return np.ascontiguousarray(x.reshape(n, c, hh * ww)), hh, ww
    s = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (n, c, kh, kw, hh, ww),
        (s[0], s[1], s[2], s[3], stride * s[2], stride * s[3]))
    return windows.reshape(n, c * kh * kw, hh * ww), hh, ww


def _tap_matrix(n_out: int, size: int, factor: int, pad: int, k: int,
                n_low: int) -> np.ndarray:
    """(k, n_out, n_low) 0/1 matrix along one axis of an upsample-crop-pad
    conv: entry (t, i, j) is 1 where tap t at output position i reads
    low-res position j.  Rows are zero where the tap falls in the padding or
    past the crop."""
    u = np.arange(n_out)[None, :] + np.arange(k)[:, None] - pad
    u = np.where((u >= 0) & (u < size), u // factor, -1)
    return (u[..., None] == np.arange(n_low)).astype(np.float64)


def _tap_matrices(x_shape, w_shape, attrs):
    """Row and column tap matrices of an upsampling conv; cheap enough to
    rebuild in backward instead of saving them on the tape."""
    pad = attrs.get("padding", 0)
    rows, cols = attrs["size"]
    f = attrs["upsample"]
    kh, kw = w_shape[2:]
    return (_tap_matrix(rows + 2 * pad - kh + 1, rows, f, pad, kh, x_shape[2]),
            _tap_matrix(cols + 2 * pad - kw + 1, cols, f, pad, kw, x_shape[3]))


def _fw_upconv(x, w, attrs):
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    rmat, cmat = _tap_matrices(x.shape, w.shape, attrs)
    # every tap's response on the low-res grid, then read at full resolution
    wtap = w.transpose(2, 3, 0, 1).reshape(kh * kw * co, ci)
    taps = (wtap @ x.reshape(n, ci, h * wd)).reshape(n, kh, kw, co, h, wd)
    return np.einsum("aih,bjw,nabchw->ncij", rmat, cmat, taps, optimize=True)


def _fw_conv2d(vals, attrs):
    # attrs: `padding` zero-pads the input; `stride=s` keeps every s-th
    # output row and column.  `upsample=f` with `size=(rows, cols)` first
    # nearest-upsamples the input by f and crops it to `size`; that is
    # computed per kernel tap on the input as given, without building the
    # upsampled tensor.
    x, w = vals[0], vals[1]
    b = vals[2] if len(vals) > 2 else None
    pad = attrs.get("padding", 0)
    stride = attrs.get("stride", 1)
    f = attrs.get("upsample")
    _require(x.ndim == 4 and w.ndim == 4, "conv2d",
             f"need 4D input and kernel, got {x.shape} and {w.shape}")
    _require(x.shape[1] == w.shape[1], "conv2d",
             f"channel mismatch {x.shape} vs {w.shape}")
    _require(pad >= 0, "conv2d", "padding must be >= 0")
    _require(stride >= 1, "conv2d", "stride must be >= 1")
    n, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    if f is not None:
        _require(f >= 1, "conv2d", "upsample must be >= 1")
        _require(stride == 1, "conv2d", "upsample needs stride 1")
        h, wd = attrs["size"]
        _require(0 < h <= x.shape[2] * f and 0 < wd <= x.shape[3] * f,
                 "conv2d", f"size {(h, wd)} is not a crop of the input "
                 f"upsampled x{f}")
    _require(h + 2 * pad >= kh and wd + 2 * pad >= kw, "conv2d",
             f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{wd + 2 * pad}")
    if b is not None:
        _require(b.shape == (co,), "conv2d",
                 f"bias shape {b.shape} != ({co},)")
    if f is not None:
        out = _fw_upconv(x, w, attrs)
    else:
        cols, hh, ww = _im2col(x, kh, kw, pad, stride)
        wm = w.reshape(co, -1)
        out = np.empty((n, co, hh * ww), dtype=np.float64)
        for i in range(n):
            np.matmul(wm, cols[i], out=out[i])
        out = out.reshape(n, co, hh, ww)
        attrs["_cols"] = cols
    if b is not None:
        out += b[None, :, None, None]
    return out


def _fw_relu(vals, attrs):
    return np.maximum(vals[0], 0.0)


def _fw_sigmoid(vals, attrs):
    x = vals[0]
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _fw_mean(vals, attrs):
    return np.asarray(vals[0].mean())


def _fw_sum(vals, attrs):
    return np.asarray(vals[0].sum())


def _fw_scale(vals, attrs):
    return vals[0] * float(attrs["factor"])


def _fw_masked_fill(vals, attrs):
    x = vals[0]
    mask = np.broadcast_to(np.asarray(attrs["mask"], dtype=bool), x.shape)
    return np.where(mask, float(attrs["value"]), x)


def _fw_log(vals, attrs):
    return np.log(np.maximum(vals[0], LOG_CLAMP))


def _fw_powc(vals, attrs):
    with np.errstate(divide="ignore"):
        return np.power(vals[0], float(attrs["exponent"]))


_FORWARD_RULES: dict[str, Callable] = {
    "add": _fw_add, "sub": _fw_sub, "mul": _fw_mul, "conv2d": _fw_conv2d,
    "relu": _fw_relu, "sigmoid": _fw_sigmoid, "mean": _fw_mean,
    "sum": _fw_sum, "scale": _fw_scale, "masked_fill": _fw_masked_fill,
    "log": _fw_log, "powc": _fw_powc,
}


# --------------------------------------------------------------- backward --

def _bw_add(node, g, ins):
    return [g, g]


def _bw_sub(node, g, ins):
    return [g, -g]


def _bw_mul(node, g, ins):
    return [g * ins[1], g * ins[0]]


def _bw_upconv(node, g, x, w, need_dx):
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    rmat, cmat = _tap_matrices(x.shape, w.shape, node.saved)
    # g read back onto the low-res grid once per tap
    gtap = np.einsum("aih,bjw,ncij->nabchw", rmat, cmat, g,
                     optimize=True).reshape(n, kh * kw * co, h * wd)
    xf = x.reshape(n, ci, h * wd)
    dwtap = sum(gtap[i] @ xf[i].T for i in range(n))
    dw = dwtap.reshape(kh, kw, co, ci).transpose(2, 3, 0, 1)
    wtap = w.transpose(2, 3, 0, 1).reshape(kh * kw * co, ci)
    dx = (wtap.T @ gtap).reshape(x.shape) if need_dx else None
    return dx, dw


def _bw_conv2d(node, g, ins):
    x, w = ins[0], ins[1]
    need_dx = not node.input_needs or node.input_needs[0]
    if node.saved.get("upsample") is not None:
        dx, dw = _bw_upconv(node, g, x, w, need_dx)
    else:
        dx, dw = _bw_im2col(node, g, x, w, need_dx)
    if len(node.input_ids) > 2:
        return [dx, dw, g.reshape(*g.shape[:2], -1).sum(axis=(0, 2))]
    return [dx, dw]


def _bw_im2col(node, g, x, w, need_dx):
    pad = node.saved.get("padding", 0)
    s = node.saved.get("stride", 1)
    cols = node.saved["_cols"]
    n, _, h, wd = x.shape
    co, ci, kh, kw = w.shape
    hh, ww = g.shape[2:]
    gflat = g.reshape(n, co, hh * ww)
    dw = np.zeros((co, ci * kh * kw))
    dxp = (np.zeros((n, ci, h + 2 * pad, wd + 2 * pad)) if need_dx else None)
    wm_t = w.reshape(co, -1).T
    for i in range(n):
        dw += gflat[i] @ cols[i].T
        if need_dx:
            dcols = (wm_t @ gflat[i]).reshape(ci, kh, kw, hh, ww)
            for a in range(kh):
                for b in range(kw):
                    dxp[i, :, a:a + s * (hh - 1) + 1:s,
                        b:b + s * (ww - 1) + 1:s] += dcols[:, a, b]
    dx = ((dxp[:, :, pad:pad + h, pad:pad + wd] if pad else dxp)
          if need_dx else None)
    return dx, dw.reshape(w.shape)


def _bw_relu(node, g, ins):
    return [g * (ins[0] > 0)]


def _bw_sigmoid(node, g, ins):
    s = node.values
    return [g * s * (1.0 - s)]


def _bw_mean(node, g, ins):
    x = ins[0]
    return [np.full(x.shape, float(g) / x.size)]


def _bw_sum(node, g, ins):
    return [np.full(ins[0].shape, float(g))]


def _bw_scale(node, g, ins):
    return [g * float(node.saved["factor"])]


def _bw_masked_fill(node, g, ins):
    mask = np.broadcast_to(np.asarray(node.saved["mask"], dtype=bool),
                           ins[0].shape)
    return [g * ~mask]


def _bw_log(node, g, ins):
    x = ins[0]
    inside = x >= LOG_CLAMP
    return [np.where(inside, g / np.maximum(x, LOG_CLAMP), 0.0)]


def _bw_powc(node, g, ins):
    c = float(node.saved["exponent"])
    x = ins[0]
    # derivative taken as 0 at x == 0 (subgradient choice for c < 1)
    dx = np.where(x > 0, c * np.power(np.where(x > 0, x, 1.0), c - 1.0), 0.0)
    return [g * dx]


_BACKWARD_RULES: dict[str, Callable] = {
    "add": _bw_add, "sub": _bw_sub, "mul": _bw_mul, "conv2d": _bw_conv2d,
    "relu": _bw_relu, "sigmoid": _bw_sigmoid, "mean": _bw_mean,
    "sum": _bw_sum, "scale": _bw_scale, "masked_fill": _bw_masked_fill,
    "log": _bw_log, "powc": _bw_powc,
}


# ------------------------------------------------------------- parameters --

class Param:
    __slots__ = ("values", "grad", "m", "v")

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)


class ParamSet:
    """Named parameters with gradient and optimizer-state storage."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, values: np.ndarray) -> None:
        if name in self._params:
            raise ConfigurationError(f"duplicate parameter name '{name}'")
        self._params[name] = Param(values)

    def names(self) -> list[str]:
        return list(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def items(self) -> Iterable[tuple[str, Param]]:
        return self._params.items()

    def leaf(self, tape: Tape | None, name: str) -> Tensor:
        """Tensor view of a parameter, registered on `tape` if given."""
        p = self._params[name]
        t = Tensor(p.values, param_name=name)
        if tape is not None:
            _bind(t, tape)
        return t

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.grad.fill(0.0)

    def copy(self) -> "ParamSet":
        out = ParamSet()
        for name, p in self._params.items():
            out.add(name, p.values.copy())
        return out

    def values_dict(self) -> dict[str, np.ndarray]:
        return {name: p.values.copy() for name, p in self._params.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            p = self._params.get(name)
            if p is None:
                raise ConfigurationError(f"unknown parameter '{name}'")
            if p.values.shape != arr.shape:
                raise ConfigurationError(
                    f"shape mismatch for '{name}': {p.values.shape} vs {arr.shape}")
            p.values[...] = arr


def backward(loss: Tensor, params: ParamSet) -> None:
    """Populate `params` gradients from a scalar loss (zeroes them first)."""
    if loss.values.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if loss.tape is None or loss.node_id is None:
        raise ContractError("loss is not on a tape")
    params.zero_grad()

    tape = loss.tape
    grads: dict[int, np.ndarray] = {
        loss.node_id: np.ones_like(tape.nodes[loss.node_id].values)}

    for nid in range(loss.node_id, -1, -1):
        g = grads.get(nid)
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.kind == "leaf":
            name = node.saved.get("param")
            if name is not None and name in params:
                params[name].grad += g
            continue
        ins = [tape.nodes[i].values for i in node.input_ids]
        for contrib, in_id, needed in zip(
                _BACKWARD_RULES[node.kind](node, g, ins), node.input_ids,
                node.input_needs):
            if needed and contrib is not None:
                # out of place: a rule may hand one array to two inputs
                cur = grads.get(in_id)
                grads[in_id] = contrib if cur is None else cur + contrib


# -------------------------------------------------------------- optimizer --

def optimizer_step(params: ParamSet, lr: float = 1e-3, wd: float = 1e-4,
                   betas: tuple[float, float] = (0.9, 0.999), step: int = 1,
                   eps: float = 1e-8) -> None:
    """Adaptive-moment update with bias correction and decoupled weight decay."""
    if step <= 0:
        raise ContractError(f"optimizer step must be >= 1, got {step}")
    if lr < 0 or wd < 0:
        raise ConfigurationError("lr and wd must be nonnegative")
    b1, b2 = betas
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for _, p in params.items():
        p.m *= b1
        p.m += (1.0 - b1) * p.grad
        p.v *= b2
        p.v += (1.0 - b2) * p.grad * p.grad
        p.values -= lr * (p.m / c1) / (np.sqrt(p.v / c2) + eps)
        p.values -= lr * wd * p.values
        p.grad.fill(0.0)


# ------------------------------------------------- finite-difference check --

class FdReport:
    """Per-parameter maximum relative gradient error."""

    def __init__(self, tol: float):
        self.tol = tol
        self.per_param: dict[str, float] = {}
        self.failures: list[tuple[str, int, float]] = []

    @property
    def max_error(self) -> float:
        return max(self.per_param.values(), default=0.0)

    @property
    def passed(self) -> bool:
        return not self.failures


def finite_difference_check(f: Callable[[ParamSet], Tensor], params: ParamSet,
                            eps: float = 1e-5, tol: float = 1e-4) -> FdReport:
    """Compare backward() gradients of f against central differences."""
    if eps <= 0:
        raise ContractError("eps must be positive")
    loss = f(params)
    backward(loss, params)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    report = FdReport(tol)
    for name, p in params.items():
        flat = p.values.reshape(-1)
        ana = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(f(params).values)
            flat[i] = orig - eps
            dn = float(f(params).values)
            flat[i] = orig
            fd = (up - dn) / (2.0 * eps)
            denom = max(abs(fd), abs(ana[i]), 1e-6)
            rel = abs(fd - ana[i]) / denom
            if rel > worst:
                worst = rel
            if rel > tol:
                report.failures.append((name, i, rel))
        report.per_param[name] = worst
    return report


# -------------------------------------------------------------- checkpoint --

CHECKPOINT_MAGIC = b"BEVSSL01"


def save_checkpoint(path, entries: dict[str, np.ndarray] | ParamSet) -> None:
    """Binary parameter container; round-trips bit-exactly."""
    if isinstance(entries, ParamSet):
        entries = {name: p.values for name, p in entries.items()}
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        for name, arr in entries.items():
            arr = np.asarray(arr, dtype=np.float64)
            nb = name.encode("utf-8")
            fh.write(struct.pack("<I", len(nb)))
            fh.write(nb)
            fh.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != CHECKPOINT_MAGIC:
        raise ConfigurationError(f"bad checkpoint magic in {path!s}")
    off = 8

    def take(n: int) -> bytes:
        # every length, rank and dim is checked against the bytes left
        nonlocal off
        if n > len(data) - off:
            raise ConfigurationError(
                f"truncated checkpoint {path!s}: {n} bytes needed at offset "
                f"{off}, {len(data) - off} left")
        off += n
        return data[off - n:off]

    out: dict[str, np.ndarray] = {}
    while off < len(data):
        (nlen,) = struct.unpack("<I", take(4))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigurationError(
                f"bad parameter name in checkpoint {path!s}") from exc
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        values = np.frombuffer(take(8 * math.prod(dims)), dtype="<f8")
        out[name] = values.reshape(dims).copy()
    return out
