"""Dense float64 tensor core with taped reverse-mode differentiation.

The op catalog is closed, and it holds what the model and its objective run:
`conv2d`, `sigmoid`, the two loss terms `featsim` and `focal`, and `wsum`,
the weighted sum that combines terms.  Every kind has a hand-written
backward rule that is finite-difference tested on its own.  `backward`
seeds its root with a cotangent: a float for a scalar loss, or an array of
the root's shape, which makes the call a vector-Jacobian product.  Forward
values are recorded on a `Tape` when any input is differentiable;
inference-style calls (no tape anywhere) pay no recording cost.  A forward
rule that keeps arrays for its backward returns them next to its output,
and the node saves them with its attributes.  `featsim`, the
feature-similarity term, is one such op: in cosine mode it keeps three
per-cell channel sums, not a product of its two maps; `focal`, the focal
term, keeps only its targets and mask.  A parameter holds its values and,
from its first `optimizer_step` on, its optimizer moments; gradients live
in a name -> array dict that the caller of `backward` owns.

The tape keeps no im2col columns: `conv2d` builds the columns of one band
of output rows at a time in one module-level workspace that never grows past
a fixed budget, in forward and again for dW in backward, which skips dW
when the kernel needs no gradient.  At stride 1 dx is the full convolution
of the output gradient with the flipped, transposed kernel, run through the
forward's banded GEMM loop; at stride > 1 it comes from dW's bands, each
band's column gradient added back into the padded input.  With
`relu=True`, `conv2d` rectifies its output in place and masks the gradient
by that output, so a conv block is one node on the tape.  A conv that
reads a compact map as the larger one it stands for takes exactly that
map as input.  Its `expand` says where the full map's cells come from:
per axis, a tuple that gives for each row (column) of the full map the
row (column) of the compact map it stands for.  `upsampled` describes a
map nearest-upsampled and cropped, `compact_output` the distinct outputs
of a conv that read through a description.  The conv computes each
distinct output once: through 0/1 tap matrices at input resolution or
from im2col columns gathered through one read index, whichever needs
fewer multiply-adds.  With `compact=True` it writes only those; without,
it expands them to the full map as `expand_map` does, so convs can run at
their distinct cells one after another.  Backward is one loop over taps:
it reads g back onto the input through one tap's matrices, rows then
columns, and adds that tap's dW and dx; they and the read index are
cached per description, read-only.  An `expand` conv reads the cells of a
`drop` mask as zeros.  The mask's kept taps (whether each output's tap
reads a kept cell) put the dropped reads of the read index on a zero slot
in forward and multiply g per tap in backward; that bool mask is the one
array a conv node saves (3 KB for the small grid's dec0, 30 KB for the
paper grid's).
Importing the module also warms the heap (see the note at `_workspace`).
"""

from __future__ import annotations

import functools
import math
import mmap
import operator
import struct
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigurationError, ContractError, NumericError

LOG_CLAMP = 1e-12

OP_KINDS = ("conv2d", "sigmoid", "featsim", "focal", "wsum")


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
    keep = {}
    if isinstance(out, tuple):   # the output and what its backward reads
        out, keep = out

    tape = None
    for t in inputs:
        if t.tape is not None:
            if tape is not None and t.tape is not tape:
                raise ContractError(
                    f"op '{kind}' mixes tensors from two tapes; detach one "
                    "by wrapping its values in a new Tensor")
            tape = t.tape
    # a rectified conv checks its output before the ReLU (`_fw_conv2d`)
    checked = kind == "conv2d" and attrs.get("relu")
    if tape is None:
        if not checked:
            _finite(out, kind, None)
        return Tensor(out)
    ids = tuple(_bind(t, tape) for t in inputs)
    nid = tape._record(kind, ids, {**attrs, **keep}, out)
    if not checked:
        _finite(out, kind, nid)
    return Tensor(out, tape, nid)


# ---------------------------------------------------------------- forward --

def _require(cond: bool, kind: str, msg: str) -> None:
    if not cond:
        raise ConfigurationError(f"op '{kind}': {msg}")


# One buffer for every conv's columns.  `_column_bands` fills it with one
# band of output rows at a time, as many rows as fit `_BAND_DOUBLES` (at
# least one), so it grows to the budget and no further.  1 MB of doubles,
# from timing dec0's and dec1's forward + backward on both grid presets:
# 0.25 MB bands took 6-13% longer, 4 MB bands saved 3-9% for 3 MB more, and
# one sample's full columns (13.5 MB small, 138 MB paper) took 20-28% longer
# on the paper grid.
_BAND_DOUBLES = 1 << 17
_workspace = np.empty(0)

# Warm heap.  glibc serves each malloc of 128 KB or more with a fresh mmap
# until an mmapped chunk is freed; that free lifts the mmap threshold (up to
# 32 MB) to the chunk's size, and the heap's trim threshold to twice that.
# Below the mmap threshold, per-step activations reuse heap pages instead of
# taking a page fault on every first touch, and below the trim threshold the
# pages a step frees stay with the heap for the next step.  One 24 MB array,
# allocated and freed here, sets both.  The small preset's largest per-step
# array is 1.6 MB, dec1's dx frame in the bevdrop forward's dense backward,
# then the 64-channel maps at grid resolution at 1.5 MB (MiB throughout;
# `tracemalloc` at every line of one `ssl_small` and one
# `fusion_feats6_small` step).  So what sizes the array is the trim
# threshold: a step swings the heap by ~20 MB.  Measured with 12 MB, steady `ssl_small` and
# `fusion_feats6_small` steps take 1-2 faults; with 8 MB (a 16 MB trim
# threshold) ~4600 and ~5000.
_warm = np.empty(3 << 20)
del _warm


def _pad(x: np.ndarray, pad) -> np.ndarray:
    """`x` (n, c, h, w) with `pad` zeros on each side of each map: an int,
    or (rows, cols); a negative pad crops that many cells instead."""
    ph, pw = (pad, pad) if isinstance(pad, int) else pad
    if ph == pw == 0:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    ch, cw = max(-ph, 0), max(-pw, 0)
    xp[:, :, ph + ch:ph + h - ch, pw + cw:pw + w - cw] = \
        x[:, :, ch:h - ch, cw:w - cw]
    return xp


def _column_bands(xp: np.ndarray, kh: int, kw: int, stride: int):
    """Yield (lo, hi, cols) over bands of output rows of one padded sample
    `xp` (c, h, w): `cols` (c*kh*kw, (hi-lo)*ww) are the im2col columns of
    rows lo..hi-1, a view of the shared workspace that the next band
    overwrites.  A 1x1 stride-1 conv reads its input as is, in one band."""
    global _workspace
    c, h, w = xp.shape
    hh = (h - kh) // stride + 1
    ww = (w - kw) // stride + 1
    if kh == 1 and kw == 1 and stride == 1:
        yield 0, hh, xp.reshape(c, hh * ww)
        return
    rows = max(1, _BAND_DOUBLES // (c * kh * kw * ww))
    s = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (c, kh, kw, hh, ww),
        (s[0], s[1], s[2], stride * s[1], stride * s[2]))
    for lo in range(0, hh, rows):
        hi = min(lo + rows, hh)
        size = c * kh * kw * (hi - lo) * ww
        if _workspace.size < size:
            _workspace = np.empty(size)
        cols = _workspace[:size].reshape(c, kh, kw, hi - lo, ww)
        cols[...] = windows[:, :, :, lo:hi]
        yield lo, hi, cols.reshape(c * kh * kw, (hi - lo) * ww)


def _conv(x: np.ndarray, wm: np.ndarray, kh: int, kw: int, pad,
          stride: int = 1) -> np.ndarray:
    """(n, co, hh, ww) convolution of `x` (n, c, h, w), padded as `_pad`
    pads it, by the flattened kernel `wm` (co, c*kh*kw): one GEMM per band
    of output rows."""
    xp = _pad(x, pad)
    n, _, h, wd = xp.shape
    hh = (h - kh) // stride + 1
    ww = (wd - kw) // stride + 1
    out = np.empty((n, wm.shape[0], hh * ww))
    for i in range(n):
        for lo, hi, cols in _column_bands(xp[i], kh, kw, stride):
            np.matmul(wm, cols, out=out[i, :, lo * ww:hi * ww])
    return out.reshape(n, -1, hh, ww)


def _is_axis(axis) -> bool:
    """True for one axis of an `expand`: a tuple of ints from 0, each
    equal to the one before it or one more."""
    return (isinstance(axis, tuple) and axis[:1] == (0,)
            and set(map(type, axis)) == {int}
            and set(map(operator.sub, axis[1:], axis)) <= {0, 1})


def _is_expand(expand) -> bool:
    """True for a pair of per-axis tuples (`_is_axis`)."""
    return (isinstance(expand, tuple) and len(expand) == 2
            and all(map(_is_axis, expand)))


def _maps(expand: tuple) -> tuple:
    """(rows, cols) of the compact map that `expand` reads: one past each
    axis's last entry."""
    return tuple(axis[-1] + 1 for axis in expand)


@functools.lru_cache(maxsize=None)
def upsampled(size: tuple, factor: int) -> tuple:
    """`expand` of a map nearest-upsampled by `factor` and cropped to `size`
    (rows, cols): cell i of an axis stands for cell i // factor."""
    return tuple(tuple(i // factor for i in range(n)) for n in size)


@functools.lru_cache(maxsize=None)
def compact_output(expand: tuple, kernel: tuple, pad: int) -> tuple:
    """`expand` of the compact output (`compact=True`) of a conv with
    `kernel` (kh, kw), padded by `pad`, that reads its input through
    `expand`: each output stands for the distinct output of its run."""
    return tuple(tuple(_axis_runs(axis, k, pad)[1].tolist())
                 for axis, k in zip(expand, kernel))


@functools.lru_cache(maxsize=None)
def _axis_runs(axis: tuple, k: int, pad: int):
    """(reads, index) along one axis of a k-tap conv, padded by `pad`, that
    reads its compact input through `axis` (one axis of an `expand`).
    Neighbouring outputs whose taps read the same input positions form a
    run and are equal: `index` is each output's run, and `reads` (k, runs)
    the input position tap t of run r reads, -1 in the padding.  Without
    repeated cells each run has length one.  The arrays are cached
    read-only."""
    src = np.array(axis)
    u = (np.arange(src.size + 2 * pad - k + 1)[None, :]
         + np.arange(k)[:, None] - pad)
    inside = (u >= 0) & (u < src.size)
    reads = np.where(inside, src[np.where(inside, u, 0)], -1)
    starts = np.diff(reads, prepend=-2).any(axis=0)
    out = (reads[:, starts], np.cumsum(starts) - 1)
    for arr in out:
        arr.flags.writeable = False
    return out


def expand_map(x: np.ndarray, expand: tuple) -> np.ndarray:
    """The full map that a compact map `x` (n, c, rows, cols) stands for
    (see `conv2d`'s `expand`), by one gather."""
    rows, cols = (np.array(axis) for axis in expand)
    index = rows[:, None] * x.shape[3] + cols
    n, c = x.shape[:2]
    return x.reshape(n, c, -1).take(index.ravel(), axis=2).reshape(
        n, c, *index.shape)


def _off_heap(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of `arr` in an anonymous mapping of its own.  The
    caches fill during a step; on the warm heap each cached array would pin
    the pages around it among the step's transient arrays.  In an
    `ssl_paper` run that raised peak RSS by ~19 MB for ~6 MB of arrays;
    in mappings of their own they cost their size."""
    out = np.frombuffer(mmap.mmap(-1, max(arr.nbytes, 1)), arr.dtype,
                        arr.size).reshape(arr.shape)
    out[...] = arr
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _axis_taps(axis: tuple, k: int, pad: int, expanded: bool) -> np.ndarray:
    """The (k, runs, n_in) 0/1 matrix that is 1 where tap t of run r reads
    position j of the compact input behind `axis` (see `_axis_runs`), each
    output's row of its run if `expanded`; cached read-only."""
    reads, index = _axis_runs(axis, k, pad)
    mat = (reads[..., None] == np.arange(axis[-1] + 1)).astype(np.float64)
    if expanded:
        mat = mat[:, index]
    return _off_heap(mat)


def _tap_matrices(w_shape, attrs, expanded: bool = False):
    """The `_axis_taps` matrix of each axis of a conv that reads its input
    through `expand`."""
    pad = attrs.get("padding", 0)
    return [_axis_taps(axis, k, pad, expanded)
            for axis, k in zip(attrs["expand"], w_shape[2:])]


@functools.lru_cache(maxsize=None)
def _read_index(expand: tuple, kernel: tuple, pad: int) -> np.ndarray:
    """(outputs, kh*kw) of a conv reading its compact input through
    `expand` at its distinct outputs (see `_axis_runs`): the flat position
    in the input that tap t of each output reads, or the zero slot past its
    end where the tap reads padding.  Cached read-only off the heap."""
    rows, cols = _maps(expand)
    zero = rows * cols
    rr, cr = (_axis_runs(axis, k, pad)[0]
              for axis, k in zip(expand, kernel))
    # a read of the padding stands for the zero slot along its axis, so the
    # sum is at or past the slot when either axis reads padding, and the
    # clip puts it on the slot
    rr = np.where(rr >= 0, rr * cols, zero)
    cr = np.where(cr >= 0, cr, zero)
    index = np.minimum(rr[:, None, :, None] + cr[None, :, None, :], zero)
    return _off_heap(index.reshape(kernel[0] * kernel[1], -1).T)


def _kept_taps(drop: np.ndarray, kernel: tuple, pad: int) -> np.ndarray:
    """(rows, cols, kh, kw) bool of a conv padded by `pad` over the full map
    `drop` masks: True where tap (a, b) of an output reads a kept cell."""
    return np.lib.stride_tricks.sliding_window_view(np.pad(~drop, pad),
                                                    kernel)


def _masked_index(attrs: dict, kernel: tuple) -> np.ndarray:
    """(kh*kw, rows, cols) of a conv with `drop`: each distinct output's
    `_read_index` spread to every output of the full map, with each tap
    that reads a dropped cell on the zero slot."""
    expand, pad = attrs["expand"], attrs.get("padding", 0)
    runs = _read_index(expand, kernel, pad).T
    out = compact_output(expand, kernel, pad)
    spread = expand_map(runs.reshape(1, -1, *_maps(out)), out)[0]
    kept = _kept_taps(attrs["drop"], kernel, pad).transpose(2, 3, 0, 1)
    return np.where(kept.reshape(spread.shape), spread,
                    math.prod(_maps(expand)))


def _fw_dropconv(x, w, attrs):
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    wtap = w.transpose(2, 3, 0, 1).reshape(kh * kw * co, ci)
    index = _masked_index(attrs, (kh, kw))
    size = index.shape[1:]
    index = index.reshape(kh * kw, -1)
    # every tap's response at compact resolution, with a zero slot at the
    # end; each output sums its taps' responses, one take per tap
    taps = np.empty((n, kh * kw * co, h * wd + 1))
    taps[:, :, -1] = 0.0
    np.matmul(wtap, x.reshape(n, ci, h * wd), out=taps[:, :, :-1])
    taps = taps.reshape(n, kh * kw, co, h * wd + 1)
    out = np.empty((n, co, index.shape[1]))
    read = np.empty((co, index.shape[1]))
    for i in range(n):
        taps[i, 0].take(index[0], axis=1, out=out[i], mode="clip")
        for t in range(1, kh * kw):
            out[i] += taps[i, t].take(index[t], axis=1, out=read, mode="clip")
    return out.reshape(n, co, *size)


def _fw_gathered(x, w, index):
    """(n, co, outputs): the conv at the outputs of the (outputs, kh*kw)
    `_read_index`, one GEMM per band of im2col columns, each gathered by
    one `take` of input cells (all channels at once) into the shared
    workspace."""
    global _workspace
    n, ci, h, wd = x.shape
    co = w.shape[0]
    outputs, taps = index.shape
    wm = w.transpose(0, 2, 3, 1).reshape(co, taps * ci)
    out = np.empty((n, co, outputs))
    cells = np.empty((h * wd + 1, ci))
    cells[-1] = 0.0
    band = max(1, _BAND_DOUBLES // (ci * taps))
    for i in range(n):
        cells[:-1] = x[i].reshape(ci, -1).T
        for lo in range(0, outputs, band):
            hi = min(lo + band, outputs)
            size = ci * taps * (hi - lo)
            if _workspace.size < size:
                _workspace = np.empty(size)
            cols = _workspace[:size].reshape(hi - lo, taps, ci)
            cells.take(index[lo:hi], axis=0, out=cols, mode="clip")
            np.matmul(wm, cols.reshape(hi - lo, taps * ci).T,
                      out=out[i, :, lo:hi])
    return out


def _upconv_route(x_shape, w_shape, rows: int, cols: int, pad: int) -> str:
    """How a conv reading through `expand` computes its rows x
    cols distinct outputs.  A 1x1 conv without padding whose outputs are as
    many as its input cells reads them as they are ("cells"); otherwise the
    route with fewer multiply-adds: every tap's response at input
    resolution, read through the tap matrices ("taps", cheap when the input
    is much smaller than the output), or gathered im2col columns
    ("gather")."""
    _, ci, h, wd = x_shape
    co, _, kh, kw = w_shape
    if (rows, cols) == (h, wd) and kh == kw == 1 and not pad:
        return "cells"
    taps = (co * kh * kw * ci * h * wd + co * kh * h * kw * wd * cols
            + rows * kh * h * co * cols)
    return "gather" if co * ci * kh * kw * rows * cols < taps else "taps"


def _fw_upconv(x, w, attrs):
    if attrs.get("drop") is not None:
        return _fw_dropconv(x, w, attrs)
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    rmat, cmat = _tap_matrices(w.shape, attrs)
    rows, cols = rmat.shape[1], cmat.shape[1]
    pad = attrs.get("padding", 0)
    expand = attrs["expand"]
    route = _upconv_route(x.shape, w.shape, rows, cols, pad)
    if route == "cells":
        out = w.reshape(co, ci) @ x.reshape(n, ci, h * wd)
        out = out.reshape(n, co, rows, cols)
    elif route == "gather":
        index = _read_index(expand, (kh, kw), pad)
        out = _fw_gathered(x, w, index).reshape(n, co, rows, cols)
    else:
        # every tap's response on the input grid, then read once per
        # distinct output: one GEMM over the column taps, one over the rows
        wtap = w.transpose(2, 3, 0, 1).reshape(kh * kw * co, ci)
        out = (wtap @ x.reshape(n, ci, h * wd)).reshape(n, kh, kw, co, h, wd)
        out = (out.transpose(0, 1, 3, 4, 2, 5).reshape(n, kh, co * h, kw * wd)
               @ cmat.transpose(0, 2, 1).reshape(kw * wd, cols))
        out = out.reshape(n, kh, co, h, cols).transpose(0, 2, 1, 3, 4)
        out = (rmat.transpose(1, 0, 2).reshape(rows, kh * h)
               @ out.reshape(n, co, kh * h, cols))
    if attrs.get("compact"):
        return out
    return expand_map(out, compact_output(expand, (kh, kw), pad))


_CONV_ATTRS = frozenset(("padding", "stride", "expand", "compact", "drop",
                         "relu"))


def _fw_conv2d(vals, attrs):
    # attrs: `padding` zero-pads the input; `stride=s` keeps every s-th
    # output row and column.  `expand=(rows, cols)` reads the input as the
    # larger map it stands for: two int tuples, one per axis, that give for
    # each row (column) of the full map the row (column) of the input that
    # it stands for.  Their lengths are the full map's size; they start at
    # 0 and rise in steps of 0 or 1, and the input is exactly one past each
    # tuple's last entry a side.  `upsampled` and `compact_output` make
    # them.  The conv is computed per kernel tap on the input as given,
    # without building the larger map.  With `compact=True` as well, only
    # the distinct output rows and columns are written: the first of each
    # run of outputs whose taps all read the same input cells, so the next
    # conv reads them through `compact_output`.  `drop`, a bool mask of the
    # full map, reads its cells as zeros.  The tap matrices and the read
    # index are cached per description.  `relu=True` rectifies the biased
    # output in place.
    for key in attrs:
        _require(key in _CONV_ATTRS, "conv2d", f"unknown attribute '{key}'")
    x, w = vals[0], vals[1]
    b = vals[2] if len(vals) > 2 else None
    pad = attrs.get("padding", 0)
    stride = attrs.get("stride", 1)
    expand = attrs.get("expand")
    _require(x.ndim == 4 and w.ndim == 4, "conv2d",
             f"need 4D input and kernel, got {x.shape} and {w.shape}")
    _require(x.shape[1] == w.shape[1], "conv2d",
             f"channel mismatch {x.shape} vs {w.shape}")
    _require(pad >= 0, "conv2d", "padding must be >= 0")
    _require(stride >= 1, "conv2d", "stride must be >= 1")
    _require(expand is not None or not attrs.get("compact"), "conv2d",
             "compact needs expand")
    h, wd = x.shape[2:]
    co, _, kh, kw = w.shape
    if expand is not None:
        _require(stride == 1, "conv2d", "expand needs stride 1")
        _require(_is_expand(expand), "conv2d",
                 "expand is no pair of per-axis int tuples from 0 in steps "
                 "of 0 or 1")
        h, wd = map(len, expand)
        maps = _maps(expand)
        _require(x.shape[2:] == maps, "conv2d", f"compact input "
                 f"{x.shape[2:]} does not match its maps {maps}")
    drop = attrs.get("drop")
    if drop is not None:
        _require(expand is not None, "conv2d", "drop needs expand")
        _require(not attrs.get("compact"), "conv2d",
                 "drop and compact exclude each other")
        _require(isinstance(drop, np.ndarray) and drop.dtype == bool
                 and drop.shape == (h, wd), "conv2d",
                 f"drop is no bool mask of the expanded input {(h, wd)}")
    _require(h + 2 * pad >= kh and wd + 2 * pad >= kw, "conv2d",
             f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{wd + 2 * pad}")
    if b is not None:
        _require(b.shape == (co,), "conv2d",
                 f"bias shape {b.shape} != ({co},)")
    if expand is not None:
        out = _fw_upconv(x, w, attrs)
    else:
        out = _conv(x, w.reshape(co, -1), kh, kw, pad, stride)
    if b is not None:
        out += b[None, :, None, None]
    if attrs.get("relu"):
        _finite(out, "conv2d", None)  # rectifying would hide a -inf
        np.maximum(out, 0.0, out=out)
    return out


def _fw_sigmoid(vals, attrs):
    x = vals[0]
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def _fw_wsum(vals, attrs):
    """sum_i w_i x_i over inputs of one shape, in input order; `weights`
    holds one w_i per input, a float or a constant array of its shape."""
    weights = attrs.get("weights", ())
    _require(len(vals) == len(weights) > 0, "wsum",
             f"{len(vals)} inputs for {len(weights)} weights")
    out = None
    for x, w in zip(vals, weights):
        _require(x.shape == vals[0].shape, "wsum",
                 f"shape mismatch {vals[0].shape} vs {x.shape}")
        _require(np.ndim(w) == 0 or np.shape(w) == x.shape, "wsum",
                 f"weight of shape {np.shape(w)} for a term of {x.shape}")
        out = x * w if out is None else out + x * w
    return out


def _fw_featsim(vals, attrs):
    """Mean feature distance of `s` from the constant target `t`, both
    (n, c, ...) with channels on axis 1.  mse: the mean of (s - t)^2 over
    all elements.  cosine: the mean over cells of 1 - cos(s, t) of their
    channel vectors, 0 at a cell where either vector is zero.  Cosine keeps
    the per-cell sums s.t, |s|^2 and |t|^2 for its backward; no product of
    whole maps outlives the call."""
    s, t = vals
    _require(s.shape == t.shape, "featsim",
             f"shape mismatch {s.shape} vs {t.shape}")
    mode = attrs.get("mode")
    if mode == "mse":
        d = (s - t).reshape(-1)
        return np.asarray(d @ d / d.size)
    _require(mode == "cosine", "featsim", f"unknown mode '{mode}'")
    _require(s.ndim >= 2, "featsim", "cosine needs a channel axis")
    n, c = s.shape[:2]
    # channel sums as one BLAS product with a ones vector per sample, in
    # one scratch map
    ones = np.ones(c)
    prod = np.multiply(s, t)
    dot = ones @ prod.reshape(n, c, -1)
    s_sq = ones @ np.multiply(s, s, out=prod).reshape(n, c, -1)
    t_sq = ones @ np.multiply(t, t, out=prod).reshape(n, c, -1)
    del prod
    kept = (s_sq > 0.0) & (t_sq > 0.0)
    cos = np.divide(dot, np.sqrt(s_sq) * np.sqrt(t_sq),
                    out=np.ones(dot.shape), where=kept)
    return np.asarray((1.0 - cos).mean()), {"dot": dot, "s_sq": s_sq,
                                            "t_sq": t_sq}


def _focal_weights(attrs):
    """alpha y and (1 - alpha)(1 - y), exact zeros at excluded cells."""
    y, alpha = attrs["target"], attrs["alpha"]
    mf = attrs["include"].astype(np.float64)
    return alpha * y * mf, (1.0 - alpha) * (1.0 - y) * mf


def _fw_focal(vals, attrs):
    """Mean over the n cells of the bool mask `include` of the soft-target
    focal term -(alpha y (1-p)^gamma log p + (1-alpha)(1-y) p^gamma
    log(1-p)) of probabilities p against the constant `target` y, each log
    clamped below at LOG_CLAMP; excluded cells weigh an exact zero.  n = 0
    is an error (`losses.focal_loss` returns an untaped 0 instead)."""
    p, include = vals[0], attrs["include"]
    _require(include.shape == p.shape and include.dtype == bool, "focal",
             f"needs a bool mask of shape {p.shape}")
    n = int(include.sum())
    _require(n > 0, "focal", "no cell is included")
    w_pos, w_neg = _focal_weights(attrs)
    gamma, q = float(attrs["gamma"]), 1.0 - p
    pos = np.power(q, gamma) * np.log(np.maximum(p, LOG_CLAMP))
    pos *= w_pos
    w_neg *= np.power(p, gamma) * np.log(np.maximum(q, LOG_CLAMP))
    pos += w_neg
    return pos.sum() * (-1.0 / n), {"factor": -1.0 / n}


_FORWARD_RULES: dict[str, Callable] = {
    "conv2d": _fw_conv2d, "sigmoid": _fw_sigmoid, "featsim": _fw_featsim,
    "focal": _fw_focal, "wsum": _fw_wsum,
}


# --------------------------------------------------------------- backward --

def _bw_upconv(node, g, x, w, need_dx, need_dw):
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    # without `compact`, each output reads the taps of its distinct output
    rmat, cmat = _tap_matrices(w.shape, node.saved,
                               expanded=not node.saved.get("compact"))
    drop = node.saved.get("drop")
    if drop is not None:
        kept = _kept_taps(drop, (kh, kw), node.saved.get("padding", 0))
    cols = g.shape[3]
    xt = x.transpose(0, 2, 3, 1).reshape(n * h * wd, ci) if need_dw else None
    dw = np.empty((co, ci, kh, kw)) if need_dw else None
    dx = np.zeros((n, ci, h * wd)) if need_dx else None
    for a, b in np.ndindex(kh, kw):
        # g read back onto the input grid by tap (a, b): rows, then
        # columns; without a mask, one row readback serves a row of taps
        if drop is not None:
            by_rows = rmat[a].T @ (g * kept[:, :, a, b])
        elif b == 0:
            by_rows = rmat[a].T @ g
        gtap = (by_rows.reshape(-1, cols) @ cmat[b]).reshape(n, co, h * wd)
        if need_dw:
            dw[:, :, a, b] = gtap.transpose(1, 0, 2).reshape(co, -1) @ xt
        if need_dx:
            dx += w[:, :, a, b].T @ gtap
    return None if dx is None else dx.reshape(x.shape), dw


def _bw_conv2d(node, g, ins):
    x, w = ins[0], ins[1]
    if node.saved.get("relu"):
        # the rectified output is positive exactly where its input was
        g = g * (node.values > 0)
    need_dx = not node.input_needs or node.input_needs[0]
    need_dw = not node.input_needs or node.input_needs[1]
    if node.saved.get("expand") is not None:
        dx, dw = _bw_upconv(node, g, x, w, need_dx, need_dw)
    else:
        dx, dw = _bw_im2col(node, g, x, w, need_dx, need_dw)
    if len(node.input_ids) > 2:
        return [dx, dw, g.reshape(*g.shape[:2], -1).sum(axis=(0, 2))]
    return [dx, dw]


def _bw_im2col(node, g, x, w, need_dx, need_dw):
    pad = node.saved.get("padding", 0)
    s = node.saved.get("stride", 1)
    n, _, h, wd = x.shape
    co, ci, kh, kw = w.shape
    hh, ww = g.shape[2:]
    gflat = g.reshape(n, co, hh * ww)
    # at stride > 1, dx comes from the same bands as dW: the column
    # gradient W^T g of each band, added back into the padded input
    strided = need_dx and s > 1
    dw = np.zeros((co, ci * kh * kw)) if need_dw else None
    if need_dw or strided:
        xp = _pad(x, pad)
        if strided:
            dxp = np.zeros(xp.shape)
            wm = w.reshape(co, -1)
        for i in range(n):
            for lo, hi, cols in _column_bands(xp[i], kh, kw, s):
                band = gflat[i, :, lo * ww:hi * ww]
                if need_dw:
                    dw += band @ cols.T
                if strided:
                    dcols = (wm.T @ band).reshape(ci, kh, kw, hi - lo, ww)
                    for a, b in np.ndindex(kh, kw):
                        dxp[i, :, s * lo + a:s * (hi - 1) + a + 1:s,
                            b:b + s * (ww - 1) + 1:s] += dcols[:, a, b]
        del xp  # before dx builds its frame
    if need_dw:
        dw = dw.reshape(w.shape)
    if not need_dx:
        return None, dw
    if strided:
        return dxp[:, :, pad:pad + h, pad:pad + wd], dw
    # at stride 1, dx is the full convolution of g with the flipped,
    # transposed kernel: g padded by k-1-pad (cropped where pad > k-1)
    wflip = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(ci, -1)
    return _conv(g, wflip, kh, kw, (kh - 1 - pad, kw - 1 - pad)), dw


def _bw_sigmoid(node, g, ins):
    s = node.values
    return [g * s * (1.0 - s)]


def _bw_featsim(node, g, ins):
    s, t = ins
    if node.input_needs[1]:
        raise ContractError("op 'featsim': the target takes no gradient")
    if node.saved["mode"] == "mse":
        return [(s - t) * (2.0 * float(g) / s.size), None]
    # d(1 - cos)/ds = (s.t / |s|^2 s - t) / (|s| |t|) at a kept cell, 0
    # where either vector is zero
    dot, s_sq, t_sq = (node.saved[k] for k in ("dot", "s_sq", "t_sq"))
    kept = (s_sq > 0.0) & (t_sq > 0.0)
    a = np.divide(float(g) / dot.size, np.sqrt(s_sq) * np.sqrt(t_sq),
                  out=np.zeros(dot.shape), where=kept)
    r = np.divide(dot, s_sq, out=np.zeros(dot.shape), where=kept)
    n, c = s.shape[:2]
    ds = s.reshape(n, c, -1) * r[:, None]
    ds -= t.reshape(n, c, -1)
    ds *= a[:, None]
    return [ds.reshape(s.shape), None]


def _bw_wsum(node, g, ins):
    # a constant input gets no gradient: `backward` would drop it
    return [g * w if need else None
            for w, need in zip(node.saved["weights"], node.input_needs)]


def _bw_focal(node, g, ins):
    # dp: the terms that reach p less those that reach 1 - p, each pair
    # summed as the generic ops it replaced summed it.  A log takes no
    # gradient where its clamp holds, nor x^gamma where x = 0 or its factor
    # is 0 (a subnormal x meets log(1 - x) = 0, x^(gamma - 1) may overflow).
    p, saved = ins[0], node.saved
    gamma, c = float(saved["gamma"]), float(g) * saved["factor"]
    w_pos, w_neg = _focal_weights(saved)

    def reaching(x, w_x, r, w_r):
        # of c (w_x r^gamma log x + w_r x^gamma log r), the part through x
        d = w_r * c * np.log(np.maximum(r, LOG_CLAMP))
        on = (x > 0) & (d != 0)
        d *= np.where(on, gamma * np.power(np.where(on, x, 1.0), gamma - 1.0),
                      0.0)
        return d + np.where(x >= LOG_CLAMP, w_x * c * np.power(r, gamma)
                            / np.maximum(x, LOG_CLAMP), 0.0)

    q = 1.0 - p
    return [reaching(p, w_pos, q, w_neg) - reaching(q, w_neg, p, w_pos)]


_BACKWARD_RULES: dict[str, Callable] = {
    "conv2d": _bw_conv2d, "sigmoid": _bw_sigmoid, "featsim": _bw_featsim,
    "focal": _bw_focal, "wsum": _bw_wsum,
}


# ------------------------------------------------------------- parameters --

class Param:
    """Values and the optimizer's moments.  The moments are None until
    `optimizer_step` first updates the parameter, so a copy that never takes
    a step (an EMA teacher, a best-so-far snapshot) holds values only."""

    __slots__ = ("values", "m", "v")

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)
        self.m = self.v = None


class ParamSet:
    """Named parameters with optimizer-state storage."""

    def __init__(self):
        self._params: dict[str, Param] = {}

    def add(self, name: str, values: np.ndarray) -> None:
        if name in self._params:
            raise ConfigurationError(f"duplicate parameter name '{name}'")
        self._params[name] = Param(values)

    def names(self) -> list[str]:
        return list(self._params)

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

    def copy(self) -> "ParamSet":
        """The values alone, without optimizer moments."""
        out = ParamSet()
        for name, p in self._params.items():
            out.add(name, p.values.copy())
        return out

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for name, arr in values.items():
            p = self._params.get(name)
            if p is None:
                raise ConfigurationError(f"unknown parameter '{name}'")
            if p.values.shape != arr.shape:
                raise ConfigurationError(
                    f"shape mismatch for '{name}': {p.values.shape} vs {arr.shape}")
            p.values[...] = arr


def backward(root: Tensor, grads: dict[str, np.ndarray],
             cotangent=1.0) -> None:
    """Add the vector-Jacobian product of `root` and `cotangent` into
    `grads`, in place, for each parameter leaf whose name is a key.  A float
    cotangent seeds a scalar root (a loss); an array of the root's shape
    seeds any root.

    Gradients accumulate: a caller that wants this root's gradient alone
    passes zeros.  A loss split over several tapes is backpropagated one
    tape at a time, each adding its share."""
    if root.tape is None or root.node_id is None:
        raise ContractError("backward root is not on a tape")
    seed = np.asarray(cotangent, dtype=np.float64)
    if seed.ndim == 0 and root.values.size == 1:
        seed = np.full(root.shape, float(seed))
    if seed.shape != root.shape:
        raise ContractError(
            f"cotangent of shape {seed.shape} for a root of shape "
            f"{root.shape}: a non-scalar root needs an array of its shape")

    tape = root.tape
    node_grads: dict[int, np.ndarray] = {root.node_id: seed}

    for nid in range(root.node_id, -1, -1):
        # a node's gradient is dead once its rule has run
        g = node_grads.pop(nid, None)
        if g is None:
            continue
        node = tape.nodes[nid]
        if node.kind == "leaf":
            name = node.saved.get("param")
            if name is not None and name in grads:
                grads[name] += g
            continue
        ins = [tape.nodes[i].values for i in node.input_ids]
        for contrib, in_id, needed in zip(
                _BACKWARD_RULES[node.kind](node, g, ins), node.input_ids,
                node.input_needs):
            if needed and contrib is not None:
                # out of place: a rule may hand one array to two inputs
                cur = node_grads.get(in_id)
                node_grads[in_id] = contrib if cur is None else cur + contrib


# -------------------------------------------------------------- optimizer --

ADAM_EPS = 1e-8   # keeps the update finite where the second moment is 0


def optimizer_step(params: ParamSet, grads: dict[str, np.ndarray], lr: float,
                   wd: float, betas: tuple[float, float], step: int = 1,
                   ) -> None:
    """Adaptive-moment update with bias correction and decoupled weight
    decay, from the gradients in `grads`, which it leaves unchanged."""
    if step <= 0:
        raise ContractError(f"optimizer step must be >= 1, got {step}")
    b1, b2 = betas
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for name, p in params.items():
        g = grads[name]
        if p.m is None:
            p.m, p.v = np.zeros_like(p.values), np.zeros_like(p.values)
        p.m *= b1
        p.m += (1.0 - b1) * g
        p.v *= b2
        p.v += (1.0 - b2) * g * g
        p.values -= lr * (p.m / c1) / (np.sqrt(p.v / c2) + ADAM_EPS)
        p.values -= lr * wd * p.values


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
                            eps: float = 1e-5, tol: float = 1e-4,
                            cotangent=1.0) -> FdReport:
    """Compare the backward() gradients of sum(f * cotangent), f seeded with
    `cotangent`, against its central differences."""
    if eps <= 0:
        raise ContractError("eps must be positive")
    analytic = {name: np.zeros_like(p.values) for name, p in params.items()}
    backward(f(params), analytic, cotangent)

    report = FdReport(tol)
    for name, p in params.items():
        flat = p.values.reshape(-1)
        ana = analytic[name].reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = (f(params).values * cotangent).sum()
            flat[i] = orig - eps
            dn = (f(params).values * cotangent).sum()
            flat[i] = orig
            fd = float(up - dn) / (2.0 * eps)
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
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read checkpoint {path!s}: {exc}") from exc
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
        if name in out:
            raise ConfigurationError(
                f"checkpoint {path!s} holds the entry '{name}' twice")
        out[name] = values.reshape(dims).copy()
    return out
