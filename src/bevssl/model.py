"""Segmentation-style mapping network: encoder, BEV lift, decoder, head.

The encoder downsamples by 2 per stage (one stride-2 conv per stage);
the lift is one conv that reads the low-res encoder map nearest-upsampled
and cropped to the grid, computed per kernel tap at encoder resolution; a
convolutional bottleneck decodes; a 1x1 head produces per-class logits.
Every conv but the head is one `conv2d` node that applies its ReLU in place,
so the tape holds one array per block.  All four stage outputs are exposed
on the trace because the training scheme taps intermediate features and
inserts feature dropout between lift and decoder.

The upsampling repeats cells, and the repeats run on through the decoder:
at x8 and kernel 3 only 36 x 12 of the small grid's 96 x 32 lift outputs
differ, 60 x 20 of dec0's and 84 x 28 of dec1's.  So the lift writes only
its distinct rows and columns (at x2 and kernel 3 that is every cell, in
runs of length one), and the first conv that reads it (dec0, or the head
without a decoder) reads the compact map as the grid, its dropout mask's
cells as zeros.  Each decoder conv, while it has fewer distinct outputs
than the grid, writes its own compactly too, taped or not; the conv after
the last compact one reads that map and writes the grid.  Each conv's
`expand` comes from `autograd.upsampled` (the lift's) or
`autograd.compact_output` of the conv before it.  A forward whose
dropout mask drops a cell keeps the dense decoder after dec0, since the
mask breaks the runs (the tape then saves the bool mask).  The
grid-resolution `bev_feats`, before dropout, and `decoded_feats` are built
only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import (ParamSet, Tape, Tensor, compact_output, expand_map,
                       forward_op, upsampled)
from .errors import ConfigurationError, check_fields
from .geometry import Raster
from .rng import Stream
from .world import N_CLASSES, OBS_CHANNELS


@dataclass(frozen=True)
class ModelConfig:
    enc_widths: tuple[int, ...] = (16, 32, 64)
    lift_channels: int = 64
    dec_widths: tuple[int, ...] = (32, 64)
    kernel_size: int = 3

    def __post_init__(self):
        check_fields("model", self, (
            ("enc_widths", all(w > 0 for w in self.enc_widths),
             "positive widths"),
            ("lift_channels", self.lift_channels > 0, "> 0"),
            ("dec_widths", all(w > 0 for w in self.dec_widths),
             "positive widths"),
            ("kernel_size", self.kernel_size > 0 and self.kernel_size % 2,
             "odd and > 0")))

    def layer_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        k = self.kernel_size
        layers = []
        c_in = OBS_CHANNELS
        for i, c_out in enumerate(self.enc_widths):
            layers.append((f"enc{i}", (c_out, c_in, k, k)))
            c_in = c_out
        layers.append(("lift", (self.lift_channels, c_in, k, k)))
        c_in = self.lift_channels
        for i, c_out in enumerate(self.dec_widths):
            layers.append((f"dec{i}", (c_out, c_in, k, k)))
            c_in = c_out
        layers.append(("head", (N_CLASSES, c_in, 1, 1)))
        return layers


class ForwardTrace:
    """All intermediates of one forward pass (batch dim kept at 1).

    `bev_feats` and `decoded_feats` may each be given as a callable that
    builds the map: it runs on the first read, so a forward that computes a
    map compactly builds it at grid resolution only for a reader that asks
    for it."""

    def __init__(self, encoder_feats: Tensor, bev_feats, decoded_feats,
                 logits: Tensor, probs: Tensor):
        self.encoder_feats = encoder_feats
        self._bev_feats = bev_feats
        self._decoded_feats = decoded_feats
        self.logits = logits
        self.probs = probs

    def _built(self, name: str) -> Tensor:
        value = getattr(self, name)
        if callable(value):
            value = value()
            setattr(self, name, value)
        return value

    @property
    def bev_feats(self) -> Tensor:
        """Post-lift map at grid resolution, before feature dropout (the
        "early" tap)."""
        return self._built("_bev_feats")

    @property
    def decoded_feats(self) -> Tensor:
        """Post-decoder map at grid resolution (the "late" tap)."""
        return self._built("_decoded_feats")

    @property
    def prob_values(self) -> np.ndarray:
        return self.probs.values[0]


def init_params(config: ModelConfig, seed: int) -> ParamSet:
    """Weights uniform in +-sqrt(1/fan_in), biases zero, per-layer streams."""
    params = ParamSet()
    root = Stream(seed)
    for name, shape in config.layer_shapes():
        fan_in = shape[1] * shape[2] * shape[3]
        bound = math.sqrt(1.0 / fan_in)
        w = root.child(name).uniforms(int(np.prod(shape)), -bound, bound)
        params.add(f"{name}.w", w.reshape(shape))
        params.add(f"{name}.b", np.zeros(shape[0]))
    return params


def _conv_block(params: ParamSet, tape: Tape | None, name: str, x: Tensor,
                padding: int, **attrs) -> Tensor:
    w = params.leaf(tape, f"{name}.w")
    b = params.leaf(tape, f"{name}.b")
    return forward_op("conv2d", x, w, b, padding=padding, relu=True, **attrs)


def _expanded(x: Tensor, attrs: dict):
    """Builder of the grid-resolution map that the compact `x` stands for,
    as a 1x1 conv with `attrs` (`expand`, maybe `drop`) reads it: one
    gather when `x` is untaped, the cells of `drop` zeroed, else a 1x1
    identity conv recorded on `x`'s tape."""
    def build() -> Tensor:
        if x.tape is None:
            full = expand_map(x.values, attrs["expand"])
            if "drop" in attrs:
                full[:, :, attrs["drop"]] = 0.0
            return Tensor(full)
        c = x.shape[1]
        eye = np.eye(c).reshape(c, c, 1, 1)
        return forward_op("conv2d", x, Tensor(eye), **attrs)
    return build


def _decoder(cfg: ModelConfig, expand: tuple, compact: bool):
    """(layer, attrs) of each decoder conv and the head.  The first reads
    the lift's compact map through `expand`.  With `compact`, each decoder
    conv in turn writes only its distinct outputs while they are fewer than
    the grid's cells, and the next reads them through its `compact_output`;
    the conv after the last compact one reads that map and writes the grid,
    and the rest run dense."""
    k, pad = cfg.kernel_size, cfg.kernel_size // 2
    names = [f"dec{i}" for i in range(len(cfg.dec_widths))] + ["head"]
    for name in names:
        attrs = dict(padding=0 if name == "head" else pad)
        if expand:
            attrs["expand"] = expand
        out = (compact_output(expand, (k, k), pad)
               if compact and expand and name != "head" else None)
        if out and any(axis[-1] + 1 < len(axis) for axis in out):
            attrs["compact"] = True
            expand = out
        else:
            expand = None
        yield name, attrs


def forward(params: ParamSet, observation: Raster | np.ndarray,
            bev_drop_mask: np.ndarray | None = None,
            tape: Tape | None = None,
            config: ModelConfig | None = None) -> ForwardTrace:
    """Run the network; records on `tape` when given (student passes)."""
    cfg = config or ModelConfig()
    values = observation.values if isinstance(observation, Raster) else observation
    if values.ndim == 3:
        values = values[None]
    if values.ndim != 4 or values.shape[1] != OBS_CHANNELS:
        raise ConfigurationError(
            f"observation shape {values.shape} does not match "
            f"{OBS_CHANNELS} channels")
    rows, cols = values.shape[2], values.shape[3]
    if bev_drop_mask is not None and bev_drop_mask.shape != (rows, cols):
        raise ConfigurationError(
            f"drop mask {bev_drop_mask.shape} does not match grid "
            f"{rows}x{cols}")
    pad = cfg.kernel_size // 2

    x = Tensor(values)
    for i in range(len(cfg.enc_widths)):
        x = _conv_block(params, tape, f"enc{i}", x, pad, stride=2)
    encoder_feats = x

    k = cfg.kernel_size
    lifted = upsampled((rows, cols), 2 ** len(cfg.enc_widths))
    # the lift at its distinct rows and columns only; the first conv after
    # it reads them as the full map, its dropped cells as zeros, and the
    # map itself is built only if read
    x = _conv_block(params, tape, "lift", x, pad, compact=True,
                    expand=lifted)
    expand = compact_output(lifted, (k, k), pad)
    bev_feats = _expanded(x, dict(expand=expand))
    drop = ({} if bev_drop_mask is None or not bev_drop_mask.any()
            else {"drop": np.asarray(bev_drop_mask, dtype=bool)})
    # a dropped cell breaks the runs of equal outputs past the first conv
    layers = list(_decoder(cfg, expand, not drop))
    layers[0][1].update(drop)
    for name, attrs in layers[:-1]:
        x = _conv_block(params, tape, name, x, **attrs)
    head = layers[-1][1]
    decoded_feats = _expanded(x, head) if "expand" in head else x

    w = params.leaf(tape, "head.w")
    b = params.leaf(tape, "head.b")
    logits = forward_op("conv2d", x, w, b, **head)
    probs = forward_op("sigmoid", logits)
    return ForwardTrace(encoder_feats, bev_feats, decoded_feats, logits, probs)
