"""Segmentation-style mapping network: encoder, BEV lift, decoder, head.

The encoder downsamples by 2 per stage (one stride-2 conv per stage);
the lift is one conv that reads the low-res encoder map nearest-upsampled
and cropped to the grid, computed per kernel tap at encoder resolution; a
convolutional bottleneck decodes; a 1x1 head produces per-class logits.
Every conv but the head is one `conv2d` node that applies its ReLU in place,
so the tape holds one array per block.  All four stage outputs are exposed
on the trace because the training scheme taps intermediate features and
inserts feature dropout between lift and decoder.

The upsampling repeats cells: at x8 and kernel 3 only 36 x 12 of the small
grid's 96 x 32 lift outputs differ.  So the lift writes only its distinct
rows and columns and the first decoder conv reads that compact map as the
grid (one GEMM of its taps at compact resolution), reading the cells the
dropout mask drops as zeros; the tape then saves that bool mask.  The
grid-resolution `bev_feats`, before dropout, is built only when read.  A
geometry without repeats takes the dense path: the lift writes grid
resolution and the mask is applied to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .autograd import ParamSet, Tape, Tensor, distinct_outputs, forward_op
from .errors import ConfigurationError
from .geometry import Raster
from .rng import Stream
from .world import N_CLASSES, OBS_CHANNELS


@dataclass(frozen=True)
class ModelConfig:
    obs_channels: int = OBS_CHANNELS
    enc_widths: tuple[int, ...] = (16, 32, 64)
    lift_channels: int = 64
    dec_widths: tuple[int, ...] = (32, 64)
    kernel_size: int = 3
    n_classes: int = N_CLASSES

    def __post_init__(self):
        widths = (self.lift_channels, *self.enc_widths, *self.dec_widths)
        if any(w <= 0 for w in widths):
            raise ConfigurationError("all channel widths must be positive")
        if self.obs_channels != OBS_CHANNELS:
            raise ConfigurationError(
                f"observation channels fixed at {OBS_CHANNELS}")
        if self.n_classes != N_CLASSES:
            raise ConfigurationError(f"output classes fixed at {N_CLASSES}")
        if self.kernel_size % 2 != 1 or self.kernel_size < 1:
            raise ConfigurationError("kernel_size must be odd and positive")

    def layer_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        k = self.kernel_size
        layers = []
        c_in = self.obs_channels
        for i, c_out in enumerate(self.enc_widths):
            layers.append((f"enc{i}", (c_out, c_in, k, k)))
            c_in = c_out
        layers.append(("lift", (self.lift_channels, c_in, k, k)))
        c_in = self.lift_channels
        for i, c_out in enumerate(self.dec_widths):
            layers.append((f"dec{i}", (c_out, c_in, k, k)))
            c_in = c_out
        layers.append(("head", (self.n_classes, c_in, 1, 1)))
        return layers


class ForwardTrace:
    """All intermediates of one forward pass (batch dim kept at 1).

    `bev_feats` may be given as a callable that builds the map: it runs on
    the first read, so a forward whose lift is computed compactly builds the
    full-resolution map only for a reader that asks for it."""

    def __init__(self, encoder_feats: Tensor, bev_feats, decoded_feats: Tensor,
                 logits: Tensor, probs: Tensor):
        self.encoder_feats = encoder_feats
        self._bev_feats = bev_feats
        self.decoded_feats = decoded_feats   # post-decoder ("late" tap)
        self.logits = logits
        self.probs = probs

    @property
    def bev_feats(self) -> Tensor:
        """Post-lift map at grid resolution, before feature dropout (the
        "early" tap)."""
        if callable(self._bev_feats):
            self._bev_feats = self._bev_feats()
        return self._bev_feats

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


def forward(params: ParamSet, observation: Raster | np.ndarray,
            bev_drop_mask: np.ndarray | None = None,
            tape: Tape | None = None,
            config: ModelConfig | None = None) -> ForwardTrace:
    """Run the network; records on `tape` when given (student passes)."""
    cfg = config or ModelConfig()
    values = observation.values if isinstance(observation, Raster) else observation
    if values.ndim == 3:
        values = values[None]
    if values.ndim != 4 or values.shape[1] != cfg.obs_channels:
        raise ConfigurationError(
            f"observation shape {values.shape} does not match "
            f"{cfg.obs_channels} channels")
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

    k, f = cfg.kernel_size, 2 ** len(cfg.enc_widths)
    lift = dict(upsample=f, size=(rows, cols))
    if distinct_outputs((rows, cols), f, (k, k), pad) == (rows, cols):
        bev_feats = x = _conv_block(params, tape, "lift", x, pad, **lift)
        if bev_drop_mask is not None:
            x = forward_op("masked_fill", x, mask=bev_drop_mask[None, None],
                           value=0.0)
        dec = range(len(cfg.dec_widths))
    else:
        # the lift at its distinct rows and columns only; dec0 reads them
        # as the full map, its dropped cells as zeros, and the map itself
        # is built only if read
        compact = _conv_block(params, tape, "lift", x, pad, compact=True,
                              **lift)
        expand = dict(expand=(f, k, k, pad), size=(rows, cols))
        channels = cfg.lift_channels
        eye = np.eye(channels).reshape(channels, channels, 1, 1)
        bev_feats = partial(forward_op, "conv2d", compact, Tensor(eye),
                            padding=0, **expand)
        drop = ({} if bev_drop_mask is None or not bev_drop_mask.any()
                else {"drop": np.asarray(bev_drop_mask, dtype=bool)})
        x = _conv_block(params, tape, "dec0", compact, pad, **expand, **drop)
        dec = range(1, len(cfg.dec_widths))
    for i in dec:
        x = _conv_block(params, tape, f"dec{i}", x, pad)
    decoded_feats = x

    w = params.leaf(tape, "head.w")
    b = params.leaf(tape, "head.b")
    logits = forward_op("conv2d", decoded_feats, w, b, padding=0)
    probs = forward_op("sigmoid", logits)
    return ForwardTrace(encoder_feats, bev_feats, decoded_feats, logits, probs)
