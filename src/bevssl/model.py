"""Segmentation-style mapping network: encoder, BEV lift, decoder, head.

The encoder downsamples by 2 per stage (one stride-2 conv per stage);
the lift is one conv that reads the low-res encoder map and writes grid
resolution (its input nearest-upsampled and cropped to the grid, computed
per kernel tap at encoder resolution); a convolutional bottleneck decodes; a
1x1 head produces per-class logits.  All four stage outputs are exposed on
the trace because the training scheme taps intermediate features and
inserts feature dropout between lift and decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autograd import ParamSet, Tape, Tensor, forward_op
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


@dataclass
class ForwardTrace:
    """All intermediates of one forward pass (batch dim kept at 1)."""

    encoder_feats: Tensor
    bev_feats: Tensor       # post-lift, before feature dropout ("early" tap)
    decoded_feats: Tensor   # post-decoder ("late" tap)
    logits: Tensor
    probs: Tensor

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
    return forward_op("relu", forward_op("conv2d", x, w, b, padding=padding,
                                         **attrs))


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

    bev_feats = _conv_block(params, tape, "lift", x, pad,
                            upsample=2 ** len(cfg.enc_widths),
                            size=(rows, cols))

    x = bev_feats
    if bev_drop_mask is not None:
        x = forward_op("masked_fill", x, mask=bev_drop_mask[None, None],
                       value=0.0)
    for i in range(len(cfg.dec_widths)):
        x = _conv_block(params, tape, f"dec{i}", x, pad)
    decoded_feats = x

    w = params.leaf(tape, "head.w")
    b = params.leaf(tape, "head.b")
    logits = forward_op("conv2d", decoded_feats, w, b, padding=0)
    probs = forward_op("sigmoid", logits)
    return ForwardTrace(encoder_feats, bev_feats, decoded_feats, logits, probs)
