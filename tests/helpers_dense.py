"""The network's dense path, kept as a test oracle.

`model.forward` writes the lift at its distinct cells, hands the BEV
dropout mask to the first conv that reads the lift, and runs the decoder
at its distinct cells while they repeat.  `dense_forward` computes the same
network with none of that: the lift at grid resolution multiplied by the
mask's kept cells, and every decoder conv and the head on grid-resolution
maps.  Both must agree to rounding, trace and gradients alike.
"""

from __future__ import annotations

import numpy as np

from bevssl.autograd import ParamSet, Tape, Tensor, forward_op, upsampled
from bevssl.geometry import Raster
from bevssl.model import ForwardTrace, ModelConfig, _conv_block


def dense_forward(params: ParamSet, observation: Raster | np.ndarray,
                  bev_drop_mask: np.ndarray | None = None,
                  tape: Tape | None = None,
                  config: ModelConfig | None = None) -> ForwardTrace:
    """`model.forward`'s trace, every map at grid resolution."""
    cfg = config or ModelConfig()
    values = (observation.values if isinstance(observation, Raster)
              else observation)
    if values.ndim == 3:
        values = values[None]
    grid = values.shape[2:]
    pad = cfg.kernel_size // 2
    x = Tensor(values)
    for i in range(len(cfg.enc_widths)):
        x = _conv_block(params, tape, f"enc{i}", x, pad, stride=2)
    encoder_feats = x
    lifted = upsampled(grid, 2 ** len(cfg.enc_widths))
    x = bev_feats = _conv_block(params, tape, "lift", x, pad, expand=lifted)
    if bev_drop_mask is not None:
        # the lift is rectified (>= 0), so weighted by the kept cells it is
        # the lift with its dropped cells zeroed
        keep = np.broadcast_to(~bev_drop_mask, x.shape).astype(np.float64)
        x = forward_op("wsum", x, weights=(keep,))
    for i in range(len(cfg.dec_widths)):
        x = _conv_block(params, tape, f"dec{i}", x, pad)
    logits = forward_op("conv2d", x, params.leaf(tape, "head.w"),
                        params.leaf(tape, "head.b"), padding=0)
    return ForwardTrace(encoder_feats, bev_feats, x, logits,
                        forward_op("sigmoid", logits))
