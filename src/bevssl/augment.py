"""Strong student-input augmentations with exact masking semantics.

Photometric jitter, CutOut, and CamDrop act on the observation; feature
dropout produces a cell mask consumed inside the model between lift and
decode.  None of them moves content between cells.  Only CamDrop excludes
anything from the loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_fields
from .geometry import Raster
from .losses import LossMask
from .rng import Stream
from .world import N_CLASSES, N_SECTORS, compute_sector_map


@dataclass(frozen=True)
class AugmentConfig:
    photometric: bool = True
    gain_range: tuple[float, float] = (0.8, 1.2)
    bias_range: tuple[float, float] = (-0.1, 0.1)
    channel_swap_prob: float = 0.2
    cutout: bool = True
    cutout_fraction: float = 0.25
    camdrop: bool = False
    camdrop_count: int = 1
    bevdrop: bool = True
    bevdrop_rate: float = 0.5

    def __post_init__(self):
        check_fields("augment", self, (
            ("channel_swap_prob", 0 <= self.channel_swap_prob <= 1,
             "in [0, 1]"),
            ("cutout_fraction", 0 <= self.cutout_fraction < 1, "in [0, 1)"),
            ("camdrop_count", 1 <= self.camdrop_count < N_SECTORS,
             f"in [1, {N_SECTORS})"),
            ("bevdrop_rate", 0 <= self.bevdrop_rate < 1, "in [0, 1)")))

    @classmethod
    def none(cls) -> "AugmentConfig":
        return cls(photometric=False, cutout=False, camdrop=False, bevdrop=False)


def photometric(obs: Raster, stream: Stream, gain_range=(0.8, 1.2),
                bias_range=(-0.1, 0.1), swap_prob=0.2) -> Raster:
    """Affine gain/bias jitter on evidence+clutter channels (clamped to
    [0, 1]) and an optional permutation of the three evidence channels.
    The range channel is untouched.  Draw order: gains, biases, swap."""
    out = obs.values.copy()
    gains = [stream.uniform(*gain_range) for _ in range(4)]
    biases = [stream.uniform(*bias_range) for _ in range(4)]
    for ch in range(4):
        out[ch] = np.clip(out[ch] * gains[ch] + biases[ch], 0.0, 1.0)
    if stream.uniform() < swap_prob:
        perm = stream.permutation(N_CLASSES)
        out[:N_CLASSES] = out[perm]
    return Raster(obs.spec, out, obs.valid.copy())


def cutout(obs: Raster, stream: Stream, fraction: float = 0.25) -> Raster:
    """Zero axis-aligned rectangles in every channel until the cumulative
    zeroed area reaches `fraction` of the grid.  No loss mask is produced."""
    if not 0.0 <= fraction < 1.0:
        raise ConfigurationError("cutout fraction must be in [0, 1)")
    out = obs.values.copy()
    if fraction == 0.0:
        return Raster(obs.spec, out, obs.valid.copy())
    rows, cols = obs.spec.rows, obs.spec.cols
    target = fraction * rows * cols
    zeroed = np.zeros((rows, cols), dtype=bool)
    h_max = max(3, rows // 4)
    w_max = max(3, cols // 4)
    while zeroed.sum() < target:
        h = stream.randrange(2, h_max + 1)
        w = stream.randrange(2, w_max + 1)
        r0 = stream.randint(rows - h + 1)
        q0 = stream.randint(cols - w + 1)
        zeroed[r0:r0 + h, q0:q0 + w] = True
    out[:, zeroed] = 0.0
    return Raster(obs.spec, out, obs.valid.copy())


def camdrop(obs: Raster, sector_map: np.ndarray, stream: Stream,
            n_drop: int = 1) -> tuple[Raster, LossMask]:
    """Zero whole camera sectors and exclude exactly their cells (all three
    classes) from the loss."""
    if not 1 <= n_drop < N_SECTORS:
        raise ConfigurationError(
            f"camdrop count must be in [1, {N_SECTORS}), got {n_drop}")
    chosen = stream.permutation(N_SECTORS)[:n_drop]
    dropped = np.isin(sector_map, chosen)
    out = obs.values.copy()
    out[:, dropped] = 0.0
    include = np.broadcast_to(~dropped, (N_CLASSES,) + dropped.shape).copy()
    return Raster(obs.spec, out, obs.valid.copy()), LossMask(include)


def bevdrop_mask(rows: int, cols: int, rate: float, stream: Stream) -> np.ndarray:
    """Independent per-cell drop decisions with probability `rate`."""
    if not 0.0 <= rate < 1.0:
        raise ConfigurationError("bevdrop rate must be in [0, 1)")
    if rate == 0.0:
        return np.zeros((rows, cols), dtype=bool)
    return stream.uniforms(rows * cols).reshape(rows, cols) < rate


def strong_augment(obs: Raster, cfg: AugmentConfig, stream: Stream,
                   ) -> tuple[Raster, LossMask, np.ndarray | None]:
    """Full student-view pipeline: photometric, CutOut, CamDrop, plus the
    feature-dropout mask.  Returns (view, fov mask, drop mask or None)."""
    view = obs
    if cfg.photometric:
        view = photometric(view, stream.child("photo"), cfg.gain_range,
                           cfg.bias_range, cfg.channel_swap_prob)
    if cfg.cutout:
        view = cutout(view, stream.child("cutout"), cfg.cutout_fraction)
    rows, cols = obs.spec.rows, obs.spec.cols
    if cfg.camdrop:
        view, fov = camdrop(view, compute_sector_map(obs.spec),
                            stream.child("camdrop"), cfg.camdrop_count)
    else:
        fov = LossMask(np.ones((N_CLASSES, rows, cols), dtype=bool))
    drop = (bevdrop_mask(rows, cols, cfg.bevdrop_rate, stream.child("bevdrop"))
            if cfg.bevdrop else None)
    return view, fov, drop
