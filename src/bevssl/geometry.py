"""Planar pose algebra and ego-centric grid rasters.

Grids are indexed (row, col) with row 0 at the longitudinal minimum (behind
the ego vehicle) and col 0 at the lateral minimum (to its right at yaw 0).
Raster values are channel-major; every raster carries a per-cell validity
plane, and invalid cells must never feed a loss or a fusion decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError


def normalize_angle(a: float) -> float:
    """Wrap into (-pi, pi]."""
    r = math.remainder(a, 2.0 * math.pi)
    return math.pi if r == -math.pi else r


@dataclass(frozen=True)
class Pose2:
    """Planar pose (meters, meters, radians); yaw normalized to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)
                and math.isfinite(self.yaw)):
            raise ConfigurationError(f"non-finite pose ({self.x}, {self.y}, {self.yaw})")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))


def compose(a: Pose2, b: Pose2) -> Pose2:
    """Pose of (b in a's parent frame) given b expressed in a's frame."""
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    return Pose2(a.x + c * b.x - s * b.y,
                 a.y + s * b.x + c * b.y,
                 a.yaw + b.yaw)


def inverse(a: Pose2) -> Pose2:
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    return Pose2(-(c * a.x + s * a.y), -(-s * a.x + c * a.y), -a.yaw)


def relative_pose(frame_a: Pose2, frame_b: Pose2) -> Pose2:
    """Pose of frame_b expressed in frame_a."""
    return compose(inverse(frame_a), frame_b)


@dataclass(frozen=True)
class GridSpec:
    """BEV region of interest; extents must be integer multiples of `cell`."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    cell: float

    def __post_init__(self):
        fields = (self.x_min, self.x_max, self.y_min, self.y_max, self.cell)
        if not all(map(math.isfinite, fields)):
            raise ConfigurationError(f"non-finite grid {fields}")
        if self.cell <= 0:
            raise ConfigurationError(f"cell size must be positive, got {self.cell}")
        for lo, hi, name in ((self.x_min, self.x_max, "x"),
                             (self.y_min, self.y_max, "y")):
            if hi <= lo:
                raise ConfigurationError(f"{name} extent is empty: [{lo}, {hi}]")
            n = (hi - lo) / self.cell
            if abs(n - round(n)) > 1e-9:
                raise ConfigurationError(
                    f"{name} extent {hi - lo} is not a multiple of cell {self.cell}")

    @property
    def rows(self) -> int:
        return round((self.x_max - self.x_min) / self.cell)

    @property
    def cols(self) -> int:
        return round((self.y_max - self.y_min) / self.cell)

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids (rows x cols) of cell-center coordinates."""
        xs = self.x_min + (np.arange(self.rows) + 0.5) * self.cell
        ys = self.y_min + (np.arange(self.cols) + 0.5) * self.cell
        return np.repeat(xs[:, None], self.cols, axis=1), \
            np.repeat(ys[None, :], self.rows, axis=0)


PAPER_GRID = GridSpec(-45.0, 45.0, -15.0, 15.0, 0.3)
SMALL_GRID = GridSpec(-24.0, 24.0, -8.0, 8.0, 0.5)

GRID_PRESETS = {"paper": PAPER_GRID, "small": SMALL_GRID}


class Raster:
    """Multi-channel grid data with a shared validity plane."""

    __slots__ = ("spec", "values", "valid")

    def __init__(self, spec: GridSpec, values: np.ndarray,
                 valid: np.ndarray | None = None):
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 2:
            values = values[None]
        if values.shape[1:] != (spec.rows, spec.cols):
            raise ConfigurationError(
                f"raster {values.shape} does not match grid "
                f"{spec.rows}x{spec.cols}")
        self.spec = spec
        self.values = values
        if valid is None:
            valid = np.ones((spec.rows, spec.cols), dtype=bool)
        else:
            valid = np.asarray(valid, dtype=bool)
            if valid.shape != (spec.rows, spec.cols):
                raise ConfigurationError(
                    f"validity {valid.shape} does not match grid "
                    f"{spec.rows}x{spec.cols}")
        self.valid = valid

    @property
    def channels(self) -> int:
        return self.values.shape[0]

    def copy(self) -> "Raster":
        return Raster(self.spec, self.values.copy(), self.valid.copy())


def warp_raster(src: Raster, src_pose: Pose2, dst_pose: Pose2,
                mode: str = "nearest") -> Raster:
    """Resample `src` (expressed in src_pose's frame) into dst_pose's frame.

    Destination cells that map outside the source extent, or that touch an
    invalid source cell, come back invalid with value 0.
    """
    if mode not in ("nearest", "bilinear"):
        raise ConfigurationError(f"unknown warp mode '{mode}'")
    spec = src.spec
    rel = relative_pose(src_pose, dst_pose)
    xs, ys = spec.centers()
    c, s = math.cos(rel.yaw), math.sin(rel.yaw)
    sx = rel.x + c * xs - s * ys
    sy = rel.y + s * xs + c * ys

    out = np.zeros(src.values.shape)
    if mode == "nearest":
        r = np.floor((sx - spec.x_min) / spec.cell).astype(np.int64)
        q = np.floor((sy - spec.y_min) / spec.cell).astype(np.int64)
        inb = (r >= 0) & (r < spec.rows) & (q >= 0) & (q < spec.cols)
        rc = np.clip(r, 0, spec.rows - 1)
        qc = np.clip(q, 0, spec.cols - 1)
        valid = inb & src.valid[rc, qc]
        out[:, valid] = src.values[:, rc[valid], qc[valid]]
        return Raster(spec, out, valid)

    # bilinear: continuous cell-center coordinates
    u = (sx - spec.x_min) / spec.cell - 0.5
    v = (sy - spec.y_min) / spec.cell - 0.5
    r0 = np.floor(u).astype(np.int64)
    q0 = np.floor(v).astype(np.int64)
    fu = u - r0
    fv = v - q0
    inb = (r0 >= 0) & (r0 + 1 < spec.rows) & (q0 >= 0) & (q0 + 1 < spec.cols)
    r0c = np.clip(r0, 0, spec.rows - 2)
    q0c = np.clip(q0, 0, spec.cols - 2)
    corners_valid = (src.valid[r0c, q0c] & src.valid[r0c + 1, q0c]
                     & src.valid[r0c, q0c + 1] & src.valid[r0c + 1, q0c + 1])
    valid = inb & corners_valid
    # blend only the cells that come back valid, by flat-index gathers; the
    # corners are summed in place in the order w00, w10, w01, w11
    idx = np.flatnonzero(valid)
    fu, fv = fu.ravel()[idx], fv.ravel()[idx]
    i00 = r0c.ravel()[idx] * spec.cols + q0c.ravel()[idx]
    flat = src.values.reshape(src.channels, -1)
    blend = np.take(flat, i00, axis=1)
    blend *= (1 - fu) * (1 - fv)
    for corner, weight in ((i00 + spec.cols, fu * (1 - fv)),
                           (i00 + 1, (1 - fu) * fv),
                           (i00 + spec.cols + 1, fu * fv)):
        term = np.take(flat, corner, axis=1)
        term *= weight
        blend += term
    out.reshape(src.channels, -1)[:, idx] = blend
    return Raster(spec, out, valid)
