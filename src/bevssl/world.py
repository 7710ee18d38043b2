"""Procedural map worlds, ego trajectories, and sensor-like BEV observations.

A world is a set of class-tagged polylines (pedestrian crossings as filled
quads, lane dividers and road boundaries as one-cell strokes) generated from
smooth random centerlines.  Observations are rendered directly in the ego
frame: three evidence channels (blurred ground truth, degraded by
distance-growing noise, per-sequence sensor calibration, and dropout blobs),
one clutter channel of false structures that also leaks into the evidence,
and one normalized-range channel.  Six 60-degree camera sectors are assigned
by bearing.  Everything is a pure function of the seeds.

A frame is built from the map near the ego.  Each world keeps a stroke
table, built at its first frame: every divider and boundary segment with
its class plane and bounding box, and every crossing polygon with its box.
Ground truth skips every segment and polygon whose box misses the square
around the disk that holds the grid, and samples the strokes of both
classes in one vectorized pass into the (3, rows, cols) stack.  The
observation blurs its three class planes and its clutter plane as one
stack and draws its four noise planes in one Box-Muller pass; the planes
that depend only on the grid and the style's noise level are cached
read-only.

A `Sample` holds its frame compactly: the float64 sensor cells that are not
+0.0 behind a packed bitmask, and the GT as packed bits.  The range plane
and the camera-sector map depend on the grid alone and are computed once per
`GridSpec`, read-only.

A dataset is described once, by a `WorldConfig` (the `world` config section):
no function here defaults one of its settings.  A `Dataset` keeps the grid,
its sequences and the split, not the worlds its frames were built from.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, check_fields
from .geometry import GRID_PRESETS, GridSpec, Pose2, Raster
from .rng import Stream, mix64, normal_rows

CLASS_NAMES = ("ped_crossing", "divider", "boundary")
N_CLASSES = 3
_CROSSING = CLASS_NAMES.index("ped_crossing")
OBS_CHANNELS = 5
N_SECTORS = 6

DEFAULT_EXTENT = (-120.0, 120.0, -120.0, 120.0)
SPEED_RANGE = (0.0, 12.0)   # the ego's speeds between dwell segments, m/s

# rendering amplitude per class channel (thin strokes need boosting to stay
# visible after smoothing)
SIGNAL_GAIN = (1.0, 1.8, 1.8)
_GAIN_PLANES = np.array(SIGNAL_GAIN)[:, None, None]
# leak of clutter structures into each evidence channel
_CLUTTER_LEAK = (0.25, 0.25, 0.25)
_LEAK_PLANES = np.array(_CLUTTER_LEAK)[:, None, None]
# per-sequence sensor calibration spreads
_GAIN_RANGE = (0.6, 1.4)
_BIAS_RANGE = (-0.05, 0.12)
# cross-talk strong enough that channel identity alone cannot resolve the
# class; structures must be classified by their geometry
_CROSSTALK_MAX = 0.65
_CLUTTER_GAIN_RANGE = (0.55, 1.45)
_DROP_SCALE_RANGE = (0.5, 1.5)
# sensing range: evidence fades out around this fraction of the grid radius,
# so distant structure must be inferred, not read off
_VIS_FRAC_RANGE = (0.45, 0.75)
# bit pattern of 1.0, the only GT value besides +0.0 a Sample can hold
_ONE_BITS = np.float64(1.0).view(np.uint64)


@dataclass(frozen=True)
class StyleParams:
    """Knobs that define a synthetic 'city' domain."""

    curvature_scale: float = 0.02   # 1/m
    road_density: float = 90.0      # roads per km^2
    lane_width: float = 3.6         # m
    crossing_frequency: float = 0.7  # expected crossings per 100 m of road
    noise_level: float = 0.35
    clutter_density: float = 1.0    # false structures per frame (expected)

    def __post_init__(self):
        # corruption levels may be zero (a clean sensor is a valid style)
        check_fields("style", self, (
            *((name, getattr(self, name) > 0, "> 0")
              for name in ("curvature_scale", "road_density", "lane_width",
                           "crossing_frequency")),
            ("noise_level", self.noise_level >= 0, ">= 0"),
            ("clutter_density", self.clutter_density >= 0, ">= 0")))


CITY_A = StyleParams(curvature_scale=0.018, road_density=85.0, lane_width=3.6,
                     crossing_frequency=0.6, noise_level=0.32,
                     clutter_density=0.9)
CITY_B = StyleParams(curvature_scale=0.042, road_density=130.0, lane_width=3.0,
                     crossing_frequency=1.1, noise_level=0.45,
                     clutter_density=1.6)

STYLE_PRESETS = {"city_A": CITY_A, "city_B": CITY_B}


@dataclass(frozen=True)
class WorldConfig:
    """The `world` config section: what `build_dataset` builds from.  Its
    rules hold for every kind, though `city-adapt` reads neither `n_worlds`
    nor `utilisation`."""

    style: str = "city_A"
    grid_preset: str = "small"
    n_worlds: int = 50
    n_frames: int = 12
    val_worlds: int = 4
    test_worlds: int = 6
    utilisation: float = 0.1

    def __post_init__(self):
        check_fields("world", self, (
            ("style", self.style in STYLE_PRESETS,
             f"one of {sorted(STYLE_PRESETS)}"),
            ("grid_preset", self.grid_preset in GRID_PRESETS,
             f"one of {sorted(GRID_PRESETS)}"),
            *((name, getattr(self, name) >= 1, ">= 1")
              for name in ("n_frames", "val_worlds", "test_worlds")),
            ("n_worlds", self.n_worlds > self.val_worlds + self.test_worlds,
             f">= {self.val_worlds} val + {self.test_worlds} test + 1 train "
             "worlds"),
            ("utilisation", 0 < self.utilisation <= 1, "in (0, 1]")))


@dataclass
class WorldMap:
    """Polyline map plus the drivable centerlines it was grown from.

    `rasterize_gt` reads the polylines through a stroke table that is
    built at the world's first frame and kept with the world.
    """

    polylines: list[tuple[str, np.ndarray]]
    centerlines: list[np.ndarray]
    style: StyleParams
    extent: tuple[float, float, float, float]
    seed: int
    _strokes: _StrokeTable | None = field(default=None, init=False,
                                          repr=False, compare=False)


@dataclass
class Calibration:
    """Per-sequence sensor response; identity by default.

    `mix` is a channel cross-talk matrix applied to the clean class signals,
    so evidence channels bleed into each other differently per sequence.
    Generalizing across calibrations is the appearance axis of the benchmark.
    """

    gains: tuple[float, float, float] = (1.0, 1.0, 1.0)
    biases: tuple[float, float, float] = (0.0, 0.0, 0.0)
    mix: tuple = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    clutter_gain: float = 1.0
    drop_scale: float = 1.0
    # sensing-range fraction of the grid radius; None disables attenuation
    vis_frac: float | None = None

    @classmethod
    def draw(cls, stream: Stream) -> "Calibration":
        g = stream.child("gain")
        b = stream.child("bias")
        x = stream.child("mix")
        mix = tuple(tuple(1.0 if i == j else x.uniform(0.0, _CROSSTALK_MAX)
                          for j in range(3)) for i in range(3))
        return cls(
            gains=tuple(g.uniform(*_GAIN_RANGE) for _ in range(3)),
            biases=tuple(b.uniform(*_BIAS_RANGE) for _ in range(3)),
            mix=mix,
            clutter_gain=stream.child("cgain").uniform(*_CLUTTER_GAIN_RANGE),
            drop_scale=stream.child("dscale").uniform(*_DROP_SCALE_RANGE),
            vis_frac=stream.child("vis").uniform(*_VIS_FRAC_RANGE),
        )


class Sample:
    """One frame, held compactly.

    Stored: the observation's four sensor channels without their +0.0 cells
    (a packed bitmask of the cells whose bit pattern is not +0.0, and the
    float64 values of those cells in C order), the ground truth as packed
    bits, and the grid.  Cells are told apart by bit pattern, so -0.0 is
    stored like any other value.  The range channel is the grid's shared
    `_range_norm` plane and every cell is valid, so neither is stored.
    `observation` and `gt` rebuild fresh float64 rasters on each read, equal
    bit for bit to the ones built; writing into one does not change the
    frame.

    The constructor rejects, with `ConfigurationError`, what this form cannot
    hold exactly or training cannot use: a GT value other than 0 or 1, a
    range channel that is not the grid's, an invalid cell, or a sensor value
    that is NaN or infinite.
    """

    __slots__ = ("sequence_id", "frame_index", "pose", "spec", "_stored",
                 "_values", "_gt")

    def __init__(self, sequence_id: int, frame_index: int, pose: Pose2,
                 observation: Raster, gt: Raster):
        spec = gt.spec
        where = f"sequence {sequence_id} frame {frame_index}"
        if observation.spec != spec:
            raise ConfigurationError(f"{where}: observation and GT grids differ")
        if observation.channels != OBS_CHANNELS or gt.channels != N_CLASSES:
            raise ConfigurationError(
                f"{where}: expected {OBS_CHANNELS} observation and {N_CLASSES} "
                f"GT channels, got {observation.channels} and {gt.channels}")
        if not (observation.valid.all() and gt.valid.all()):
            raise ConfigurationError(f"{where}: raster has invalid cells")
        # compared as bit patterns: -0.0 is not 0.0, and NaN never matches
        bits = np.ascontiguousarray(gt.values).view(np.uint64)
        is_one = bits == _ONE_BITS
        if not (is_one | (bits == 0)).all():
            raise ConfigurationError(f"{where}: GT values must be exactly 0 or 1")
        rng = np.ascontiguousarray(observation.values[OBS_CHANNELS - 1])
        if not np.array_equal(rng.view(np.uint64),
                              _range_norm(spec).view(np.uint64)):
            raise ConfigurationError(
                f"{where}: observation channel {OBS_CHANNELS - 1} is not the "
                "grid's range plane")
        sensor = np.ascontiguousarray(observation.values[:OBS_CHANNELS - 1])
        if not np.isfinite(sensor).all():
            raise ConfigurationError(f"{where}: sensor values must be finite")
        self.sequence_id = sequence_id
        self.frame_index = frame_index
        self.pose = pose
        self.spec = spec
        stored = (sensor.view(np.uint64) != 0).reshape(-1)
        self._stored = np.packbits(stored)
        self._values = np.compress(stored, sensor.reshape(-1))
        self._gt = np.packbits(is_one)

    @property
    def observation(self) -> Raster:
        rows, cols = self.spec.rows, self.spec.cols
        values = np.zeros((OBS_CHANNELS, rows, cols))
        stored = np.unpackbits(self._stored,
                               count=(OBS_CHANNELS - 1) * rows * cols)
        # np.place(sensor, stored, self._values), in about half its time;
        # nonzero runs its fast path on a bool array, not on uint8
        sensor = values[:OBS_CHANNELS - 1].reshape(-1)
        sensor[np.flatnonzero(stored.view(bool))] = self._values
        values[OBS_CHANNELS - 1] = _range_norm(self.spec)
        return Raster(self.spec, values)

    @property
    def gt(self) -> Raster:
        rows, cols = self.spec.rows, self.spec.cols
        bits = np.unpackbits(self._gt, count=N_CLASSES * rows * cols)
        return Raster(self.spec,
                      bits.reshape(N_CLASSES, rows, cols).astype(np.float64))


@dataclass
class SequenceData:
    sequence_id: int
    poses: list[Pose2]
    samples: list[Sample]


@dataclass
class DatasetSplit:
    labelled: list[int]
    unlabelled: list[int]
    val: list[int]
    test: list[int]


# ------------------------------------------------------------ clipping ----

def _clip_polyline(verts: np.ndarray, extent) -> list[np.ndarray]:
    """Split a polyline into maximal runs inside the extent rectangle,
    interpolating the crossing points on the boundary."""
    x0, x1, y0, y1 = extent
    verts = np.asarray(verts, dtype=np.float64)

    def boundary_point(p, q):
        # walk from inside point p toward outside point q, clip against each edge
        t_best = 1.0
        dx, dy = q[0] - p[0], q[1] - p[1]
        for bound, delta, start in ((x0, dx, p[0]), (x1, dx, p[0]),
                                    (y0, dy, p[1]), (y1, dy, p[1])):
            if delta != 0.0:
                t = (bound - start) / delta
                if 0.0 <= t < t_best:
                    cand = (p[0] + t * dx, p[1] + t * dy)
                    if x0 - 1e-9 <= cand[0] <= x1 + 1e-9 and \
                       y0 - 1e-9 <= cand[1] <= y1 + 1e-9:
                        t_best = t
        return np.array([[min(max(p[0] + t_best * dx, x0), x1),
                          min(max(p[1] + t_best * dy, y0), y1)]])

    inside = ((x0 <= verts[:, 0]) & (verts[:, 0] <= x1)
              & (y0 <= verts[:, 1]) & (verts[:, 1] <= y1))
    # runs of inside vertices are [starts[k], stops[k])
    edges = np.diff(np.concatenate([[0], inside.view(np.int8), [0]]))
    starts, stops = np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]
    runs = []
    for a, b in zip(starts.tolist(), stops.tolist()):
        run = [verts[a:b]]
        if a > 0:
            run.insert(0, boundary_point(verts[a], verts[a - 1]))
        if b < len(verts):
            run.append(boundary_point(verts[b - 1], verts[b]))
        if sum(map(len, run)) >= 2:
            runs.append(np.concatenate(run))
    return runs


def _clip_polygon(verts: np.ndarray, extent) -> np.ndarray | None:
    """Sutherland-Hodgman clip of a convex polygon to the extent rectangle."""
    x0, x1, y0, y1 = extent
    edges = (
        lambda p: p[0] - x0,
        lambda p: x1 - p[0],
        lambda p: p[1] - y0,
        lambda p: y1 - p[1],
    )
    poly = [np.asarray(p, dtype=np.float64) for p in verts]
    for side in edges:
        if not poly:
            return None
        out = []
        for i, p in enumerate(poly):
            q = poly[i - 1]
            dp, dq = side(p), side(q)
            if dp >= 0:
                if dq < 0:
                    t = dq / (dq - dp)
                    out.append(q + t * (p - q))
                out.append(p)
            elif dq >= 0:
                t = dq / (dq - dp)
                out.append(q + t * (p - q))
        poly = out
    return np.array(poly) if len(poly) >= 3 else None


# -------------------------------------------------------- world building --

def _walk(stream: Stream, start, heading, style: StyleParams, extent,
          max_len: float) -> list[tuple[float, float]]:
    """Vertices of a curvature-held random walk in 2 m steps from `start`,
    ending at the first vertex outside the extent or after `max_len`."""
    x0, x1, y0, y1 = extent
    step = 2.0
    x, y = float(start[0]), float(start[1])
    pts = [(x, y)]
    h = heading
    travelled = 0.0
    kappa = stream.uniform(-style.curvature_scale, style.curvature_scale)
    hold = stream.uniform(15.0, 50.0)
    while travelled < max_len:
        if hold <= 0.0:
            kappa = stream.uniform(-style.curvature_scale, style.curvature_scale)
            hold = stream.uniform(15.0, 50.0)
        h += kappa * step
        x += step * math.cos(h)
        y += step * math.sin(h)
        pts.append((x, y))
        travelled += step
        hold -= step
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            break
    return pts


def _offset_polyline(verts: np.ndarray, offset: float) -> np.ndarray:
    d = np.diff(verts, axis=0)
    seg_n = np.stack([-d[:, 1], d[:, 0]], axis=1)
    norm = np.linalg.norm(seg_n, axis=1, keepdims=True)
    seg_n = seg_n / np.maximum(norm, 1e-12)
    vert_n = np.vstack([seg_n[:1], seg_n[:-1] + seg_n[1:], seg_n[-1:]])
    vn = np.linalg.norm(vert_n, axis=1, keepdims=True)
    vert_n = vert_n / np.maximum(vn, 1e-12)
    return verts + offset * vert_n


def _polyline_length(verts: np.ndarray) -> float:
    return float(np.linalg.norm(np.diff(verts, axis=0), axis=1).sum())


def _arclength(verts: np.ndarray) -> np.ndarray:
    """Cumulative arc length at each vertex, 0 at the first.  Its last entry
    rounds differently from `_polyline_length`'s pairwise sum."""
    return np.concatenate([[0.0], np.cumsum(
        np.linalg.norm(np.diff(verts, axis=0), axis=1))])


def _point_at(verts: np.ndarray, cum: np.ndarray, s: float):
    """Point and unit tangent at arc length s along the polyline."""
    s = min(max(s, 0.0), float(cum[-1]))
    i = int(np.searchsorted(cum, s, side="right") - 1)
    i = min(i, len(verts) - 2)
    seg = verts[i + 1] - verts[i]
    seg_len = float(np.linalg.norm(seg))
    t = (s - cum[i]) / seg_len if seg_len > 0 else 0.0
    tang = seg / seg_len if seg_len > 0 else np.array([1.0, 0.0])
    return verts[i] + t * seg, tang


def generate_world(seed: int, style: StyleParams) -> WorldMap:
    """Deterministic polyline world over `DEFAULT_EXTENT`: roads with
    dividers, boundaries, and pedestrian-crossing quads near random
    stations."""
    extent = DEFAULT_EXTENT
    x0, x1, y0, y1 = extent
    area_km2 = (x1 - x0) * (y1 - y0) / 1e6
    n_roads = max(1, round(style.road_density * area_km2))
    diag = math.hypot(x1 - x0, y1 - y0)

    root = Stream(seed)
    centerlines: list[np.ndarray] = []
    lanes_per_road: list[int] = []
    for ri in range(n_roads):
        rs = root.child(f"road{ri}")
        for attempt in range(4):
            ws = rs.child(f"try{attempt}")
            start = (ws.uniform(x0 + 0.2 * (x1 - x0), x1 - 0.2 * (x1 - x0)),
                     ws.uniform(y0 + 0.2 * (y1 - y0), y1 - 0.2 * (y1 - y0)))
            heading = ws.uniform(-math.pi, math.pi)
            fwd = _walk(ws.child("fwd"), start, heading, style, extent, 0.8 * diag)
            bwd = _walk(ws.child("bwd"), start, heading + math.pi, style,
                        extent, 0.8 * diag)
            line = np.array(list(reversed(bwd[1:])) + fwd)
            if _polyline_length(line) >= 40.0:
                break
        centerlines.append(line)
        lanes_per_road.append(2 + (1 if rs.child("lanes").uniform() < 0.3 else 0))

    polylines: list[tuple[str, np.ndarray]] = []
    crossing_count = 0
    for ri, line in enumerate(centerlines):
        half_width = lanes_per_road[ri] * style.lane_width / 2.0
        divider_offsets = ([0.0] if lanes_per_road[ri] == 2
                           else [-style.lane_width / 2.0, style.lane_width / 2.0])
        for off in divider_offsets:
            for run in _clip_polyline(_offset_polyline(line, off), extent):
                polylines.append(("divider", run))
        for off in (-half_width, half_width):
            for run in _clip_polyline(_offset_polyline(line, off), extent):
                polylines.append(("boundary", run))

        cs = Stream(seed).child(f"road{ri}").child("crossings")
        cum = _arclength(line)
        length = float(cum[-1])
        lam = style.crossing_frequency * length / 100.0
        n_cross = cs.poisson(lam)
        for ci in range(n_cross):
            qs = cs.child(f"q{ci}")
            s = qs.uniform(0.1 * length, 0.9 * length)
            half_len = qs.uniform(1.25, 2.25)
            quad = _crossing_quad(line, cum, s, half_len, half_width)
            clipped = _clip_polygon(quad, extent)
            if clipped is not None:
                polylines.append(("ped_crossing", clipped))
                crossing_count += 1

    if crossing_count == 0:
        line = centerlines[0]
        cum = _arclength(line)
        quad = _crossing_quad(line, cum, float(cum[-1]) / 2.0, 1.75,
                              lanes_per_road[0] * style.lane_width / 2.0)
        clipped = _clip_polygon(quad, extent)
        if clipped is not None:
            polylines.append(("ped_crossing", clipped))

    present = {c for c, _ in polylines}
    if present != set(CLASS_NAMES):
        raise ConfigurationError(
            f"world {seed} is degenerate: classes {sorted(present)} only")
    return WorldMap(polylines, centerlines, style, extent, seed)


def _crossing_quad(line, cum, s, half_len, half_width) -> np.ndarray:
    pa, ta = _point_at(line, cum, s - half_len)
    pb, tb = _point_at(line, cum, s + half_len)
    na = np.array([-ta[1], ta[0]])
    nb = np.array([-tb[1], tb[0]])
    w = half_width + 0.5
    return np.array([pa + w * na, pa - w * na, pb - w * nb, pb + w * nb])


# ----------------------------------------------------------- trajectories --

def generate_sequence(world: WorldMap, seed: int, n_frames: int,
                      ) -> list[tuple[int, Pose2]]:
    """Frame poses along a drivable centerline at 1 Hz.

    Speeds are piecewise constant: zero-speed dwell segments, or draws
    from `SPEED_RANGE`.
    """
    stream = Stream(seed).child("traj")

    lengths = [_polyline_length(c) for c in world.centerlines]
    usable = [i for i, L in enumerate(lengths) if L >= 30.0]
    road = (usable[stream.child("road").randint(len(usable))]
            if usable else int(np.argmax(lengths)))
    line = world.centerlines[road]
    cum = _arclength(line)
    length = float(cum[-1])

    direction = 1 if stream.child("dir").uniform() < 0.5 else -1
    s = stream.child("start").uniform(0.15 * length, 0.45 * length)
    if direction < 0:
        s = length - s

    spd = stream.child("speed")
    poses: list[tuple[int, Pose2]] = []
    v, hold = 0.0, 0
    for i in range(n_frames):
        if hold <= 0:
            if spd.uniform() < 0.22:
                v, hold = 0.0, spd.randrange(1, 4)
            else:
                v, hold = spd.uniform(*SPEED_RANGE), spd.randrange(2, 6)
        p, tang = _point_at(line, cum, s)
        yaw = math.atan2(direction * tang[1], direction * tang[0])
        poses.append((i, Pose2(float(p[0]), float(p[1]), yaw)))
        s += direction * v
        s = min(max(s, 0.0), length)
        hold -= 1
    return poses


# ---------------------------------------------------------- rasterization --

def _world_to_ego(pose: Pose2, pts: np.ndarray) -> np.ndarray:
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    dx = pts[:, 0] - pose.x
    dy = pts[:, 1] - pose.y
    out = np.empty((len(pts), 2))
    np.add(c * dx, s * dy, out=out[:, 0])
    np.add(-s * dx, c * dy, out=out[:, 1])
    return out


def _corner_distance(spec: GridSpec) -> float:
    """Distance from the ego to the farthest grid corner."""
    return math.hypot(max(abs(spec.x_min), abs(spec.x_max)),
                      max(abs(spec.y_min), abs(spec.y_max)))


class _StrokeTable(NamedTuple):
    """A world's map as `rasterize_gt` reads it, built once per world.

    `ends[i]` holds the start and end of stroke segment i, over every
    segment of the divider and boundary polylines, and `plane[i]` its
    class channel; `polygons` are the crossings.  `lo` and `hi` are the
    world-frame bounding boxes of the segments followed by those of the
    polygons.
    """

    ends: np.ndarray
    plane: np.ndarray
    polygons: list
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def build(cls, polylines) -> "_StrokeTable":
        strokes = [(CLASS_NAMES.index(c), v) for c, v in polylines
                   if CLASS_NAMES.index(c) != _CROSSING and len(v) > 1]
        polygons = [v for c, v in polylines
                    if CLASS_NAMES.index(c) == _CROSSING and len(v)]
        ends = np.concatenate([np.stack([v[:-1], v[1:]], axis=1)
                               for _, v in strokes] or [np.zeros((0, 2, 2))])
        plane = np.repeat([ch for ch, _ in strokes],
                          [len(v) - 1 for _, v in strokes]).astype(np.int64)
        lo = np.concatenate([ends.min(axis=1)]
                            + [v.min(axis=0, keepdims=True) for v in polygons])
        hi = np.concatenate([ends.max(axis=1)]
                            + [v.max(axis=0, keepdims=True) for v in polygons])
        return cls(ends, plane, polygons, lo, hi)


def _stroke_table(world: WorldMap) -> _StrokeTable:
    """The world's stroke table, built at its first frame."""
    if world._strokes is None:
        world._strokes = _StrokeTable.build(world.polylines)
    return world._strokes


def _near_ego(table: _StrokeTable, pose: Pose2, spec: GridSpec) -> np.ndarray:
    """Which segments and polygons of the table, in its order, have a
    world-frame bounding box that meets the square pose ± reach, reach
    being the farthest grid corner plus one cell.

    The grid lies inside the disk of that radius, so nothing else can mark
    a cell; the extra cell absorbs the rounding of the ego transform.
    """
    reach = _corner_distance(spec) + spec.cell
    lo, hi = table.lo, table.hi
    return ((hi[:, 0] >= pose.x - reach) & (lo[:, 0] <= pose.x + reach)
            & (hi[:, 1] >= pose.y - reach) & (lo[:, 1] <= pose.y + reach))


def _mark_line(grid: np.ndarray, spec: GridSpec, a: np.ndarray,
               b: np.ndarray, plane) -> None:
    """Mark the cells under the segments a[i] → b[i] in `grid`, a stack of
    (rows, cols) planes, on plane `plane` (one for all segments or one
    each).  Each segment is sampled at `linspace(0, 1, n)` with n set by
    its length (about 3 samples per cell)."""
    rows, cols = spec.rows, spec.cols
    meets = ((np.maximum(a, b) >= (spec.x_min, spec.y_min))
             & (np.minimum(a, b) <= (spec.x_max, spec.y_max)))
    near = meets[:, 0] & meets[:, 1]
    a = a[near]
    if not len(a):
        return
    d = b[near] - a
    # math.hypot, not np.hypot, which may round differently and move n
    seg_len = np.array(list(map(math.hypot, *d.T.tolist())), dtype=np.float64)
    n = np.maximum(2, (seg_len / (spec.cell * 0.35)).astype(np.int64) + 1)
    # sample j of segment i is t = j * (1 / (n_i - 1)), its last pinned to
    # 1.0: exactly what np.linspace(0, 1, n_i) computes
    ends = n.cumsum()
    t = ((np.arange(ends[-1]) - (ends - n).repeat(n))
         * (1.0 / (n - 1)).repeat(n))
    t[ends - 1] = 1.0
    pts = a.repeat(n, axis=0) + t[:, None] * d.repeat(n, axis=0)
    rq = np.floor((pts - (spec.x_min, spec.y_min)) / spec.cell).astype(np.int64)
    r, q = rq[:, 0], rq[:, 1]
    # as unsigned, a negative index is past the end too
    ok = (r.view(np.uint64) < rows) & (q.view(np.uint64) < cols)
    if np.ndim(plane):
        plane = plane[near].repeat(n)
    np.put(grid, ((plane * rows + r) * cols + q)[ok], 1.0)


def _fill_polygon(grid: np.ndarray, spec: GridSpec, poly: np.ndarray) -> None:
    """Set the cells whose centres lie inside the convex polygon, or on
    its edges, to 1."""
    if len(poly) < 3:
        return
    px, py = poly.T.tolist()
    r_lo = max(0, int(math.floor((min(px) - spec.x_min) / spec.cell)))
    r_hi = min(spec.rows, int(math.ceil((max(px) - spec.x_min) / spec.cell)) + 1)
    q_lo = max(0, int(math.floor((min(py) - spec.y_min) / spec.cell)))
    q_hi = min(spec.cols, int(math.ceil((max(py) - spec.y_min) / spec.cell)) + 1)
    if r_lo >= r_hi or q_lo >= q_hi:
        return
    xs = spec.x_min + (np.arange(r_lo, r_hi) + 0.5) * spec.cell
    ys = spec.y_min + (np.arange(q_lo, q_hi) + 0.5) * spec.cell
    # the cross product of each edge a → b with each cell centre, as
    # (edges, rows, cols)
    a = poly[:, :, None, None]
    e = np.concatenate([poly[1:], poly[:1]])[:, :, None, None] - a
    cross = (e[:, 0] * (ys - a[:, 1]) - e[:, 1] * (xs[:, None] - a[:, 0]))
    inside = ~((cross > 1e-12).any(axis=0) & (cross < -1e-12).any(axis=0))
    grid[r_lo:r_hi, q_lo:q_hi][inside] = 1.0


def rasterize_gt(world: WorldMap, pose: Pose2, spec: GridSpec) -> Raster:
    """Three binary channels in the ego frame: crossings filled, dividers and
    boundaries stroked one cell wide.  Channels are independent."""
    out = np.zeros((N_CLASSES, spec.rows, spec.cols))
    table = _stroke_table(world)
    near = _near_ego(table, pose, spec)
    n_seg = len(table.ends)
    for i in np.flatnonzero(near[n_seg:]).tolist():
        _fill_polygon(out[_CROSSING], spec,
                      _world_to_ego(pose, table.polygons[i]))
    seg = np.flatnonzero(near[:n_seg])
    ends = _world_to_ego(pose, table.ends[seg].reshape(-1, 2)).reshape(-1, 2, 2)
    _mark_line(out, spec, ends[:, 0], ends[:, 1], table.plane[seg])
    return Raster(spec, out)


# ----------------------------------------------------------- observations --

def blur3(x: np.ndarray) -> np.ndarray:
    """3x3 binomial blur with zero padding over the last two axes, as a
    [1, 2, 1] pass along the rows, then one along the columns; the
    observation 'smoothing'.  Its one caller passes planes of exact 0s and
    1s (GT cells and clutter marks), on which every partial sum is an
    integer of at most 16 and the division by 16 is exact, so the result
    is the nine-tap sum's in any order."""
    p = np.zeros(x.shape[:-2] + (x.shape[-2] + 2, x.shape[-1] + 2))
    p[..., 1:-1, 1:-1] = x
    r = p[..., :-2, :] + 2.0 * p[..., 1:-1, :] + p[..., 2:, :]
    return (r[..., :-2] + 2.0 * r[..., 1:-1] + r[..., 2:]) / 16.0


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# The planes below depend on the grid alone; each is computed once per
# GridSpec and shared read-only by every frame and every view.

@functools.lru_cache(maxsize=8)
def compute_sector_map(spec: GridSpec) -> np.ndarray:
    """Camera sector of each cell: 0 is dead ahead, increasing
    counterclockwise, 60 degrees each.  Read-only."""
    xs, ys = spec.centers()
    bearing = np.arctan2(ys, xs)
    sector = np.floor(((bearing + math.pi / 6.0) % (2.0 * math.pi))
                      / (math.pi / 3.0)).astype(np.int64)
    return _read_only(np.clip(sector, 0, N_SECTORS - 1))


@functools.lru_cache(maxsize=8)
def _range_norm(spec: GridSpec) -> np.ndarray:
    """Distance of each cell from the ego, as a fraction of the farthest
    grid corner: the observation's last channel.  Read-only."""
    xs, ys = spec.centers()
    return _read_only(np.hypot(xs, ys) / _corner_distance(spec))


@functools.lru_cache(maxsize=8)
def _sigma(spec: GridSpec, noise_level: float) -> np.ndarray:
    """Noise amplitude of each evidence cell, growing with range; the
    clutter channel's is half of it.  Read-only."""
    return _read_only(noise_level * (0.15 + 0.85 * _range_norm(spec)))


def render_observation(gt: Raster, style: StyleParams, noise_seed: int,
                       calibration: Calibration | None = None) -> Raster:
    """Noisy 5-channel observation of a frame, on its ground truth's grid.

    Evidence channel c is clip((mixed_c * gain_c + bias_c) + leak_c *
    clutter + sigma * noise_c), and the clutter channel clip(clutter *
    clutter_gain + sigma / 2 * noise_3); dropout blobs zero all four.  The
    four noise planes are one `normal_rows` draw.
    """
    cal = calibration or Calibration()
    spec = gt.spec
    rows, cols = spec.rows, spec.cols
    stream = Stream(noise_seed)

    # the class evidence and the clutter plane share one blur
    planes = np.zeros((N_CLASSES + 1, rows, cols))
    planes[:N_CLASSES] = gt.values
    cl = stream.child("clutter")
    n_clutter = cl.poisson(style.clutter_density * 3.0)
    strokes = np.zeros((n_clutter, 4))
    for i in range(n_clutter):
        cs = cl.child(f"c{i}")
        ax = cs.uniform(spec.x_min, spec.x_max)
        ay = cs.uniform(spec.y_min, spec.y_max)
        heading = cs.uniform(-math.pi, math.pi)
        ln = cs.uniform(3.0, 14.0)
        strokes[i] = (ax, ay, ax + ln * math.cos(heading),
                      ay + ln * math.sin(heading))
    _mark_line(planes, spec, strokes[:, :2], strokes[:, 2:], N_CLASSES)
    blurred = blur3(planes)
    signal = blurred[:N_CLASSES]
    signal *= _GAIN_PLANES
    clutter = blurred[N_CLASSES]
    clutter *= 0.5 + 0.5 * stream.child("camp").uniform()

    drops = []
    dr = stream.child("drop")
    lam = 3.0 * min(1.0, style.noise_level * 2.5) * cal.drop_scale
    for i in range(dr.poisson(lam)):
        ds = dr.child(f"d{i}")
        h = ds.randrange(2, max(3, rows // 8))
        w = ds.randrange(2, max(3, cols // 4))
        r0 = ds.randint(max(1, rows - h))
        q0 = ds.randint(max(1, cols - w))
        drops.append((slice(r0, r0 + h), slice(q0, q0 + w)))

    values = np.empty((OBS_CHANNELS, rows, cols))
    evidence = values[:N_CLASSES]
    np.einsum("ij,jhw->ihw", np.asarray(cal.mix), signal, out=evidence)
    if cal.vis_frac is not None:
        evidence *= 1.0 / (1.0 + np.exp((_range_norm(spec) - cal.vis_frac)
                                        / 0.08))
    evidence *= np.array(cal.gains)[:, None, None]
    evidence += np.array(cal.biases)[:, None, None]
    evidence += _LEAK_PLANES * clutter
    np.multiply(clutter, cal.clutter_gain, out=values[N_CLASSES])
    noise = normal_rows([stream.child(f"noise{ch}") for ch in range(N_CLASSES)]
                        + [stream.child("cnoise")], rows * cols)
    noise = noise.reshape(N_CLASSES + 1, rows, cols)
    sigma = _sigma(spec, style.noise_level)
    noise[:N_CLASSES] *= sigma
    noise[N_CLASSES] *= 0.5 * sigma
    sensor = values[:N_CLASSES + 1]
    sensor += noise
    for r, q in drops:
        sensor[:, r, q] = 0.0
    sensor.clip(0.0, 1.0, out=sensor)
    values[OBS_CHANNELS - 1] = _range_norm(spec)
    return Raster(spec, values)


# ------------------------------------------------------------------ splits --

def make_splits(cfg: WorldConfig, seed: int) -> DatasetSplit:
    """Partition whole worlds into train/val/test, then label a fraction of
    the train sequences.  A world holds one sequence, whose id is its index;
    `WorldConfig` has checked that at least one train world is left."""
    order = Stream(seed).child("world-split").permutation(cfg.n_worlds)
    test_w = sorted(order[:cfg.test_worlds])
    val_w = sorted(order[cfg.test_worlds:cfg.test_worlds + cfg.val_worlds])
    train_seqs = [w for w in range(cfg.n_worlds)
                  if w not in test_w and w not in val_w]
    n_lab = max(1, int(math.floor(cfg.utilisation * len(train_seqs) + 0.5)))
    pick = list(train_seqs)
    Stream(seed).child("label-pick").shuffle(pick)
    labelled = sorted(pick[:n_lab])
    unlabelled = sorted(pick[n_lab:])
    return DatasetSplit(labelled, unlabelled, val_w, test_w)


# ------------------------------------------------------------ dataset -----

@dataclass
class Dataset:
    spec: GridSpec
    sequences: dict[int, SequenceData]
    split: DatasetSplit


def build_sequence(world: WorldMap, sequence_id: int, seed: int,
                   spec: GridSpec, n_frames: int) -> SequenceData:
    poses = generate_sequence(world, seed, n_frames)
    cal = Calibration.draw(Stream(seed).child("calibration"))
    samples = []
    for idx, pose in poses:
        noise_seed = mix64(seed ^ mix64(1000 + idx))
        gt = rasterize_gt(world, pose, spec)
        obs = render_observation(gt, world.style, noise_seed, cal)
        samples.append(Sample(sequence_id, idx, pose, obs, gt))
    return SequenceData(sequence_id, [p for _, p in poses], samples)


def build_sequences(worlds: list[WorldMap], seed: int,
                    cfg: WorldConfig) -> dict[int, SequenceData]:
    """One sequence of each world, keyed by the world's index and seeded
    from `seed` and that index."""
    spec = GRID_PRESETS[cfg.grid_preset]
    sequences: dict[int, SequenceData] = {}
    for sid, world in enumerate(worlds):
        sequences[sid] = build_sequence(
            world, sid, mix64(seed ^ mix64(7777 + sid)), spec, cfg.n_frames)
        # its frames are built: hold one world's stroke table at a time
        world._strokes = None
    return sequences


def generate_worlds(seed: int, style: str, count: int, first: int = 0,
                    ) -> list[WorldMap]:
    """`count` worlds of the named style, world i seeded from `seed` and
    its index `first + i`."""
    return [generate_world(mix64(seed ^ mix64(first + i)), STYLE_PRESETS[style])
            for i in range(count)]


def build_dataset(cfg: WorldConfig, seed: int) -> Dataset:
    """Deterministic dataset from one seed: `cfg.n_worlds` worlds of
    `cfg.style`, split by `make_splits`."""
    return Dataset(GRID_PRESETS[cfg.grid_preset], build_sequences(
        generate_worlds(seed, cfg.style, cfg.n_worlds), seed, cfg),
        make_splits(cfg, seed))

