"""Procedural map worlds, ego trajectories, and sensor-like BEV observations.

A world is a set of class-tagged polylines (pedestrian crossings as filled
quads, lane dividers and road boundaries as one-cell strokes) generated from
smooth random centerlines.  Observations are rendered directly in the ego
frame: three evidence channels (blurred ground truth, degraded by
distance-growing noise, per-sequence sensor calibration, and dropout blobs),
one clutter channel of false structures that also leaks into the evidence,
and one normalized-range channel.  Six 60-degree camera sectors are assigned
by bearing.  Everything is a pure function of the seeds.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .geometry import GridSpec, Pose2, Raster
from .rng import Stream, mix64

CLASS_NAMES = ("ped_crossing", "divider", "boundary")
N_CLASSES = 3
OBS_CHANNELS = 5
N_SECTORS = 6

DEFAULT_EXTENT = (-120.0, 120.0, -120.0, 120.0)

# rendering amplitude per class channel (thin strokes need boosting to stay
# visible after smoothing)
SIGNAL_GAIN = (1.0, 1.8, 1.8)
# leak of clutter structures into each evidence channel
_CLUTTER_LEAK = (0.25, 0.25, 0.25)
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
        for name in ("curvature_scale", "road_density", "lane_width",
                     "crossing_frequency"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"style.{name} must be positive")
        # corruption levels may be zero (a clean sensor is a valid style)
        if self.noise_level < 0 or self.clutter_density < 0:
            raise ConfigurationError("noise/clutter levels must be nonnegative")


CITY_A = StyleParams(curvature_scale=0.018, road_density=85.0, lane_width=3.6,
                     crossing_frequency=0.6, noise_level=0.32,
                     clutter_density=0.9)
CITY_B = StyleParams(curvature_scale=0.042, road_density=130.0, lane_width=3.0,
                     crossing_frequency=1.1, noise_level=0.45,
                     clutter_density=1.6)

STYLE_PRESETS = {"city_A": CITY_A, "city_B": CITY_B}


@dataclass
class WorldMap:
    """Polyline map plus the drivable centerlines it was grown from."""

    polylines: list[tuple[str, np.ndarray]]
    centerlines: list[np.ndarray]
    style: StyleParams
    extent: tuple[float, float, float, float]
    seed: int


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


@dataclass
class Sample:
    sequence_id: int
    frame_index: int
    pose: Pose2
    observation: Raster
    gt: Raster


@dataclass
class SequenceData:
    sequence_id: int
    world_index: int
    poses: list[Pose2]
    samples: list[Sample]


@dataclass
class DatasetSplit:
    labelled: list[int]
    unlabelled: list[int]
    val: list[int]
    test: list[int]
    label_utilisation: float


# ------------------------------------------------------------ clipping ----

def _clip_polyline(verts: np.ndarray, extent) -> list[np.ndarray]:
    """Split a polyline into maximal runs inside the extent rectangle,
    interpolating the crossing points on the boundary."""
    x0, x1, y0, y1 = extent

    def inside(p):
        return x0 <= p[0] <= x1 and y0 <= p[1] <= y1

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
        return np.array([min(max(p[0] + t_best * dx, x0), x1),
                         min(max(p[1] + t_best * dy, y0), y1)])

    runs: list[list[np.ndarray]] = []
    cur: list[np.ndarray] = []
    for i, p in enumerate(verts):
        if inside(p):
            if not cur and i > 0 and not inside(verts[i - 1]):
                cur.append(boundary_point(p, verts[i - 1]))
            cur.append(np.asarray(p, dtype=np.float64))
        else:
            if cur:
                cur.append(boundary_point(cur[-1], p))
                runs.append(cur)
                cur = []
    if cur:
        runs.append(cur)
    return [np.array(r) for r in runs if len(r) >= 2]


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
          max_len: float) -> list[np.ndarray]:
    x0, x1, y0, y1 = extent
    step = 2.0
    pts = [np.array(start, dtype=np.float64)]
    h = heading
    travelled = 0.0
    kappa = stream.uniform(-style.curvature_scale, style.curvature_scale)
    hold = stream.uniform(15.0, 50.0)
    while travelled < max_len:
        if hold <= 0.0:
            kappa = stream.uniform(-style.curvature_scale, style.curvature_scale)
            hold = stream.uniform(15.0, 50.0)
        h += kappa * step
        p = pts[-1] + step * np.array([math.cos(h), math.sin(h)])
        pts.append(p)
        travelled += step
        hold -= step
        if not (x0 <= p[0] <= x1 and y0 <= p[1] <= y1):
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


def generate_world(seed: int, style: StyleParams,
                   extent: tuple[float, float, float, float] = DEFAULT_EXTENT,
                   ) -> WorldMap:
    """Deterministic polyline world: roads with dividers, boundaries, and
    pedestrian-crossing quads near random stations."""
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
        cum = np.concatenate([[0.0], np.cumsum(
            np.linalg.norm(np.diff(line, axis=0), axis=1))])
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
        cum = np.concatenate([[0.0], np.cumsum(
            np.linalg.norm(np.diff(line, axis=0), axis=1))])
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
                      speed_range: tuple[float, float] = (0.0, 12.0),
                      ) -> list[tuple[int, Pose2]]:
    """Frame poses along a drivable centerline at 1 Hz.

    Speeds are piecewise constant draws from `speed_range`; zero-speed dwell
    segments appear only when the range admits zero speed.
    """
    if n_frames < 1:
        raise ConfigurationError("n_frames must be >= 1")
    lo, hi = speed_range
    stream = Stream(seed).child("traj")

    lengths = [_polyline_length(c) for c in world.centerlines]
    usable = [i for i, L in enumerate(lengths) if L >= 30.0]
    road = (usable[stream.child("road").randint(len(usable))]
            if usable else int(np.argmax(lengths)))
    line = world.centerlines[road]
    cum = np.concatenate([[0.0], np.cumsum(
        np.linalg.norm(np.diff(line, axis=0), axis=1))])
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
            if lo <= 0.0 and spd.uniform() < 0.22:
                v, hold = 0.0, spd.randrange(1, 4)
            else:
                v, hold = spd.uniform(lo, hi), spd.randrange(2, 6)
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
    return np.stack([c * dx + s * dy, -s * dx + c * dy], axis=1)


def _mark_line(grid: np.ndarray, spec: GridSpec, verts: np.ndarray) -> None:
    rows, cols = spec.rows, spec.cols
    step = spec.cell * 0.35
    lo = np.minimum(verts[:-1], verts[1:])
    hi = np.maximum(verts[:-1], verts[1:])
    near = ((hi[:, 0] >= spec.x_min) & (lo[:, 0] <= spec.x_max)
            & (hi[:, 1] >= spec.y_min) & (lo[:, 1] <= spec.y_max))
    for i in np.nonzero(near)[0]:
        a, b = verts[i], verts[i + 1]
        seg_len = math.hypot(b[0] - a[0], b[1] - a[1])
        n = max(2, int(seg_len / step) + 1)
        ts = np.linspace(0.0, 1.0, n)
        xs = a[0] + ts * (b[0] - a[0])
        ys = a[1] + ts * (b[1] - a[1])
        r = np.floor((xs - spec.x_min) / spec.cell).astype(np.int64)
        q = np.floor((ys - spec.y_min) / spec.cell).astype(np.int64)
        ok = (r >= 0) & (r < rows) & (q >= 0) & (q < cols)
        grid[r[ok], q[ok]] = 1.0


def _fill_polygon(grid: np.ndarray, spec: GridSpec, poly: np.ndarray) -> None:
    if len(poly) < 3:
        return
    r_lo = max(0, int(math.floor((poly[:, 0].min() - spec.x_min) / spec.cell)))
    r_hi = min(spec.rows, int(math.ceil((poly[:, 0].max() - spec.x_min) / spec.cell)) + 1)
    q_lo = max(0, int(math.floor((poly[:, 1].min() - spec.y_min) / spec.cell)))
    q_hi = min(spec.cols, int(math.ceil((poly[:, 1].max() - spec.y_min) / spec.cell)) + 1)
    if r_lo >= r_hi or q_lo >= q_hi:
        return
    xs = spec.x_min + (np.arange(r_lo, r_hi) + 0.5) * spec.cell
    ys = spec.y_min + (np.arange(q_lo, q_hi) + 0.5) * spec.cell
    px = np.repeat(xs[:, None], len(ys), axis=1)
    py = np.repeat(ys[None, :], len(xs), axis=0)
    pos = np.zeros(px.shape, dtype=bool)
    neg = np.zeros(px.shape, dtype=bool)
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        cross = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
        pos |= cross > 1e-12
        neg |= cross < -1e-12
    inside = ~(pos & neg)
    grid[r_lo:r_hi, q_lo:q_hi][inside] = 1.0


def rasterize_gt(world: WorldMap, pose: Pose2, spec: GridSpec) -> Raster:
    """Three binary channels in the ego frame: crossings filled, dividers and
    boundaries stroked one cell wide.  Channels are independent."""
    out = np.zeros((N_CLASSES, spec.rows, spec.cols))
    for cls, verts in world.polylines:
        ego = _world_to_ego(pose, verts)
        ch = CLASS_NAMES.index(cls)
        if cls == "ped_crossing":
            _fill_polygon(out[ch], spec, ego)
        else:
            _mark_line(out[ch], spec, ego)
    return Raster(spec, out)


# ----------------------------------------------------------- observations --

def blur3(x: np.ndarray) -> np.ndarray:
    """3x3 binomial blur with zero padding; the observation 'smoothing'."""
    p = np.pad(x, 1)
    k = ((1, 2, 1), (2, 4, 2), (1, 2, 1))
    out = np.zeros_like(x, dtype=np.float64)
    h, w = x.shape
    for i in range(3):
        for j in range(3):
            out += k[i][j] * p[i:i + h, j:j + w]
    return out / 16.0


def compute_sector_map(spec: GridSpec) -> np.ndarray:
    """Camera sector of each cell: 0 is dead ahead, increasing
    counterclockwise, 60 degrees each."""
    xs, ys = spec.centers()
    bearing = np.arctan2(ys, xs)
    sector = np.floor(((bearing + math.pi / 6.0) % (2.0 * math.pi))
                      / (math.pi / 3.0)).astype(np.int64)
    return np.clip(sector, 0, N_SECTORS - 1)


def _range_norm(spec: GridSpec) -> np.ndarray:
    """Distance of each cell from the ego, as a fraction of the farthest
    grid corner."""
    xs, ys = spec.centers()
    r_max = math.hypot(max(abs(spec.x_min), abs(spec.x_max)),
                       max(abs(spec.y_min), abs(spec.y_max)))
    return np.hypot(xs, ys) / r_max


def smoothed_signal(gt_values: np.ndarray) -> np.ndarray:
    """Clean per-class evidence: blurred ground truth at class amplitude."""
    return np.stack([SIGNAL_GAIN[c] * blur3(gt_values[c])
                     for c in range(N_CLASSES)])


def render_observation(gt: Raster, style: StyleParams, noise_seed: int,
                       calibration: Calibration | None = None) -> Raster:
    """Noisy 5-channel observation of a frame, on its ground truth's grid."""
    cal = calibration or Calibration()
    spec = gt.spec
    rnorm = _range_norm(spec)
    rows, cols = spec.rows, spec.cols
    stream = Stream(noise_seed)

    sigma = style.noise_level * (0.15 + 0.85 * rnorm)

    clutter = np.zeros((rows, cols))
    cl = stream.child("clutter")
    n_clutter = cl.poisson(style.clutter_density * 3.0)
    for i in range(n_clutter):
        cs = cl.child(f"c{i}")
        ax = cs.uniform(spec.x_min, spec.x_max)
        ay = cs.uniform(spec.y_min, spec.y_max)
        heading = cs.uniform(-math.pi, math.pi)
        ln = cs.uniform(3.0, 14.0)
        bx = ax + ln * math.cos(heading)
        by = ay + ln * math.sin(heading)
        _mark_line(clutter, spec, np.array([[ax, ay], [bx, by]]))
    clutter = blur3(clutter) * (0.5 + 0.5 * stream.child("camp").uniform())

    drop_mask = np.zeros((rows, cols), dtype=bool)
    dr = stream.child("drop")
    lam = 3.0 * min(1.0, style.noise_level * 2.5) * cal.drop_scale
    for i in range(dr.poisson(lam)):
        ds = dr.child(f"d{i}")
        h = ds.randrange(2, max(3, rows // 8))
        w = ds.randrange(2, max(3, cols // 4))
        r0 = ds.randint(max(1, rows - h))
        q0 = ds.randint(max(1, cols - w))
        drop_mask[r0:r0 + h, q0:q0 + w] = True

    signal = smoothed_signal(gt.values)
    mix = np.asarray(cal.mix)
    mixed = np.einsum("ij,jhw->ihw", mix, signal)
    if cal.vis_frac is not None:
        atten = 1.0 / (1.0 + np.exp((rnorm - cal.vis_frac) / 0.08))
        mixed = mixed * atten
    values = np.zeros((OBS_CHANNELS, rows, cols))
    for ch in range(N_CLASSES):
        noise = stream.child(f"noise{ch}").normals(rows * cols).reshape(rows, cols)
        ev = (mixed[ch] * cal.gains[ch] + cal.biases[ch]
              + _CLUTTER_LEAK[ch] * clutter + sigma * noise)
        ev[drop_mask] = 0.0
        values[ch] = np.clip(ev, 0.0, 1.0)
    cnoise = stream.child("cnoise").normals(rows * cols).reshape(rows, cols)
    cch = clutter * cal.clutter_gain + 0.5 * sigma * cnoise
    cch[drop_mask] = 0.0
    values[3] = np.clip(cch, 0.0, 1.0)
    values[4] = rnorm
    return Raster(spec, values)


# ------------------------------------------------------------------ splits --

def make_splits(worlds, utilisation: float, seed: int, *,
                seqs_per_world: int = 1, val_worlds: int = 1,
                test_worlds: int = 2) -> DatasetSplit:
    """Partition whole worlds into train/val/test, then label a fraction of
    the train sequences.  Sequence id = world_index * seqs_per_world + j."""
    if not 0.0 < utilisation <= 1.0:
        raise ConfigurationError(f"utilisation must be in (0, 1], got {utilisation}")
    n_worlds = len(worlds)
    if n_worlds < val_worlds + test_worlds + 1:
        raise ConfigurationError(
            f"{n_worlds} worlds cannot cover train/val/test "
            f"({val_worlds} val + {test_worlds} test)")
    order = Stream(seed).child("world-split").permutation(n_worlds)
    test_w = set(order[:test_worlds])
    val_w = set(order[test_worlds:test_worlds + val_worlds])

    def seqs(world_ids):
        return sorted(w * seqs_per_world + j for w in world_ids
                      for j in range(seqs_per_world))

    train_seqs = seqs([w for w in range(n_worlds)
                       if w not in test_w and w not in val_w])
    n_lab = max(1, int(math.floor(utilisation * len(train_seqs) + 0.5)))
    pick = list(train_seqs)
    Stream(seed).child("label-pick").shuffle(pick)
    labelled = sorted(pick[:n_lab])
    unlabelled = sorted(pick[n_lab:])
    return DatasetSplit(labelled, unlabelled, seqs(val_w), seqs(test_w),
                        utilisation)


# ------------------------------------------------------------ dataset -----

@dataclass
class Dataset:
    spec: GridSpec
    worlds: list[WorldMap]
    sequences: dict[int, SequenceData]
    split: DatasetSplit


def build_sequence(world: WorldMap, world_index: int, sequence_id: int,
                   seed: int, spec: GridSpec, n_frames: int = 12,
                   speed_range: tuple[float, float] = (0.0, 12.0),
                   ) -> SequenceData:
    poses = generate_sequence(world, seed, n_frames, speed_range)
    cal = Calibration.draw(Stream(seed).child("calibration"))
    samples = []
    for idx, pose in poses:
        noise_seed = mix64(seed ^ mix64(1000 + idx))
        gt = rasterize_gt(world, pose, spec)
        obs = render_observation(gt, world.style, noise_seed, cal)
        samples.append(Sample(sequence_id, idx, pose, obs, gt))
    return SequenceData(sequence_id, world_index, [p for _, p in poses], samples)


def build_sequences(worlds: list[WorldMap], seed: int, spec: GridSpec,
                    n_frames: int, speed_range: tuple[float, float],
                    seqs_per_world: int) -> dict[int, SequenceData]:
    """`seqs_per_world` sequences of each world, keyed by sequence id
    world_index * seqs_per_world + j, each seeded from `seed` and its id."""
    sequences: dict[int, SequenceData] = {}
    for wi, world in enumerate(worlds):
        for j in range(seqs_per_world):
            sid = wi * seqs_per_world + j
            sequences[sid] = build_sequence(world, wi, sid,
                                            mix64(seed ^ mix64(7777 + sid)),
                                            spec, n_frames, speed_range)
    return sequences


def build_dataset(spec: GridSpec, style: StyleParams, seed: int, *,
                  n_worlds: int, seqs_per_world: int, n_frames: int = 12,
                  utilisation: float = 0.1, val_worlds: int = 1,
                  test_worlds: int = 2,
                  speed_range: tuple[float, float] = (0.0, 12.0)) -> Dataset:
    """End-to-end deterministic dataset from a single seed."""
    worlds = [generate_world(mix64(seed ^ mix64(wi)), style)
              for wi in range(n_worlds)]
    split = make_splits(worlds, utilisation, seed,
                        seqs_per_world=seqs_per_world,
                        val_worlds=val_worlds, test_worlds=test_worlds)
    return Dataset(spec, worlds, build_sequences(
        worlds, seed, spec, n_frames, speed_range, seqs_per_world), split)


# -------------------------------------------------------- raster container --

RASTER_MAGIC = b"BEVRAS01"


def write_raster(path, raster: Raster) -> None:
    spec = raster.spec
    with open(path, "wb") as fh:
        fh.write(RASTER_MAGIC)
        fh.write(struct.pack("<5d", spec.x_min, spec.x_max, spec.y_min,
                             spec.y_max, spec.cell))
        fh.write(struct.pack("<I", raster.channels))
        fh.write(raster.values.astype("<f8", copy=False).tobytes(order="C"))
        fh.write(np.packbits(raster.valid.reshape(-1),
                             bitorder="little").tobytes())


def read_raster(path) -> Raster:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != RASTER_MAGIC:
        raise ConfigurationError(f"bad raster magic in {path!s}")
    if len(data) < 52:
        raise ConfigurationError(f"truncated raster header in {path!s}")
    extent = struct.unpack_from("<5d", data, 8)
    (channels,) = struct.unpack_from("<I", data, 48)
    if not all(map(math.isfinite, extent)):
        raise ConfigurationError(f"non-finite raster extent in {path!s}")
    spec = GridSpec(*extent)
    nbits = spec.rows * spec.cols
    count = channels * nbits
    size = 52 + 8 * count + (nbits + 7) // 8
    if len(data) != size:
        raise ConfigurationError(
            f"raster {path!s} is {len(data)} bytes; its header implies {size}")
    values = np.frombuffer(data, dtype="<f8", count=count, offset=52).copy()
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8,
                                       offset=52 + 8 * count),
                         bitorder="little")[:nbits]
    return Raster(spec, values.reshape(channels, spec.rows, spec.cols),
                  bits.astype(bool).reshape(spec.rows, spec.cols))


def export_dataset(out_dir, dataset: Dataset) -> None:
    """One directory per sequence: per-frame rasters plus a poses CSV."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for sid in sorted(dataset.sequences):
        seq = dataset.sequences[sid]
        d = out / f"seq_{sid:04d}"
        d.mkdir(exist_ok=True)
        with open(d / "poses.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["frame", "x", "y", "yaw"])
            for s in seq.samples:
                w.writerow([s.frame_index, repr(s.pose.x), repr(s.pose.y),
                            repr(s.pose.yaw)])
        for s in seq.samples:
            write_raster(d / f"frame_{s.frame_index:03d}_obs.bevras",
                         s.observation)
            write_raster(d / f"frame_{s.frame_index:03d}_gt.bevras", s.gt)


def import_sequence(seq_dir) -> SequenceData:
    """Read one exported sequence directory."""
    d = Path(seq_dir)
    sid = int(d.name.split("_")[1])
    poses = []
    with open(d / "poses.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            poses.append((int(row["frame"]),
                          Pose2(float(row["x"]), float(row["y"]),
                                float(row["yaw"]))))
    samples = []
    for idx, pose in poses:
        obs = read_raster(d / f"frame_{idx:03d}_obs.bevras")
        gt = read_raster(d / f"frame_{idx:03d}_gt.bevras")
        samples.append(Sample(sid, idx, pose, obs, gt))
    return SequenceData(sid, -1, [p for _, p in poses], samples)
