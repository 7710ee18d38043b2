import gc
import math
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

from bevssl import world as world_mod
from bevssl.errors import ConfigurationError
from bevssl.geometry import (GRID_PRESETS, GridSpec, PAPER_GRID, Pose2, Raster,
                             SMALL_GRID, warp_raster)
from bevssl.rng import Stream, mix64
from bevssl.world import (CITY_A, CITY_B, CLASS_NAMES, Calibration, Sample,
                          StyleParams, WorldConfig, WorldMap, blur3,
                          build_dataset, build_sequence, compute_sector_map,
                          export_dataset, generate_sequence, generate_world,
                          import_sequence, make_splits, rasterize_gt,
                          read_raster, render_observation, write_raster)


def smoothed_signal(gt_values: np.ndarray) -> np.ndarray:
    """Clean per-class evidence: blurred ground truth at class amplitude."""
    return (np.array(world_mod.SIGNAL_GAIN)[:, None, None]
            * blur3(gt_values[:len(CLASS_NAMES)]))


def straight_world(style=CITY_A, length=400.0) -> WorldMap:
    """Hand-built world: one straight road along +x through the origin."""
    line = np.array([[-length / 2, 0.0], [length / 2, 0.0]])
    half = style.lane_width
    polylines = [
        ("divider", line.copy()),
        ("boundary", line + [0.0, half]),
        ("boundary", line - [0.0, half]),
        ("ped_crossing", np.array([[10.0, -half], [12.0, -half],
                                   [12.0, half], [10.0, half]])),
    ]
    return WorldMap(polylines, [line.copy()], style,
                    (-length / 2, length / 2, -50.0, 50.0), 0)


# ------------------------------------------------------------ world gen ----

def test_world_determinism():
    w1 = generate_world(123, CITY_A)
    w2 = generate_world(123, CITY_A)
    assert len(w1.polylines) == len(w2.polylines)
    for (c1, v1), (c2, v2) in zip(w1.polylines, w2.polylines):
        assert c1 == c2
        assert np.array_equal(v1, v2)


def test_world_all_classes_present_and_inside_extent():
    extent = world_mod.DEFAULT_EXTENT
    for seed in range(5):
        w = generate_world(seed, CITY_A)
        assert w.extent == extent
        present = {c for c, _ in w.polylines}
        assert present == set(CLASS_NAMES)
        for _, verts in w.polylines:
            assert verts[:, 0].min() >= extent[0] - 1e-9
            assert verts[:, 0].max() <= extent[1] + 1e-9
            assert verts[:, 1].min() >= extent[2] - 1e-9
            assert verts[:, 1].max() <= extent[3] + 1e-9


def test_crossing_frequency_monotone_in_median():
    style2 = StyleParams(curvature_scale=CITY_A.curvature_scale,
                         road_density=CITY_A.road_density,
                         lane_width=CITY_A.lane_width,
                         crossing_frequency=CITY_A.crossing_frequency * 2,
                         noise_level=CITY_A.noise_level,
                         clutter_density=CITY_A.clutter_density)
    deltas = []
    for seed in range(20):
        n1 = sum(1 for c, _ in generate_world(seed, CITY_A).polylines
                 if c == "ped_crossing")
        n2 = sum(1 for c, _ in generate_world(seed, style2).polylines
                 if c == "ped_crossing")
        deltas.append(n2 - n1)
    assert np.median(deltas) > 0


def test_degenerate_style_rejected():
    with pytest.raises(ConfigurationError):
        StyleParams(road_density=0.0)
    with pytest.raises(ConfigurationError):
        StyleParams(noise_level=-0.1)


def test_city_presets_differ_in_every_knob():
    for name in ("curvature_scale", "road_density", "lane_width",
                 "crossing_frequency", "noise_level", "clutter_density"):
        assert getattr(CITY_A, name) != getattr(CITY_B, name)


# ----------------------------------------------------------- trajectories --

def test_sequence_deterministic():
    w = generate_world(3, CITY_A)
    p1 = generate_sequence(w, 17, 10)
    p2 = generate_sequence(w, 17, 10)
    assert all(a == b for (_, a), (_, b) in zip(p1, p2))


# ------------------------------------------------------------- rasterize ---

def test_rasterize_empty_world_is_zero():
    w = straight_world()
    w.polylines = []
    w_empty = WorldMap([], w.centerlines, w.style, w.extent, 0)
    gt = rasterize_gt(w_empty, Pose2(0, 0, 0), SMALL_GRID)
    assert not gt.values.any()


def test_rasterize_single_divider_single_column():
    line = np.array([[-500.0, 0.0], [500.0, 0.0]])
    w = WorldMap([("divider", line)], [line], CITY_A,
                 (-500.0, 500.0, -50.0, 50.0), 0)
    spec = GridSpec(-4.0, 4.0, -4.0, 4.0, 0.5)
    gt = rasterize_gt(w, Pose2(0, 0, 0), spec)
    # channel 1 holds dividers; content in exactly one lateral column
    cols = np.nonzero(gt.values[1].any(axis=0))[0]
    assert cols.tolist() == [8]
    assert gt.values[1][:, 8].all()
    assert not gt.values[0].any() and not gt.values[2].any()


def test_rasterize_crossing_behind_roi_clipped():
    quad = np.array([[-60.0, -2.0], [-58.0, -2.0], [-58.0, 2.0], [-60.0, 2.0]])
    w = WorldMap([("ped_crossing", quad)], [np.array([[-1.0, 0.0], [1.0, 0.0]])],
                 CITY_A, (-100.0, 100.0, -50.0, 50.0), 0)
    gt = rasterize_gt(w, Pose2(0, 0, 0), SMALL_GRID)
    assert not gt.values.any()


def test_rasterize_matches_under_motion():
    """GT rendered at pose B agrees with GT rendered at A then warped to B on
    nearly all mutually valid cells (discretization tolerance).  A is a
    trajectory's first pose, and B is 0.5-4.5 m ahead of it with a small
    turn, so the pair always moves."""
    agree, total = 0, 0
    for case in range(20):
        st = Stream(700 + case)
        world = generate_world(case, CITY_A)
        a = generate_sequence(world, case + 50, 1)[0][1]
        d = st.uniform(0.5, 4.5)
        b = Pose2(a.x + d * math.cos(a.yaw), a.y + d * math.sin(a.yaw),
                  a.yaw + st.uniform(-0.065, 0.065))
        gt_a = rasterize_gt(world, a, SMALL_GRID)
        gt_b = rasterize_gt(world, b, SMALL_GRID)
        warped = warp_raster(gt_a, a, b, "nearest")
        m = warped.valid
        agree += int((warped.values[:, m] == gt_b.values[:, m]).sum())
        total += int(m.sum()) * 3
    assert agree / total >= 0.95


# ----------------------------------------------------------- observations --

def test_observation_noiseless_limit_equals_smoothed_gt():
    clean = StyleParams(curvature_scale=0.02, road_density=90.0,
                        lane_width=3.6, crossing_frequency=0.7,
                        noise_level=0.0, clutter_density=0.0)
    w = straight_world(clean)
    gt = rasterize_gt(w, Pose2(0, 0, 0), SMALL_GRID)
    obs = render_observation(gt, clean, 42)
    signal = smoothed_signal(gt.values)
    for ch in range(3):
        assert np.array_equal(obs.values[ch],
                              np.clip(signal[ch], 0.0, 1.0))
    assert not obs.values[3].any()


def test_observation_snr_degrades_with_range():
    w = straight_world()
    pose = Pose2(0, 0, 0)
    spec = GridSpec(-45.0, 45.0, -15.0, 15.0, 0.3)
    gt = rasterize_gt(w, pose, spec)
    signal = smoothed_signal(gt.values)
    xs, ys = spec.centers()
    rng_map = np.hypot(xs, ys)
    near = (rng_map > 3.0) & (rng_map < 7.0)
    far = (rng_map > 38.0) & (rng_map < 42.0)
    snr_near, snr_far = [], []
    for seed in range(50):
        obs = render_observation(gt, w.style, seed)
        noise = obs.values[:3] - np.clip(signal, 0, 1)
        sig_pow = (signal ** 2)[:, near].mean(), (signal ** 2)[:, far].mean()
        noise_pow = (noise ** 2)[:, near].mean(), (noise ** 2)[:, far].mean()
        snr_near.append(sig_pow[0] / noise_pow[0])
        snr_far.append(sig_pow[1] / noise_pow[1])
    assert np.mean(snr_far) < np.mean(snr_near)


def test_sector_of_cell_directly_ahead_is_front():
    sectors = compute_sector_map(SMALL_GRID)
    # x > 0, y ~ 0: front sector 0
    r = SMALL_GRID.rows - 1
    q_mid = SMALL_GRID.cols // 2
    assert sectors[r, q_mid] == 0 or sectors[r, q_mid - 1] == 0
    assert set(np.unique(sectors)) <= set(range(6))


def test_observation_deterministic_in_noise_seed():
    w = straight_world()
    gt = rasterize_gt(w, Pose2(1, 0, 0.1), SMALL_GRID)
    o1 = render_observation(gt, w.style, 99)
    o2 = render_observation(gt, w.style, 99)
    o3 = render_observation(gt, w.style, 100)
    assert np.array_equal(o1.values, o2.values)
    assert not np.array_equal(o1.values, o3.values)


def test_observation_calibration_changes_evidence():
    w = straight_world()
    gt = rasterize_gt(w, Pose2(0, 0, 0), SMALL_GRID)
    base = render_observation(gt, w.style, 7)
    cal = Calibration(gains=(1.3, 1.3, 1.3), biases=(0.05, 0.05, 0.05))
    mod = render_observation(gt, w.style, 7, cal)
    assert not np.array_equal(base.values[:3], mod.values[:3])
    assert np.array_equal(base.values[4], mod.values[4])


# ------------------------------------------------------------------ splits --

def test_splits_utilisation_one_leaves_nothing_unlabelled():
    split = make_splits(WorldConfig(n_worlds=10, utilisation=1.0,
                                    val_worlds=1, test_worlds=2), 3)
    assert split.unlabelled == []
    assert len(split.labelled) == 7  # 10 worlds minus 1 val minus 2 test


def test_splits_720_at_2p5_percent_gives_18():
    split = make_splits(WorldConfig(n_worlds=724, utilisation=0.025,
                                    val_worlds=2, test_worlds=2), 11)
    assert len(split.labelled) + len(split.unlabelled) == 720
    assert len(split.labelled) == 18


def test_default_world_config_splits_off_4_val_and_6_test_worlds():
    split = make_splits(WorldConfig(n_worlds=20), 5)
    assert (len(split.val), len(split.test)) == (4, 6)
    assert len(split.labelled) + len(split.unlabelled) == 10


def test_splits_disjoint_over_many_seeds():
    cfg = WorldConfig(n_worlds=12, utilisation=0.4, val_worlds=1,
                      test_worlds=2)
    for seed in range(100):
        split = make_splits(cfg, seed)
        sets = [set(split.labelled), set(split.unlabelled), set(split.val),
                set(split.test)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (sets[i] & sets[j])
        assert not (set(split.labelled) & set(split.test))


def test_splits_validation():
    with pytest.raises(ConfigurationError):
        WorldConfig(n_worlds=10, utilisation=0.0)
    # counts that leave no train world fail when the section is built
    with pytest.raises(ConfigurationError, match=r"^world\.n_worlds must be "
                       r">= 1 val \+ 2 test \+ 1 train worlds, got 3$"):
        WorldConfig(n_worlds=3, utilisation=0.5, val_worlds=1, test_worlds=2)
    # one more world is the one labelled train world
    split = make_splits(WorldConfig(n_worlds=4, utilisation=0.5, val_worlds=1,
                                    test_worlds=2), 1)
    assert (len(split.labelled), split.unlabelled) == (1, [])


# ----------------------------------------------------------------- dataset --

def test_build_dataset_deterministic_and_sane():
    cfg = WorldConfig(n_worlds=6, n_frames=4, utilisation=0.5, val_worlds=1,
                      test_worlds=2)
    d1 = build_dataset(cfg, 77)
    d2 = build_dataset(cfg, 77)
    assert d1.split == d2.split
    for sid in d1.sequences:
        for s1, s2 in zip(d1.sequences[sid].samples, d2.sequences[sid].samples):
            assert np.array_equal(s1.observation.values, s2.observation.values)
            assert np.array_equal(s1.gt.values, s2.gt.values)
            assert s1.pose == s2.pose


def test_samples_satisfy_invariants():
    d = build_dataset(WorldConfig(n_worlds=4, n_frames=3, utilisation=1.0,
                                  val_worlds=1, test_worlds=1), 5)
    assert d.spec == SMALL_GRID
    for sid, seq in d.sequences.items():
        # one sequence per world: world index = sequence id
        world = generate_world(mix64(5 ^ mix64(sid)), CITY_A)
        for s in seq.samples:
            again = rasterize_gt(world, s.pose, d.spec)
            assert np.array_equal(s.gt.values, again.values)
            assert s.observation.channels == 5
            assert set(np.unique(s.gt.values)) <= {0.0, 1.0}


def test_build_sequence_rasterizes_each_frame_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return rasterize_gt(*args)

    monkeypatch.setattr("bevssl.world.rasterize_gt", counting)
    w = generate_world(3, CITY_A)
    seq = build_sequence(w, 0, 21, SMALL_GRID, 4)
    assert len(calls) == len(seq.samples) == 4
    assert [pose for _, pose, _ in calls] == [s.pose for s in seq.samples]


# --------------------------------------------------------------- container --

def test_raster_container_roundtrip(tmp_path):
    st = Stream(31)
    vals = st.uniforms(5 * 96 * 32).reshape(5, 96, 32)
    valid = st.uniforms(96 * 32).reshape(96, 32) < 0.9
    r = Raster(SMALL_GRID, vals, valid)
    path = tmp_path / "frame.bevras"
    write_raster(path, r)
    back = read_raster(path)
    assert back.spec == SMALL_GRID
    assert np.array_equal(back.values, r.values)
    assert np.array_equal(back.valid, r.valid)
    assert path.read_bytes()[:8] == b"BEVRAS01"


def test_dataset_export_import_roundtrip(tmp_path):
    d = small_dataset()
    export_dataset(tmp_path / "a", d)
    sid = d.split.labelled[0]
    seq = import_sequence(tmp_path / "a" / f"seq_{sid:04d}")
    orig = d.sequences[sid]
    assert len(seq.samples) == len(orig.samples)
    for a, b in zip(seq.samples, orig.samples):
        assert a.observation.values.tobytes() == b.observation.values.tobytes()
        assert a.gt.values.tobytes() == b.gt.values.tobytes()
        assert abs(a.pose.x - b.pose.x) < 1e-15
        assert abs(a.pose.yaw - b.pose.yaw) < 1e-15
    # exporting the imported sequence writes the same bytes again
    again = world_mod.Dataset(d.spec, {sid: seq}, d.split)
    export_dataset(tmp_path / "b", again)
    files = sorted(p.name for p in (tmp_path / "a" / f"seq_{sid:04d}").iterdir())
    assert len(files) == 2 * 3 + 1
    for name in files:
        assert (tmp_path / "a" / f"seq_{sid:04d}" / name).read_bytes() == \
            (tmp_path / "b" / f"seq_{sid:04d}" / name).read_bytes(), name


# ------------------------------------------------ reference frame builder --
# The per-segment sampler, full-scan rasterizer, per-plane blur, per-channel
# observation and per-vertex clipper that the vectorized frame builder
# replaced.  Every output of the builder must equal theirs bit for bit.

def ref_clip_polyline(verts, extent):
    x0, x1, y0, y1 = extent

    def inside(p):
        return x0 <= p[0] <= x1 and y0 <= p[1] <= y1

    def boundary_point(p, q):
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

    runs, cur = [], []
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


def ref_mark_line(grid, spec, verts):
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
        ok = (r >= 0) & (r < spec.rows) & (q >= 0) & (q < spec.cols)
        grid[r[ok], q[ok]] = 1.0


def ref_rasterize_gt(world, pose, spec):
    out = np.zeros((3, spec.rows, spec.cols))
    for cls, verts in world.polylines:
        ego = world_mod._world_to_ego(pose, verts)
        ch = CLASS_NAMES.index(cls)
        if cls == "ped_crossing":
            world_mod._fill_polygon(out[ch], spec, ego)
        else:
            ref_mark_line(out[ch], spec, ego)
    return out


def ref_blur3(x):
    p = np.pad(x, 1)
    k = ((1, 2, 1), (2, 4, 2), (1, 2, 1))
    out = np.zeros_like(x, dtype=np.float64)
    h, w = x.shape
    for i in range(3):
        for j in range(3):
            out += k[i][j] * p[i:i + h, j:j + w]
    return out / 16.0


def ref_range_norm(spec):
    xs, ys = spec.centers()
    corner = math.hypot(max(-spec.x_min, spec.x_max),
                        max(-spec.y_min, spec.y_max))
    return np.hypot(xs, ys) / corner


def ref_render_observation(gt, style, noise_seed, cal):
    spec = gt.spec
    rnorm = ref_range_norm(spec)
    rows, cols = spec.rows, spec.cols
    stream = Stream(noise_seed)
    sigma = style.noise_level * (0.15 + 0.85 * rnorm)
    clutter = np.zeros((rows, cols))
    cl = stream.child("clutter")
    for i in range(cl.poisson(style.clutter_density * 3.0)):
        cs = cl.child(f"c{i}")
        ax = cs.uniform(spec.x_min, spec.x_max)
        ay = cs.uniform(spec.y_min, spec.y_max)
        heading = cs.uniform(-math.pi, math.pi)
        ln = cs.uniform(3.0, 14.0)
        bx = ax + ln * math.cos(heading)
        by = ay + ln * math.sin(heading)
        ref_mark_line(clutter, spec, np.array([[ax, ay], [bx, by]]))
    clutter = ref_blur3(clutter) * (0.5 + 0.5 * stream.child("camp").uniform())
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
    signal = np.stack([world_mod.SIGNAL_GAIN[c] * ref_blur3(gt.values[c])
                       for c in range(3)])
    mixed = np.einsum("ij,jhw->ihw", np.asarray(cal.mix), signal)
    if cal.vis_frac is not None:
        mixed = mixed * (1.0 / (1.0 + np.exp((rnorm - cal.vis_frac) / 0.08)))
    values = np.zeros((5, rows, cols))
    for ch in range(3):
        noise = stream.child(f"noise{ch}").normals(rows * cols).reshape(rows, cols)
        ev = (mixed[ch] * cal.gains[ch] + cal.biases[ch]
              + world_mod._CLUTTER_LEAK[ch] * clutter + sigma * noise)
        ev[drop_mask] = 0.0
        values[ch] = np.clip(ev, 0.0, 1.0)
    cnoise = stream.child("cnoise").normals(rows * cols).reshape(rows, cols)
    cch = clutter * cal.clutter_gain + 0.5 * sigma * cnoise
    cch[drop_mask] = 0.0
    values[3] = np.clip(cch, 0.0, 1.0)
    values[4] = rnorm
    return values


def frame_poses(world, seed):
    """Poses along a trajectory plus poses at random spots and headings."""
    poses = [p for _, p in generate_sequence(world, seed, 6)]
    st = Stream(seed).child("poses")
    x0, x1, y0, y1 = world.extent
    poses += [Pose2(st.uniform(x0, x1), st.uniform(y0, y1),
                    st.uniform(-math.pi, math.pi)) for _ in range(4)]
    return poses


def one_line_world(cls, verts):
    verts = np.asarray(verts, dtype=np.float64)
    return WorldMap([(cls, verts)], [verts], CITY_A,
                    (-200.0, 200.0, -200.0, 200.0), 0)


def ref_walk(stream, start, heading, style, extent, max_len):
    """The road walk with one numpy vertex per step."""
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


# ---------------------------------------------------- frame builder parity --

@pytest.mark.parametrize("style", ["city_A", "city_B"])
@pytest.mark.parametrize("spec", [SMALL_GRID, PAPER_GRID],
                         ids=["small", "paper"])
def test_frames_match_reference_builder(style, spec):
    style_params = world_mod.STYLE_PRESETS[style]
    for wi in range(3):
        seed = mix64(41 ^ mix64(wi))
        world = generate_world(seed, style_params)
        cal = Calibration.draw(Stream(seed).child("calibration"))
        for k, pose in enumerate(frame_poses(world, seed)):
            gt = rasterize_gt(world, pose, spec)
            assert np.array_equal(gt.values,
                                  ref_rasterize_gt(world, pose, spec)), (wi, k)
            obs = render_observation(gt, style_params, seed + k, cal)
            ref = ref_render_observation(gt, style_params, seed + k, cal)
            assert obs.values.tobytes() == ref.tobytes(), (wi, k)


@pytest.mark.parametrize("style", ["city_A", "city_B"])
@pytest.mark.parametrize("preset", ["small", "paper"])
def test_whole_build_matches_reference_builders(style, preset, monkeypatch):
    """World and sequence, built as a dataset builds them, against the
    reference walk, rasterizer and renderer: no pinned digest, so the
    check holds wherever numpy's log and cos round differently."""
    spec, style_params = GRID_PRESETS[preset], world_mod.STYLE_PRESETS[style]
    for wi in range(2):
        seed = mix64(17 ^ mix64(wi))
        world = generate_world(seed, style_params)
        seq_seed = mix64(seed ^ mix64(7777 + wi))
        seq = build_sequence(world, wi, seq_seed, spec, 5)
        with monkeypatch.context() as m:
            m.setattr(world_mod, "_walk", ref_walk)
            ref = generate_world(seed, style_params)
        assert [c for c, _ in world.polylines] == [c for c, _ in ref.polylines]
        for (_, v), (_, r) in zip(world.polylines, ref.polylines):
            assert v.dtype == r.dtype and v.tobytes() == r.tobytes()
        assert len(world.centerlines) == len(ref.centerlines)
        for v, r in zip(world.centerlines, ref.centerlines):
            assert v.dtype == r.dtype and v.tobytes() == r.tobytes()
        poses = generate_sequence(ref, seq_seed, 5)
        assert seq.poses == [p for _, p in poses]
        cal = Calibration.draw(Stream(seq_seed).child("calibration"))
        for s, (idx, pose) in zip(seq.samples, poses):
            assert (s.frame_index, s.pose) == (idx, pose)
            gt = ref_rasterize_gt(ref, pose, spec)
            assert s.gt.values.tobytes() == gt.tobytes(), (wi, idx)
            obs = ref_render_observation(Raster(spec, gt), style_params,
                                         mix64(seq_seed ^ mix64(1000 + idx)),
                                         cal)
            assert s.observation.values.tobytes() == obs.tobytes(), (wi, idx)


@pytest.mark.parametrize("style", ["city_A", "city_B"])
def test_world_polylines_match_reference_clipper(style, monkeypatch):
    style_params = world_mod.STYLE_PRESETS[style]
    seeds = [mix64(5 ^ mix64(wi)) for wi in range(4)]
    worlds = [generate_world(s, style_params) for s in seeds]
    monkeypatch.setattr(world_mod, "_clip_polyline", ref_clip_polyline)
    for seed, world in zip(seeds, worlds):
        ref = generate_world(seed, style_params)
        assert [c for c, _ in world.polylines] == [c for c, _ in ref.polylines]
        for (_, v), (_, r) in zip(world.polylines, ref.polylines):
            assert v.dtype == r.dtype and np.array_equal(v, r)


def test_clip_polyline_matches_reference_on_hard_cases():
    extent = (-10.0, 10.0, -5.0, 5.0)
    st = Stream(8)
    cases = [
        [[-20.0, 0.0], [20.0, 0.0]],                   # crosses, no vertex in
        [[-20.0, 0.0], [0.0, 0.0], [20.0, 0.0]],       # one vertex inside
        [[10.0, 5.0], [0.0, 0.0], [-10.0, -5.0]],      # ends on corners
        [[10.0, 0.0], [12.0, 0.0], [10.0, 1.0]],       # leaves and re-enters
        [[0.0, 0.0], [0.0, 0.0], [30.0, 0.0]],         # repeated vertex
        [[0.0, 0.0]],                                  # a single vertex
        [[20.0, 20.0], [30.0, 30.0]],                  # fully outside
    ]
    cases += [(np.cumsum(st.normals(2 * n).reshape(n, 2), axis=0) * 6.0)
              for n in range(1, 40)]
    for k, verts in enumerate(cases):
        verts = np.asarray(verts, dtype=np.float64)
        got = world_mod._clip_polyline(verts, extent)
        ref = ref_clip_polyline(verts, extent)
        assert len(got) == len(ref), k
        for g, r in zip(got, ref):
            assert np.array_equal(g, r), k


def test_blur3_matches_per_plane_reference():
    st = Stream(12)
    for shape in [(4, 7, 5), (3, 1, 6), (2, 5, 1), (1, 1, 1)]:
        x = st.normals(int(np.prod(shape))).reshape(shape)
        stacked = blur3(x)
        for c in range(shape[0]):
            ref = ref_blur3(x[c])
            assert stacked[c].tobytes() == ref.tobytes()
            assert blur3(x[c]).tobytes() == ref.tobytes()


# ------------------------------------------------- rasterizer edge cases ---

@pytest.mark.parametrize("pose", [Pose2(0, 0, 0), Pose2(3.3, -1.7, 0.9)])
def test_segment_crossing_grid_with_no_vertex_inside(pose):
    world = one_line_world("divider", [[-100.0, -30.0], [100.0, 30.0]])
    gt = rasterize_gt(world, pose, SMALL_GRID).values
    assert gt[1].sum() > 0
    assert np.array_equal(gt, ref_rasterize_gt(world, pose, SMALL_GRID))


def test_zero_length_segment_marks_its_cell():
    world = one_line_world("boundary", [[1.2, 0.7], [1.2, 0.7]])
    gt = rasterize_gt(world, Pose2(0, 0, 0), SMALL_GRID).values
    assert np.nonzero(gt[2]) == ([50], [17])
    assert np.array_equal(gt, ref_rasterize_gt(world, Pose2(0, 0, 0),
                                               SMALL_GRID))


def test_vertices_on_the_far_grid_edges():
    spec = SMALL_GRID
    pose = Pose2(0, 0, 0)
    lines = {
        "on x_max": [[spec.x_max, -3.0], [spec.x_max, 3.0]],
        "on y_max": [[-3.0, spec.y_max], [3.0, spec.y_max]],
        "into the corner": [[20.0, 4.0], [spec.x_max, spec.y_max]],
    }
    for name, verts in lines.items():
        world = one_line_world("divider", verts)
        gt = rasterize_gt(world, pose, spec).values
        assert np.array_equal(gt, ref_rasterize_gt(world, pose, spec)), name
    # a point on x_max or y_max lies outside the half-open grid
    assert not rasterize_gt(one_line_world("divider", lines["on x_max"]),
                            pose, spec).values.any()
    quad = [[spec.x_max - 1.0, spec.y_max - 1.0], [spec.x_max, spec.y_max - 1.0],
            [spec.x_max, spec.y_max], [spec.x_max - 1.0, spec.y_max]]
    world = one_line_world("ped_crossing", quad)
    gt = rasterize_gt(world, pose, spec).values
    assert gt[0].sum() == 4
    assert np.array_equal(gt, ref_rasterize_gt(world, pose, spec))


def test_last_sample_lands_exactly_on_the_end_vertex():
    # 50 samples, and 49 * (1 / 49) rounds below 1: only the pinned last
    # sample reaches the cell that starts at y = 0
    assert 49 * (1.0 / 49) != 1.0
    world = one_line_world("divider", [[0.25, -8.625], [0.25, 0.0]])
    gt = rasterize_gt(world, Pose2(0, 0, 0), SMALL_GRID).values
    assert np.nonzero(gt[1][48])[0].tolist() == list(range(17))
    assert np.array_equal(gt, ref_rasterize_gt(world, Pose2(0, 0, 0),
                                               SMALL_GRID))


@pytest.mark.parametrize("spec", [SMALL_GRID, PAPER_GRID],
                         ids=["small", "paper"])
def test_cull_keeps_polylines_just_inside_the_reach(spec):
    pose = Pose2(10.0, -5.0, 0.7)
    corner = math.hypot(max(-spec.x_min, spec.x_max),
                        max(-spec.y_min, spec.y_max))
    reach = corner + spec.cell
    polylines = []
    for gap in (-1e-6, 1e-6):
        x = pose.x + reach + gap
        y = pose.y - reach - gap
        polylines += [("divider", np.array([[x, pose.y - 3.0], [x, pose.y + 3.0]])),
                      ("boundary", np.array([[pose.x - 3.0, y], [pose.x + 3.0, y]])),
                      ("ped_crossing", np.array([[x, pose.y], [x + 2.0, pose.y],
                                                 [x + 2.0, pose.y + 2.0],
                                                 [x, pose.y + 2.0]]))]
    # the table holds the one segment of each stroke, then the polygons
    table = world_mod._StrokeTable.build(polylines)
    near = world_mod._near_ego(table, pose, spec)
    assert near.tolist() == [True, True, False, False, True, False]
    world = WorldMap(polylines, [], CITY_A, (-200.0, 200.0, -200.0, 200.0), 0)
    assert np.array_equal(rasterize_gt(world, pose, spec).values,
                          ref_rasterize_gt(world, pose, spec))


# ------------------------------------------------------ compact samples ----
# Frames used to be held as full float64 rasters: five observation planes,
# three GT planes and a validity plane each.  RefSample and
# ref_build_dataset keep that construction as the reference.

@dataclass
class RefSample:
    sequence_id: int
    frame_index: int
    pose: Pose2
    observation: Raster
    gt: Raster


def ref_build_dataset(spec, style, seed, *, n_worlds, n_frames):
    worlds = [generate_world(mix64(seed ^ mix64(wi)), style)
              for wi in range(n_worlds)]
    samples = {}
    for sid, world in enumerate(worlds):
        sseed = mix64(seed ^ mix64(7777 + sid))
        cal = Calibration.draw(Stream(sseed).child("calibration"))
        frames = []
        for idx, pose in generate_sequence(world, sseed, n_frames):
            gt = rasterize_gt(world, pose, spec)
            obs = render_observation(gt, style, mix64(sseed ^ mix64(1000 + idx)),
                                     cal)
            frames.append(RefSample(sid, idx, pose, obs, gt))
        samples[sid] = frames
    return samples


def small_dataset(grid_preset="small", style="city_A", seed=13):
    return build_dataset(WorldConfig(
        style=style, grid_preset=grid_preset, n_worlds=4, n_frames=3,
        utilisation=0.5, val_worlds=1, test_worlds=1), seed)


@pytest.mark.parametrize("style", ["city_A", "city_B"])
@pytest.mark.parametrize("preset", ["small", "paper"])
def test_samples_read_back_the_uncompacted_frames(style, preset):
    spec, style_params = GRID_PRESETS[preset], world_mod.STYLE_PRESETS[style]
    d = small_dataset(preset, style, seed=29)
    assert d.spec == spec
    ref = ref_build_dataset(spec, style_params, 29, n_worlds=4, n_frames=3)
    assert sorted(d.sequences) == sorted(ref)
    for sid, seq in d.sequences.items():
        assert len(seq.samples) == len(ref[sid])
        for s, r in zip(seq.samples, ref[sid]):
            assert (s.sequence_id, s.frame_index, s.pose) == \
                (r.sequence_id, r.frame_index, r.pose)
            for got, want in ((s.observation, r.observation), (s.gt, r.gt)):
                assert got.spec == want.spec
                assert got.values.dtype == np.float64
                assert got.values.shape == want.values.shape
                assert got.values.tobytes() == want.values.tobytes()
                assert got.valid.all()


def test_writes_into_a_read_back_frame_do_not_persist():
    s = small_dataset().sequences[0].samples[1]
    obs, gt = s.observation, s.gt
    obs_before, gt_before = obs.values.copy(), gt.values.copy()
    obs.values[...] = np.nan
    obs.valid[...] = False
    gt.values[...] = 0.5
    assert s.observation.values.tobytes() == obs_before.tobytes()
    assert s.observation.valid.all()
    assert s.gt.values.tobytes() == gt_before.tobytes()


@pytest.mark.parametrize("spec", [SMALL_GRID, PAPER_GRID],
                         ids=["small", "paper"])
def test_grid_planes_are_cached_read_only(spec):
    rnorm = world_mod._range_norm(spec)
    sectors = compute_sector_map(spec)
    assert world_mod._range_norm(spec) is rnorm
    assert compute_sector_map(GridSpec(spec.x_min, spec.x_max, spec.y_min,
                                       spec.y_max, spec.cell)) is sectors
    assert rnorm.tobytes() == ref_range_norm(spec).tobytes()
    for plane in (rnorm, sectors):
        with pytest.raises(ValueError):
            plane[0, 0] = 0
        with pytest.raises(ValueError):
            plane += 1


def exported_frame(tmp_path):
    d = small_dataset()
    export_dataset(tmp_path, d)
    seq_dir = tmp_path / "seq_0000"
    return seq_dir, seq_dir / "frame_001_obs.bevras", seq_dir / "frame_001_gt.bevras"


def test_import_rejects_a_fractional_gt_cell(tmp_path):
    seq_dir, _, gt_path = exported_frame(tmp_path)
    r = read_raster(gt_path)
    r.values[1, 10, 5] = 0.5
    write_raster(gt_path, r)
    with pytest.raises(ConfigurationError, match="exactly 0 or 1"):
        import_sequence(seq_dir)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_import_rejects_a_non_finite_sensor_cell(tmp_path, bad):
    seq_dir, obs_path, _ = exported_frame(tmp_path)
    r = read_raster(obs_path)
    r.values[2, 30, 9] = bad
    write_raster(obs_path, r)
    with pytest.raises(ConfigurationError, match="finite"):
        import_sequence(seq_dir)


def test_import_rejects_a_range_channel_off_by_one_ulp(tmp_path):
    seq_dir, obs_path, _ = exported_frame(tmp_path)
    r = read_raster(obs_path)
    r.values[4, 40, 7] = np.nextafter(r.values[4, 40, 7], 2.0)
    write_raster(obs_path, r)
    with pytest.raises(ConfigurationError, match="range plane"):
        import_sequence(seq_dir)


@pytest.mark.parametrize("which", ["obs", "gt"])
def test_import_rejects_an_invalid_cell(tmp_path, which):
    seq_dir, obs_path, gt_path = exported_frame(tmp_path)
    path = obs_path if which == "obs" else gt_path
    r = read_raster(path)
    r.valid[3, 3] = False
    write_raster(path, r)
    with pytest.raises(ConfigurationError, match="invalid cells"):
        import_sequence(seq_dir)


def test_sample_rejects_what_it_cannot_hold():
    s = small_dataset().sequences[0].samples[0]
    for bad in (-0.0, np.nan):
        gt = s.gt
        gt.values[2, 0, 0] = bad
        with pytest.raises(ConfigurationError, match="exactly 0 or 1"):
            Sample(s.sequence_id, s.frame_index, s.pose, s.observation, gt)
    four = Raster(SMALL_GRID, s.observation.values[:4])
    with pytest.raises(ConfigurationError, match="channels"):
        Sample(s.sequence_id, s.frame_index, s.pose, four, s.gt)
    shifted = GridSpec(-23.5, 24.5, -8.0, 8.0, 0.5)
    with pytest.raises(ConfigurationError, match="grids differ"):
        Sample(s.sequence_id, s.frame_index, s.pose,
               Raster(shifted, s.observation.values), s.gt)


def test_sample_reads_back_every_bit_pattern():
    """Cells are stored by bit pattern: +0.0 is left out, and -0.0, 1.0, a
    subnormal and the double below 1 come back verbatim, in a plane that is
    all +0.0, a plane with no +0.0 cell, and a frame with no stored value."""
    spec = SMALL_GRID
    shape = (spec.rows, spec.cols)
    specials = np.array([0.0, -0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0)])
    st = Stream(41)
    cells = st.child("cells").uniforms(shape[0] * shape[1]).reshape(shape)
    mixed = np.resize(specials, shape)
    dense = np.resize(specials[1:], shape)
    sparse = np.where(cells < 0.4, 0.0, cells)
    gt = (st.child("gt").uniforms(3 * shape[0] * shape[1])
          .reshape(3, *shape) < 0.3).astype(np.float64)
    rnorm = world_mod._range_norm(spec)
    for sensor in ([mixed, np.zeros(shape), dense, sparse],
                   [np.zeros(shape)] * 4):
        obs = np.stack([*sensor, rnorm])
        s = Sample(0, 0, Pose2(0.0, 0.0, 0.0), Raster(spec, obs.copy()),
                   Raster(spec, gt.copy()))
        assert s.observation.values.tobytes() == obs.tobytes()
        assert s.gt.values.tobytes() == gt.tobytes()
        assert s.observation.valid.all() and s.gt.valid.all()


def test_frames_are_held_compactly():
    """Bytes a built frame keeps: 8 per sensor value that is not +0.0, one
    bit per sensor cell, one bit per GT cell, plus a small constant.  Four
    float64 sensor planes and three bool GT planes, 35 bytes per cell, fail
    this bound at the +0.0 share of these frames."""
    spec = SMALL_GRID
    cfg = WorldConfig(n_worlds=8, utilisation=0.5, val_worlds=1,
                      test_worlds=1)
    build_dataset(replace(cfg, n_frames=1), 3)  # warm grid caches
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        short = build_dataset(replace(cfg, n_frames=2), 3)
        gc.collect()
        mid = tracemalloc.get_traced_memory()[0]
        long = build_dataset(replace(cfg, n_frames=6), 3)
        gc.collect()
        end = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()

    def stored(d):
        """Frames, and bytes of their stored sensor values and bit-planes."""
        frames = [s for seq in d.sequences.values() for s in seq.samples]
        sensor = np.stack([s.observation.values[:4] for s in frames])
        values = 8 * np.count_nonzero(sensor.view(np.uint64))
        cells = spec.rows * spec.cols
        return len(frames), values + len(frames) * (
            (4 * cells + 7) // 8 + (3 * cells + 7) // 8)

    # the worlds are the same in both builds; the difference is 4 frames
    # per sequence
    (n_short, b_short), (n_long, b_long) = stored(short), stored(long)
    extra_frames = n_long - n_short
    assert extra_frames == 4 * 8
    extra_bytes = (end - mid) - (mid - start)
    assert extra_bytes <= (b_long - b_short) + 2048 * extra_frames, \
        (extra_bytes - (b_long - b_short)) / extra_frames
