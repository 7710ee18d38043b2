import math

import numpy as np
import pytest

from bevssl.errors import ConfigurationError
from bevssl.geometry import GridSpec, Pose2, SMALL_GRID, warp_raster
from bevssl.rng import Stream, mix64
from bevssl.world import (CITY_A, CITY_B, CLASS_NAMES, Calibration,
                          StyleParams, WorldMap, blur3, build_dataset,
                          build_sequence, compute_sector_map, export_dataset,
                          generate_sequence, generate_world, import_sequence,
                          make_splits, rasterize_gt, read_raster,
                          render_observation, smoothed_signal, write_raster)


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
    extent = (-100.0, 100.0, -100.0, 100.0)
    for seed in range(5):
        w = generate_world(seed, CITY_A, extent)
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

def test_sequence_stationary_when_speed_zero():
    w = straight_world()
    poses = generate_sequence(w, 5, 6, (0.0, 0.0))
    assert len(poses) == 6
    first = poses[0][1]
    for _, p in poses:
        assert (p.x, p.y, p.yaw) == (first.x, first.y, first.yaw)


def test_sequence_constant_speed_spacing_on_straight_road():
    w = straight_world()
    poses = generate_sequence(w, 5, 8, (10.0, 10.0))
    for (_, a), (_, b) in zip(poses, poses[1:]):
        d = math.hypot(b.x - a.x, b.y - a.y)
        assert abs(d - 10.0) < 1e-9


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
    nearly all mutually valid cells (discretization tolerance)."""
    agree, total = 0, 0
    for case in range(20):
        st = Stream(700 + case)
        world = generate_world(case, CITY_A)
        poses = generate_sequence(world, case + 50, 2, (0.5, 4.5))
        a, b = poses[0][1], poses[1][1]
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
    split = make_splits(list(range(10)), 1.0, 3)
    assert split.unlabelled == []
    assert len(split.labelled) == 7  # 10 worlds minus 1 val minus 2 test


def test_splits_720_at_2p5_percent_gives_18():
    split = make_splits(list(range(724)), 0.025, 11, val_worlds=2,
                        test_worlds=2)
    assert len(split.labelled) + len(split.unlabelled) == 720
    assert len(split.labelled) == 18


def test_splits_disjoint_over_many_seeds():
    for seed in range(100):
        split = make_splits(list(range(12)), 0.4, seed, seqs_per_world=2)
        sets = [set(split.labelled), set(split.unlabelled), set(split.val),
                set(split.test)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (sets[i] & sets[j])
        assert not (set(split.labelled) & set(split.test))


def test_splits_validation():
    with pytest.raises(ConfigurationError):
        make_splits(list(range(10)), 0.0, 1)
    with pytest.raises(ConfigurationError):
        make_splits(list(range(2)), 0.5, 1)


# ----------------------------------------------------------------- dataset --

def test_build_dataset_deterministic_and_sane():
    kwargs = dict(n_worlds=6, seqs_per_world=1, n_frames=4, utilisation=0.5,
                  val_worlds=1, test_worlds=2)
    d1 = build_dataset(SMALL_GRID, CITY_A, 77, **kwargs)
    d2 = build_dataset(SMALL_GRID, CITY_A, 77, **kwargs)
    assert d1.split == d2.split
    for sid in d1.sequences:
        for s1, s2 in zip(d1.sequences[sid].samples, d2.sequences[sid].samples):
            assert np.array_equal(s1.observation.values, s2.observation.values)
            assert np.array_equal(s1.gt.values, s2.gt.values)
            assert s1.pose == s2.pose


def test_samples_satisfy_invariants():
    d = build_dataset(SMALL_GRID, CITY_A, 5, n_worlds=4, seqs_per_world=1,
                      n_frames=3, utilisation=1.0, val_worlds=1, test_worlds=1)
    for seq in d.sequences.values():
        for s in seq.samples:
            world = d.worlds[seq.world_index]
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
    seq = build_sequence(w, 0, 0, 21, SMALL_GRID, n_frames=4)
    assert len(calls) == len(seq.samples) == 4
    assert [pose for _, pose, _ in calls] == [s.pose for s in seq.samples]


# --------------------------------------------------------------- container --

def test_raster_container_roundtrip(tmp_path):
    st = Stream(31)
    vals = st.uniforms(5 * 96 * 32).reshape(5, 96, 32)
    valid = st.uniforms(96 * 32).reshape(96, 32) < 0.9
    from bevssl.geometry import Raster
    r = Raster(SMALL_GRID, vals, valid)
    path = tmp_path / "frame.bevras"
    write_raster(path, r)
    back = read_raster(path)
    assert back.spec == SMALL_GRID
    assert np.array_equal(back.values, r.values)
    assert np.array_equal(back.valid, r.valid)
    assert path.read_bytes()[:8] == b"BEVRAS01"


def test_dataset_export_import_roundtrip(tmp_path):
    d = build_dataset(SMALL_GRID, CITY_A, 13, n_worlds=4, seqs_per_world=1,
                      n_frames=3, utilisation=0.5, val_worlds=1, test_worlds=1)
    export_dataset(tmp_path, d)
    sid = d.split.labelled[0]
    seq = import_sequence(tmp_path / f"seq_{sid:04d}")
    orig = d.sequences[sid]
    assert len(seq.samples) == len(orig.samples)
    for a, b in zip(seq.samples, orig.samples):
        assert np.array_equal(a.observation.values, b.observation.values)
        assert np.array_equal(a.gt.values, b.gt.values)
        assert abs(a.pose.x - b.pose.x) < 1e-15
        assert abs(a.pose.yaw - b.pose.yaw) < 1e-15
