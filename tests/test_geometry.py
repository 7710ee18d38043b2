import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevssl.errors import ConfigurationError, ContractError
from bevssl.geometry import (GridSpec, PAPER_GRID, Pose2, Raster, SMALL_GRID,
                             compose, inverse, normalize_angle,
                             relative_pose, warp_raster)
from bevssl.rng import Stream

from helpers_geo import (random_pose, random_prob_raster,
                         warp_bilinear_bruteforce, warp_nearest_bruteforce)

finite_coord = st.floats(-100.0, 100.0)
any_angle = st.floats(-10.0, 10.0)
poses = st.builds(Pose2, finite_coord, finite_coord, any_angle)


# ------------------------------------------------------------------ poses --

def test_yaw_normalized_into_half_open_interval():
    assert Pose2(0, 0, math.pi).yaw == math.pi
    assert Pose2(0, 0, -math.pi).yaw == math.pi
    assert abs(Pose2(0, 0, 3 * math.pi).yaw - math.pi) < 1e-12
    assert normalize_angle(0.0) == 0.0


def test_relative_pose_identity():
    p = Pose2(3.0, -2.0, 0.7)
    rel = relative_pose(p, p)
    assert abs(rel.x) < 1e-12 and abs(rel.y) < 1e-12
    assert rel.yaw == 0.0


def test_relative_pose_world_frame():
    rel = relative_pose(Pose2(0, 0, 0), Pose2(3, 0, 0))
    assert (rel.x, rel.y, rel.yaw) == (3.0, 0.0, 0.0)


def test_relative_pose_rotated_hand_case():
    # b is 3 m ahead of a along a's heading (+y world axis)
    rel = relative_pose(Pose2(0, 0, math.pi / 2), Pose2(0, 3, math.pi / 2))
    assert abs(rel.x - 3.0) < 1e-12
    assert abs(rel.y) < 1e-12
    assert abs(rel.yaw) < 1e-12


@given(poses)
@settings(max_examples=100, deadline=None)
def test_compose_inverse_is_identity(p):
    ident = compose(p, inverse(p))
    assert abs(ident.x) < 1e-12 and abs(ident.y) < 1e-12
    assert abs(ident.yaw) < 1e-12


@given(poses, poses, poses)
@settings(max_examples=100, deadline=None)
def test_compose_associative(a, b, c):
    lhs = compose(compose(a, b), c)
    rhs = compose(a, compose(b, c))
    assert abs(lhs.x - rhs.x) < 1e-12
    assert abs(lhs.y - rhs.y) < 1e-12
    assert abs(normalize_angle(lhs.yaw - rhs.yaw)) < 1e-12


def test_nonfinite_pose_rejected():
    with pytest.raises(ConfigurationError):
        Pose2(float("nan"), 0, 0)


# ------------------------------------------------------------------ grids --

def test_paper_preset_dimensions():
    assert PAPER_GRID.rows == 300 and PAPER_GRID.cols == 100
    assert SMALL_GRID.rows == 96 and SMALL_GRID.cols == 32


def test_extent_multiple_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(0.0, 1.0, 0.0, 1.0, 0.3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", range(5))
def test_non_finite_grid_rejected(field, bad):
    args = [0.0, 1.0, 0.0, 1.0, 0.5]
    args[field] = bad
    with pytest.raises(ConfigurationError):
        GridSpec(*args)


def cell_center(spec: GridSpec, row: int, col: int) -> tuple[float, float]:
    """One cell's center, as `GridSpec.centers` places it."""
    if not (0 <= row < spec.rows and 0 <= col < spec.cols):
        raise ContractError(f"cell ({row}, {col}) outside {spec.rows}x{spec.cols}")
    return (spec.x_min + (row + 0.5) * spec.cell,
            spec.y_min + (col + 0.5) * spec.cell)


def test_cell_center_examples():
    assert cell_center(PAPER_GRID, 0, 0) == (-44.85, -14.85)
    x, y = cell_center(PAPER_GRID, 150, 50)
    assert abs(x - 0.15) < 1e-12 and abs(y - 0.15) < 1e-12
    one = GridSpec(0.0, 1.0, 0.0, 1.0, 1.0)
    assert cell_center(one, 0, 0) == (0.5, 0.5)
    with pytest.raises(ContractError):
        cell_center(PAPER_GRID, 300, 0)
    # the grid's own meshgrid agrees
    xs, ys = PAPER_GRID.centers()
    assert (xs[150, 50], ys[150, 50]) == cell_center(PAPER_GRID, 150, 50)


def test_raster_shape_validation():
    with pytest.raises(ConfigurationError):
        Raster(SMALL_GRID, np.zeros((3, 10, 10)))


# ------------------------------------------------------------------- warp --

def _small16():
    return GridSpec(-4.0, 4.0, -4.0, 4.0, 0.5)


def test_warp_identity_preserves_everything():
    spec = _small16()
    src = random_prob_raster(Stream(5), spec)
    pose = Pose2(12.0, -7.0, 1.1)
    out = warp_raster(src, pose, pose, "nearest")
    assert np.array_equal(out.values, src.values)
    assert out.valid.all()


def test_warp_one_cell_longitudinal_shift_paper_grid():
    spec = PAPER_GRID
    st = Stream(9)
    vals = st.uniforms(spec.rows * spec.cols).reshape(1, spec.rows, spec.cols)
    src = Raster(spec, vals)
    out = warp_raster(src, Pose2(0, 0, 0), Pose2(0.3, 0, 0), "nearest")
    assert np.array_equal(out.values[0, :-1, :], src.values[0, 1:, :])
    assert not out.valid[-1, :].any()
    assert out.valid[:-1, :].all()


def test_warp_far_translation_all_invalid():
    spec = _small16()
    src = random_prob_raster(Stream(6), spec)
    out = warp_raster(src, Pose2(0, 0, 0), Pose2(100.0, 0, 0), "nearest")
    assert not out.valid.any()
    assert np.array_equal(out.values, np.zeros_like(out.values))


def test_warp_matches_bruteforce_bit_exact():
    spec = _small16()
    for case in range(25):
        st = Stream(100 + case)
        src = random_prob_raster(st, spec)
        # sprinkle invalid source cells
        src.valid[st.uniforms(spec.rows * spec.cols).reshape(
            spec.rows, spec.cols) < 0.1] = False
        a, b = random_pose(st), random_pose(st)
        fast = warp_raster(src, a, b, "nearest")
        slow = warp_nearest_bruteforce(src, a, b)
        assert np.array_equal(fast.valid, slow.valid)
        assert np.array_equal(fast.values, slow.values)


def test_warp_round_trip_translation_exact():
    spec = _small16()
    for case in range(10):
        st = Stream(200 + case)
        src = random_prob_raster(st, spec)
        a = Pose2(0.0, 0.0, 0.0)
        yaw = [0.0, math.pi / 2, -math.pi / 2, math.pi][st.randint(4)]
        b = Pose2(st.uniform(-2, 2), st.uniform(-2, 2), yaw)
        fwd = warp_raster(src, a, b, "nearest")
        back = warp_raster(fwd, b, a, "nearest")
        both = back.valid
        assert both.any()
        assert np.array_equal(back.values[:, both], src.values[:, both])


def test_warp_validity_monotone():
    spec = _small16()
    st = Stream(42)
    src = random_prob_raster(st, spec)
    src.valid[3:7, 2:9] = False
    a, b = Pose2(0, 0, 0), Pose2(0.9, -0.4, 0.3)
    out = warp_raster(src, a, b, "nearest")
    oracle = warp_nearest_bruteforce(src, a, b)
    # every valid output cell traces to a valid source cell by construction
    assert np.array_equal(out.valid, oracle.valid)
    # and forcing more invalidity in the source can only shrink validity
    src2 = Raster(spec, src.values.copy(), src.valid.copy())
    src2.valid[0:2, :] = False
    out2 = warp_raster(src2, a, b, "nearest")
    assert not (out2.valid & ~out.valid).any()


def test_warp_bilinear_identity_interior_and_blend():
    spec = _small16()
    src = random_prob_raster(Stream(11), spec)
    out = warp_raster(src, Pose2(0, 0, 0), Pose2(0, 0, 0), "bilinear")
    interior = out.valid
    assert interior[1:-1, 1:-1].all()
    assert np.allclose(out.values[:, interior], src.values[:, interior],
                       atol=1e-12)
    # half-cell shift averages neighbouring rows
    half = warp_raster(src, Pose2(0, 0, 0), Pose2(spec.cell / 2, 0, 0),
                       "bilinear")
    r, q = 5, 5
    expect = 0.5 * (src.values[:, r, q] + src.values[:, r + 1, q])
    assert np.allclose(half.values[:, r, q], expect, atol=1e-12)


def test_warp_bilinear_matches_bruteforce():
    spec = _small16()
    for case in range(40):
        st = Stream(9000 + case)
        src = random_prob_raster(st, spec, channels=5)
        src.valid[st.uniforms(256).reshape(16, 16) < 0.1] = False
        a, b = random_pose(st, span=3.0), random_pose(st, span=3.0)
        fast = warp_raster(src, a, b, "bilinear")
        slow = warp_bilinear_bruteforce(src, a, b)
        assert fast.valid.any(), case
        assert np.array_equal(fast.valid, slow.valid), case
        assert np.array_equal(fast.values, slow.values), case


def test_warp_rejects_unknown_mode():
    spec = _small16()
    src = random_prob_raster(Stream(1), spec)
    with pytest.raises(ConfigurationError):
        warp_raster(src, Pose2(0, 0, 0), Pose2(0, 0, 0), "cubic")
