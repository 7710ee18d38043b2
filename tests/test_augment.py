import numpy as np
import pytest

from bevssl.augment import (AugmentConfig, bevdrop_mask, camdrop, cutout,
                            photometric, strong_augment)
from bevssl.errors import ConfigurationError
from bevssl.geometry import Raster, SMALL_GRID
from bevssl.losses import focal_loss
from bevssl.rng import Stream
from bevssl.world import compute_sector_map


def _obs(seed=1):
    vals = Stream(seed).uniforms(5 * 96 * 32, 0.0, 1.0).reshape(5, 96, 32)
    return Raster(SMALL_GRID, vals)


# ------------------------------------------------------------ photometric --

def test_photometric_identity_when_ranges_degenerate():
    obs = _obs()
    out = photometric(obs, Stream(2), gain_range=(1.0, 1.0),
                      bias_range=(0.0, 0.0), swap_prob=0.0)
    assert np.array_equal(out.values, obs.values)


def test_photometric_bias_shift_with_clamp():
    obs = _obs()
    out = photometric(obs, Stream(3), gain_range=(1.0, 1.0),
                      bias_range=(0.1, 0.1), swap_prob=0.0)
    for ch in range(4):
        assert np.allclose(out.values[ch],
                           np.clip(obs.values[ch] + 0.1, 0.0, 1.0),
                           atol=1e-15)
    assert np.array_equal(out.values[4], obs.values[4])


def test_photometric_swap_preserves_channel_multiset():
    obs = _obs()
    out = photometric(obs, Stream(11), gain_range=(1.0, 1.0),
                      bias_range=(0.0, 0.0), swap_prob=1.0)
    got = sorted(out.values[c].tobytes() for c in range(3))
    want = sorted(obs.values[c].tobytes() for c in range(3))
    assert got == want


# ------------------------------------------------------------------ cutout --

def test_cutout_fraction_zero_is_identity():
    obs = _obs()
    out = cutout(obs, Stream(5), 0.0)
    assert np.array_equal(out.values, obs.values)


def max_cutout_rect_area(spec) -> int:
    """Largest single rectangle cutout() can draw on this grid."""
    return max(3, spec.rows // 4) * max(3, spec.cols // 4)


def test_cutout_area_bound():
    obs = _obs(7)
    # make every cell nonzero so zeroed cells are countable
    obs.values[:] = np.maximum(obs.values, 1e-3)
    out = cutout(obs, Stream(6), 0.25)
    zeroed = (out.values == 0.0).all(axis=0)
    target = 0.25 * 96 * 32
    assert target <= zeroed.sum() < target + max_cutout_rect_area(SMALL_GRID)
    # all channels zeroed identically
    for c in range(5):
        assert (out.values[c][zeroed] == 0.0).all()


def test_cutout_deterministic_per_stream():
    obs = _obs(8)
    a = cutout(obs, Stream(9), 0.25)
    b = cutout(obs, Stream(9), 0.25)
    assert np.array_equal(a.values, b.values)


# ----------------------------------------------------------------- camdrop --

def test_camdrop_mask_matches_zeroed_sectors():
    obs = _obs(10)
    obs.values[:] = np.maximum(obs.values, 1e-3)
    sectors = compute_sector_map(SMALL_GRID)
    out, fov = camdrop(obs, sectors, Stream(12), n_drop=2)
    dropped_cells = (out.values == 0.0).all(axis=0)
    excluded = ~fov.include[0]
    assert np.array_equal(dropped_cells, excluded)
    assert np.array_equal(fov.include[0], fov.include[1])
    dropped_sectors = np.unique(sectors[dropped_cells])
    assert len(dropped_sectors) == 2
    assert not np.isin(sectors[~dropped_cells], dropped_sectors).any()


def test_camdrop_loss_invariant_to_dropped_region():
    obs = _obs(13)
    sectors = compute_sector_map(SMALL_GRID)
    _, fov = camdrop(obs, sectors, Stream(14), n_drop=1)
    st = Stream(15)
    probs = st.uniforms(3 * 96 * 32, 0.02, 0.98).reshape(3, 96, 32)
    gt = (st.uniforms(3 * 96 * 32).reshape(3, 96, 32) > 0.8).astype(float)
    base, _ = focal_loss(_t(probs), gt, fov.include, 2.0, 0.25)
    probs2 = probs.copy()
    probs2[~fov.include] = 0.5
    pert, _ = focal_loss(_t(probs2), gt, fov.include, 2.0, 0.25)
    assert pert.item() == base.item()


def _t(x):
    from bevssl.autograd import Tensor
    return Tensor(x)


def test_camdrop_zero_count_rejected():
    obs = _obs(16)
    sectors = compute_sector_map(SMALL_GRID)
    with pytest.raises(ConfigurationError):
        camdrop(obs, sectors, Stream(17), n_drop=0)
    with pytest.raises(ConfigurationError):
        AugmentConfig(camdrop_count=0)


# ----------------------------------------------------------------- bevdrop --

def test_bevdrop_rate_zero_empty():
    assert not bevdrop_mask(10, 10, 0.0, Stream(1)).any()


def test_bevdrop_binomial_bound():
    mask = bevdrop_mask(100, 100, 0.5, Stream(2))
    count = mask.sum()
    assert abs(count - 5000) <= 3 * 50  # 3 sigma of Binomial(1e4, 0.5)


def test_bevdrop_deterministic():
    a = bevdrop_mask(20, 20, 0.3, Stream(3))
    b = bevdrop_mask(20, 20, 0.3, Stream(3))
    assert np.array_equal(a, b)


# ------------------------------------------------------------- composition --

def test_geometric_consistency_changed_cells_are_documented_sets():
    """No augmentation moves content between cells: photometric changes values
    in place, cutout/camdrop only zero their rectangles/sectors."""
    obs = _obs(20)
    obs.values[:] = np.maximum(obs.values, 1e-3)
    out = cutout(obs, Stream(21), 0.2)
    changed = (out.values != obs.values).any(axis=0)
    zeroed = (out.values == 0.0).all(axis=0)
    assert np.array_equal(changed, zeroed)

    sectors = compute_sector_map(SMALL_GRID)
    out2, fov = camdrop(obs, sectors, Stream(22), 1)
    changed2 = (out2.values != obs.values).any(axis=0)
    assert np.array_equal(changed2, ~fov.include[0])


def test_strong_augment_defaults_reproduce_winning_combination():
    cfg = AugmentConfig()
    assert cfg.photometric and cfg.cutout and cfg.bevdrop and not cfg.camdrop
    assert cfg.cutout_fraction == 0.25
    assert cfg.bevdrop_rate == 0.5
    obs = _obs(23)
    view, fov, drop = strong_augment(obs, cfg, Stream(24))
    assert fov.include.all()          # no camdrop: nothing excluded
    assert drop is not None and drop.shape == (96, 32)
    v2, _, d2 = strong_augment(obs, cfg, Stream(24))
    assert np.array_equal(view.values, v2.values)
    assert np.array_equal(drop, d2)


def test_strong_augment_camdrop_drops_grid_sectors():
    obs = _obs(27)
    cfg = AugmentConfig(photometric=False, cutout=False, camdrop=True,
                        camdrop_count=2, bevdrop=False)
    view, fov, drop = strong_augment(obs, cfg, Stream(28))
    ref, ref_fov = camdrop(obs, compute_sector_map(SMALL_GRID),
                           Stream(28).child("camdrop"), 2)
    assert np.array_equal(view.values, ref.values)
    assert np.array_equal(fov.include, ref_fov.include)
    assert not fov.include.all() and drop is None


def test_augment_none_is_identity():
    obs = _obs(25)
    view, fov, drop = strong_augment(obs, AugmentConfig.none(), Stream(26))
    assert np.array_equal(view.values, obs.values)
    assert fov.include.all()
    assert drop is None


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AugmentConfig(cutout_fraction=1.0)
    with pytest.raises(ConfigurationError):
        AugmentConfig(bevdrop_rate=-0.1)
