import math

import numpy as np
import pytest

from bevssl.autograd import Tape, finite_difference_check, forward_op
from bevssl.errors import ConfigurationError
from bevssl.geometry import GridSpec
from bevssl.model import ForwardTrace, ModelConfig, forward, init_params
from bevssl.rng import Stream

from helpers_fd import replay

TINY = ModelConfig(enc_widths=(4, 6), lift_channels=8, dec_widths=(4, 6))


def _obs(stream: Stream, rows=16, cols=16, channels=5):
    return stream.uniforms(channels * rows * cols).reshape(channels, rows, cols)


# ------------------------------------------------------------------- init --

def test_init_deterministic():
    p1 = init_params(TINY, 5)
    p2 = init_params(TINY, 5)
    assert p1.names() == p2.names()
    for name in p1.names():
        assert np.array_equal(p1[name].values, p2[name].values)


def test_init_biases_zero_and_weights_bounded():
    params = init_params(TINY, 9)
    for name, shape in TINY.layer_shapes():
        w = params[f"{name}.w"].values
        b = params[f"{name}.b"].values
        fan_in = shape[1] * shape[2] * shape[3]
        assert not b.any()
        assert np.abs(w).max() <= math.sqrt(1.0 / fan_in)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(enc_widths=(0, 4))
    with pytest.raises(ConfigurationError):
        ModelConfig(kernel_size=2)
    with pytest.raises(ConfigurationError):
        ModelConfig(n_classes=4)


# ---------------------------------------------------------------- forward --

def test_forward_shapes_and_sigmoid_consistency():
    params = init_params(TINY, 1)
    obs = _obs(Stream(2))
    trace = forward(params, obs, None, None, TINY)
    assert trace.probs.shape == (1, 3, 16, 16)
    assert trace.bev_feats.shape == (1, 8, 16, 16)
    assert trace.decoded_feats.shape == (1, 6, 16, 16)
    sig = 1.0 / (1.0 + np.exp(-trace.logits.values))
    # same code path, exact equality required
    z = np.exp(-np.abs(trace.logits.values))
    expected = np.where(trace.logits.values >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    assert np.array_equal(trace.probs.values, expected)
    assert np.allclose(trace.probs.values, sig, atol=1e-12)
    assert ((trace.probs.values > 0) & (trace.probs.values < 1)).all()


def test_forward_deterministic():
    params = init_params(TINY, 1)
    obs = _obs(Stream(3))
    mask = Stream(4).uniforms(16 * 16).reshape(16, 16) < 0.3
    t1 = forward(params, obs, mask, None, TINY)
    t2 = forward(params, obs, mask, None, TINY)
    assert np.array_equal(t1.probs.values, t2.probs.values)
    assert np.array_equal(t1.decoded_feats.values, t2.decoded_feats.values)


def test_full_drop_mask_gives_spatially_constant_output():
    params = init_params(TINY, 6)
    obs = _obs(Stream(5))
    mask = np.ones((16, 16), dtype=bool)
    trace = forward(params, obs, mask, None, TINY)
    p = trace.probs.values[0]
    for c in range(3):
        assert np.allclose(p[c], p[c, 0, 0], atol=1e-12)


def test_no_mask_equals_empty_mask_bitwise():
    params = init_params(TINY, 7)
    obs = _obs(Stream(6))
    empty = np.zeros((16, 16), dtype=bool)
    t1 = forward(params, obs, None, None, TINY)
    t2 = forward(params, obs, empty, None, TINY)
    for a, b in ((t1.probs, t2.probs), (t1.bev_feats, t2.bev_feats),
                 (t1.decoded_feats, t2.decoded_feats), (t1.logits, t2.logits)):
        assert np.array_equal(a.values, b.values)


def test_dropped_cell_hides_local_observation_changes():
    """Two observations differing only where the difference reaches a dropped
    set of BEV cells produce identical predictions."""
    params = init_params(TINY, 8)
    rows = cols = 32
    obs_a = _obs(Stream(10), rows, cols)
    obs_b = obs_a.copy()
    obs_b[0, 16, 16] += 0.5  # single-pixel perturbation

    ta = forward(params, obs_a, None, None, TINY)
    tb = forward(params, obs_b, None, None, TINY)
    diff = np.abs(ta.bev_feats.values - tb.bev_feats.values).sum(axis=(0, 1))
    affected = diff > 0
    assert affected.any()

    mask = np.zeros((rows, cols), dtype=bool)
    rr, qq = np.nonzero(affected)
    mask[rr.min():rr.max() + 1, qq.min():qq.max() + 1] = True
    da = forward(params, obs_a, mask, None, TINY)
    db = forward(params, obs_b, mask, None, TINY)
    assert np.array_equal(da.probs.values, db.probs.values)
    # sanity: without the mask the outputs do differ
    assert not np.array_equal(ta.probs.values, tb.probs.values)


def test_forward_rejects_bad_shapes():
    params = init_params(TINY, 1)
    with pytest.raises(ConfigurationError):
        forward(params, np.zeros((4, 16, 16)), None, None, TINY)
    with pytest.raises(ConfigurationError):
        forward(params, np.zeros((5, 16, 16)), np.zeros((8, 8), bool), None,
                TINY)


def test_forward_differentiable_on_8x8_grid():
    cfg = ModelConfig(enc_widths=(3, 4), lift_channels=4, dec_widths=(3,))
    params = init_params(cfg, 3)
    obs = _obs(Stream(11), 8, 8)

    def f(ps):
        tape = Tape()
        trace = forward(ps, obs, None, tape, cfg)
        return forward_op("mean", trace.probs)

    report = finite_difference_check(f, params, eps=1e-5, tol=1e-4)
    assert report.passed, f"max rel err {report.max_error}"


def test_odd_grid_dims_still_map_to_grid_resolution():
    cfg = ModelConfig(enc_widths=(3, 4), lift_channels=4, dec_widths=(3,))
    params = init_params(cfg, 3)
    spec = GridSpec(-7.5, 7.5, -4.5, 4.5, 0.5)  # 30 x 18, not divisible by 8
    obs = Stream(12).uniforms(5 * 25 * 9).reshape(5, 25, 9)
    trace = forward(params, obs, None, None, cfg)
    assert trace.probs.shape == (1, 3, 25, 9)


def test_lift_is_one_conv_reading_the_encoder_map():
    """Each encoder stage is one stride-2 conv; the taped lift is one conv2d
    node on the last encoder map, with no upsampled or cropped copy and no
    saved arrays on the tape."""
    params = init_params(TINY, 2)
    tape = Tape()
    trace = forward(params, _obs(Stream(13), 30, 18), None, tape, TINY)
    nodes = tape.nodes
    leaf_param = {nid: n.saved.get("param") for nid, n in enumerate(nodes)
                  if n.kind == "leaf"}
    strided = [n for n in nodes
               if n.kind == "conv2d" and n.saved.get("stride") == 2]
    assert [leaf_param[n.input_ids[1]] for n in strided] == [
        f"enc{i}.w" for i in range(len(TINY.enc_widths))]
    # ceil(30 / 2) x ceil(18 / 2), then ceil(15 / 2) x ceil(9 / 2)
    assert [n.values.shape[2:] for n in strided] == [(15, 9), (8, 5)]
    lift = [n for n in nodes if n.kind == "conv2d"
            and leaf_param.get(n.input_ids[1]) == "lift.w"]
    assert len(lift) == 1
    assert nodes[lift[0].input_ids[0]].values is trace.encoder_feats.values
    assert not any(isinstance(v, np.ndarray) for v in lift[0].saved.values())
    assert lift[0].values.shape[2:] == (30, 18)
    kinds = [n.kind for n in nodes]
    assert "upsample" not in kinds and "slice" not in kinds
    assert replay(tape)
