import math

import numpy as np
import pytest

from bevssl import model
from bevssl.autograd import (Tape, backward, compact_output,
                             finite_difference_check, forward_op, upsampled)
from bevssl.errors import ConfigurationError
from bevssl.geometry import GRID_PRESETS, GridSpec
from bevssl.model import ForwardTrace, ModelConfig, forward, init_params
from bevssl.rng import Stream

from helpers_dense import dense_forward
from helpers_fd import replay, zero_grads

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


def test_init_and_copy_hold_values_only():
    """A fresh parameter and a copy hold values and no gradient; a copy's
    values are its own."""
    params = init_params(TINY, 9)
    copy = params.copy()
    assert copy.names() == params.names()
    for name, p in params.items():
        q = copy[name]
        for r in (p, q):
            assert not hasattr(r, "grad")
            assert r.m is None and r.v is None
        assert np.array_equal(q.values, p.values)
        assert not np.shares_memory(q.values, p.values)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(enc_widths=(0, 4))
    with pytest.raises(ConfigurationError):
        ModelConfig(kernel_size=2)


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


def test_batched_forward_equals_one_frame_forwards_bitwise():
    """The teacher runs one frame per forward; each frame's trace is the one
    a batched pass would give, bit for bit (default model, small grid)."""
    cfg = ModelConfig()
    params = init_params(cfg, 3)
    obs = Stream(7).uniforms(7 * 5 * 96 * 32).reshape(7, 5, 96, 32)
    batch = forward(params, obs, None, None, cfg)
    for k in range(7):
        one = forward(params, obs[k], None, None, cfg)
        for field in ("encoder_feats", "bev_feats", "decoded_feats",
                      "logits", "probs"):
            assert np.array_equal(getattr(one, field).values[0],
                                  getattr(batch, field).values[k]), (k, field)


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
        return forward(ps, obs, None, Tape(), cfg).probs

    mean = np.full((1, 3, 8, 8), 1.0 / (3 * 8 * 8))
    report = finite_difference_check(f, params, eps=1e-5, tol=1e-4,
                                     cotangent=mean)
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
    node on the last encoder map, with no upsampled or cropped copy; no
    conv2d node saves an array on the tape."""
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
    convs = [n for n in nodes if n.kind == "conv2d"]
    assert len(convs) == len(TINY.enc_widths) + len(TINY.dec_widths) + 2
    assert not any(isinstance(v, np.ndarray)
                   for n in convs for v in n.saved.values())
    assert lift[0].values.shape[2:] == (23, 14)
    kinds = [n.kind for n in nodes]
    assert "upsample" not in kinds and "slice" not in kinds
    assert replay(tape)


def test_conv_blocks_are_one_rectified_conv_node_each():
    """A taped default forward records no separate ReLU: each conv block is
    one conv2d node with `relu=True` whose values are >= 0, and only the
    head is left unrectified."""
    cfg = ModelConfig()
    params = init_params(cfg, 4)
    tape = Tape()
    forward(params, _obs(Stream(14), 24, 16), None, tape, cfg)
    nodes = tape.nodes
    assert "relu" not in {n.kind for n in nodes}
    convs = {nodes[n.input_ids[1]].saved["param"]: n for n in nodes
             if n.kind == "conv2d"}
    blocks = [name for name, _ in cfg.layer_shapes() if name != "head"]
    assert sorted(convs) == sorted(f"{name}.w" for name in [*blocks, "head"])
    for name in blocks:
        node = convs[f"{name}.w"]
        assert node.saved["relu"] is True, name
        assert (node.values >= 0).all() and (node.values > 0).any(), name
    assert not convs["head.w"].saved.get("relu")
    # one node per block, then the head and its sigmoid
    assert sum(n.kind != "leaf" for n in nodes) == len(blocks) + 2


# ---------------------------------------------------------- compact lift --

TRACE_FIELDS = ("encoder_feats", "bev_feats", "decoded_feats", "logits",
                "probs")


def _lift_node(tape: Tape):
    nodes = tape.nodes
    return next(n for n in nodes if n.kind == "conv2d"
                and nodes[n.input_ids[1]].saved.get("param") == "lift.w")


def _nonzero_biases(params):
    """`params` with every bias drawn in [0.1, 0.5], so that a map with
    every cell dropped still carries a gradient."""
    for name, p in params.items():
        if name.endswith(".b"):
            p.values[...] = Stream(11).child(name).uniforms(p.values.size,
                                                            0.1, 0.5)
    return params


def _assert_close(pairs):
    """Each (name, got, want) within 1e-12 of `want`, relative to its
    largest entry."""
    for name, got, want in pairs:
        assert got.shape == want.shape, name
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), name


def _trace_pairs(got: ForwardTrace, want: ForwardTrace):
    return [(field, getattr(got, field).values, getattr(want, field).values)
            for field in TRACE_FIELDS]


@pytest.mark.parametrize("empty", [False, True], ids=["none", "all-false"])
def test_a_mask_that_drops_nothing_takes_the_compact_path(empty):
    params = init_params(TINY, 7)
    tape = Tape()
    drop = np.zeros((16, 16), dtype=bool) if empty else None
    trace = forward(params, _obs(Stream(6)), drop, tape, TINY)
    lift = _lift_node(tape)
    assert lift.saved["compact"] is True
    assert lift.saved["expand"] == upsampled((16, 16), 4)
    assert lift.values.shape[2:] == (12, 12)
    assert trace.decoded_feats.shape == (1, 6, 16, 16)


def test_a_mask_that_drops_one_cell_reaches_dec0_as_its_drop():
    """The lift stays compact, and dec0 reads it with the mask as `drop`."""
    params = init_params(TINY, 7)
    tape = Tape()
    drop = np.zeros((16, 16), dtype=bool)
    drop[3, 5] = True
    forward(params, _obs(Stream(6)), drop, tape, TINY)
    lift = _lift_node(tape)
    assert lift.saved["compact"] is True
    assert lift.values.shape[2:] == (12, 12)
    dec0 = next(n for n in tape.nodes if n.kind == "conv2d"
                and tape.nodes[n.input_ids[1]].saved.get("param") == "dec0.w")
    assert np.array_equal(dec0.saved["drop"], drop)
    assert dec0.saved["expand"] == compact_output(upsampled((16, 16), 4),
                                                  (3, 3), 1)


@pytest.mark.parametrize("rows,cols", [(16, 16), (30, 18), (25, 9)])
def test_compact_path_matches_the_dense_path(rows, cols):
    """Every trace field, `bev_feats` at full resolution included, equals
    the dense oracle's to rounding."""
    params = init_params(TINY, 5)
    obs = _obs(Stream(8), rows, cols)
    compact = forward(params, obs, None, None, TINY)
    assert compact.bev_feats.shape == (1, 8, rows, cols)
    _assert_close(_trace_pairs(compact, dense_forward(params, obs, None, None,
                                                      TINY)))


def _trace_and_grads(params, obs, drop, cfg=TINY,
                     fields=("logits", "bev_feats"), run=forward):
    """The forward trace of `run`, and every parameter's gradient of a
    random weighting of the trace's `fields`: each field seeded with its
    probe, on the one tape."""
    tape = Tape()
    trace = run(params, obs, drop, tape, cfg)
    grads = zero_grads(params)
    for i, field in enumerate(fields):
        t = getattr(trace, field)
        probe = Stream(12).child(i).uniforms(t.values.size, -1, 1)
        backward(t, grads, probe.reshape(t.shape))
    return trace, grads


def _compared_with_the_oracle(params, obs, drop, cfg, fields):
    """(name, got, want) of every trace field, untaped and taped, and of
    every parameter gradient: `forward` against `dense_forward`."""
    pairs = _trace_pairs(forward(params, obs, drop, None, cfg),
                         dense_forward(params, obs, drop, None, cfg))
    got, got_grads = _trace_and_grads(params, obs, drop, cfg, fields)
    want, want_grads = _trace_and_grads(params, obs, drop, cfg, fields,
                                        dense_forward)
    return pairs + _trace_pairs(got, want) + [
        (name, got_grads[name], want_grads[name]) for name in want_grads]


@pytest.mark.parametrize("drops", ["nothing", "one", "every"])
@pytest.mark.parametrize("rows,cols", [(16, 16), (30, 18), (25, 9)])
def test_masked_compact_path_matches_the_dense_path(rows, cols, drops):
    """With a drop mask, every trace field and every parameter gradient
    equals the dense oracle's (grid-resolution lift times the kept cells,
    dense decoder) to rounding.  Biases are nonzero, so a map with every cell
    dropped still carries a gradient."""
    params = _nonzero_biases(init_params(TINY, 5))
    obs = _obs(Stream(8), rows, cols)
    drop = np.zeros((rows, cols), dtype=bool)
    if drops == "one":
        drop[rows // 2, 1] = True
    elif drops == "every":
        drop[:] = True
    _assert_close(_compared_with_the_oracle(params, obs, drop, TINY,
                                            ("logits", "bev_feats")))


X2 = ModelConfig(enc_widths=(3,), lift_channels=4, dec_widths=(3,))


@pytest.mark.parametrize("drops", ["nothing", "one"])
def test_a_lift_without_repeated_cells_runs_compactly(drops):
    """x2 at kernel 3: every lift output reads taps of its own, so the
    compact lift writes runs of length one, all 30 x 18 cells, and dec0
    reads them through `expand`, the mask as its `drop`.  Untaped and
    taped, every trace field and every parameter gradient equal the dense
    oracle's to rounding."""
    params = _nonzero_biases(init_params(X2, 2))
    obs = _obs(Stream(9), 30, 18)
    drop = None
    if drops == "one":
        drop = np.zeros((30, 18), dtype=bool)
        drop[7, 4] = True
    tape = Tape()
    forward(params, obs, drop, tape, X2)
    convs = _conv_nodes(tape)
    assert convs["lift"].saved["compact"] is True
    assert convs["lift"].saved["expand"] == upsampled((30, 18), 2)
    assert convs["lift"].values.shape[2:] == (30, 18)
    assert convs["dec0"].saved["expand"] == compact_output(
        upsampled((30, 18), 2), (3, 3), 1)
    assert (drop is None) == ("drop" not in convs["dec0"].saved)
    _assert_close(_compared_with_the_oracle(
        params, obs, drop, X2, ("logits", "bev_feats", "decoded_feats")))


@pytest.mark.parametrize("enc_widths", [(4, 6), (4,)], ids=["x4", "x2"])
def test_bevdrop_reaches_the_head_without_a_decoder(enc_widths):
    """With no decoder conv the head reads the lift with the mask as its
    `drop`: an all-dropped mask gives a spatially constant output, and a
    one-cell mask matches the dense oracle, `decoded_feats` (the dropped
    lift map) included."""
    cfg = ModelConfig(enc_widths=enc_widths, lift_channels=8, dec_widths=())
    params = _nonzero_biases(init_params(cfg, 6))
    obs = _obs(Stream(5), 24, 16)
    every = np.ones((24, 16), dtype=bool)
    p = forward(params, obs, every, None, cfg).probs.values[0]
    for c in range(3):
        assert np.allclose(p[c], p[c, 0, 0], atol=1e-12)
    assert not np.allclose(forward(params, obs, None, None, cfg).probs.values,
                           p[None])
    one = np.zeros((24, 16), dtype=bool)
    one[11, 3] = True
    _assert_close(_compared_with_the_oracle(
        params, obs, one, cfg, ("logits", "bev_feats", "decoded_feats")))


def test_bev_feats_is_built_on_first_read_on_the_trace_tape():
    params = init_params(TINY, 3)
    tape = Tape()
    trace = forward(params, _obs(Stream(10)), None, tape, TINY)
    n_nodes = len(tape.nodes)
    bev = trace.bev_feats
    n_read = len(tape.nodes)
    assert n_read > n_nodes and bev.tape is tape
    assert trace.bev_feats is bev and len(tape.nodes) == n_read
    assert bev.shape == (1, 8, 16, 16)
    convs = [n for n in tape.nodes if n.kind == "conv2d"]
    assert not any(isinstance(v, np.ndarray)
                   for n in convs for v in n.saved.values())
    assert replay(tape)


# -------------------------------------------------------- compact decoder --

# a three-stage encoder: at x8 the decoder convs repeat cells too
TINY8 = ModelConfig(enc_widths=(4, 6, 8), lift_channels=16,
                    dec_widths=(16, 16))


def _conv_nodes(tape: Tape) -> dict:
    nodes = tape.nodes
    return {nodes[n.input_ids[1]].saved.get("param", "").split(".")[0]: n
            for n in nodes if n.kind == "conv2d"}


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_default_small_grid_forward_runs_the_decoder_at_its_distinct_cells(
        monkeypatch, taped):
    """dec0 and dec1 write only their distinct outputs, and the head reads
    dec1's compact map and writes the grid."""
    cfg = ModelConfig()
    params = init_params(cfg, 4)
    convs = {}

    def spy(kind, *inputs, **attrs):
        out = forward_op(kind, *inputs, **attrs)
        if kind == "conv2d" and inputs[1].param_name is not None:
            convs[inputs[1].param_name[:-2]] = (out.shape[2:], attrs)
        return out
    monkeypatch.setattr(model, "forward_op", spy)
    trace = forward(params, _obs(Stream(15), 96, 32), None,
                    Tape() if taped else None, cfg)
    for name, shape in (("lift", (36, 12)), ("dec0", (60, 20)),
                        ("dec1", (84, 28)), ("head", (96, 32))):
        assert convs[name][0] == shape, name
        assert convs[name][1].get("compact", False) == (name != "head"), name
    expand = upsampled((96, 32), 8)
    for _ in range(3):
        expand = compact_output(expand, (3, 3), 1)
    assert convs["head"][1]["expand"] == expand
    assert trace.probs.shape == (1, 3, 96, 32)
    assert trace.decoded_feats.shape == (1, 64, 96, 32)


# each layer's compact output on the grid presets, as the descriptions
# `upsampled` and `compact_output` give them
_PRESET_MAPS = {
    "small": {"enc2": (12, 4), "lift": (36, 12), "dec0": (60, 20),
              "dec1": (84, 28), "head": (96, 32)},
    "paper": {"enc2": (38, 13), "lift": (114, 39), "dec0": (189, 64),
              "dec1": (263, 88), "head": (300, 100)},
}


@pytest.mark.parametrize("preset", _PRESET_MAPS)
def test_each_layer_writes_its_compact_shape_on_both_presets(monkeypatch,
                                                              preset):
    """The default model's untaped forward on each grid preset: every conv
    from the lift on reads a map one past its `expand`'s last entries a
    side, and writes the compact shape pinned above; the lift reads the
    encoder map upsampled and cropped to the grid."""
    grid = GRID_PRESETS[preset]
    shapes, expands = {}, {}

    def spy(kind, *inputs, **attrs):
        out = forward_op(kind, *inputs, **attrs)
        if kind == "conv2d" and inputs[1].param_name is not None:
            name = inputs[1].param_name[:-2]
            shapes[name] = out.shape[2:]
            if "expand" in attrs:
                expands[name] = attrs["expand"]
                assert inputs[0].shape[2:] == tuple(
                    axis[-1] + 1 for axis in attrs["expand"]), name
                assert tuple(map(len, attrs["expand"])) == (
                    grid.rows, grid.cols), name
        return out
    monkeypatch.setattr(model, "forward_op", spy)
    cfg = ModelConfig()
    forward(init_params(cfg, 4), _obs(Stream(17), grid.rows, grid.cols),
            None, None, cfg)
    assert {name: shapes[name] for name in _PRESET_MAPS[preset]} == \
        _PRESET_MAPS[preset]
    assert expands["lift"] == upsampled((grid.rows, grid.cols), 8)
    assert sorted(expands) == ["dec0", "dec1", "head", "lift"]


def test_a_taped_paper_grid_forward_runs_the_decoder_compactly():
    """On 300 x 100 a taped forward with no dropped cell writes dec0 and
    dec1 at their distinct cells, as an untaped one does, and its parameter
    gradients equal the dense oracle's to rounding.  With one dropped cell,
    dec0 writes the grid and dec1 and the head run dense."""
    cfg = ModelConfig()
    params = _nonzero_biases(init_params(cfg, 4))
    obs = _obs(Stream(16), 300, 100)
    tape = Tape()
    forward(params, obs, None, tape, cfg)
    convs = _conv_nodes(tape)
    assert convs["lift"].values.shape[2:] == (114, 39)
    for name, shape in (("dec0", (189, 64)), ("dec1", (263, 88)),
                        ("head", (300, 100))):
        assert convs[name].values.shape[2:] == shape, name
        assert convs[name].saved.get("compact", False) == (
            name != "head"), name
    _, got = _trace_and_grads(params, obs, None, cfg, ("logits",))
    _, want = _trace_and_grads(params, obs, None, cfg, ("logits",),
                               dense_forward)
    for name in want:
        assert np.abs(want[name]).max() > 0, name
    _assert_close([(name, got[name], want[name]) for name in want])

    drop = np.zeros((300, 100), dtype=bool)
    drop[150, 50] = True
    tape = Tape()
    forward(params, obs, drop, tape, cfg)
    convs = _conv_nodes(tape)
    assert convs["dec0"].saved["expand"] == compact_output(
        upsampled((300, 100), 8), (3, 3), 1)
    assert not convs["dec0"].saved.get("compact")
    assert convs["dec0"].values.shape[2:] == (300, 100)
    assert "expand" not in convs["dec1"].saved


_X8_GRIDS = [(32, 24), (25, 17), (16, 40)]


@pytest.mark.parametrize("rows,cols", _X8_GRIDS,
                         ids=[f"{r}-{c}-dense" for r, c in _X8_GRIDS])
def test_compact_decoder_matches_the_dense_one(rows, cols):
    """With an x8 encoder both decoder convs write compactly, taped and
    untaped; every trace field and every parameter gradient equals that of
    the dense oracle to rounding.  Biases are nonzero."""
    params = _nonzero_biases(init_params(TINY8, 5))
    obs = _obs(Stream(8), rows, cols)
    fields = ("logits", "bev_feats", "decoded_feats")
    untaped = forward(params, obs, None, None, TINY8)
    taped = _trace_and_grads(params, obs, None, TINY8, fields)
    tape = Tape()
    forward(params, obs, None, tape, TINY8)
    convs = _conv_nodes(tape)
    assert convs["dec0"].saved.get("compact") and convs["dec1"].saved.get(
        "compact")
    assert convs["head"].values.shape[2:] == (rows, cols)
    dense_untaped = dense_forward(params, obs, None, None, TINY8)
    dense_taped = _trace_and_grads(params, obs, None, TINY8, fields,
                                   dense_forward)
    pairs = _trace_pairs(untaped, dense_untaped) + _trace_pairs(
        taped[0], dense_taped[0])
    pairs += [(name, taped[1][name], dense_taped[1][name])
              for name in dense_taped[1]]
    for name, _, want in pairs:
        assert np.abs(want).max() > 0, name
    _assert_close(pairs)


@pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
def test_decoded_feats_is_built_once_on_first_read(taped):
    """A compact decoder's grid-resolution map is built on the first read
    of `decoded_feats`: on the trace's tape when the forward is taped, else
    by one gather with no tape."""
    params = init_params(TINY8, 3)
    tape = Tape() if taped else None
    trace = forward(params, _obs(Stream(10), 32, 24), None, tape, TINY8)
    n_nodes = len(tape.nodes) if taped else 0
    assert callable(trace._decoded_feats)
    feats = trace.decoded_feats
    assert trace.decoded_feats is feats
    assert feats.shape == (1, 16, 32, 24)
    if taped:
        assert feats.tape is tape and len(tape.nodes) > n_nodes
        n_read = len(tape.nodes)
        assert trace.decoded_feats is feats and len(tape.nodes) == n_read
        assert replay(tape)
    else:
        assert feats.tape is None
