import json
import os
import signal
from dataclasses import fields, replace

import numpy as np
import pytest

from bevssl import bench
from bevssl.bench import (IoUAccumulator, Metrics, ScenarioConfig,
                          _pseudo_for, _weights_for, canonical_json,
                          config_from_dict, evaluate_pairs, expand_runs,
                          export_artifacts, load_checkpoint_params, run_one,
                          run_scenario, scenario_variants, write_pgm,
                          write_ppm)
from bevssl.bench import (EvalConfig, RunSpec, SslConfig, TrainConfig,
                          Variant, WorldConfig)
from bevssl.engine import OptimConfig, PseudoLabelConfig
from bevssl.errors import ConfigurationError
from bevssl.losses import LossWeights
from bevssl.model import ModelConfig
from bevssl.rng import Stream
from bevssl.world import CITY_A, CITY_B

TINY_MODEL = dict(enc_widths=[3, 4], lift_channels=4, dec_widths=[4])


def tiny_config(kind="ssl", **over) -> ScenarioConfig:
    doc = {
        "kind": kind,
        "name": "tiny",
        "world": {"n_worlds": 6, "seqs_per_world": 1, "n_frames": 4,
                  "val_worlds": 1, "test_worlds": 2, "utilisation": 0.34},
        "model": TINY_MODEL,
        "train": {"total_steps": 12, "eval_every": 6,
                  "batch_labelled": 1, "batch_unlabelled": 1},
        "eval": {"seeds": [0]},
    }
    doc.update(over)
    return config_from_dict(doc)


# ----------------------------------------------------------------- metrics --

def test_iou_perfect_prediction():
    st = Stream(1)
    gt = (st.uniforms(3 * 8 * 8).reshape(3, 8, 8) > 0.7).astype(float)
    m = evaluate_pairs([(gt.copy(), gt)], "", 0)
    assert m.per_class == [1.0, 1.0, 1.0]
    assert m.miou == 1.0


def test_iou_disjoint_prediction_is_zero():
    gt = np.zeros((3, 4, 4))
    pred = np.zeros((3, 4, 4))
    gt[:, 0, 0] = 1.0
    pred[:, 1, 1] = 1.0
    m = evaluate_pairs([(pred, gt)], "", 0)
    assert m.per_class == [0.0, 0.0, 0.0]
    assert m.miou == 0.0


def test_iou_count_arithmetic():
    acc = IoUAccumulator()
    pred = np.zeros((3, 10, 10))
    gt = np.zeros((3, 10, 10))
    # class 0: 50 TP, 25 FP, 25 FN -> IoU 0.5
    pred[0].flat[:75] = 1.0
    gt[0].flat[:50] = 1.0
    gt[0].flat[75:100] = 1.0
    acc.update(pred, gt)
    m = acc.metrics()
    assert m.tp[0] == 50 and m.fp[0] == 25 and m.fn[0] == 25
    assert m.per_class[0] == 0.5


def test_iou_absent_class_excluded_with_warning():
    pred = np.zeros((3, 4, 4))
    gt = np.zeros((3, 4, 4))
    pred[0, 0, 0] = 1.0
    gt[0, 0, 0] = 1.0
    m = evaluate_pairs([(pred, gt)], "", 0)
    assert m.per_class[0] == 1.0
    assert m.per_class[1] is None and m.per_class[2] is None
    assert m.absent == ["divider", "boundary"]
    assert m.miou == 1.0


def test_iou_matches_bruteforce_counter():
    for case in range(100):
        st = Stream(800 + case)
        pred = st.uniforms(3 * 5 * 5).reshape(3, 5, 5)
        gt = (st.uniforms(3 * 5 * 5).reshape(3, 5, 5) > 0.5).astype(float)
        m = evaluate_pairs([(pred, gt)], "", 0)
        for c in range(3):
            tp = fp = fn = 0
            for r in range(5):
                for q in range(5):
                    p = pred[c, r, q] > 0.5
                    t = gt[c, r, q] > 0.5
                    tp += p and t
                    fp += p and not t
                    fn += (not p) and t
            assert (m.tp[c], m.fp[c], m.fn[c]) == (tp, fp, fn)
            if tp + fp + fn:
                assert abs(m.per_class[c] - tp / (tp + fp + fn)) < 1e-12
    present = [x for x in m.per_class if x is not None]
    assert abs(m.miou - np.mean(present)) < 1e-12


# ------------------------------------------------------------------ config --

def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigurationError):
        config_from_dict({"world": {"bogus": 1}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"wrold": {}})


def test_config_echo_roundtrip():
    cfg = tiny_config()
    echo = canonical_json(cfg.to_dict())
    back = config_from_dict(_strip_defaults(json.loads(echo)))
    assert back.to_dict() == cfg.to_dict()


def test_default_config_maps_to_engine_defaults():
    # a Trainer built from engine defaults optimises what a CLI run of {} does
    cfg = config_from_dict({})
    spec = expand_runs(cfg)[0]
    t = cfg.train
    assert _weights_for(spec) == LossWeights()
    assert _pseudo_for(spec) == PseudoLabelConfig()
    assert OptimConfig(t.lr, t.wd, (t.beta1, t.beta2), t.ema_keep) \
        == OptimConfig()


def test_engine_fields_come_from_one_section():
    # a field no section declares would silently keep its engine default
    ssl = {f.name for f in fields(SslConfig)}
    train = {f.name for f in fields(TrainConfig)}
    read = set()
    for cls in (LossWeights, PseudoLabelConfig):
        for f in fields(cls):
            assert (f.name in ssl) + (f.name in train) == 1, f.name
            read.add(f.name)
    assert ssl <= read


def _strip_defaults(doc):
    # the echo contains every resolved field; feeding it back must reproduce
    # the config exactly, so nothing needs stripping
    return doc


def _variants_of(kind):
    return scenario_variants(tiny_config(kind))


def test_scenario_variants_cover_study_axes():
    assert [v.name for v in _variants_of("components")] \
        == ["Core", "+Augs", "+Fusion", "+Featsim", "+Thr", "+Hard"]
    names = [v.name for v in _variants_of("augmentations")]
    assert names[0] == "none" and "photo+cutout+bevdrop" in names
    taus = [v.overrides["threshold"] for v in _variants_of("threshold")]
    assert min(taus) == 0.55 and max(taus) == 0.9
    temps = {v.overrides["temperature"] for v in _variants_of("temperature")}
    assert temps == {0.05, 0.1, 0.25, 0.5, 0.75, 0.95}
    fr = {v.overrides["fusion_max_range"] for v in _variants_of("fusion")}
    assert fr == {10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0}
    counts = {v.overrides["fusion_extra"]
              for v in _variants_of("fusion-frames")}
    assert counts == {2, 4, 6}
    ws = {v.overrides["w_feat"] for v in _variants_of("featsim")}
    assert ws == {0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5}
    with pytest.raises(ConfigurationError, match="kind must be one of"):
        tiny_config("nonexistent")


def test_every_scenario_expands_with_unique_names_and_ssl_overrides():
    cfg = config_from_dict({})
    ssl_fields = {f.name for f in fields(SslConfig)}
    for kind, make in bench.SCENARIOS.items():
        variants = scenario_variants(replace(cfg, kind=kind))
        assert variants == make(cfg), kind
        names = [v.name for v in variants]
        assert names and len(set(names)) == len(names), kind
        for v in variants:
            assert set(v.overrides) <= ssl_fields, (kind, v.name)


def test_label_sweep_variants():
    cfg = tiny_config("label-sweep")
    names = [v.name for v in scenario_variants(cfg)]
    assert "supervised@0.025" in names and "ssl@0.1" in names
    assert "ssl@1" not in names  # nothing unlabelled at full utilisation


def _adapt_datasets(cfg):
    bench._DATASET_CACHE.clear()
    return {v.adapt_unlabelled: bench._build_run_dataset(
        RunSpec(cfg.name, v, cfg.eval.seeds[0], cfg))
        for v in scenario_variants(cfg)}


def test_adapt_dataset_splits_source_and_target_worlds():
    cfg = tiny_config("city-adapt", world={
        "n_frames": 3, "val_worlds": 1, "test_worlds": 1},
        eval={"seeds": [0], "adapt_source_worlds": 2,
              "adapt_unlabelled_counts": [0, 2]})
    built = _adapt_datasets(cfg)
    assert sorted(built) == [0, 2]
    # worlds 0-1 are the source city, 2-3 the target-city training pool,
    # 4 and 5 the target-city val and test worlds
    for n, ds in built.items():
        styles = [ds.worlds[ds.sequences[sid].world_index].style
                  for sid in sorted(ds.sequences)]
        assert styles == [CITY_A] * 2 + [CITY_B] * 4
        assert ds.split.labelled == [0, 1]
        assert len(ds.split.unlabelled) == n
        assert set(ds.split.unlabelled) <= {2, 3}
        assert (ds.split.val, ds.split.test) == ([4], [5])
        assert all(len(seq.samples) == 3 for seq in ds.sequences.values())

    again = _adapt_datasets(cfg)
    for n, ds in built.items():
        assert again[n].split == ds.split
        for sid, seq in ds.sequences.items():
            for a, b in zip(seq.samples, again[n].sequences[sid].samples):
                assert a.pose == b.pose
                assert np.array_equal(a.observation.values,
                                      b.observation.values)
                assert np.array_equal(a.gt.values, b.gt.values)


# ------------------------------------------------------------------- runs ---

def best_validation_step(train_log: list[dict]) -> tuple[int, float]:
    """(step, mIoU) of the checkpoint a run must have exported: the first
    validation evaluation attaining the maximum mIoU."""
    best_step, best = 0, -1.0
    for row in train_log:
        if row["val_miou"] != "" and float(row["val_miou"]) > best:
            best = float(row["val_miou"])
            best_step = int(row["step"]) + 1
    return best_step, best


def test_run_one_and_best_selection(tmp_path):
    cfg = tiny_config()
    spec = expand_runs(cfg)[0]
    res = run_one(spec)
    assert res.error is None
    assert res.val is not None and res.test is not None
    # exported metric corresponds to the best-validation checkpoint
    step, miou = best_validation_step(res.train_log)
    assert res.best_step == step
    assert abs(res.val.miou - miou) < 1e-12


def test_run_scenario_deterministic_and_exported(tmp_path):
    cfg = tiny_config()
    t1 = run_scenario(cfg)
    t2 = run_scenario(cfg)
    assert t1.csv_text() == t2.csv_text()

    out1, out2 = tmp_path / "a", tmp_path / "b"
    export_artifacts(t1, cfg, out1)
    export_artifacts(t2, cfg, out2)
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "config_echo.json").read_bytes() == \
        (out2 / "config_echo.json").read_bytes()

    rows = (out1 / "metrics.csv").read_text().strip().split("\n")
    # header + scenarios x variants x seeds x splits x (classes + 1 summary)
    assert len(rows) == 1 + 1 * 1 * 1 * 2 * 4
    assert rows[0].startswith("scenario,variant,seed,step,split,class")

    ckpts = sorted(out1.glob("run_*.ckpt"))
    assert ckpts
    params = load_checkpoint_params(ckpts[0], cfg.model, "best")
    again = tmp_path / "resaved.ckpt"
    from bevssl.autograd import load_checkpoint, save_checkpoint
    save_checkpoint(again, load_checkpoint(ckpts[0]))
    assert again.read_bytes() == ckpts[0].read_bytes()


def test_grid_holds_one_dataset_at_a_time(monkeypatch):
    cfg = tiny_config("components", eval={"seeds": [0, 1, 2]},
                      train={"total_steps": 2, "eval_every": 1,
                             "batch_labelled": 1, "batch_unlabelled": 1})
    builds = []
    real_build = bench.build_dataset
    monkeypatch.setattr(bench, "build_dataset",
                        lambda *a, **k: builds.append(a) or real_build(*a, **k))
    bench._DATASET_CACHE.clear()
    table = run_scenario(cfg)
    assert not table.errors and len(table.results) == 6 * 3
    # seed-major order: each seed's dataset is built once for all variants
    assert len(builds) == 3
    assert len(bench._DATASET_CACHE) <= 1


def test_dead_worker_recorded_not_awaited(monkeypatch):
    real_run_one = bench.run_one

    def run_one(spec):
        if spec.variant.name == "dies":
            os._exit(1)
        return real_run_one(spec)

    def hung(signum, frame):
        raise TimeoutError("run_scenario still waits on a dead worker")

    monkeypatch.setattr(bench, "run_one", run_one)
    monkeypatch.setitem(bench.SCENARIOS, "ssl", lambda cfg: [
        Variant("dies"), Variant("ssl"), Variant("lives")])
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        table = run_scenario(tiny_config(), workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [r.variant for r in table.results] == ["dies", "ssl", "lives"]
    assert "worker process died" in table.results[0].error
    # the dead worker broke the pool; the runs it cut off ran again
    assert [r.error for r in table.results[1:]] == [None, None]


def test_failed_run_recorded_not_raised(tmp_path):
    # total_steps 0 fails at load; set after loading, it reaches the
    # Trainer's own check at run time
    cfg = tiny_config(train={"eval_every": 1})
    bad = replace(cfg, train=replace(cfg.train, total_steps=0))
    table = run_scenario(bad)
    assert table.errors and table.errors[0].error is not None
    assert "total_steps" in table.errors[0].error
    export_artifacts(table, bad, tmp_path)  # still emits a table
    assert (tmp_path / "metrics.csv").exists()
    assert (tmp_path / "errors.txt").exists()


# --------------------------------------------------------------- artifacts --

def test_pgm_scaling_rule(tmp_path):
    img = np.array([[0.0, 1.0], [0.5, 2.0]])
    path = tmp_path / "x.pgm"
    write_pgm(path, img)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    pix = list(data[len(b"P5\n2 2\n255\n"):])
    assert pix == [0, 255, 128, 255]  # clamped above 1.0


def test_ppm_composite(tmp_path):
    rgb = np.zeros((3, 1, 2))
    rgb[0, 0, 0] = 1.0
    rgb[2, 0, 1] = 1.0
    path = tmp_path / "x.ppm"
    write_ppm(path, rgb)
    data = path.read_bytes()
    assert data.startswith(b"P6\n2 1\n255\n")
    assert list(data[-6:]) == [255, 0, 0, 0, 0, 255]
