import csv
import io
import json
import os
import signal
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from bevssl import bench
from bevssl.bench import (IoUAccumulator, Metrics, ScenarioConfig,
                          _pseudo_for, _weights_for, canonical_json,
                          config_from_dict, evaluate_pairs, expand_runs,
                          load_checkpoint_params, run_one, run_scenario,
                          scenario_variants, write_pgm, write_ppm)
from bevssl.bench import RunSpec, Variant
from bevssl.engine import OptimConfig, SslConfig
from bevssl.errors import ConfigurationError, NumericError
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


def test_ssl_section_is_the_engine_config():
    # the `ssl` section is the engine's own config, declared once
    assert typing.get_type_hints(ScenarioConfig)["ssl"] is SslConfig
    cfg = config_from_dict({})
    assert type(cfg.ssl) is SslConfig
    # a run reads the section with its variant's overrides applied
    (hard,) = [v for v in scenario_variants(replace(cfg, kind="components"))
               if v.name == "+Hard"]
    got = _pseudo_for(RunSpec(cfg.name, hard, 0, cfg))
    assert got == replace(cfg.ssl, hard=True)
    assert [f.name for f in fields(SslConfig)
            if getattr(got, f.name) != getattr(cfg.ssl, f.name)] == ["hard"]
    # the focal and optimiser values `train` still mirrors keep the engine's
    # defaults, so a Trainer built from them optimises what a CLI run of {}
    # does
    spec = expand_runs(cfg)[0]
    t = cfg.train
    assert _weights_for(spec) == LossWeights()
    assert OptimConfig(t.lr, t.wd, (t.beta1, t.beta2), t.ema_keep) \
        == OptimConfig()


def test_readme_config_example_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration file\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(json.loads(example))
    assert cfg.ssl == SslConfig(**json.loads(example)["ssl"])


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


@pytest.mark.parametrize("section,key,value", [
    ("train", "total_steps", 0), ("train", "eval_model", "techer"),
    ("world", "utilisation", 0.0), ("world", "grid_preset", "huge"),
    ("eval", "seeds", (0, 0)), ("ssl", "threshold", 1.5),
    ("augment", "bevdrop_rate", 1.0), ("model", "kernel_size", 2)])
def test_replace_checks_the_section_it_builds(section, key, value):
    part = getattr(config_from_dict({}), section)
    with pytest.raises(ConfigurationError, match=rf"^{section}\.{key} must"):
        replace(part, **{key: value})


def test_replace_checks_the_rules_that_span_sections():
    cfg = config_from_dict({})
    with pytest.raises(ConfigurationError, match=r"^kind must be one of"):
        replace(cfg, kind="nope")
    # two worlds are enough only for city adaptation, which takes its worlds
    # from the eval section
    adapt = replace(cfg, kind="city-adapt",
                    world=replace(cfg.world, n_worlds=2))
    with pytest.raises(ConfigurationError, match=r"^world\.n_worlds must"):
        replace(adapt, kind="components")


def test_city_adapt_takes_one_sequence_per_world():
    """City adaptation names worlds as sequences, so a config that asks it
    for several sequences per world is rejected, at load and on replace."""
    msg = r"^world\.seqs_per_world must be 1 for kind city-adapt, got 3$"
    with pytest.raises(ConfigurationError, match=msg):
        config_from_dict({"kind": "city-adapt",
                          "world": {"seqs_per_world": 3}})
    ssl = config_from_dict({"world": {"seqs_per_world": 3}})
    with pytest.raises(ConfigurationError, match=msg):
        replace(ssl, kind="city-adapt")


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


def read_train_log(path) -> list[dict]:
    header, *rows = path.read_text().splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def run_files(tag: str) -> set[str]:
    """The files one run writes, by its tag `<variant>_s<seed>`."""
    previews = {f"{kind}_{tag}_{ch}.{ext}" for kind in ("pred", "gt")
                for ch, ext in (("ch0", "pgm"), ("ch1", "pgm"), ("ch2", "pgm"),
                                ("rgb", "ppm"))}
    return {f"run_{tag}.ckpt", f"train_log_{tag}.csv", *previews}


def test_run_one_and_best_selection(tmp_path):
    cfg = tiny_config()
    spec = expand_runs(cfg)[0]
    res = run_one(spec, tmp_path)
    assert res.error is None
    assert res.val is not None and res.test is not None
    assert {p.name for p in tmp_path.iterdir()} == run_files("ssl_s0")
    # exported metric corresponds to the best-validation checkpoint
    log = read_train_log(tmp_path / "train_log_ssl_s0.csv")
    assert len(log) == cfg.train.total_steps
    step, miou = best_validation_step(log)
    assert res.best_step == step
    assert abs(res.val.miou - miou) < 1e-12
    last = log[-1]
    assert res.last_losses == tuple(float(last[k]) for k in
                                    ("loss_sup", "loss_cls", "loss_feat"))
    # the result the grid keeps holds metrics, not arrays
    assert not any(isinstance(v, (np.ndarray, dict, list))
                   for v in vars(res).values())


def test_only_the_student_holds_optimizer_moments(monkeypatch, tmp_path):
    """The EMA teacher and the best-on-validation snapshot never take an
    optimizer step, so they hold no moments; the student does.  No
    parameter set holds a gradient."""
    trainers, evaluated = [], []

    class SpyTrainer(bench.Trainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trainers.append(self)

    predict = bench.predict_split

    def spy_predict(params, *args, **kwargs):
        evaluated.append(params)
        return predict(params, *args, **kwargs)

    monkeypatch.setattr(bench, "Trainer", SpyTrainer)
    monkeypatch.setattr(bench, "predict_split", spy_predict)
    assert run_one(expand_runs(tiny_config())[0], tmp_path).error is None
    (tr,) = trainers
    best = evaluated[-1]   # the test split's prediction reads the snapshot
    assert best is not tr.student and best is not tr.teacher
    assert all(p.m is not None and p.v is not None
               for _, p in tr.student.items())
    for params in (tr.teacher, best):
        assert all(p.m is None and p.v is None for _, p in params.items())
    for params in (tr.student, tr.teacher, best):
        assert not any(hasattr(p, "grad") for _, p in params.items())


@pytest.mark.parametrize("kind", ["ssl", "supervised"])
def test_teacher_eval_model_validates_the_teacher_if_there_is_one(
        monkeypatch, tmp_path, kind):
    """With `train.eval_model: "teacher"` an ssl run validates its EMA
    teacher, and the best snapshot holds the teacher's values of the
    validation that chose it; a supervised run has no teacher and
    validates its student."""
    trainers, calls = [], []

    class SpyTrainer(bench.Trainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            trainers.append(self)

    predict = bench.predict_split

    def spy_predict(params, dataset, seq_ids, model_cfg):
        calls.append((params, seq_ids,
                      {k: p.values.copy() for k, p in params.items()}))
        return predict(params, dataset, seq_ids, model_cfg)

    monkeypatch.setattr(bench, "Trainer", SpyTrainer)
    monkeypatch.setattr(bench, "predict_split", spy_predict)
    cfg = tiny_config(kind, train={
        "total_steps": 12, "eval_every": 6, "batch_labelled": 1,
        "batch_unlabelled": 1, "eval_model": "teacher"})
    res = run_one(expand_runs(cfg)[0], tmp_path)
    assert res.error is None
    (tr,) = trainers
    assert (tr.teacher is None) == (kind == "supervised")
    validated = tr.student if tr.teacher is None else tr.teacher
    val = [c for c in calls if c[1] is tr.dataset.split.val]
    assert len(val) == 2 and all(c[0] is validated for c in val)
    chosen = val[res.best_step // 6 - 1][2]
    best = calls[-1][0]
    assert best is not validated
    for name, values in chosen.items():
        assert np.array_equal(best[name].values, values), name
    if tr.teacher is not None:
        assert any(not np.array_equal(values, tr.student[name].values)
                   for name, values in val[-1][2].items())


def test_run_scenario_deterministic_and_exported(tmp_path):
    cfg = tiny_config()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_scenario(cfg, out1)
    run_scenario(cfg, out2)
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


def test_grid_holds_one_dataset_at_a_time(monkeypatch, tmp_path):
    cfg = tiny_config("components", eval={"seeds": [0, 1, 2]},
                      train={"total_steps": 2, "eval_every": 1,
                             "batch_labelled": 1, "batch_unlabelled": 1})
    builds = []
    real_build = bench.build_dataset
    monkeypatch.setattr(bench, "build_dataset",
                        lambda *a, **k: builds.append(a) or real_build(*a, **k))
    bench._DATASET_CACHE.clear()
    table = run_scenario(cfg, tmp_path)
    assert not table.errors and len(table.results) == 6 * 3
    # seed-major order: each seed's dataset is built once for all variants
    assert len(builds) == 3
    assert len(bench._DATASET_CACHE) <= 1


def test_dead_worker_recorded_not_awaited(monkeypatch, tmp_path):
    real_run_one = bench.run_one

    def run_one(spec, out):
        if spec.variant.name == "dies":
            os._exit(1)
        return real_run_one(spec, out)

    def hung(signum, frame):
        raise TimeoutError("run_scenario still waits on a dead worker")

    monkeypatch.setattr(bench, "run_one", run_one)
    monkeypatch.setitem(bench.SCENARIOS, "ssl", lambda cfg: [
        Variant("dies"), Variant("ssl"), Variant("lives")])
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        table = run_scenario(tiny_config(), tmp_path, workers=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [r.variant for r in table.results] == ["dies", "ssl", "lives"]
    assert "worker process died" in table.results[0].error
    # the dead worker broke the pool; the runs it cut off ran again
    assert [r.error for r in table.results[1:]] == [None, None]
    written = {p.name for p in tmp_path.iterdir()}
    assert run_files("ssl_s0") | run_files("lives_s0") <= written
    assert not run_files("dies_s0") & written


def test_metrics_csv_quotes_a_name_with_a_separator():
    """A scenario name holding a comma, a double quote and a newline reads
    back through a CSV reader whole, in rows of the header's width."""
    name = 'city A, run "2"\nagain'
    metrics = [Metrics(split, 6, [1] * 3, [0] * 3, [0] * 3, [1.0, None, 0.5],
                       0.75, []) for split in ("val", "test")]
    text = bench._metrics_csv([bench.RunResult(name, "ssl", 0, 6, *metrics,
                                               (0.5, 0.25, 0.125))])
    header, *rows = csv.reader(io.StringIO(text))
    assert header == bench.METRICS_HEADER.split(",")
    assert len(rows) == 2 * 4
    assert all(len(row) == len(header) == 11 for row in rows)
    assert {row[0] for row in rows} == {name}


def _break_every_step(self):
    raise NumericError("the step breaks")


def test_failed_run_recorded_not_raised(monkeypatch, tmp_path):
    monkeypatch.setattr(bench.Trainer, "train_step", _break_every_step)
    table = run_scenario(tiny_config(train={"eval_every": 1}), tmp_path)
    assert table.errors and table.errors[0].error is not None
    assert "the step breaks" in table.errors[0].error
    # still emits a table
    assert (tmp_path / "metrics.csv").read_text() == bench.METRICS_HEADER + "\n"
    assert (tmp_path / "errors.txt").exists()
    assert not list(tmp_path.glob("run_*"))


def test_clean_rerun_removes_an_earlier_errors_txt(monkeypatch, tmp_path):
    cfg = tiny_config(train={"total_steps": 2, "eval_every": 2,
                             "batch_labelled": 1, "batch_unlabelled": 1})
    with monkeypatch.context() as m:
        m.setattr(bench.Trainer, "train_step", _break_every_step)
        run_scenario(cfg, tmp_path)
    assert (tmp_path / "errors.txt").exists()
    table = run_scenario(cfg, tmp_path)
    assert not table.errors
    assert not (tmp_path / "errors.txt").exists()


def test_serial_grid_writes_each_run_as_it_ends(monkeypatch, tmp_path):
    # the second run raises on its last step, after its training
    seen = []
    real_trainer = bench.Trainer

    class Recording(real_trainer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append({p.name for p in tmp_path.iterdir()})
            self.breaks = len(seen) == 2

        def train_step(self):
            if self.breaks and self.step_count + 1 == self.total_steps:
                raise NumericError("the second run breaks")
            return super().train_step()

    monkeypatch.setattr(bench, "Trainer", Recording)
    monkeypatch.setitem(bench.SCENARIOS, "ssl", lambda cfg: [
        Variant("first"), Variant("breaks"), Variant("third")])
    table = run_scenario(tiny_config(), tmp_path)
    assert [r.error is None for r in table.results] == [True, False, True]
    first, breaks, third = (run_files(f"{v}_s0")
                            for v in ("first", "breaks", "third"))
    assert seen[0] == {"config_echo.json"}
    assert seen[1] == {"config_echo.json"} | first
    assert seen[2] == {"config_echo.json"} | first
    assert {p.name for p in tmp_path.iterdir()} == (
        {"config_echo.json", "metrics.csv", "aggregates.json", "errors.txt"}
        | first | third)


def test_grid_files_do_not_depend_on_workers(tmp_path):
    cfg = tiny_config("components", eval={"seeds": [0, 1]},
                      train={"total_steps": 4, "eval_every": 2,
                             "batch_labelled": 1, "batch_unlabelled": 1})
    serial, pooled = tmp_path / "w1", tmp_path / "w2"
    run_scenario(cfg, serial, workers=1)
    run_scenario(cfg, pooled, workers=2)
    names = sorted(p.name for p in serial.iterdir())
    # 6 variants x 2 seeds x (checkpoint, log, 8 previews) + 3 grid files
    assert len(names) == 6 * 2 * 10 + 3
    assert names == sorted(p.name for p in pooled.iterdir())
    for name in names:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes(), name


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
