"""Metrics, the experiment harness, and file outputs.

A scenario expands into (variant, seed) runs; each run generates its data,
trains, selects the best-on-validation checkpoint, evaluates it on the
held-out test split, and writes its own files.  Runs are independent and may
execute in worker processes; the results table is assembled in canonical
order so output bytes do not depend on scheduling.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .autograd import ParamSet, load_checkpoint, save_checkpoint
from .engine import OptimConfig, SslConfig, StepReport, Trainer
from .errors import ConfigurationError, check_fields
from .geometry import GRID_PRESETS
from .losses import LossWeights
from .model import ModelConfig, forward, init_params
from .rng import Stream
from .world import (CLASS_NAMES, N_CLASSES, Dataset, DatasetSplit,
                    STYLE_PRESETS, WorldConfig, build_dataset,
                    build_sequences, generate_worlds, make_splits)

_FORK = multiprocessing.get_context("fork")
METRICS_HEADER = ("scenario,variant,seed,step,split,class,iou,miou,"
                  "loss_sup,loss_cls,loss_feat")


# ---------------------------------------------------------------- metrics --

@dataclass
class Metrics:
    split: str
    step: int
    tp: list[int]
    fp: list[int]
    fn: list[int]
    per_class: list[float | None]
    miou: float
    absent: list[str]


class IoUAccumulator:
    """Per-class intersection/union counts over any number of rasters."""

    def __init__(self):
        self.tp = np.zeros(N_CLASSES, dtype=np.int64)
        self.fp = np.zeros(N_CLASSES, dtype=np.int64)
        self.fn = np.zeros(N_CLASSES, dtype=np.int64)

    def update(self, pred_probs: np.ndarray, gt: np.ndarray) -> None:
        if pred_probs.shape != gt.shape:
            raise ConfigurationError(
                f"prediction {pred_probs.shape} vs gt {gt.shape}")
        pred = pred_probs > 0.5
        truth = gt > 0.5
        for c in range(N_CLASSES):
            self.tp[c] += int(np.sum(pred[c] & truth[c]))
            self.fp[c] += int(np.sum(pred[c] & ~truth[c]))
            self.fn[c] += int(np.sum(~pred[c] & truth[c]))

    def metrics(self, split: str = "", step: int = 0) -> Metrics:
        per_class: list[float | None] = []
        absent = []
        present_ious = []
        for c in range(N_CLASSES):
            union = self.tp[c] + self.fp[c] + self.fn[c]
            if union == 0:
                per_class.append(None)
                absent.append(CLASS_NAMES[c])
            else:
                iou = self.tp[c] / union
                per_class.append(float(iou))
                present_ious.append(float(iou))
        miou = float(np.mean(present_ious)) if present_ious else 0.0
        return Metrics(split, step, self.tp.tolist(), self.fp.tolist(),
                       self.fn.tolist(), per_class, miou, absent)


def predict_split(params: ParamSet, dataset: Dataset, seq_ids,
                  model_cfg: ModelConfig):
    """Yield (probs, gt) per frame of `seq_ids`, sequence then frame order,
    from plain (weak) observations."""
    for sid in seq_ids:
        for sample in dataset.sequences[sid].samples:
            trace = forward(params, sample.observation, None, None, model_cfg)
            yield trace.prob_values, sample.gt.values


def evaluate_pairs(pairs, split: str, step: int) -> Metrics:
    acc = IoUAccumulator()
    for probs, gt in pairs:
        acc.update(probs, gt)
    return acc.metrics(split, step)


# ----------------------------------------------------------- configuration --

def _each(cfg, names, holds, rule):
    """One rule for several fields, as `check_fields` takes it."""
    return ((name, holds(getattr(cfg, name)), rule) for name in names)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters tuned for the synthetic benchmark (learning
    rate and weight decay are dataset-tuned knobs; the focal loss's balance
    is `LossWeights()`)."""

    total_steps: int = 3000
    eval_every: int = 250
    batch_labelled: int = 2
    batch_unlabelled: int = 1
    lr: float = 3e-3
    wd: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    ema_keep: float = 0.99
    eval_model: str = "student"   # "student" | "teacher"
    supervised_augment: str = "none"  # "none" | "same"

    def __post_init__(self):
        check_fields("train", self, (
            *_each(self, ("total_steps", "eval_every", "batch_labelled",
                          "batch_unlabelled"), lambda v: v >= 1, ">= 1"),
            ("lr", self.lr >= 0, ">= 0"), ("wd", self.wd >= 0, ">= 0"),
            ("beta1", 0 <= self.beta1 < 1, "in [0, 1)"),
            ("beta2", 0 <= self.beta2 < 1, "in [0, 1)"),
            ("ema_keep", 0 <= self.ema_keep <= 1, "in [0, 1]"),
            ("eval_model", self.eval_model in ("student", "teacher"),
             "'student' or 'teacher'"),
            ("supervised_augment", self.supervised_augment in ("none", "same"),
             "'none' or 'same'")))


@dataclass(frozen=True)
class EvalConfig:
    """The grid's seeds and each kind's axis: `label-sweep` reads
    `sweep_utilisations` and `city-adapt` its target-city unlabelled
    counts, `adapt_unlabelled_counts`; any other kind reads neither."""

    seeds: tuple[int, ...] = (0, 1, 2)
    sweep_utilisations: tuple[float, ...] = (0.025, 0.05, 0.1, 0.25, 0.5, 1.0)
    adapt_unlabelled_counts: tuple[int, ...] = (0, 8, 32)

    def __post_init__(self):
        names = [f"{u:g}" for u in self.sweep_utilisations]   # as in variants
        alike = [u for u, n in zip(self.sweep_utilisations, names)
                 if names.count(n) > 1]
        check_fields("eval", self, (
            *_each(self, ("seeds", "sweep_utilisations",
                          "adapt_unlabelled_counts"),
                   lambda v: 0 < len(set(v)) == len(v),
                   "non-empty without repeats"),
            ("sweep_utilisations",
             all(0 < u <= 1 for u in self.sweep_utilisations),
             "in (0, 1] each"),
            ("sweep_utilisations", not alike, "distinct as variant names "
             f"print them ({{u:g}}): {alike} print alike"),
            ("adapt_unlabelled_counts",
             all(n >= 0 for n in self.adapt_unlabelled_counts), ">= 0 each")))


@dataclass(frozen=True)
class ScenarioConfig:
    """A config file: the run's kind and name and its six sections.  Each
    section checks its own values, whatever the kind; this checks `kind`."""

    kind: str = "ssl"
    name: str = "scenario"
    world: WorldConfig = field(default_factory=WorldConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    ssl: SslConfig = field(default_factory=SslConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        check_fields("", self, [("kind", self.kind in SCENARIOS,
                                 f"one of {sorted(SCENARIOS)}")])

    def to_dict(self) -> dict:
        return asdict(self)


_SECTION_TYPES = {"world": WorldConfig, "model": ModelConfig,
                  "train": TrainConfig, "augment": AugmentConfig,
                  "ssl": SslConfig, "eval": EvalConfig}


_SCALARS = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _type_ok(value, annotation: str) -> bool:
    """Whether `value` has the type a field's annotation names; ints are
    valid floats, only finite numbers are valid floats, and only booleans are
    valid bools."""
    if annotation.endswith(" | None"):
        return value is None or _type_ok(value, annotation[:-len(" | None")])
    if annotation.startswith("tuple["):   # every tuple field is variadic
        item = annotation[len("tuple["):-len(", ...]")]
        return isinstance(value, tuple) and all(_type_ok(v, item)
                                                for v in value)
    return (isinstance(value, _SCALARS[annotation])
            and isinstance(value, bool) == (annotation == "bool")
            and (annotation != "float" or math.isfinite(value)))


def _check_type(where: str, value, annotation: str) -> None:
    if not _type_ok(value, annotation):
        raise ConfigurationError(
            f"{where} must be {annotation.replace('float', 'finite float')}, "
            f"got {value!r}")


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON document, rejecting unknown keys
    and values of the wrong type before any section checks its values."""
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"the config must be a JSON object, got {type(data).__name__}")
    known_top = {"kind", "name", *_SECTION_TYPES}
    unknown = set(data) - known_top
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    kwargs: dict = {k: data[k] for k in ("kind", "name") if k in data}
    for k, value in kwargs.items():
        _check_type(k, value, "str")
    for section, cls in _SECTION_TYPES.items():
        src = data.get(section, {})
        if not isinstance(src, dict):
            raise ConfigurationError(f"config section '{section}' must be an object")
        types = {f.name: f.type for f in fields(cls)}
        bad = sorted(f"{section}.{k}" for k in set(src) - set(types))
        if bad:
            raise ConfigurationError(f"unknown config keys: {bad}")
        coerced = {k: tuple(v) if types[k].startswith("tuple")
                   and isinstance(v, list) else v for k, v in src.items()}
        for k, value in coerced.items():
            _check_type(f"{section}.{k}", value, types[k])
        kwargs[section] = cls(**coerced)
    return ScenarioConfig(**kwargs)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key it gives twice is a
    ConfigurationError, not a silent choice of one value."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ConfigurationError(f"config key '{key}' is given twice")
        out[key] = value
    return out


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!s}: {exc}") from exc
    except ValueError as exc:   # not UTF-8, or not JSON
        raise ConfigurationError(f"the config {path!s} must be a JSON object "
                                 f"in UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ConfigurationError(
            f"the config {path!s} nests too deeply to parse") from exc
    return config_from_dict(data)


def canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


# ------------------------------------------------------------ run plumbing --

@dataclass
class Variant:
    name: str
    ssl: bool = True
    augment: AugmentConfig | None = None
    overrides: dict = field(default_factory=dict)   # `ssl`-section fields
    utilisation: float | None = None
    adapt_unlabelled: int | None = None
    adapt_oracle: bool = False   # the target pool labelled


@dataclass
class RunSpec:
    scenario: str
    variant: Variant
    seed: int
    cfg: ScenarioConfig


@dataclass
class RunResult:
    """A run's metrics; its checkpoint, train log and previews are files."""
    scenario: str
    variant: str
    seed: int
    best_step: int = 0
    val: Metrics | None = None
    test: Metrics | None = None
    last_losses: tuple[float, ...] = ()   # loss_sup, loss_cls, loss_feat
    error: str | None = None


def _weights_for(spec: RunSpec) -> LossWeights:
    """The focal balance of every run: `LossWeights()`."""
    return LossWeights()


def _pseudo_for(spec: RunSpec) -> SslConfig:
    """The run's `ssl` section with its variant's overrides."""
    return replace(spec.cfg.ssl, **spec.variant.overrides)


_DATASET_CACHE: dict = {}   # the frames built last
ADAPT_SOURCE_WORLDS = 10   # city adaptation's labelled source-city worlds


def _build_run_dataset(spec: RunSpec) -> Dataset:
    """The run's frames, shared by every variant of its seed, and its split.
    City adaptation's target city is the preset that is not `world.style`."""
    w = replace(spec.cfg.world, utilisation=1.0)
    adapt = spec.variant.adapt_unlabelled is not None
    data_seed = Stream(spec.seed).child("data").seed
    n_pool = max(spec.cfg.eval.adapt_unlabelled_counts)
    key = (w, data_seed, n_pool if adapt else None)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE.clear()
        if adapt:   # source-city worlds, then the target-city pool, val, test
            (target,) = set(STYLE_PRESETS) - {w.style}
            worlds = (generate_worlds(data_seed, w.style, ADAPT_SOURCE_WORLDS)
                      + generate_worlds(data_seed, target,
                                        n_pool + w.val_worlds + w.test_worlds,
                                        first=50000))
            _DATASET_CACHE[key] = Dataset(GRID_PRESETS[w.grid_preset],
                                          build_sequences(worlds, data_seed, w),
                                          None)
        else:
            _DATASET_CACHE[key] = build_dataset(w, data_seed)
    return replace(_DATASET_CACHE[key], split=_run_split(spec, data_seed))


def _run_split(spec: RunSpec, data_seed: int) -> DatasetSplit:
    """`make_splits` at the variant's utilisation; for city adaptation, the
    source worlds labelled and the variant's draw from the target pool
    unlabelled, or the whole pool labelled for the oracle."""
    w, v = spec.cfg.world, spec.variant
    if v.adapt_unlabelled is None:
        return make_splits(w if v.utilisation is None
                           else replace(w, utilisation=v.utilisation), data_seed)
    n_pool = max(spec.cfg.eval.adapt_unlabelled_counts)
    pool = range(ADAPT_SOURCE_WORLDS, ADAPT_SOURCE_WORLDS + n_pool)
    order = Stream(data_seed).child("adapt-pick").permutation(n_pool)
    val = range(pool.stop, pool.stop + w.val_worlds)
    return DatasetSplit(list(range(val.start if v.adapt_oracle else pool.start)),
                        sorted(pool[i] for i in order[:v.adapt_unlabelled]),
                        list(val), list(range(val.stop, val.stop + w.test_worlds)))


def run_one(spec: RunSpec, out) -> RunResult:
    """Generate data, train, pick best-on-validation, evaluate on test, and
    write the run's checkpoint, train log and previews into `out`."""
    cfg = spec.cfg
    t = cfg.train
    dataset = _build_run_dataset(spec)
    augment = (spec.variant.augment if spec.variant.augment is not None
               else cfg.augment)
    # inside the teacher-student scheme the labelled branch shares the strong
    # augmentations; the plain supervised baseline trains on clean views
    if spec.variant.ssl:
        sup_augment = augment
    else:
        sup_augment = (augment if t.supervised_augment == "same"
                       else AugmentConfig.none())
    trainer = Trainer(
        dataset, cfg.model, _weights_for(spec), augment, _pseudo_for(spec),
        OptimConfig(t.lr, t.wd, (t.beta1, t.beta2), t.ema_keep),
        seed=Stream(spec.seed).child("run").seed,
        total_steps=t.total_steps, ssl=spec.variant.ssl,
        batch_labelled=t.batch_labelled, batch_unlabelled=t.batch_unlabelled,
        supervised_augment=sup_augment)

    def eval_params():
        if t.eval_model == "teacher" and trainer.teacher is not None:
            return trainer.teacher
        return trainer.student

    best: ParamSet | None = None
    best_m: Metrics | None = None
    log = [",".join([*(f.name for f in fields(StepReport)), "val_miou"])]
    for step in range(t.total_steps):
        report = trainer.train_step()
        val_miou = ""
        if (step + 1) % t.eval_every == 0 or step + 1 == t.total_steps:
            m = evaluate_pairs(predict_split(eval_params(), dataset,
                                             dataset.split.val, cfg.model),
                               "val", step + 1)
            val_miou = _fmt(m.miou)
            if best_m is None or m.miou > best_m.miou:
                best_m, best = m, eval_params().copy()
        log.append(",".join([*map(_log_cell, astuple(report)), val_miou]))
    test_m = evaluate_pairs(predict_split(best, dataset, dataset.split.test,
                                          cfg.model), "test", best_m.step)
    # the first test frame, predicted again: each read of a frame's GT is a
    # fresh array, so holding every test pair until here would hold a copy
    # of every test GT
    pred, gt = next(predict_split(best, dataset, dataset.split.test[:1],
                                  cfg.model))

    out, tag = Path(out), f"{_safe(spec.variant.name)}_s{spec.seed}"
    checkpoint = {f"student.{k}": p.values for k, p in trainer.student.items()}
    if trainer.teacher is not None:
        checkpoint.update({f"teacher.{k}": p.values
                           for k, p in trainer.teacher.items()})
    checkpoint.update({f"best.{k}": p.values for k, p in best.items()})
    save_checkpoint(out / f"run_{tag}.ckpt", checkpoint)
    (out / f"train_log_{tag}.csv").write_text("\n".join(log) + "\n")
    export_raster_images(out, f"pred_{tag}", pred)
    export_raster_images(out, f"gt_{tag}", gt)
    return RunResult(spec.scenario, spec.variant.name, spec.seed, best_m.step,
                     best_m, test_m, (report.loss_sup, report.loss_cls,
                                      report.loss_feat))


def _run_one_safe(spec: RunSpec, out) -> RunResult:
    try:
        return run_one(spec, out)
    except Exception:
        return RunResult(spec.scenario, spec.variant.name, spec.seed,
                         error=traceback.format_exc(limit=10))


def _worker_result(future, spec: RunSpec, out, retry: bool = True,
                   ) -> RunResult:
    """The run's result.  A dying worker breaks the whole pool, so each run
    cut off runs once more alone; it fails only if that worker dies too."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        if not retry:
            return RunResult(spec.scenario, spec.variant.name, spec.seed,
                             error=f"worker process died: {exc}")
    with ProcessPoolExecutor(1, mp_context=_FORK) as pool:
        return _worker_result(pool.submit(_run_one_safe, spec, out), spec,
                              out, False)


# ------------------------------------------------------- scenario variants --

# the teacher-student core: no feature similarity, threshold or fusion
CORE_OVERRIDES = {"w_feat": 0.0, "threshold": None, "fusion_mode": "none"}
HARD = {"hard": True, "temperature": None}   # whatever the config file sets


def components_variants(_cfg) -> list[Variant]:
    """Incremental component stack: Core, +Augs, +Fusion, +Featsim, +Thr, +Hard."""
    return [
        Variant("Core", augment=AugmentConfig.none(), overrides=CORE_OVERRIDES),
        Variant("+Augs", overrides=CORE_OVERRIDES),
        Variant("+Fusion", overrides={"w_feat": 0.0, "threshold": None}),
        Variant("+Featsim", overrides={"threshold": None}),
        Variant("+Thr"),
        Variant("+Hard", overrides=HARD),
    ]


def augmentation_variants(_cfg) -> list[Variant]:
    """Augmentation combinations mirroring the strong-augmentation study."""
    mk = AugmentConfig
    augments = {
        "none": mk.none(),
        "photo": mk(cutout=False, camdrop=False, bevdrop=False),
        "photo+camdrop": mk(cutout=False, camdrop=True, bevdrop=False),
        "photo+cutout": mk(camdrop=False, bevdrop=False),
        "photo+cutout+bevdrop": mk(camdrop=False),
    }
    return [Variant(name, augment=aug, overrides=CORE_OVERRIDES)
            for name, aug in augments.items()]


def threshold_variants(_cfg) -> list[Variant]:
    return [Variant(f"{'thr+hard' if hard else 'thr'}@{tau:g}",
                    overrides={**CORE_OVERRIDES, "threshold": tau,
                               **(HARD if hard else {"hard": False})})
            for tau in (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
            for hard in (False, True)]


def temperature_variants(_cfg) -> list[Variant]:
    # "thr" keeps the configured threshold; no temperature moves hard targets
    base = {"w_feat": 0.0, "fusion_mode": "none"}
    return [Variant(f"T{temp:g}+{name}",
                    overrides={**base, "temperature": temp, "hard": False,
                               **over})
            for temp in (0.05, 0.1, 0.25, 0.5, 0.75, 0.95)
            for name, over in (("nothr", {"threshold": None}), ("thr", {}))
            ] + [Variant("thr+hard", overrides={**base, **HARD})]


def featsim_variants(_cfg) -> list[Variant]:
    return [Variant(f"{mode}-{level}@{w:g}",
                    overrides={**CORE_OVERRIDES, "w_feat": w,
                               "feat_mode": mode, "feat_level": level})
            for w in (0.05, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5)
            for mode in ("mse", "cosine") for level in ("early", "late")]


def fusion_variants(_cfg) -> list[Variant]:
    return [Variant(f"{mode}-{thr_name}@{rng:g}m",
                    overrides={**CORE_OVERRIDES, "fusion_mode": mode,
                               "fusion_max_range": rng, "threshold": thr})
            for rng in (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
            for mode in ("probs", "feats")
            for thr_name, thr in (("nothr", None), ("thr", 0.6))]


def fusion_frames_variants(_cfg) -> list[Variant]:
    return [Variant(f"{mode}-n{n}",
                    overrides={**CORE_OVERRIDES, "fusion_mode": mode,
                               "fusion_extra": n, "fusion_max_range": 20.0})
            for n in (2, 4, 6) for mode in ("probs", "feats")]


# every set of runs a config's `kind` can name, as a function of the config
SCENARIOS = {
    "supervised": lambda cfg: [Variant("supervised", ssl=False)],
    "ssl": lambda cfg: [Variant("ssl")],
    # supervised only at full utilisation, where nothing is unlabelled
    "label-sweep": lambda cfg: [
        Variant(f"{name}@{u:g}", ssl=name == "ssl", utilisation=u)
        for u in cfg.eval.sweep_utilisations for name in ("supervised", "ssl")
        if u < 1.0 or name == "supervised"],
    "city-adapt": lambda cfg: [Variant(f"adapt@{n}", adapt_unlabelled=n)
                               for n in cfg.eval.adapt_unlabelled_counts]
    + [Variant("adapt@oracle", adapt_unlabelled=0, adapt_oracle=True)],
    "components": components_variants,
    "augmentations": augmentation_variants,
    "threshold": threshold_variants,
    "temperature": temperature_variants,
    "featsim": featsim_variants,
    "fusion": fusion_variants,
    "fusion-frames": fusion_frames_variants,
}


def scenario_variants(cfg: ScenarioConfig) -> list[Variant]:
    return SCENARIOS[cfg.kind](cfg)


# --------------------------------------------------------------- results ---

@dataclass
class ResultsTable:
    results: list[RunResult]
    aggregates: list[dict]

    @property
    def errors(self) -> list[RunResult]:
        return [r for r in self.results if r.error is not None]


def _fmt(x: float) -> str:
    return repr(float(x))


def _log_cell(value) -> str:
    """Train-log cell: the step as an integer, floats round-tripping."""
    return str(value) if isinstance(value, int) else _fmt(value)


def _metrics_csv(results: list[RunResult]) -> str:
    """The rows of every finished run; a field that holds a comma, a quote
    or a newline (a scenario or variant name) is quoted."""
    buf = io.StringIO()
    rows = csv.writer(buf, lineterminator="\n")
    rows.writerow(METRICS_HEADER.split(","))
    for r in results:
        if r.error is not None:
            continue
        for metrics in (r.val, r.test):
            run = [r.scenario, r.variant, str(r.seed), str(r.best_step),
                   metrics.split]
            for c, name in enumerate(CLASS_NAMES):
                iou = metrics.per_class[c]
                rows.writerow([*run, name, "" if iou is None else _fmt(iou),
                               "", "", "", ""])
            rows.writerow([*run, "all", "", _fmt(metrics.miou),
                           *map(_fmt, r.last_losses)])
    return buf.getvalue()


def expand_runs(cfg: ScenarioConfig) -> list[RunSpec]:
    return [RunSpec(cfg.name, v, seed, cfg)
            for v in scenario_variants(cfg) for seed in cfg.eval.seeds]


def run_scenario(cfg: ScenarioConfig, out_dir, workers: int = 1,
                 ) -> ResultsTable:
    """Run every run of `cfg` into `out_dir`.  Each run writes its own files
    as it ends; `metrics.csv`, `aggregates.json` and `errors.txt` follow the
    last run, in canonical order whatever the scheduling."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config_echo.json").write_text(canonical_json(cfg.to_dict()))
    specs = expand_runs(cfg)
    # seed-major, so that runs sharing a dataset run back to back
    todo = sorted(specs, key=lambda s: s.seed)
    if workers > 1 and len(todo) > 1:
        with ProcessPoolExecutor(min(workers, len(todo)),
                                 mp_context=_FORK) as pool:
            futures = [pool.submit(_run_one_safe, s, out) for s in todo]
        results = [_worker_result(f, s, out) for f, s in zip(futures, todo)]
    else:
        results = [_run_one_safe(s, out) for s in todo]

    order = {(s.variant.name, s.seed): i for i, s in enumerate(specs)}
    results.sort(key=lambda r: order[(r.variant, r.seed)])

    aggregates = []
    for name in dict.fromkeys(s.variant.name for s in specs):
        mious = [r.test.miou for r in results
                 if r.variant == name and r.error is None]
        if mious:
            aggregates.append({
                "variant": name, "n": len(mious),
                "mean_miou": float(np.mean(mious)),
                "std_miou": float(np.std(mious)),
                "median_miou": float(np.median(mious))})
    table = ResultsTable(results, aggregates)
    (out / "metrics.csv").write_text(_metrics_csv(results))
    (out / "aggregates.json").write_text(canonical_json(
        {"scenario": cfg.name, "aggregates": aggregates}))
    # an errors.txt left by an earlier grid would outlive a clean rerun
    errors = out / "errors.txt"
    if table.errors:
        errors.write_text("\n\n".join(
            f"{r.variant} seed={r.seed}\n{r.error}" for r in table.errors))
    else:
        errors.unlink(missing_ok=True)
    return table


# --------------------------------------------------------------- artifacts --

def write_pgm(path, channel: np.ndarray) -> None:
    """8-bit binary portable graymap; 0.0 -> 0, 1.0 -> 255."""
    data = np.rint(np.clip(channel, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_ppm(path, rgb: np.ndarray) -> None:
    """8-bit binary portable pixmap from three class channels."""
    data = np.rint(np.clip(rgb, 0.0, 1.0) * 255.0).astype(np.uint8)
    _, h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.transpose(1, 2, 0).tobytes())


def export_raster_images(out_dir: Path, name: str, values: np.ndarray) -> None:
    for c in range(values.shape[0]):
        write_pgm(out_dir / f"{name}_ch{c}.pgm", values[c])
    if values.shape[0] >= 3:
        write_ppm(out_dir / f"{name}_rgb.ppm", values[:3])


def _safe(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_@." else "_" for ch in name)


def load_checkpoint_params(path, model_cfg: ModelConfig) -> ParamSet:
    """Rebuild a ParamSet from a run checkpoint's `best.` entries or from a
    bare checkpoint; it must hold exactly the model's parameters."""
    raw = load_checkpoint(path)
    prefix = "best."
    vals = {k[len(prefix):]: v for k, v in raw.items() if k.startswith(prefix)}
    if not vals:
        # bare checkpoint without prefixes
        vals = raw
    params = init_params(model_cfg, 0)
    missing = set(params.names()) - set(vals)
    if missing:
        raise ConfigurationError(
            f"checkpoint {path!s} lacks parameters {sorted(missing)}")
    params.load_values(vals)   # rejects unknown names and wrong shapes
    return params
