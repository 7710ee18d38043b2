"""Metrics, the experiment harness, and file outputs.

A scenario expands into (variant, seed) runs; each run generates its data,
trains, selects the best-on-validation checkpoint, and evaluates it on the
held-out test split.  Runs are independent and may execute in worker
processes; the results table is assembled in canonical order so output
bytes do not depend on scheduling.
"""

from __future__ import annotations

import json
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .augment import AugmentConfig
from .autograd import ParamSet, load_checkpoint, save_checkpoint
from .engine import OptimConfig, PseudoLabelConfig, Trainer
from .errors import ConfigurationError
from .geometry import GRID_PRESETS
from .losses import LossWeights
from .model import ModelConfig, forward, init_params
from .rng import Stream, mix64
from .world import (CLASS_NAMES, N_CLASSES, Dataset, DatasetSplit,
                    STYLE_PRESETS, build_dataset, build_sequences,
                    generate_world)

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

@dataclass(frozen=True)
class WorldConfig:
    style: str = "city_A"
    grid_preset: str = "small"
    n_worlds: int = 50
    seqs_per_world: int = 1
    n_frames: int = 12
    val_worlds: int = 4
    test_worlds: int = 6
    utilisation: float = 0.1
    speed_min: float = 0.0
    speed_max: float = 12.0


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters tuned for the synthetic benchmark (learning
    rate, weight decay, and focal balance are dataset-tuned knobs)."""

    total_steps: int = 3000
    eval_every: int = 250
    batch_labelled: int = 2
    batch_unlabelled: int = 1
    lr: float = 3e-3
    wd: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    ema_keep: float = 0.99
    focal_gamma: float = 2.0
    focal_alpha: float = 0.75
    eval_model: str = "student"   # "student" | "teacher"
    supervised_augment: str = "none"  # "none" | "same"


@dataclass(frozen=True)
class SslConfig:
    w_cls: float = 1.0
    w_feat: float = 0.25
    rampup_fraction: float = 1.0 / 3.0
    feat_mode: str = "cosine"
    feat_level: str = "late"
    threshold: float | None = 0.6
    temperature: float | None = None
    hard: bool = False
    fusion_mode: str = "probs"
    fusion_extra: int = 2
    fusion_max_range: float = 30.0
    fusion_warp: str = "nearest"
    confidence: str = "two_sided"


@dataclass(frozen=True)
class EvalConfig:
    seeds: tuple[int, ...] = (0, 1, 2)
    sweep_utilisations: tuple[float, ...] = (0.025, 0.05, 0.1, 0.25, 0.5, 1.0)
    adapt_target_style: str = "city_B"
    adapt_source_worlds: int = 10
    adapt_unlabelled_counts: tuple[int, ...] = (0, 8, 32)


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = "ssl"
    name: str = "scenario"
    world: WorldConfig = field(default_factory=WorldConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    ssl: SslConfig = field(default_factory=SslConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def to_dict(self) -> dict:
        return asdict(self)


_SECTION_TYPES = {"world": WorldConfig, "model": ModelConfig,
                  "train": TrainConfig, "augment": AugmentConfig,
                  "ssl": SslConfig, "eval": EvalConfig}


# the names a value must be one of, by section and field
_CHOICES = {("world", "grid_preset"): GRID_PRESETS,
            ("world", "style"): STYLE_PRESETS,
            ("eval", "adapt_target_style"): STYLE_PRESETS,
            ("train", "eval_model"): ("student", "teacher"),
            ("train", "supervised_augment"): ("none", "same")}


_SCALARS = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _type_ok(value, annotation: str) -> bool:
    """Whether `value` has the type a field's annotation names; ints are
    valid floats, and only booleans are valid bools."""
    if annotation.endswith(" | None"):
        return value is None or _type_ok(value, annotation[:-len(" | None")])
    if annotation.startswith("tuple["):
        items = annotation[len("tuple["):-1].split(", ")
        if isinstance(value, tuple) and items[-1] == "...":
            items = items[:1] * len(value)
        return (isinstance(value, tuple) and len(items) == len(value)
                and all(map(_type_ok, value, items)))
    return (isinstance(value, _SCALARS[annotation])
            and isinstance(value, bool) == (annotation == "bool"))


def _check_types(obj, prefix: str = "") -> None:
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            _check_types(value, f"{f.name}.")
        elif not _type_ok(value, f.type):
            raise ConfigurationError(
                f"{prefix}{f.name} must be {f.type}, got {value!r}")


def _check_values(cfg: ScenarioConfig) -> None:
    """Reject values the runs would otherwise trip over after data
    generation."""
    _check_types(cfg)
    if cfg.kind not in SCENARIOS:
        raise ConfigurationError(f"kind must be one of {sorted(SCENARIOS)}, "
                                 f"got {cfg.kind!r}")
    for (section, name), choices in _CHOICES.items():
        value = getattr(getattr(cfg, section), name)
        if value not in tuple(choices):
            raise ConfigurationError(f"{section}.{name} must be one of "
                                     f"{sorted(choices)}, got {value!r}")
    for section, names in (
            ("train", ("total_steps", "eval_every", "batch_labelled",
                       "batch_unlabelled")),
            ("world", ("seqs_per_world", "n_frames", "val_worlds",
                       "test_worlds"))):
        for name in names:
            value = getattr(getattr(cfg, section), name)
            if value < 1:
                raise ConfigurationError(
                    f"{section}.{name} must be >= 1, got {value}")
    w = cfg.world
    for u in (w.utilisation, *cfg.eval.sweep_utilisations):
        if not 0.0 < u <= 1.0:
            raise ConfigurationError(
                f"world.utilisation and eval.sweep_utilisations must be in "
                f"(0, 1], got {u}")
    if w.speed_min > w.speed_max:
        raise ConfigurationError(f"world.speed_min {w.speed_min} exceeds "
                                 f"world.speed_max {w.speed_max}")
    for name in ("seeds", "sweep_utilisations", "adapt_unlabelled_counts"):
        if not getattr(cfg.eval, name):
            raise ConfigurationError(f"eval.{name} must not be empty")
    if min(cfg.eval.adapt_unlabelled_counts) < 0:
        raise ConfigurationError(
            f"eval.adapt_unlabelled_counts must be >= 0, got "
            f"{list(cfg.eval.adapt_unlabelled_counts)}")
    # city adaptation draws its worlds from the eval section instead
    if (cfg.kind != "city-adapt"
            and w.n_worlds < w.val_worlds + w.test_worlds + 1):
        raise ConfigurationError(
            f"world.n_worlds {w.n_worlds} cannot cover train/val/test "
            f"({w.val_worlds} val + {w.test_worlds} test + 1 train)")


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON document, rejecting unknown keys."""
    known_top = {"kind", "name", *_SECTION_TYPES}
    unknown = set(data) - known_top
    if unknown:
        raise ConfigurationError(f"unknown config sections: {sorted(unknown)}")
    kwargs: dict = {k: data[k] for k in ("kind", "name") if k in data}
    for section, cls in _SECTION_TYPES.items():
        src = data.get(section, {})
        if not isinstance(src, dict):
            raise ConfigurationError(f"config section '{section}' must be an object")
        types = {f.name: f.type for f in fields(cls)}
        bad = set(src) - set(types)
        if bad:
            raise ConfigurationError(
                f"unknown keys in '{section}': {sorted(bad)}")
        coerced = {k: tuple(v) if types[k].startswith("tuple")
                   and isinstance(v, list) else v for k, v in src.items()}
        try:
            kwargs[section] = cls(**coerced)
        except TypeError as exc:
            raise ConfigurationError(f"bad '{section}' config: {exc}") from exc
    cfg = ScenarioConfig(**kwargs)
    _check_values(cfg)
    # the engine configs check their own values; run those checks now,
    # before any data generation
    probe = RunSpec(cfg.name, Variant(cfg.kind), 0, cfg)
    try:
        _weights_for(probe)
        _pseudo_for(probe)
    except TypeError as exc:
        raise ConfigurationError(f"bad 'ssl' or 'train' config: {exc}") from exc
    return cfg


def load_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path!s}: {exc}") from exc
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


@dataclass
class RunSpec:
    scenario: str
    variant: Variant
    seed: int
    cfg: ScenarioConfig


@dataclass
class RunResult:
    scenario: str
    variant: str
    seed: int
    best_step: int
    val: Metrics | None
    test: Metrics | None
    train_log: list[dict]
    checkpoint: dict
    preview: dict
    error: str | None = None


def _engine_config(cls, spec: RunSpec):
    """`cls` with every field read from the section declaring that name:
    the run's `ssl` section with the variant's overrides, else `train`."""
    ssl = replace(spec.cfg.ssl, **spec.variant.overrides)
    values = {**asdict(spec.cfg.train), **asdict(ssl)}
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def _weights_for(spec: RunSpec) -> LossWeights:
    return _engine_config(LossWeights, spec)


def _pseudo_for(spec: RunSpec) -> PseudoLabelConfig:
    return _engine_config(PseudoLabelConfig, spec)


_DATASET_CACHE: dict = {}   # the last dataset built


def _build_run_dataset(spec: RunSpec) -> Dataset:
    w, ev = spec.cfg.world, spec.cfg.eval
    if spec.variant.utilisation is not None:
        w = replace(w, utilisation=spec.variant.utilisation)
    adapt = spec.variant.adapt_unlabelled is not None
    data_seed = Stream(spec.seed).child("data").seed
    key = (w, data_seed, (ev.adapt_target_style, ev.adapt_source_worlds,
                          max(ev.adapt_unlabelled_counts)) if adapt else None)
    if key not in _DATASET_CACHE:
        _DATASET_CACHE.clear()
        grid = GRID_PRESETS[w.grid_preset]
        speed_range = (w.speed_min, w.speed_max)
        if adapt:
            # source-style worlds, then the target-style pool and the val
            # and test worlds; each variant takes its own split below
            n_tgt = (max(ev.adapt_unlabelled_counts) + w.val_worlds
                     + w.test_worlds)
            worlds = ([generate_world(mix64(data_seed ^ mix64(i)),
                                      STYLE_PRESETS[w.style])
                       for i in range(ev.adapt_source_worlds)]
                      + [generate_world(mix64(data_seed ^ mix64(50000 + i)),
                                        STYLE_PRESETS[ev.adapt_target_style])
                         for i in range(n_tgt)])
            _DATASET_CACHE[key] = Dataset(
                grid, worlds, build_sequences(worlds, data_seed, grid,
                                              w.n_frames, speed_range, 1),
                None)
        else:
            _DATASET_CACHE[key] = build_dataset(
                grid, STYLE_PRESETS[w.style], data_seed, n_worlds=w.n_worlds,
                seqs_per_world=w.seqs_per_world, n_frames=w.n_frames,
                utilisation=w.utilisation, val_worlds=w.val_worlds,
                test_worlds=w.test_worlds, speed_range=speed_range)
    dataset = _DATASET_CACHE[key]
    if adapt:
        return replace(dataset, split=_adapt_split(spec, data_seed))
    return dataset


def _adapt_split(spec: RunSpec, data_seed: int) -> DatasetSplit:
    """Labelled source worlds plus the variant's share of the target pool."""
    w, ev = spec.cfg.world, spec.cfg.eval
    n_src, n_target = ev.adapt_source_worlds, max(ev.adapt_unlabelled_counts)
    tgt_train = list(range(n_src, n_src + n_target))
    order = Stream(data_seed).child("adapt-pick").permutation(n_target)
    n_use = spec.variant.adapt_unlabelled or 0
    unlabelled = sorted(tgt_train[i] for i in order[:n_use])
    val_lo = n_src + n_target
    return DatasetSplit(
        labelled=list(range(n_src)), unlabelled=unlabelled,
        val=list(range(val_lo, val_lo + w.val_worlds)),
        test=list(range(val_lo + w.val_worlds, val_lo + w.val_worlds
                        + w.test_worlds)),
        label_utilisation=1.0)


def run_one(spec: RunSpec) -> RunResult:
    """Generate data, train, pick best-on-validation, evaluate on test."""
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
            return trainer.teacher.params
        return trainer.student

    best_vals: dict | None = None
    best_m: Metrics | None = None
    train_log: list[dict] = []
    for step in range(t.total_steps):
        row = {**asdict(trainer.train_step()), "val_miou": ""}
        if (step + 1) % t.eval_every == 0 or step + 1 == t.total_steps:
            m = evaluate_pairs(predict_split(eval_params(), dataset,
                                             dataset.split.val, cfg.model),
                               "val", step + 1)
            row["val_miou"] = m.miou
            if best_m is None or m.miou > best_m.miou:
                best_m = m
                best_vals = eval_params().values_dict()
        train_log.append(row)

    best_params = init_params(cfg.model, 0)
    best_params.load_values(best_vals)
    test_pairs = list(predict_split(best_params, dataset, dataset.split.test,
                                    cfg.model))
    test_m = evaluate_pairs(test_pairs, "test", best_m.step)

    checkpoint = {f"student.{k}": v for k, v in
                  trainer.student.values_dict().items()}
    if trainer.teacher is not None:
        checkpoint.update({f"teacher.{k}": v for k, v in
                           trainer.teacher.params.values_dict().items()})
    checkpoint.update({f"best.{k}": v for k, v in best_vals.items()})

    pred, gt = test_pairs[0]
    preview = {"pred": pred.copy(), "gt": gt.copy()}
    return RunResult(spec.scenario, spec.variant.name, spec.seed, best_m.step,
                     best_m, test_m, train_log, checkpoint, preview)


def _failed_run(spec: RunSpec, error: str) -> RunResult:
    return RunResult(spec.scenario, spec.variant.name, spec.seed, 0, None,
                     None, [], {}, {}, error=error)


def _run_one_safe(spec: RunSpec) -> RunResult:
    try:
        return run_one(spec)
    except Exception:
        return _failed_run(spec, traceback.format_exc(limit=10))


def _worker_result(future, spec: RunSpec, retry: bool = True) -> RunResult:
    """The run's result.  A dying worker breaks the whole pool, so each run
    cut off runs once more alone; it fails only if that worker dies too."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        if not retry:
            return _failed_run(spec, f"worker process died: {exc}")
    with ProcessPoolExecutor(1, mp_context=_FORK) as pool:
        return _worker_result(pool.submit(_run_one_safe, spec), spec, False)


# ------------------------------------------------------- scenario variants --

# the teacher-student core: no feature similarity, threshold or fusion
CORE_OVERRIDES = {"w_feat": 0.0, "threshold": None, "fusion_mode": "none"}


def components_variants(_cfg) -> list[Variant]:
    """Incremental component stack: Core, +Augs, +Fusion, +Featsim, +Thr, +Hard."""
    return [
        Variant("Core", augment=AugmentConfig.none(), overrides=CORE_OVERRIDES),
        Variant("+Augs", overrides=CORE_OVERRIDES),
        Variant("+Fusion", overrides={"w_feat": 0.0, "threshold": None}),
        Variant("+Featsim", overrides={"threshold": None}),
        Variant("+Thr"),
        Variant("+Hard", overrides={"hard": True}),
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
                               "hard": hard})
            for tau in (0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)
            for hard in (False, True)]


def temperature_variants(_cfg) -> list[Variant]:
    # "thr" keeps the configured threshold
    return [Variant(f"T{temp:g}+{name}",
                    overrides={"w_feat": 0.0, "fusion_mode": "none",
                               "temperature": temp, **over})
            for temp in (0.05, 0.1, 0.25, 0.5, 0.75, 0.95)
            for name, over in (("nothr", {"threshold": None}), ("thr", {}),
                               ("thr+hard", {"hard": True}))]


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
                               for n in cfg.eval.adapt_unlabelled_counts],
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
    scenario: str
    results: list[RunResult]
    aggregates: list[dict]

    def csv_rows(self) -> list[str]:
        rows = [METRICS_HEADER]
        for r in self.results:
            if r.error is not None:
                continue
            last = r.train_log[-1]
            for metrics in (r.val, r.test):
                for c, name in enumerate(CLASS_NAMES):
                    iou = metrics.per_class[c]
                    rows.append(",".join([
                        r.scenario, r.variant, str(r.seed), str(r.best_step),
                        metrics.split, name,
                        _fmt(iou) if iou is not None else "", "", "", "", ""]))
                rows.append(",".join([
                    r.scenario, r.variant, str(r.seed), str(r.best_step),
                    metrics.split, "all", "", _fmt(metrics.miou),
                    _fmt(last["loss_sup"]), _fmt(last["loss_cls"]),
                    _fmt(last["loss_feat"])]))
        return rows

    def csv_text(self) -> str:
        return "\n".join(self.csv_rows()) + "\n"

    @property
    def errors(self) -> list[RunResult]:
        return [r for r in self.results if r.error is not None]


def _fmt(x: float) -> str:
    return repr(float(x))


def _log_cell(value) -> str:
    """Train-log cell: the step as an integer, floats round-tripping, and
    an empty cell where no validation ran."""
    if isinstance(value, int) or value == "":
        return str(value)
    return _fmt(value)


def expand_runs(cfg: ScenarioConfig) -> list[RunSpec]:
    return [RunSpec(cfg.name, v, seed, cfg)
            for v in scenario_variants(cfg) for seed in cfg.eval.seeds]


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> ResultsTable:
    specs = expand_runs(cfg)
    # seed-major, so that runs sharing a dataset run back to back
    todo = sorted(specs, key=lambda s: s.seed)
    if workers > 1 and len(todo) > 1:
        with ProcessPoolExecutor(min(workers, len(todo)),
                                 mp_context=_FORK) as pool:
            futures = [pool.submit(_run_one_safe, s) for s in todo]
        results = [_worker_result(f, s) for f, s in zip(futures, todo)]
    else:
        results = [_run_one_safe(s) for s in todo]

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
    return ResultsTable(cfg.name, results, aggregates)


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


def export_artifacts(table: ResultsTable, cfg: ScenarioConfig, out_dir) -> None:
    """Metrics CSV, canonical config echo, checkpoints, logs, and images."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(table.csv_text())
    (out / "config_echo.json").write_text(canonical_json(cfg.to_dict()))
    (out / "aggregates.json").write_text(canonical_json(
        {"scenario": table.scenario, "aggregates": table.aggregates}))
    if table.errors:
        (out / "errors.txt").write_text("\n\n".join(
            f"{r.variant} seed={r.seed}\n{r.error}" for r in table.errors))
    for r in table.results:
        if r.error is not None:
            continue
        tag = f"{_safe(r.variant)}_s{r.seed}"
        save_checkpoint(out / f"run_{tag}.ckpt", r.checkpoint)
        lines = [",".join(r.train_log[0])]
        lines += [",".join(map(_log_cell, row.values())) for row in r.train_log]
        (out / f"train_log_{tag}.csv").write_text("\n".join(lines) + "\n")
        export_raster_images(out, f"pred_{tag}", r.preview["pred"])
        export_raster_images(out, f"gt_{tag}", r.preview["gt"])


def _safe(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_@." else "_" for ch in name)


def load_checkpoint_params(path, model_cfg: ModelConfig, which: str = "best",
                           ) -> ParamSet:
    """Rebuild a ParamSet from a prefixed run checkpoint or a bare one; it
    must hold exactly the model's parameters."""
    raw = load_checkpoint(path)
    prefix = which + "."
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
