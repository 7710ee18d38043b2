"""Command-line interface.

Subcommands: gen-world, train, eval, ablate, adapt.  Exit codes:
0 success, 2 configuration error, 3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench
from .bench import (ScenarioConfig, canonical_json, evaluate_pairs,
                    load_checkpoint_params, load_config, run_scenario)
from .errors import ConfigurationError, ContractError, NumericError
from .geometry import GRID_PRESETS
from .world import STYLE_PRESETS, generate_world


def _at_least_one(text: str) -> int:
    """An integer >= 1, else an argparse error (exit 2)."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="override the first configured seed")
    p.add_argument("--preset", choices=sorted(GRID_PRESETS),
                   default=None, help="grid preset override")
    p.add_argument("--threads", type=_at_least_one, default=1,
                   help="worker processes for independent runs")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bevssl",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-world", help="generate a synthetic map world")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--style", choices=sorted(STYLE_PRESETS), default="city_A")
    g.add_argument("--out", required=True)

    for name, help_text in (("train", "run every run of the config's kind"),
                            ("ablate", "run an ablation scenario"),
                            ("adapt", "run the city-adaptation scenario")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        if name == "ablate":
            p.add_argument("--scenario", choices=sorted(bench.SCENARIOS),
                           default="components",
                           help="the set of runs (default: components)")
        _add_common(p)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--config", required=True)
    e.add_argument("--split", choices=("val", "test"), default="test")
    e.add_argument("--out", required=True)
    _add_common(e)
    return ap


def _load(args, **changes) -> ScenarioConfig:
    """The config a command runs: the file with `--preset`, `--seed` and
    `changes` applied; each `replace` checks the section it builds."""
    cfg = load_config(args.config)
    if args.preset:
        cfg = replace(cfg, world=replace(cfg.world, grid_preset=args.preset))
    if args.seed is not None:
        seeds = (args.seed, *cfg.eval.seeds[1:])
        cfg = replace(cfg, eval=replace(cfg.eval, seeds=seeds))
    return replace(cfg, **changes)


def cmd_gen_world(args) -> int:
    world = generate_world(args.seed, STYLE_PRESETS[args.style])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "seed": world.seed,
        "style": args.style,
        "extent": list(world.extent),
        "polylines": [{"class": cls, "vertices": v.tolist()}
                      for cls, v in world.polylines],
        "centerline_count": len(world.centerlines),
    }
    (out / "world.json").write_text(canonical_json(doc))
    counts = {}
    for cls, _ in world.polylines:
        counts[cls] = counts.get(cls, 0) + 1
    print(f"world seed={args.seed} style={args.style} "
          + " ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    return 0


def _run(cfg: ScenarioConfig, args) -> int:
    table = run_scenario(cfg, args.out, workers=args.threads)
    for agg in table.aggregates:
        print(f"{agg['variant']}: mIoU {agg['mean_miou']:.4f} "
              f"+- {agg['std_miou']:.4f} (n={agg['n']})")
    if table.errors:
        print(f"{len(table.errors)} run(s) failed; see errors.txt",
              file=sys.stderr)
        return 3
    return 0


def cmd_train(args) -> int:
    return _run(_load(args), args)


def cmd_ablate(args) -> int:
    cfg = _load(args, kind=args.scenario)
    return _run(replace(cfg, name=f"{cfg.name}-{args.scenario}"), args)


def cmd_adapt(args) -> int:
    return _run(_load(args, kind="city-adapt"), args)


def cmd_eval(args) -> int:
    cfg = _load(args)
    params = load_checkpoint_params(args.checkpoint, cfg.model)
    dataset = bench._build_run_dataset(bench.expand_runs(cfg)[0])
    seq_ids = dataset.split.val if args.split == "val" else dataset.split.test
    metrics = evaluate_pairs(bench.predict_split(params, dataset, seq_ids,
                                                 cfg.model), args.split, 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {"split": args.split, "miou": metrics.miou,
           "per_class": {name: metrics.per_class[i]
                         for i, name in enumerate(bench.CLASS_NAMES)}}
    (out / "eval.json").write_text(canonical_json(doc))
    print(f"{args.split} mIoU {metrics.miou:.4f}")
    return 0


_COMMANDS = {"gen-world": cmd_gen_world, "train": cmd_train,
             "eval": cmd_eval, "ablate": cmd_ablate, "adapt": cmd_adapt}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ContractError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
