"""Command-line interface.

Subcommands: gen-world, train, eval.  A run's settings are its config file,
and a checkpoint's run is named by its file and the `config_echo.json` beside
it; the flags say where to read and write.  Exit codes: 0 success,
2 configuration error, 3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench
from .bench import (canonical_json, evaluate_pairs, load_checkpoint_params,
                    load_config, run_scenario)
from .errors import ConfigurationError, ContractError, NumericError
from .world import STYLE_PRESETS, generate_world


def _at_least_one(text: str) -> int:
    """An integer >= 1, else an argparse error (exit 2)."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="bevssl",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-world", help="generate a synthetic map world")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--style", choices=sorted(STYLE_PRESETS), default="city_A")
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="run every run of the config's kind")
    t.add_argument("--config", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--threads", type=_at_least_one, default=1,
                   help="worker processes for independent runs")

    e = sub.add_parser("eval", help="score a run's checkpoint on its val "
                                    "and test splits")
    e.add_argument("--checkpoint", required=True,
                   help="run_<variant>_s<seed>.ckpt beside its grid's "
                        "config_echo.json")
    e.add_argument("--out", required=True)
    return ap


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


def cmd_train(args) -> int:
    table = run_scenario(load_config(args.config), args.out,
                         workers=args.threads)
    for agg in table.aggregates:
        print(f"{agg['variant']}: mIoU {agg['mean_miou']:.4f} "
              f"+- {agg['std_miou']:.4f} (n={agg['n']})")
    if table.errors:
        print(f"{len(table.errors)} run(s) failed; see errors.txt",
              file=sys.stderr)
        return 3
    return 0


def cmd_eval(args) -> int:
    ckpt = Path(args.checkpoint)
    echo = ckpt.parent / "config_echo.json"
    cfg = load_config(echo)
    runs = {f"run_{bench.run_tag(s)}.ckpt": s for s in bench.expand_runs(cfg)}
    if ckpt.name not in runs:
        raise ConfigurationError(f"checkpoint {ckpt} names no run of {echo}")
    spec = runs[ckpt.name]
    params = load_checkpoint_params(ckpt, cfg.model)
    dataset = bench._build_run_dataset(spec)
    doc = {"variant": spec.variant.name, "seed": spec.seed}
    for split in ("val", "test"):
        metrics = evaluate_pairs(bench.predict_split(
            params, dataset, getattr(dataset.split, split), cfg.model),
            split, 0)
        doc[split] = {"miou": metrics.miou,
                      "per_class": dict(zip(bench.CLASS_NAMES,
                                            metrics.per_class))}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "eval.json").write_text(canonical_json(doc))
    for split in ("val", "test"):
        print(f"{split} mIoU {doc[split]['miou']:.4f}")
    return 0


_COMMANDS = {"gen-world": cmd_gen_world, "train": cmd_train,
             "eval": cmd_eval}


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
