"""bevssl benchmark: closed-loop SSL training workloads.

    python3 perfbench/run.py --workload ssl_small --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  One workload runs in this process; `all` runs
each workload in a fresh process of its own, one at a time.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics of a
traced run with `--trace 1`.  See README.md next to this file.
"""

import os

# BLAS threads are pinned before numpy loads, in every workload process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("ssl_small", "fusion_feats6_small", "ssl_paper")
RUN_TIMEOUT_S = 900

END_TO_END = (("setup_s", "s"), ("step_ms_p50", "ms"), ("steps_per_s", "1/s"),
              ("eval_frames_per_s", "1/s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1,
                    help="workload seed; claims must also hold on the "
                         "hold-out seed 1009")
    ap.add_argument("--seconds", type=int, default=15,
                    help="length of the measured training window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            **{var: os.environ[var] for var in THREAD_VARS}}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    res = workloads.run_workload(args.workload, args.seed, args.seconds,
                                 tracer)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "config_sha256": res["config_sha256"],
            "steps_measured": res["steps"], "eval_frames": res["eval_frames"],
            "test_miou": res["test_miou"], "errors": res["errors"],
            "env": environment()}
    print("info " + json.dumps(info, sort_keys=True))

    if tracer is None:
        metrics = {name: {"value": res[name], "unit": unit}
                   for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"{args.workload}  {name:<18} {res[name]:12.4f} {unit}")
        p90 = res["step_ms_p90"]
        print(f"{args.workload}  {'step_ms_p90':<18} "
              + (f"{p90:12.4f} ms" if p90 is not None else
                 f"{'n/a':>12} ms (needs >= {workloads.P90_MIN_STEPS} steps)")
              + f"  [{res['steps']} steps]")
        print(f"{args.workload}  {'failed_frac':<18} "
              f"{res['failed_frac']:12.4f} ratio  "
              f"[{res['failed']}/{res['attempted']}]")
    else:
        metrics = tracer.metrics(res["step_ms"], res["traced_step_ms"])
        for name, m in metrics.items():
            print(f"{args.workload}  {name:<40} {m['value']:14.4f} "
                  f"{m['unit']}")
        out_dir = Path(".perfbench-out")
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans_{args.workload}_s{args.seed}.json"
        path.write_text(json.dumps({"info": info, "spans": tracer.spans}))
        print(f"spans written to {path}")

    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    result = {"correct": res["failed"] == 0 and finite,
              "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS and caches never carry
    over from one workload to the next."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} failed with exit code {proc.returncode}",
                  file=sys.stderr)
            return 3
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, val in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bevssl" / "__init__.py").is_file():
        print(f"bevssl sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
