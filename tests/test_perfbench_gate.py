"""The benchmark's loss reference gate, run as a test: numerical drift in a
rewrite of the model or the trainer fails here, not only in the benchmark.
Also a short traced run, so a signature the tracer's wrappers no longer fit
fails here too; and the benchmark's trainer held to a warm heap, where
steady steps take no page faults, and to a conv workspace no larger than its
band budget."""

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bevssl import autograd, bench

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["ssl_small", "fusion_feats6_small",
                                  "ssl_paper"])
def test_reference_losses_match(name):
    wl = workloads.WORKLOADS[name]
    trainer = workloads.build_trainer(bench.config_from_dict(wl.config),
                                      workloads.REFERENCE_SEED)
    checks = workloads.Checks()
    workloads.reference_gate(trainer, wl, checks)
    assert checks.attempted == len(wl.ref_losses) + 1
    assert checks.failed == 0, checks.errors


def test_traced_run_completes():
    """The tracer wraps engine and world functions by their positional
    signatures."""
    tracer = spans.Tracer()
    res = workloads.run_workload("fusion_feats6_small", 1, 1, tracer)
    assert res["failed"] == 0, res["errors"]
    metrics = tracer.metrics(res["step_ms"], res["traced_step_ms"])
    assert metrics["trace.steps_traced"]["value"] >= 1
    assert metrics["engine.teacher_frames_per_step"]["value"] == 7
    # the frame builders the tracer wraps run once per frame
    assert metrics["world.frames_built"]["value"] == 600
    assert metrics["world.rasterize_gt_per_frame"]["value"] == 1.0


# Per-step decoder multiply-adds (output cells x ci x k^2, in MMAC): three
# (seven) untaped teacher forwards and two taped labelled forwards run the
# decoder at its distinct cells; the unlabelled student's bevdrop forward
# runs the masked dec0 and a dense dec1.
_DECODER_MMAC = {
    "ssl_small": {"dec0": 5 * 22.1184 + 56.623104,
                  "dec1": 5 * 43.352064 + 56.623104},
    "fusion_feats6_small": {"dec0": 9 * 22.1184 + 56.623104,
                            "dec1": 9 * 43.352064 + 56.623104},
}


@pytest.mark.parametrize("name", ["ssl_small", "fusion_feats6_small"])
def test_decoder_runs_compactly_in_every_forward_but_the_masked_one(name):
    tracer = spans.Tracer()
    res = workloads.run_workload(name, 1, 1, tracer)
    assert res["failed"] == 0, res["errors"]
    metrics = tracer.metrics(res["step_ms"], res["traced_step_ms"])
    got = {layer: metrics[f"autograd.conv2d_mmac.{layer}"]["value"]
           for layer in ("dec0", "dec1")}
    assert got == pytest.approx(_DECODER_MMAC[name], rel=1e-12)
    assert metrics["autograd.conv2d_mmac.lift"]["value"] == pytest.approx(
        95.551488 if name == "ssl_small" else 159.25248, rel=1e-12)
    assert metrics["autograd.conv2d_mmac.head"]["value"] == pytest.approx(
        3.538944 if name == "ssl_small" else 5.89824, rel=1e-12)


def test_conv_workspace_stays_within_the_band_budget(monkeypatch):
    """im2col columns are built a band of output rows at a time, so three
    small-preset steps leave the shared workspace no larger than the band
    budget (one sample's full columns are 13.5 MB here)."""
    monkeypatch.setattr(autograd, "_workspace", np.empty(0))
    wl = workloads.WORKLOADS["ssl_small"]
    assert wl.config == {}
    trainer = workloads.build_trainer(bench.config_from_dict(wl.config),
                                      workloads.REFERENCE_SEED)
    for _ in range(3):
        trainer.train_step()
    assert 0 < autograd._workspace.nbytes <= 8 * autograd._BAND_DOUBLES


_FAULTS_PER_STEP = """
import resource, sys
import workloads
from bevssl import bench
wl = workloads.WORKLOADS[sys.argv[1]]
trainer = workloads.build_trainer(bench.config_from_dict(wl.config),
                                  workloads.REFERENCE_SEED)
for _ in range(3):
    trainer.train_step()
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    trainer.train_step()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or platform.libc_ver()[0] != "glibc",
                    reason="the warm heap is a glibc malloc property")
@pytest.mark.parametrize("name", ["ssl_small", "fusion_feats6_small"])
def test_steady_training_step_takes_no_page_faults(name):
    # a fresh process: this one's heap depends on the tests run before
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench"),
                            os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP, name],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=300,
                         check=True)
    faults = [int(v) for v in out.stdout.split()[-3:]]
    assert statistics.median(faults) <= 100, (
        f"page faults in each of three steady steps: {faults}")
