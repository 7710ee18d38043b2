"""The benchmark's loss reference gate, run as a test: numerical drift in a
rewrite of the model or the trainer fails here, not only in the benchmark."""

import sys
from pathlib import Path

import pytest

from bevssl import bench

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["ssl_small", "fusion_feats6_small"])
def test_reference_losses_match(name):
    wl = workloads.WORKLOADS[name]
    trainer = workloads.build_trainer(bench.config_from_dict(wl.config),
                                      workloads.REFERENCE_SEED)
    checks = workloads.Checks()
    workloads.reference_gate(trainer, wl, checks)
    assert checks.attempted == len(wl.ref_losses) + 1
    assert checks.failed == 0, checks.errors
