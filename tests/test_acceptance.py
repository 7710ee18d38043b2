"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-6 are exact property checks and criterion 10 reruns a small
ablation grid.  The trend criteria 7-9 are not implemented here.
"""

import json
import math
import time

import numpy as np
import pytest

from bevssl.augment import AugmentConfig
from bevssl.autograd import (ParamSet, Tape, Tensor, backward,
                             finite_difference_check, forward_op,
                             load_checkpoint, save_checkpoint)
from bevssl.bench import (ScenarioConfig, config_from_dict, evaluate_pairs,
                          expand_runs, run_one, run_scenario)
from bevssl.cli import main as cli_main
from bevssl.engine import (OptimConfig, SslConfig, Trainer, ema_update,
                           fuse_teacher, make_pseudo_labels, prob_logit,
                           sharpen)
from bevssl.geometry import GridSpec, Pose2, Raster, SMALL_GRID, warp_raster
from bevssl.losses import LossWeights, focal_loss
from bevssl.model import ForwardTrace, ModelConfig, forward, init_params
from bevssl.rng import Stream
from bevssl.world import CITY_A, build_dataset, compute_sector_map

from helpers_fd import ALL_KINDS, make_case
from helpers_geo import (fuse_probs_bruteforce, random_pose,
                         random_prob_raster, warp_nearest_bruteforce)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{criterion} failed: {detail}"


# --------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_correctness():
    t0 = time.time()
    worst = 0.0
    for kind in ALL_KINDS:
        for case in range(100):
            params, f = make_case(kind, Stream(9000 + case).child(kind))
            report = finite_difference_check(f, params, eps=1e-5, tol=1e-4)
            worst = max(worst, report.max_error)
            assert report.passed, (kind, case, report.failures[:3])

    cfg = ModelConfig(enc_widths=(3, 4), lift_channels=4, dec_widths=(3,))
    params = init_params(cfg, 11)
    obs = Stream(12).uniforms(5 * 8 * 8, 0.0, 1.0).reshape(5, 8, 8)
    gt = (Stream(13).uniforms(3 * 8 * 8).reshape(3, 8, 8) > 0.8).astype(float)

    def model_loss(ps):
        tape = Tape()
        trace = forward(ps, obs, None, tape, cfg)
        loss, _ = focal_loss(trace.probs, gt[None],
                             np.ones((1, 3, 8, 8), dtype=bool), 2.0, 0.25)
        return loss

    rep = finite_difference_check(model_loss, params, eps=1e-5, tol=1e-4)
    worst = max(worst, rep.max_error)
    elapsed = time.time() - t0
    _report("C1 gradient-correctness", rep.passed and elapsed < 120,
            f"(max rel err {worst:.2e}, {elapsed:.0f}s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_ema_geometric_law():
    cfg = ModelConfig(enc_widths=(3,), lift_channels=4, dec_widths=(3,))
    student = init_params(cfg, 1)
    worst = 0.0
    for alpha in (0.9, 0.99, 0.999):
        teacher = init_params(cfg, 2)
        delta0 = {n: teacher[n].values - student[n].values
                  for n in student.names()}
        for k in range(1, 201):
            ema_update(teacher, student, alpha)
            for n in student.names():
                expect = (alpha ** k) * delta0[n]
                err = np.abs((teacher[n].values - student[n].values)
                             - expect).max()
                worst = max(worst, err)
        assert worst < 1e-12, (alpha, worst)
    _report("C2 ema-law", worst < 1e-12, f"(max dev {worst:.2e})")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_warp_and_fusion_oracles():
    spec = GridSpec(-4.0, 4.0, -4.0, 4.0, 0.5)  # 16 x 16
    for case in range(100):
        st = Stream(20_000 + case)
        src = random_prob_raster(st, spec)
        src.valid[st.uniforms(256).reshape(16, 16) < 0.12] = False
        a, b = random_pose(st), random_pose(st)
        fast = warp_raster(src, a, b, "nearest")
        slow = warp_nearest_bruteforce(src, a, b)
        assert np.array_equal(fast.valid, slow.valid), case
        assert np.array_equal(fast.values, slow.values), case

    for case in range(100):
        st = Stream(30_000 + case)
        cur = random_prob_raster(st, spec).values
        extras = [(fi, random_pose(st, span=3.0),
                   random_prob_raster(st, spec).values) for fi in (1, 2)]
        got = fuse_teacher(
            _trace_from_probs(cur),
            [(fi, pose, _trace_from_probs(p)) for fi, pose, p in extras],
            "probs", spec, current_index=0)
        want_vals, want_prov = fuse_probs_bruteforce(spec, cur, 0, extras)
        assert np.array_equal(got.probs.values, want_vals), case
        assert np.array_equal(got.provenance, want_prov), case
    _report("C3 warp-fusion-oracles", True,
            "(100 warp + 100 fusion cases bit-equal)")


def _trace_from_probs(probs: np.ndarray) -> ForwardTrace:
    t = Tensor(probs[None])
    return ForwardTrace(t, t, t, Tensor(prob_logit(probs)[None]), t)


# --------------------------------------------------------------- criterion 4

def test_criterion_4_pseudo_label_pipeline():
    spec = GridSpec(0.0, 6.0, 0.0, 6.0, 1.0)
    for case in range(100):
        st = Stream(40_000 + case)
        p = st.uniforms(3 * 36, 0.01, 0.99).reshape(3, 6, 6)
        valid = st.uniforms(36).reshape(6, 6) < 0.85
        tau = st.uniform(0.5, 0.95)
        bundle = make_pseudo_labels(
            Raster(spec, p, valid),
            SslConfig(threshold=tau, fusion_mode="none"))
        brute = sum(1 for c in range(3) for r in range(6) for q in range(6)
                    if valid[r, q] and max(p[c, r, q], 1 - p[c, r, q]) >= tau)
        assert bundle.mask.count == brute, case

    z = Stream(41_000).uniforms(10_000, -6.0, 6.0)
    z = np.where(np.abs(z) < 1e-6, 0.5, z)
    assert np.array_equal(sharpen(z, 1.0), z)
    p1 = 1.0 / (1.0 + np.exp(-z))
    for temp in (0.25, 0.5, 0.9):
        ps = 1.0 / (1.0 + np.exp(-sharpen(z, temp)))
        assert (np.abs(ps - 0.5) > np.abs(p1 - 0.5)).all(), temp
    for temp in (1.5, 2.0, 4.0):
        ps = 1.0 / (1.0 + np.exp(-sharpen(z, temp)))
        assert (np.abs(ps - 0.5) < np.abs(p1 - 0.5)).all(), temp

    st = Stream(42_000)
    p = st.uniforms(3 * 36, 0.01, 0.99).reshape(3, 6, 6)
    hard = make_pseudo_labels(
        Raster(spec, p), SslConfig(threshold=0.6, hard=True,
                                   fusion_mode="none"))
    assert set(np.unique(hard.targets)) <= {0.0, 1.0}
    _report("C4 pseudo-label-pipeline", True,
            "(mask counts exact, sharpening strict, hard binary)")


# --------------------------------------------------------------- criterion 5

def test_criterion_5_masking_soundness():
    spec = GridSpec(-4.0, 4.0, -4.0, 4.0, 0.5)
    sectors = compute_sector_map(spec)
    for case in range(50):
        st = Stream(50_000 + case)
        p = st.uniforms(3 * 256, 0.01, 0.99).reshape(3, 16, 16)
        gt = (st.uniforms(3 * 256).reshape(3, 16, 16) > 0.7).astype(float)

        # build a combined exclusion: camera sectors + warp invalidity +
        # confidence threshold
        from bevssl.augment import camdrop
        obs = Raster(spec, st.uniforms(5 * 256, 0, 1).reshape(5, 16, 16))
        _, fov = camdrop(obs, sectors, st.child("cam"), n_drop=2)

        src = random_prob_raster(st.child("warp"), spec)
        warped = warp_raster(src, Pose2(0, 0, 0),
                             Pose2(st.uniform(-2, 2), st.uniform(-2, 2), 0.4),
                             "nearest")
        bundle = make_pseudo_labels(
            Raster(spec, p, warped.valid),
            SslConfig(threshold=0.6, fusion_mode="none"))
        mask = bundle.mask.intersect(fov)
        excluded = ~mask.include
        if not excluded.any() or not mask.include.any():
            continue

        base, n = focal_loss(Tensor(p), gt, mask.include, 2.0, 0.25)
        p2 = p.copy()
        gt2 = gt.copy()
        p2[excluded] = st.uniforms(int(excluded.sum()), 0.01, 0.99)
        gt2[excluded] = 1.0 - gt2[excluded]
        pert, n2 = focal_loss(Tensor(p2), gt2, mask.include, 2.0, 0.25)
        assert n == n2
        assert pert.item() == base.item(), case
    _report("C5 masking-soundness", True, "(50 cases bit-identical)")


# --------------------------------------------------------------- criterion 6

def test_criterion_10_reproducibility(tmp_path):
    doc = {
        "kind": "components",
        "name": "repro",
        "world": {"n_worlds": 8, "seqs_per_world": 1, "n_frames": 5,
                  "val_worlds": 1, "test_worlds": 2, "utilisation": 0.34},
        "model": {"enc_widths": [4, 6], "lift_channels": 6,
                  "dec_widths": [6]},
        "train": {"total_steps": 60, "eval_every": 30},
        "eval": {"seeds": [0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["ablate", "--config", str(cfg_path), "--out",
                     str(out1)]) == 0
    assert cli_main(["ablate", "--config", str(cfg_path), "--out",
                     str(out2)]) == 0
    csv1 = (out1 / "metrics.csv").read_bytes()
    csv2 = (out2 / "metrics.csv").read_bytes()
    assert csv1 == csv2

    identical_ckpts = True
    for ckpt in sorted(out1.glob("run_*.ckpt")):
        restored = tmp_path / ("rt_" + ckpt.name)
        save_checkpoint(restored, load_checkpoint(ckpt))
        identical_ckpts &= restored.read_bytes() == ckpt.read_bytes()
        identical_ckpts &= (out2 / ckpt.name).read_bytes() == ckpt.read_bytes()
    _report("C10 reproducibility", csv1 == csv2 and identical_ckpts,
            f"({len(csv1)} byte CSV identical, checkpoints bit-exact)")


def test_criterion_6_degenerate_weight_equivalence():
    cfg = ModelConfig(enc_widths=(4, 6), lift_channels=8, dec_widths=(4, 6))
    ds = build_dataset(SMALL_GRID, CITY_A, 4242, n_worlds=8, seqs_per_world=1,
                       n_frames=6, utilisation=0.4, val_worlds=1,
                       test_worlds=2)
    common = dict(seed=7, total_steps=200, batch_labelled=1,
                  batch_unlabelled=1)
    ssl = Trainer(ds, cfg, LossWeights(), AugmentConfig(),
                  SslConfig(w_cls=0.0, w_feat=0.0), OptimConfig(),
                  ssl=True, **common)
    sup = Trainer(ds, cfg, LossWeights(), AugmentConfig(), SslConfig(),
                  OptimConfig(), ssl=False, **common)
    for _ in range(200):
        ssl.train_step()
        sup.train_step()
    for name in ssl.student.names():
        assert np.array_equal(ssl.student[name].values,
                              sup.student[name].values), name
    _report("C6 degenerate-weights", True,
            "(200 steps bit-identical trajectories)")
