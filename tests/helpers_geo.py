"""Brute-force per-cell oracles for warping and fusion, shared with the
acceptance suite.  These walk every destination cell with scalar arithmetic
that mirrors the production formulas exactly, so agreement must be bit-level.
"""

from __future__ import annotations

import math

import numpy as np

from bevssl.geometry import GridSpec, Pose2, Raster, relative_pose


def warp_nearest_bruteforce(src: Raster, src_pose: Pose2,
                            dst_pose: Pose2) -> Raster:
    spec = src.spec
    rel = relative_pose(src_pose, dst_pose)
    c, s = math.cos(rel.yaw), math.sin(rel.yaw)
    out = np.zeros_like(src.values)
    valid = np.zeros((spec.rows, spec.cols), dtype=bool)
    for r in range(spec.rows):
        for q in range(spec.cols):
            x = spec.x_min + (r + 0.5) * spec.cell
            y = spec.y_min + (q + 0.5) * spec.cell
            sx = rel.x + c * x - s * y
            sy = rel.y + s * x + c * y
            rr = math.floor((sx - spec.x_min) / spec.cell)
            qq = math.floor((sy - spec.y_min) / spec.cell)
            if 0 <= rr < spec.rows and 0 <= qq < spec.cols and src.valid[rr, qq]:
                valid[r, q] = True
                out[:, r, q] = src.values[:, rr, qq]
    return Raster(spec, out, valid)


def warp_bilinear_bruteforce(src: Raster, src_pose: Pose2,
                             dst_pose: Pose2) -> Raster:
    spec = src.spec
    rel = relative_pose(src_pose, dst_pose)
    c, s = math.cos(rel.yaw), math.sin(rel.yaw)
    out = np.zeros_like(src.values)
    valid = np.zeros((spec.rows, spec.cols), dtype=bool)
    for r in range(spec.rows):
        for q in range(spec.cols):
            x = spec.x_min + (r + 0.5) * spec.cell
            y = spec.y_min + (q + 0.5) * spec.cell
            u = (rel.x + c * x - s * y - spec.x_min) / spec.cell - 0.5
            v = (rel.y + s * x + c * y - spec.y_min) / spec.cell - 0.5
            r0, q0 = math.floor(u), math.floor(v)
            if not (0 <= r0 < spec.rows - 1 and 0 <= q0 < spec.cols - 1):
                continue
            if not src.valid[r0:r0 + 2, q0:q0 + 2].all():
                continue
            fu, fv = u - r0, v - q0
            valid[r, q] = True
            for ch in range(src.channels):
                px = src.values[ch]
                out[ch, r, q] = (px[r0, q0] * ((1 - fu) * (1 - fv))
                                 + px[r0 + 1, q0] * (fu * (1 - fv))
                                 + px[r0, q0 + 1] * ((1 - fu) * fv)
                                 + px[r0 + 1, q0 + 1] * (fu * fv))
    return Raster(spec, out, valid)


def fuse_probs_bruteforce(spec: GridSpec, current_probs: np.ndarray,
                          current_index: int,
                          extras: list[tuple[int, Pose2, np.ndarray]],
                          warp=warp_nearest_bruteforce):
    """Per-cell max-confidence fusion enumerator.

    extras: (frame_index, pose of that frame in the current frame, probs);
    warp(src, src_pose, dst_pose) resamples each extra into the current frame.
    Returns (fused probs, provenance).
    """
    identity = Pose2(0.0, 0.0, 0.0)
    fused = current_probs.copy()
    prov = np.full(current_probs.shape, current_index, dtype=np.int64)
    warped = [(fi, warp(Raster(spec, probs), rel, identity))
              for fi, rel, probs in sorted(extras, key=lambda e: e[0])]
    for r in range(spec.rows):
        for q in range(spec.cols):
            for ch in range(current_probs.shape[0]):
                best = abs(current_probs[ch, r, q] - 0.5)
                for fi, w in warped:
                    if not w.valid[r, q]:
                        continue
                    conf = abs(w.values[ch, r, q] - 0.5)
                    if conf > best:
                        best = conf
                        fused[ch, r, q] = w.values[ch, r, q]
                        prov[ch, r, q] = fi
    return fused, prov


def random_pose(stream, span=6.0) -> Pose2:
    return Pose2(stream.uniform(-span, span), stream.uniform(-span, span),
                 stream.uniform(-math.pi, math.pi))


def random_prob_raster(stream, spec: GridSpec, channels=3) -> Raster:
    vals = stream.uniforms(channels * spec.rows * spec.cols, 0.01, 0.99)
    return Raster(spec, vals.reshape(channels, spec.rows, spec.cols))
