"""Finite-difference verification of every differentiable operation.

Each case builds a fixed seeded instance, reduces array outputs to a scalar
through a frozen projection, and compares the hand-derived gradients against
central differences. ``corrupt`` deliberately mis-scales one case's first
gradient so the negative path is testable.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from . import numkit as nk
from .adapters import AdapterParams, CiaConfig, cia_forward, dual_forward, init_adapter
from .encoders import PointEncoderParams, encode_points, init_point_encoder
from .evaluate import probe_layer_loss
from .losses import LossConfig, contrastive_loss, trimodal_loss

TOLERANCE = 1e-6


class GradcheckResult(NamedTuple):
    name: str
    max_rel_error: float


def _unit_rows(rng, n, d):
    return nk.l2_normalize(rng.normal(size=(n, d))).value


def _projected(forward, w):
    """Check function for an array-valued op: the scalar sum(w * out) and its gradients."""

    def f(params):
        out = forward(params)
        return float(np.sum(w * out.value)), list(out.backward(w))

    return f


def _scalar(forward):
    """Check function for a scalar-valued op: its value and its gradients."""

    def f(params):
        out = forward(params)
        return float(out.value), list(out.backward(1.0))

    return f


def _case_matmul():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    w = rng.normal(size=(3, 2))
    return _projected(lambda p: nk.matmul(p[0], p[1]), w), [a, b]


def _case_relu():
    rng = np.random.default_rng(12)
    # keep pre-activations away from the kink so central differences stay on one branch
    x = rng.uniform(0.05, 1.0, size=(5, 7)) * rng.choice([-1.0, 1.0], size=(5, 7))
    w = rng.normal(size=(5, 7))
    return _projected(lambda p: nk.relu(p[0]), w), [x]


def _case_gelu():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 7))
    w = rng.normal(size=(5, 7))
    return _projected(lambda p: nk.gelu(p[0]), w), [x]


def _case_normalize_vector():
    rng = np.random.default_rng(14)
    x = rng.normal(size=8)
    w = rng.normal(size=8)
    return _projected(lambda p: nk.l2_normalize(p[0]), w), [x]


def _case_normalize_rows():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 6))
    return _projected(lambda p: nk.l2_normalize(p[0]), w), [x]


def _case_cia():
    rng = np.random.default_rng(17)
    # generic-scale weights: the shipped near-identity init makes analytic
    # gradients so small that finite-difference truncation noise dominates
    w1 = rng.normal(size=(8, 6)) * 0.7
    w2 = rng.normal(size=(6, 8)) * 0.7
    x = _unit_rows(rng, 3, 8)
    w = rng.normal(size=(3, 8))
    cfg = CiaConfig(0.2)
    return _projected(lambda p: cia_forward(p[0], AdapterParams(p[1], p[2]), cfg), w), [x, w1, w2]


def _case_dual():
    rng = np.random.default_rng(18)
    a = init_adapter(8, 16, 180, "dual")
    x = _unit_rows(rng, 3, 8)
    w = rng.normal(size=(3, 8))
    return _projected(lambda p: dual_forward(p[0], AdapterParams(p[1], p[2])), w), [x, a.w1, a.w2]


def _case_contrastive():
    rng = np.random.default_rng(20)
    fa = _unit_rows(rng, 5, 6)
    fb = _unit_rows(rng, 5, 6)
    cfg = LossConfig(0.1)
    return _scalar(lambda p: contrastive_loss(p[0], fb, cfg)), [fa]


def _case_trimodal():
    rng = np.random.default_rng(21)
    f_sp = _unit_rows(rng, 4, 6)
    f_vp = _unit_rows(rng, 4, 6)
    texts = _unit_rows(rng, 4, 6)
    views = [_unit_rows(rng, 4, 6) for _ in range(2)]
    cfg = LossConfig(0.07)
    return _scalar(lambda p: trimodal_loss(p[0], texts, p[1], views, cfg)), [f_sp, f_vp]


def _case_point_encoder():
    rng = np.random.default_rng(22)
    pe = init_point_encoder(6, 5, 220)
    cloud = rng.normal(size=(12, 3))
    w = rng.normal(size=5)
    return _projected(lambda p: encode_points(cloud, PointEncoderParams(*p)), w), [pe.w1, pe.w2, pe.head]


def _case_stage2_composite():
    rng = np.random.default_rng(23)
    pe = init_point_encoder(6, 5, 230)
    iaa = init_adapter(5, 4, 231, "dual")
    taa = init_adapter(5, 4, 232, "dual")
    clouds = rng.normal(size=(4, 12, 3))
    texts = _unit_rows(rng, 4, 5)
    views = [_unit_rows(rng, 4, 5) for _ in range(2)]
    cfg = LossConfig(0.07)

    def f(params):
        enc = encode_points(clouds, PointEncoderParams(params[0], params[1], params[2]))
        vp = dual_forward(enc.value, AdapterParams(params[3], params[4]))
        sp = dual_forward(enc.value, AdapterParams(params[5], params[6]))
        out = trimodal_loss(sp.value, texts, vp.value, views, cfg)
        d_sp, d_vp = out.backward(1.0)
        g_fp_t, g_t1, g_t2 = sp.backward(d_sp)
        g_fp_v, g_v1, g_v2 = vp.backward(d_vp)
        g_w1, g_w2, g_head = enc.backward(g_fp_t + g_fp_v)
        return float(out.value), [g_w1, g_w2, g_head, g_v1, g_v2, g_t1, g_t2]

    return f, [pe.w1, pe.w2, pe.head, iaa.w1, iaa.w2, taa.w1, taa.w2]


def _case_probe_layer():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(6, 4))
    w = rng.normal(size=(4, 3)) * 0.1
    b = rng.normal(size=3) * 0.1
    labels = rng.integers(0, 3, size=6)
    return _scalar(lambda p: probe_layer_loss(x, p[0], p[1], labels)), [w, b]


CASES: dict[str, Callable] = {
    "matmul": _case_matmul,
    "relu": _case_relu,
    "gelu": _case_gelu,
    "l2_normalize_vector": _case_normalize_vector,
    "l2_normalize_rows": _case_normalize_rows,
    "cia_forward": _case_cia,
    "dual_forward": _case_dual,
    "contrastive_loss": _case_contrastive,
    "trimodal_loss": _case_trimodal,
    "point_encoder": _case_point_encoder,
    "stage2_composite": _case_stage2_composite,
    "probe_layer": _case_probe_layer,
}


def run_gradcheck(corrupt: str | None = None) -> list[GradcheckResult]:
    """Run every case; ``corrupt`` mis-scales one case's first analytic gradient."""
    results = []
    for name, builder in CASES.items():
        f, params = builder()
        if corrupt == name:
            inner = f

            def f(p, _inner=inner):
                value, grads = _inner(p)
                return value, [grads[0] * 1.001, *grads[1:]]

        results.append(GradcheckResult(name, nk.finite_diff_check(f, params)))
    return results


def all_pass(results: list[GradcheckResult]) -> bool:
    return all(r.max_rel_error < TOLERANCE for r in results)
