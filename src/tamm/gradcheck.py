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
from .losses import LossConfig, contrastive_loss, realign_loss, trimodal_loss

TOLERANCE = 1e-6


class GradcheckResult(NamedTuple):
    name: str
    max_rel_error: float


def _unit_rows(rng, n, d):
    return nk.l2_normalize(rng.normal(size=(n, d))).value


def _case_matmul():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    w = rng.normal(size=(3, 2))

    def f(params):
        out = nk.matmul(params[0], params[1])
        da, db = out.backward(w)
        return float(np.sum(w * out.value)), [da, db]

    return f, [a, b]


def _case_relu():
    rng = np.random.default_rng(12)
    # keep pre-activations away from the kink so central differences stay on one branch
    x = rng.uniform(0.05, 1.0, size=(5, 7)) * rng.choice([-1.0, 1.0], size=(5, 7))
    w = rng.normal(size=(5, 7))

    def f(params):
        out = nk.relu(params[0])
        (dx,) = out.backward(w)
        return float(np.sum(w * out.value)), [dx]

    return f, [x]


def _case_gelu():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(5, 7))
    w = rng.normal(size=(5, 7))

    def f(params):
        out = nk.gelu(params[0])
        (dx,) = out.backward(w)
        return float(np.sum(w * out.value)), [dx]

    return f, [x]


def _case_normalize_vector():
    rng = np.random.default_rng(14)
    x = rng.normal(size=8)
    w = rng.normal(size=8)

    def f(params):
        out = nk.l2_normalize(params[0])
        (dx,) = out.backward(w)
        return float(np.sum(w * out.value)), [dx]

    return f, [x]


def _case_normalize_rows():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 6))

    def f(params):
        out = nk.l2_normalize(params[0])
        (dx,) = out.backward(w)
        return float(np.sum(w * out.value)), [dx]

    return f, [x]


def _case_cia():
    rng = np.random.default_rng(17)
    # generic-scale weights: the shipped near-identity init makes analytic
    # gradients so small that finite-difference truncation noise dominates
    w1 = rng.normal(size=(8, 6)) * 0.7
    w2 = rng.normal(size=(6, 8)) * 0.7
    x = _unit_rows(rng, 3, 8)
    w = rng.normal(size=(3, 8))
    cfg = CiaConfig(0.2)

    def f(params):
        cur = AdapterParams(params[1], params[2], "relu")
        out = cia_forward(params[0], cur, cfg)
        dx, dw1, dw2 = out.backward(w)
        return float(np.sum(w * out.value)), [dx, dw1, dw2]

    return f, [x, w1, w2]


def _case_dual():
    rng = np.random.default_rng(18)
    p = init_adapter(8, 16, 180, "dual")
    x = _unit_rows(rng, 3, 8)
    w = rng.normal(size=(3, 8))

    def f(params):
        cur = AdapterParams(params[1], params[2], "gelu")
        out = dual_forward(params[0], cur)
        dx, dw1, dw2 = out.backward(w)
        return float(np.sum(w * out.value)), [dx, dw1, dw2]

    return f, [x, p.w1, p.w2]


def _case_contrastive():
    rng = np.random.default_rng(19)
    fa = _unit_rows(rng, 5, 6)
    fb = _unit_rows(rng, 5, 6)
    cfg = LossConfig(0.07)

    def f(params):
        out = contrastive_loss(params[0], params[1], cfg)
        da, db = out.backward(1.0)
        return float(out.value), [da, db]

    return f, [fa, fb]


def _case_realign():
    rng = np.random.default_rng(20)
    fa = _unit_rows(rng, 5, 6)
    fb = _unit_rows(rng, 5, 6)
    cfg = LossConfig(0.1)

    def f(params):
        out = realign_loss(params[0], fb, cfg)
        (da,) = out.backward(1.0)
        return float(out.value), [da]

    return f, [fa]


def _case_trimodal():
    rng = np.random.default_rng(21)
    f_sp = _unit_rows(rng, 4, 6)
    f_vp = _unit_rows(rng, 4, 6)
    texts = _unit_rows(rng, 4, 6)
    views = [_unit_rows(rng, 4, 6) for _ in range(2)]
    cfg = LossConfig(0.07)

    def f(params):
        out = trimodal_loss(params[0], texts, params[1], views, cfg)
        d_sp, d_vp = out.backward(1.0)
        return float(out.value), [d_sp, d_vp]

    return f, [f_sp, f_vp]


def _case_point_encoder():
    rng = np.random.default_rng(22)
    p = init_point_encoder(6, 5, 220)
    cloud = rng.normal(size=(12, 3))
    w = rng.normal(size=5)

    def f(params):
        cur = PointEncoderParams(params[0], params[1], params[2])
        out = encode_points(cloud, cur)
        dw1, dw2, dh = out.backward(w)
        return float(np.sum(w * out.value)), [dw1, dw2, dh]

    return f, [p.w1, p.w2, p.head]


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
        cur_pe = PointEncoderParams(params[0], params[1], params[2])
        cur_iaa = AdapterParams(params[3], params[4], "gelu")
        cur_taa = AdapterParams(params[5], params[6], "gelu")
        enc = encode_points(clouds, cur_pe)
        vp = dual_forward(enc.value, cur_iaa)
        sp = dual_forward(enc.value, cur_taa)
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

    def f(params):
        out = probe_layer_loss(x, params[0], params[1], labels)
        dw, db = out.backward(1.0)
        return float(out.value), [dw, db]

    return f, [w, b]


CASES: dict[str, Callable] = {
    "matmul": _case_matmul,
    "relu": _case_relu,
    "gelu": _case_gelu,
    "l2_normalize_vector": _case_normalize_vector,
    "l2_normalize_rows": _case_normalize_rows,
    "cia_forward": _case_cia,
    "dual_forward": _case_dual,
    "contrastive_loss": _case_contrastive,
    "realign_loss": _case_realign,
    "trimodal_loss": _case_trimodal,
    "point_encoder": _case_point_encoder,
    "stage2_composite": _case_stage2_composite,
    "probe_layer": _case_probe_layer,
}


def run_gradcheck(eps: float = 1e-5, corrupt: str | None = None) -> list[GradcheckResult]:
    """Run every case; ``corrupt`` mis-scales one case's first analytic gradient."""
    results = []
    for name, builder in CASES.items():
        f, params = builder()
        if corrupt == name:
            inner = f

            def f(p, _inner=inner):
                value, grads = _inner(p)
                return value, [grads[0] * 1.001, *grads[1:]]

        results.append(GradcheckResult(name, nk.finite_diff_check(f, params, eps)))
    return results


def all_pass(results: list[GradcheckResult], tolerance: float = TOLERANCE) -> bool:
    return all(r.max_rel_error < tolerance for r in results)
