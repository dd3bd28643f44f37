"""Feature adapters: the residual image re-alignment adapter (cia) and the
two-layer dual heads (iaa/taa) that split point features into an
image-aligned and a text-aligned sub-space.

All adapters are bias-free two-layer maps sigma(x @ w1) @ w2 followed by
row normalization; the role fixes sigma (relu for the cia, gelu for the dual
heads), and the cia additionally blends its correction with the input
through a residual weight alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .errors import ConfigError, ShapeError
from .numkit import GradPair

CIA_W2_INIT_SCALE = 1e-3  # near-zero second layer keeps the initial cia close to identity


@dataclass(frozen=True)
class CiaConfig:
    """Residual blend weight for the image re-alignment adapter."""

    alpha: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass
class AdapterParams:
    w1: np.ndarray  # (d, h)
    w2: np.ndarray  # (h, d)

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        if self.w1.ndim != 2 or self.w2.ndim != 2 or self.w2.shape != self.w1.shape[::-1]:
            raise ShapeError(f"adapter weights disagree: w1 {self.w1.shape}, w2 {self.w2.shape}")


def init_adapter(d: int, h: int, seed: int, kind: str) -> AdapterParams:
    """Seeded uniform init; cia starts near the identity, dual starts generic."""
    if d < 1 or h < 1:
        raise ConfigError(f"adapter dims must be >= 1, got d={d}, h={h}")
    if kind not in ("cia", "dual"):
        raise ConfigError(f"unknown adapter kind {kind!r}")
    rng = np.random.default_rng(seed)
    lim1 = math.sqrt(6.0 / d)
    w1 = rng.uniform(-lim1, lim1, size=(d, h))
    if kind == "cia":
        w2 = rng.uniform(-CIA_W2_INIT_SCALE, CIA_W2_INIT_SCALE, size=(h, d))
        return AdapterParams(w1, w2)
    lim2 = math.sqrt(6.0 / h)
    w2 = rng.uniform(-lim2, lim2, size=(h, d))
    return AdapterParams(w1, w2)


_ACT = {"relu": nk.relu, "gelu": nk.gelu}


def _two_layer(x_in, params: AdapterParams, alpha: float, act: str) -> GradPair:
    """normalize(alpha * act(x @ w1) @ w2 + (1 - alpha) * x) over the rows of
    a 2-D batch, the body of every adapter.

    backward(g) -> (d_input, d_w1, d_w2).
    """
    x = nk.as_f64(x_in, "adapter input")
    if x.ndim != 2:
        raise ShapeError(f"adapter input must be a 2-D batch, got shape {x.shape}")
    h = nk.matmul(x, params.w1)
    a = _ACT[act](h.value)
    y = nk.matmul(a.value, params.w2)
    # blend in the product's own buffer: the same ops in the same order, no
    # fresh temporaries to fault in (matmul's backward reads only its inputs)
    blend = y.value
    blend *= alpha
    blend += (1.0 - alpha) * x
    out = nk.l2_normalize(blend)

    def backward(g):
        (gb,) = out.backward(g)
        ga, gw2 = y.backward(alpha * gb)
        (gh,) = a.backward(ga)
        gx, gw1 = h.backward(gh)
        gx = gx + (1.0 - alpha) * gb
        return gx, gw1, gw2

    return GradPair(out.value, backward)


def cia_forward(f_img, params: AdapterParams, cfg: CiaConfig) -> GradPair:
    """normalize(alpha * relu(f @ w1) @ w2 + (1 - alpha) * f).

    backward(g) -> (d_input, d_w1, d_w2).
    """
    return _two_layer(f_img, params, cfg.alpha, "relu")


def dual_forward(f_point, params: AdapterParams) -> GradPair:
    """normalize(gelu(f @ w1) @ w2); one code path serves both dual heads.

    backward(g) -> (d_input, d_w1, d_w2).
    """
    return _two_layer(f_point, params, 1.0, "gelu")
