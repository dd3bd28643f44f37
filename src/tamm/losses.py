"""Symmetric batch-contrastive objectives and the matching-accuracy diagnostic.

The core loss over two aligned feature batches FA, FB (rows paired by index)
is the mean of the row-wise and column-wise softmax cross-entropies of the
similarity matrix FA @ FB.T / tau. Both orientations are computed explicitly
so the value is bit-identical under argument swap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import numkit as nk
from .errors import ConfigError, ShapeError
from .numkit import GradPair


TAU_MIN = 0.01  # CLIP's floor on its temperature: logits scaled by at most 100


@dataclass(frozen=True)
class LossConfig:
    """Temperature dividing similarities before the softmax; the default is CLIP's initial value."""

    tau: float = 0.07

    def __post_init__(self):
        if not TAU_MIN <= self.tau < math.inf:
            raise ConfigError(f"tau must be finite and >= {TAU_MIN}, got {self.tau}")


def _aligned_pair(fa, fb, rank: int = 2) -> tuple[np.ndarray, np.ndarray]:
    a = nk.as_f64(fa, "feature batch")
    b = nk.as_f64(fb, "feature batch")
    if a.ndim != rank or b.ndim != rank:
        raise ShapeError(f"feature batches must be {rank}-D, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ShapeError(f"feature batches must align row-for-row: {a.shape} vs {b.shape}")
    if 0 in a.shape[:-1]:
        raise ShapeError("feature batches need at least one row")
    return a, b


def contrastive_loss(fa, fb, cfg: LossConfig) -> GradPair:
    """Symmetric InfoNCE over aligned batches.

    ``fb`` is a frozen target in every use (text features, image views), so
    only ``fa`` receives a gradient: backward(g) -> (d_fa,).
    """
    a, b = _aligned_pair(fa, fb)
    n = a.shape[0]
    s_ab = (a @ b.T) / cfg.tau
    s_ba = (b @ a.T) / cfg.tau
    lse_ab = nk.logsumexp_rows(s_ab)
    lse_ba = nk.logsumexp_rows(s_ba)
    # each orientation reduced on its own keeps the value swap-symmetric bitwise
    term_ab = float(np.sum(lse_ab) - np.trace(s_ab))
    term_ba = float(np.sum(lse_ba) - np.trace(s_ba))
    value = (term_ab + term_ba) / (2.0 * n)

    def backward(g=1.0):
        scale = float(g) / (2.0 * n * cfg.tau)
        p_ab = np.exp(s_ab - lse_ab[:, None])
        p_ba = np.exp(s_ba - lse_ba[:, None])
        # minus the identity on the diagonals alone: off them, p - 0.0 is p for the p >= 0 of exp
        p_ab.reshape(-1)[:: n + 1] -= 1.0
        p_ba.reshape(-1)[:: n + 1] -= 1.0
        g_logits = p_ab + p_ba.T
        return (scale * nk._t_matmul(g_logits.T, b),)

    return GradPair(value, backward)


class TrimodalLoss(NamedTuple):
    value: float
    text_term: float
    image_term: float
    backward: Callable[..., tuple]


def trimodal_loss(f_sp, f_text, f_vp, views: Sequence, cfg: LossConfig) -> TrimodalLoss:
    """contrastive(f_sp, f_text) + mean_k contrastive(f_vp, view_k).

    Image and text features are frozen inputs; backward(g) -> (d_f_sp, d_f_vp).
    """
    if len(views) == 0:
        raise ConfigError("trimodal_loss needs at least one image view")
    text_pair = contrastive_loss(f_sp, f_text, cfg)
    view_pairs = [contrastive_loss(f_vp, v, cfg) for v in views]
    m = len(view_pairs)
    image_term = 0.0
    for pair in view_pairs:
        image_term += pair.value
    image_term /= m
    value = text_pair.value + image_term

    def backward(g=1.0):
        (d_sp,) = text_pair.backward(g)
        d_vp = None
        for pair in view_pairs:
            (d,) = pair.backward(g)
            d_vp = d if d_vp is None else d_vp + d
        return d_sp, d_vp / m

    return TrimodalLoss(value, text_pair.value, image_term, backward)


def contrastive_accuracy(fa, fb) -> float:
    """Fraction of FA rows whose matched FB row is strictly the nearest FB row (ties fail).

    ``fa`` and ``fb`` are aligned (k, n, d) stacks of k batch pairs; the
    score is the mean of the k per-batch fractions.
    """
    a, b = _aligned_pair(fa, fb, 3)
    n = a.shape[1]
    if n < 2:
        raise ConfigError("contrastive_accuracy needs at least two pairs")
    scores = np.matmul(a, b.transpose(0, 2, 1))
    diag = np.diagonal(scores, axis1=1, axis2=2).copy()
    rows = np.arange(n)
    scores[:, rows, rows] = -np.inf
    return float(np.mean((diag > scores.max(axis=2)).mean(axis=1)))
