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
ACCURACY_BATCH = 64  # samples per batch the matching accuracy ranks texts within


@dataclass(frozen=True)
class LossConfig:
    """Temperature dividing similarities before the softmax; the default is CLIP's initial value."""

    tau: float = 0.07

    def __post_init__(self):
        if not TAU_MIN <= self.tau < math.inf:
            raise ConfigError(f"tau must be finite and >= {TAU_MIN}, got {self.tau}")


def _aligned_pair(fa, fb) -> tuple[np.ndarray, np.ndarray]:
    a = nk.as_f64(fa, "feature batch")
    b = nk.as_f64(fb, "feature batch")
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"feature batches must be 2-D, got {a.shape} and {b.shape}")
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


def contrastive_accuracy(image_feats, text_feats) -> float:
    """Image-to-text matching accuracy of (n, m, d) image and (n, d) text features: each view's
    rows form consecutive batches of ``ACCURACY_BATCH`` (fewer samples form one batch, a trailing
    partial batch is dropped), and the score is the mean over those batches of the share of rows
    whose own text is strictly the nearest text of the batch (ties fail)."""
    imgs = nk.as_f64(image_feats, "image features")
    txts = nk.as_f64(text_feats, "text features")
    if imgs.ndim != 3 or imgs.shape[1] < 1 or txts.shape != (imgs.shape[0], imgs.shape[-1]):
        raise ShapeError(f"text features {txts.shape} do not pair with (n, m >= 1, d) image features {imgs.shape}")
    return _scorer(txts, imgs.shape[1])(imgs)


def _scorer(texts: np.ndarray, m: int, stack=None, scores=None) -> Callable[[np.ndarray], float]:
    """``score(views)``: ``contrastive_accuracy(views, texts)`` of (n, m, d) float64 views, unchecked
    and untraced, so a helper thread may call it. ``stack`` and ``scores`` are flat float64 buffers
    for the view-major (m, k, size, d) batches and their (m, k, size, size) scores, made here when
    None; the views may share memory with ``scores`` but not with ``stack``."""
    n, d = texts.shape
    size = min(ACCURACY_BATCH, n)
    if size < 2:
        raise ConfigError(f"matching accuracy needs at least 2 samples, got {n}")
    k = n // size
    txt_t = texts[: k * size].reshape(k, size, d).transpose(0, 2, 1)
    stack = np.empty(m * k * size * d) if stack is None else stack[: m * k * size * d]
    scores = np.empty(m * k * size * size) if scores is None else scores[: m * k * size * size]
    stack, scores = stack.reshape(m, k, size, d), scores.reshape(m, k, size, size)

    def score(views: np.ndarray) -> float:
        np.copyto(stack, views[: k * size].reshape(k, size, m, d).transpose(2, 0, 1, 3))
        np.matmul(stack, txt_t, out=scores)  # each view's batches against the same text batches
        return _match_rate(scores.reshape(-1, size, size))

    return score


def _match_rate(scores: np.ndarray) -> float:
    """Mean over a (k, n, n) score stack of the share of rows whose diagonal strictly beats the
    rest of its row; overwrites the diagonal. Untraced, so a helper thread may call it."""
    on_diag = range(scores.shape[1])
    diag = np.diagonal(scores, axis1=1, axis2=2).copy()
    scores[:, on_diag, on_diag] = -np.inf
    return float(np.mean((diag > scores.max(axis=2)).mean(axis=1)))
