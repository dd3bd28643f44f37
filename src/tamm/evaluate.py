"""Downstream protocols: zero-shot classification against class text
embeddings, linear probing on frozen dual features, episodic few-shot
probing, and cross-modal retrieval.

All evaluation is deterministic: ties break toward the lowest class id (or
gallery id), probes train full-batch from a zero init, and episode sampling
is a pure function of its trial seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import numkit as nk
from .adapters import AdapterParams, dual_forward
from .codec import atomic_open
from .datagen import TripletSet
from .encoders import PointEncoderParams, encode_points
from .errors import ConfigError, ShapeError
from .numkit import GradPair
from .train import OptimState, adamw_step

QUERY_PER_CLASS = 20  # fixed by the episodic protocol, not configurable
PROBE_TRAIN_FRACTION = 0.8  # share of each class the linear probe trains on, not configurable
PROBE_EPOCHS = 100
PROBE_LR = 1e-2


@dataclass(frozen=True, eq=False)
class CategoryBank:
    """One unit-norm text-path embedding per class, ordered by class id."""

    class_ids: np.ndarray  # (C,)
    embeddings: np.ndarray  # (C, d)


def build_category_bank(data: TripletSet, class_ids: Sequence[int]) -> CategoryBank:
    """Per-class category embedding of each of ``class_ids`` (sorted, without
    repeats): the normalized mean text feature.

    Works for generated and externally ingested triplet files alike; for
    generated data the mean collapses onto the class-anchor embedding.
    """
    ids = np.asarray(sorted(set(class_ids)), dtype=np.int64)
    if ids.size == 0:
        raise ConfigError("category bank needs at least one class")
    rows = []
    for c in ids:
        members = np.flatnonzero(data.labels == c)
        if members.size == 0:
            raise ConfigError(f"class {int(c)} has no samples to embed")
        rows.append(nk.as_f64(data.text_feats[members], "text features").mean(axis=0))
    return CategoryBank(ids, nk.l2_normalize(np.stack(rows)).value)


def dual_features(
    data: TripletSet,
    encoder: PointEncoderParams,
    iaa: AdapterParams,
    taa: AdapterParams,
    indices: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Frozen forward pass: point features through both dual heads."""
    f_p = encode_points(data.points[indices], encoder, False).value
    return dual_forward(f_p, iaa).value, dual_forward(f_p, taa).value


# ---------------------------------------------------------------------------
# Zero-shot classification
# ---------------------------------------------------------------------------


def zeroshot_scores(f_vp, f_sp, bank: CategoryBank, mode: str = "both") -> np.ndarray:
    """Per-class similarity scores; ``both`` sums the two adapter scores."""
    if mode not in ("both", "iaa", "taa"):
        raise ConfigError(f"unknown inference mode {mode!r}")
    vp = np.atleast_2d(np.asarray(f_vp, dtype=np.float64))
    sp = np.atleast_2d(np.asarray(f_sp, dtype=np.float64))
    if vp.shape != sp.shape:
        raise ShapeError(f"dual feature batches disagree: {vp.shape} vs {sp.shape}")
    if mode == "iaa":
        return vp @ bank.embeddings.T
    if mode == "taa":
        return sp @ bank.embeddings.T
    return vp @ bank.embeddings.T + sp @ bank.embeddings.T


def zeroshot_topk(
    f_vp,
    f_sp,
    labels,
    bank: CategoryBank,
    mode: str = "both",
    k_list: Sequence[int] = (1, 3, 5),
) -> dict[int, float]:
    """Top-k accuracy per k; ranking ties resolve toward the lowest class id."""
    n_classes = bank.class_ids.size
    for k in k_list:
        if not 1 <= k <= n_classes:
            raise ConfigError(f"top-k needs 1 <= k <= {n_classes}, got {k}")
    scores = zeroshot_scores(f_vp, f_sp, bank, mode)
    order = np.argsort(-scores, axis=1, kind="stable")
    ranked = bank.class_ids[order]
    hits = ranked == np.asarray(labels, dtype=np.int64)[:, None]
    return {int(k): float(np.mean(np.any(hits[:, :k], axis=1))) for k in k_list}


# ---------------------------------------------------------------------------
# Linear probing
# ---------------------------------------------------------------------------


def probe_layer_loss(x, w, b, labels) -> GradPair:
    """Mean softmax cross-entropy of logits x @ w + b; backward -> (dw, db)."""
    xm = nk.as_f64(x, "probe features")
    wm = nk.as_f64(w, "probe weights")
    bv = nk.as_f64(b, "probe bias")
    y = np.asarray(labels, dtype=np.int64)
    n = xm.shape[0]
    logits = xm @ wm + bv
    lse = nk.logsumexp_rows(logits)
    value = float(np.mean(lse - logits[np.arange(n), y]))

    def backward(g=1.0):
        probs = np.exp(logits - lse[:, None])
        probs[np.arange(n), y] -= 1.0
        probs *= float(g) / n
        return nk._t_matmul(xm, probs), probs.sum(axis=0)

    return GradPair(value, backward)


def train_probe(features, labels, n_classes: int):
    """Full-batch AdamW (no decay) on a single linear layer from a zero init."""
    x = np.asarray(features, dtype=np.float64)
    params = {"w": np.zeros((x.shape[1], n_classes)), "b": np.zeros(n_classes)}
    state = OptimState.zeros(params)
    for _ in range(PROBE_EPOCHS):
        loss = probe_layer_loss(x, params["w"], params["b"], labels)
        dw, db = loss.backward(1.0)
        params, state = adamw_step(params, {"w": dw, "b": db}, state, PROBE_LR)
    return params["w"], params["b"]


def probe_accuracy(features, labels, w, b) -> float:
    logits = np.asarray(features, dtype=np.float64) @ w + b
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))


def _probe_score(x: np.ndarray, y: np.ndarray, train_idx: np.ndarray, test_idx: np.ndarray) -> float:
    """Train a probe over the classes present in ``train_idx`` (remapped to
    0..C-1 in id order) and return its accuracy on ``test_idx``, whose
    classes must be among them."""
    class_ids = np.unique(y[train_idx])
    w, b = train_probe(x[train_idx], np.searchsorted(class_ids, y[train_idx]), class_ids.size)
    return probe_accuracy(x[test_idx], np.searchsorted(class_ids, y[test_idx]), w, b)


def linear_probe(features, labels, seed: int = 0) -> float:
    """Deterministic stratified split (``PROBE_TRAIN_FRACTION`` of each class
    trains), train the linear layer, return test accuracy."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    class_ids = np.unique(y)
    if class_ids.size < 2:  # every class keeps at least one training sample
        raise ConfigError("probe training split covers fewer than two classes")
    train_idx, test_idx = [], []
    for c in class_ids:
        rows = np.flatnonzero(y == c)
        perm = np.random.default_rng([seed, int(c), 0x9B0E]).permutation(rows.size)
        n_train = max(1, int(round(PROBE_TRAIN_FRACTION * rows.size)))
        train_idx.append(rows[perm[:n_train]])
        test_idx.append(rows[perm[n_train:]])
    train_idx = np.concatenate(train_idx)
    test_idx = np.concatenate(test_idx)
    if test_idx.size == 0:
        raise ConfigError("probe test split is empty; no class is large enough to hold out a sample")
    return _probe_score(x, y, train_idx, test_idx)


# ---------------------------------------------------------------------------
# Few-shot episodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class EpisodeSpec:
    support: np.ndarray  # (ways * shots,)
    query: np.ndarray  # (ways * QUERY_PER_CLASS,)


def fewshot_episode(labels, ways: int, shots: int, trial_seed: int) -> EpisodeSpec:
    """Sample ways classes, then shots + 20 instances per class without replacement."""
    y = np.asarray(labels, dtype=np.int64)
    class_ids = np.unique(y)
    if ways < 1:
        raise ConfigError(f"ways must be >= 1, got {ways}")
    if ways > class_ids.size:
        raise ConfigError(f"cannot pick {ways} ways from {class_ids.size} classes")
    if shots < 1:
        raise ConfigError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng([0xEB15, int(trial_seed)])
    chosen = rng.choice(class_ids, size=ways, replace=False)
    support, query = [], []
    for c in chosen:
        rows = np.flatnonzero(y == c)
        need = shots + QUERY_PER_CLASS
        if rows.size < need:
            raise ConfigError(f"class {int(c)} has {rows.size} samples, episode needs {need}")
        pick = rng.choice(rows, size=need, replace=False)
        support.append(pick[:shots])
        query.append(pick[shots:])
    return EpisodeSpec(np.concatenate(support), np.concatenate(query))


class FewshotResult(NamedTuple):
    mean: float
    std: float
    accuracies: tuple[float, ...]


def fewshot_eval(
    features,
    labels,
    ways: int,
    shots: int,
    trials: int = 10,
    seed: int = 0,
) -> FewshotResult:
    """Mean and sample std of probe accuracy over independent episodes.

    With a single trial the std is 0 by convention.
    """
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    accs = []
    for t in range(trials):
        ep = fewshot_episode(y, ways, shots, trial_seed=seed * 100003 + t)
        accs.append(_probe_score(x, y, ep.support, ep.query))
    std = float(np.std(accs, ddof=1)) if trials > 1 else 0.0
    return FewshotResult(float(np.mean(accs)), std, tuple(accs))


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


def retrieve(query, gallery_vp, gallery_sp, mode: str, k: int = 5) -> np.ndarray:
    """Top-k gallery ids by dot product; text queries rank the text-aligned
    features, image queries the image-aligned ones. Ties break by lowest id."""
    if mode not in ("text", "image"):
        raise ConfigError(f"retrieval mode must be 'text' or 'image', got {mode!r}")
    gallery = np.asarray(gallery_sp if mode == "text" else gallery_vp, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    if q.ndim != 1 or gallery.ndim != 2 or gallery.shape[1] != q.size:
        raise ShapeError(f"query {q.shape} does not match gallery {gallery.shape}")
    if not 1 <= k <= gallery.shape[0]:
        raise ConfigError(f"retrieval k must be >= 1 and at most the gallery size {gallery.shape[0]}, got {k}")
    scores = gallery @ q
    order = np.argsort(-scores, kind="stable")
    return order[:k]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def report_row(metric: str, mode: str, split: str, value: float) -> dict:
    return {"metric": metric, "mode": mode, "split": split, "value": float(value)}


def format_report(rows: list[dict]) -> str:
    """Aligned-column text table over (metric, mode, split, value)."""
    headers = ("metric", "mode", "split", "value")
    cells = [[str(r["metric"]), str(r["mode"]), str(r["split"]), f"{r['value']:.6f}"] for r in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for c in cells:
        lines.append("  ".join(c[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def write_report_csv(rows: list[dict], path) -> None:
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "mode", "split", "value"])
        for r in rows:
            writer.writerow([r["metric"], r["mode"], r["split"], repr(float(r["value"]))])
