"""Synthetic tri-modal triplet datasets with a controllable image-feature
domain shift, plus the binary triplet file format.

Each sample owns a latent vector drawn around its class anchor. The latent
splits into class-signature dims (visual-only / shared / semantic-only, the
split ratio sets the shared fraction) and instance dims present in both
factor views. Point-cloud geometry and image features are driven by the
visual view of the latent, text features by the semantic view, so the two
alignment targets overlap but do not coincide. Image features pass through
the fixed invertible domain shift. The dataset spec is the only holder of its
strength: given (0 is no shift), or tuned by bisection until the held-out
image-text matching accuracy lands in a target band, and stored in the file
header.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

from .codec import FramedReader, write_framed
from .encoders import MIN_CLOUD_POINTS, FrozenEncoderSpec, frozen_image_views, frozen_text_embed
from .errors import ConfigError, FormatError, ShapeError
from .losses import contrastive_accuracy

MAGIC = b"TAMM"
VERSION = 1
_HEADER_FMT = "<7IQdId"
_SHIFTED = "shifted"  # a header slot, no spec field: 1 when the stored strength is above 0, else 0; reads ignore it
_HEADER_FIELDS = (  # the DatasetSpec fields _HEADER_FMT packs, in order, and the _SHIFTED slot
    "classes", "samples_per_class", "views", "latent_dim", "feature_dim", "points_per_cloud",
    "heldout_classes", "seed", "split_ratio", _SHIFTED, "shift_strength",
)

PRETRAIN = "pretrain"
EVAL_SEEN = "eval-seen"
EVAL_HELDOUT = "eval-heldout"
SEEN_FRACTION = 0.8  # leading fraction of each seen class tagged pretrain

ACCURACY_BATCH = 64
TUNE_BAND = (0.35, 0.55)
_TUNE_INNER_BAND = (0.39, 0.51)  # aim inside the band so f32 rounding cannot escape it

# generator geometry constants
ANCHOR_SCALE = 1.0
CLASS_JITTER = 0.1
INSTANCE_JITTER = 1.0
INSTANCE_FRACTION = 0.375  # share of latent dims carrying per-sample identity
GEOM_ANCHORS = 8
GEOM_BASE_SCALE = 2.0  # separation of the fixed blob template (cube vertices)
POINT_JITTER = 0.08
POINT_BLOCK = 64  # clouds generated per float64 block before rounding to f32


@dataclass(frozen=True)
class DatasetSpec:
    classes: int = 30
    samples_per_class: int = 100
    views: int = 4
    latent_dim: int = 16
    feature_dim: int = 64
    points_per_cloud: int = 256
    heldout_classes: int = 10
    split_ratio: float = 0.7
    shift_strength: float | None = None  # None: tune by bisection; 0: no shift
    seed: int = 0

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if not 1 <= self.heldout_classes < self.classes:
            raise ConfigError(f"heldout classes must be in [1, {self.classes - 1}], got {self.heldout_classes}")
        if self.samples_per_class < 1 or self.views < 1:
            raise ConfigError("samples per class and views must be >= 1")
        if self.latent_dim < 4 or self.feature_dim < 1:
            raise ConfigError(f"need latent_dim >= 4 and feature_dim >= 1, got {self.latent_dim}, {self.feature_dim}")
        if self.points_per_cloud < MIN_CLOUD_POINTS:
            raise ConfigError(f"points per cloud must be >= {MIN_CLOUD_POINTS}, got {self.points_per_cloud}")
        if not 0.0 <= self.split_ratio <= 1.0:
            raise ConfigError(f"split ratio must be in [0, 1], got {self.split_ratio}")
        if self.shift_strength is not None and not 0.0 <= self.shift_strength <= 1.0:
            raise ConfigError(f"shift strength must be in [0, 1] or None, got {self.shift_strength}")
        if not 0 <= self.seed < 2**64:  # the file header stores it as a u64
            raise ConfigError(f"seed must be in [0, 2**64), got {self.seed}")

    @property
    def n_samples(self) -> int:
        return self.classes * self.samples_per_class

    @property
    def seen_classes(self) -> int:
        return self.classes - self.heldout_classes


def factor_masks(latent_dim: int, split_ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Boolean (visual, semantic) views over the latent dims.

    Layout: [visual-only | shared | semantic-only | instance]; instance dims
    belong to both views, the split ratio sets the shared share of the class
    dims.
    """
    n_inst = max(1, int(round(latent_dim * INSTANCE_FRACTION)))
    n_cls = latent_dim - n_inst
    n_shared = int(round(split_ratio * n_cls))
    n_vis_only = (n_cls - n_shared + 1) // 2
    vis = np.zeros(latent_dim, dtype=bool)
    sem = np.zeros(latent_dim, dtype=bool)
    vis[0 : n_vis_only + n_shared] = True
    sem[n_vis_only:n_cls] = True
    vis[n_cls:] = True
    sem[n_cls:] = True
    return vis, sem


@dataclass
class TripletSet:
    spec: DatasetSpec
    # every float array is held at the f32 width the file stores; arithmetic widens what it reads
    points: np.ndarray  # (n, N, 3) float32; the encoder widens each group of clouds it gathers
    image_feats: np.ndarray  # (n, views, d) float32
    text_feats: np.ndarray  # (n, d) float32
    labels: np.ndarray  # (n,)

    def indices(self, tag: str) -> np.ndarray:
        """Sample indices of one split; splits are derived, never stored."""
        if tag not in (PRETRAIN, EVAL_SEEN, EVAL_HELDOUT):
            raise ConfigError(f"unknown split tag {tag!r}")
        picked = []
        n_train = int(SEEN_FRACTION * self.spec.samples_per_class)
        for c in range(self.spec.classes):
            rows = np.flatnonzero(self.labels == c)
            if c >= self.spec.seen_classes:
                if tag == EVAL_HELDOUT:
                    picked.append(rows)
            elif tag == PRETRAIN:
                picked.append(rows[:n_train])
            elif tag == EVAL_SEEN:
                picked.append(rows[n_train:])
        return np.concatenate(picked)


def batched_contrastive_accuracy(image_feats, text_feats) -> float:
    """Mean image-to-text matching accuracy over fixed consecutive batches.

    ``image_feats`` is (n, m, d) and ``text_feats`` (n, d); every view
    contributes its own batches of ``ACCURACY_BATCH``. A trailing partial
    batch is dropped; fewer than ``ACCURACY_BATCH`` samples form one batch.
    All batches are scored in one stacked call, view-major as the batch means
    are averaged.
    """
    imgs = np.asarray(image_feats, dtype=np.float64)
    txts = np.asarray(text_feats, dtype=np.float64)
    if imgs.ndim != 3 or txts.ndim != 2 or txts.shape[0] != imgs.shape[0]:
        raise ShapeError(f"text features {txts.shape} do not pair with (n, m, d) image features {imgs.shape}")
    n, m, d = imgs.shape
    size = min(ACCURACY_BATCH, n)
    k = n // size
    used = k * size
    img_stack = imgs[:used].reshape(k, size, m, d).transpose(2, 0, 1, 3).reshape(m * k, size, d)
    txt_stack = np.tile(txts[:used], (m, 1)).reshape(m * k, size, -1)
    return contrastive_accuracy(img_stack, txt_stack)


def _tune_shift(enc: FrozenEncoderSpec, visual: np.ndarray, m: int, texts: np.ndarray) -> float:
    """Bisection on the shift strength until the held-out views' accuracy hits the band."""
    views = np.empty((len(visual), m, enc.feature_dim))

    def acc_at(s: float) -> float:
        return batched_contrastive_accuracy(frozen_image_views(visual, enc, s, views), texts)

    lo_acc = acc_at(1.0)
    if lo_acc > _TUNE_INNER_BAND[1]:
        raise ConfigError(f"domain shift too weak to reach the target band: accuracy {lo_acc:.3f} at s=1")
    lo, hi = 0.0, 1.0
    mid = 0.5
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        acc = acc_at(mid)
        if _TUNE_INNER_BAND[0] <= acc <= _TUNE_INNER_BAND[1]:
            return mid
        if acc > sum(_TUNE_INNER_BAND) / 2:
            lo = mid
        else:
            hi = mid
    raise ConfigError("shift tuning did not converge to the target accuracy band")


def generate(spec: DatasetSpec) -> TripletSet:
    """Deterministically generate a triplet set from its spec."""
    z, m = spec.latent_dim, spec.views
    vis, sem = factor_masks(z, spec.split_ratio)
    n_cls_dims = z - max(1, int(round(z * INSTANCE_FRACTION)))
    enc = FrozenEncoderSpec.build(spec.seed, z, spec.feature_dim, max_views=m)

    anchors = None
    rng = None
    for salt in range(32):
        rng = np.random.default_rng([spec.seed, salt, 0xDA7A])
        candidate = np.zeros((spec.classes, z))
        candidate[:, :n_cls_dims] = ANCHOR_SCALE * rng.normal(size=(spec.classes, n_cls_dims))
        bank = frozen_text_embed(candidate * sem, enc)
        gram = bank @ bank.T
        np.fill_diagonal(gram, 0.0)
        if gram.max() < 0.99:
            anchors = candidate
            break
    if anchors is None:
        raise ConfigError("could not draw class anchors with separated text embeddings")

    labels = np.repeat(np.arange(spec.classes), spec.samples_per_class)
    n = labels.size
    latents = anchors[labels].copy()
    latents[:, :n_cls_dims] += CLASS_JITTER * rng.normal(size=(n, n_cls_dims))
    # constant-norm instance vectors: every sample carries the same amount of
    # matchable identity, so normalization cannot reorder matched pairs
    n_inst = z - n_cls_dims
    inst = rng.normal(size=(n, n_inst))
    inst *= (INSTANCE_JITTER * np.sqrt(n_inst)) / np.linalg.norm(inst, axis=1, keepdims=True)
    latents[:, n_cls_dims:] += inst
    visual = latents * vis
    text_feats = frozen_text_embed(latents * sem, enc)
    # tuning draws nothing from rng, so it can refuse a spec before any cloud is drawn
    if spec.shift_strength is None:
        held = np.flatnonzero(labels >= spec.seen_classes)
        strength = _tune_shift(enc, visual[held], m, text_feats[held])
    else:
        strength = spec.shift_strength

    # clouds are a fixed, well-separated blob template (cube vertices) whose
    # per-blob displacements are linear in the visual latent; identifiable
    # blobs make the latent readable through permutation-invariant pooling
    geo = rng.normal(0.0, 1.0 / np.sqrt(z), size=(z, GEOM_ANCHORS * 3))
    corners = np.array([[x, y, w] for x in (-1, 1) for y in (-1, 1) for w in (-1, 1)], dtype=np.float64)
    bases = GEOM_BASE_SCALE * corners[np.arange(GEOM_ANCHORS) % 8]
    centers = bases + (visual @ geo).reshape(n, GEOM_ANCHORS, 3)
    # the scaled jitter plus the centre of each point's blob, point p sitting
    # on blob p % GEOM_ANCHORS, in float64 per block of clouds; successive
    # blocks draw what one whole draw would, and storing a block rounds it to
    # the f32 grid the file holds, so no full-size float64 array is made
    n_pts = spec.points_per_cloud
    whole = n_pts - n_pts % GEOM_ANCHORS
    points = np.empty((n, n_pts, 3), np.float32)
    for lo in range(0, n, POINT_BLOCK):
        block = rng.normal(size=points[lo : lo + POINT_BLOCK].shape)
        block *= POINT_JITTER
        near = centers[lo : lo + POINT_BLOCK]
        block[:, :whole].reshape(len(block), whole // GEOM_ANCHORS, GEOM_ANCHORS, 3)[...] += near[:, None]
        block[:, whole:] += near[:, : n_pts - whole]
        points[lo : lo + POINT_BLOCK] = block

    image_feats = frozen_image_views(visual, enc, strength, np.empty((n, m, spec.feature_dim), np.float32))  # f32 as stored
    return TripletSet(
        spec=replace(spec, shift_strength=strength),
        points=points,
        image_feats=image_feats,
        text_feats=text_feats.astype(np.float32),
        labels=labels.astype(np.int64),
    )


# ---------------------------------------------------------------------------
# Binary triplet files
# ---------------------------------------------------------------------------


def write_triplets(tset: TripletSet, path) -> None:
    """Fixed header, then f32 points / image / text and u32 labels."""
    if tset.spec.shift_strength is None:
        raise ConfigError("cannot store an untuned shift strength")
    values = {**vars(tset.spec), _SHIFTED: int(tset.spec.shift_strength > 0.0)}
    header = struct.pack(_HEADER_FMT, *(values[name] for name in _HEADER_FIELDS))
    arrays = ((tset.points, "<f4"), (tset.image_feats, "<f4"), (tset.text_feats, "<f4"), (tset.labels, "<u4"))
    write_framed(path, MAGIC, VERSION, [header, *(np.ascontiguousarray(a, dtype=t) for a, t in arrays)])


def read_triplets(path) -> TripletSet:
    """Read a triplet file; header and payload are outside input, so anything
    a generated set could not hold is a ``FormatError`` naming its byte."""
    reader = FramedReader(path, MAGIC, VERSION, "dataset")
    header_at = reader.offset
    header = dict(zip(_HEADER_FIELDS, reader.unpack(_HEADER_FMT, "header")))
    del header[_SHIFTED]
    try:
        spec = DatasetSpec(**header)
    except ConfigError as exc:
        raise FormatError(f"dataset header at byte {header_at}: {exc}") from None
    n, views, d = spec.n_samples, spec.views, spec.feature_dim
    points = reader.array("<f4", (n, spec.points_per_cloud, 3), "points")
    image_feats = reader.array("<f4", (n, views, d), "image features")
    text_feats = reader.array("<f4", (n, d), "text features")
    labels_at = reader.offset
    labels = reader.array("<u4", (n,), "labels").astype(np.int64)
    reader.finish()
    outside = np.flatnonzero(labels >= spec.classes)
    if outside.size:
        at = outside[0]
        raise FormatError(f"dataset label {labels[at]} outside [0, {spec.classes}) at byte {labels_at + 4 * at}")
    counts = np.bincount(labels, minlength=spec.classes)
    miscounted = np.flatnonzero(counts != spec.samples_per_class)
    if miscounted.size:
        c = miscounted[0]
        raise FormatError(
            f"dataset labels at byte {labels_at}: class {c} has {counts[c]} samples, "
            f"header says {spec.samples_per_class}"
        )
    return TripletSet(spec, points, image_feats, text_feats, labels)
