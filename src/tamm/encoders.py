"""Frozen synthetic text/image feature encoders plus the trainable
permutation-invariant point-cloud encoder.

The frozen paths project latent vectors through fixed seeded matrices into a
shared d-dimensional unit sphere; the image path adds a per-view perturbation
and, optionally, a fixed invertible domain shift (planar rotations plus a
common bias) whose strength models the rendered-image gap. The point encoder
is a per-point MLP pooled by concatenated mean and max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import numkit as nk
from .errors import ConfigError, NumericError, ShapeError
from .numkit import GradPair

N_SHIFT_PLANES = 6
SHIFT_THETA_MAX = math.pi / 2.0
SHIFT_BIAS_SCALE = 3.0  # bias-dominant shift: crushes matching at s=1 yet stays cheap to undo
VIEW_SCALE = 0.25  # size of the per-view perturbation of image features

MIN_CLOUD_POINTS = 8


@dataclass(frozen=True)
class FrozenEncoderSpec:
    """Fixed projections for the text and image paths plus the domain shift.

    Everything is derived from ``seed`` at construction, so serializing
    (seed, dims, flags, strength) reproduces the encoder exactly.
    """

    seed: int
    latent_dim: int
    feature_dim: int
    max_views: int
    shift_enabled: bool
    shift_strength: float
    text_proj: np.ndarray = field(repr=False, compare=False)
    view_projs: np.ndarray = field(repr=False, compare=False)
    shift_u: np.ndarray = field(repr=False, compare=False)
    shift_v: np.ndarray = field(repr=False, compare=False)
    shift_bias_dir: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def build(
        cls,
        seed: int,
        latent_dim: int,
        feature_dim: int,
        max_views: int,
        shift_enabled: bool = True,
        shift_strength: float = 0.0,
    ) -> "FrozenEncoderSpec":
        if latent_dim < 1 or feature_dim < 1 or max_views < 1:
            raise ConfigError("encoder dims and view count must be >= 1")
        if not 0.0 <= shift_strength <= 1.0:
            raise ConfigError(f"shift strength must be in [0, 1], got {shift_strength}")
        if 2 * N_SHIFT_PLANES + 1 > feature_dim:
            raise ConfigError(f"feature_dim {feature_dim} too small for {N_SHIFT_PLANES} shift planes")
        if feature_dim <= latent_dim:
            raise ConfigError(f"feature_dim {feature_dim} must exceed latent_dim {latent_dim}")
        rng = np.random.default_rng([int(seed), 0x7A17])
        # orthonormal text rows carry latent geometry into feature space
        # exactly; view perturbations live in the orthogonal complement so
        # they cannot disturb image-text matching
        noise_dim = min(feature_dim - latent_dim, 2 * latent_dim)
        frame, _ = np.linalg.qr(rng.normal(size=(feature_dim, latent_dim + noise_dim)))
        text_proj = frame[:, :latent_dim].T.copy()
        complement = frame[:, latent_dim:]
        mixers = rng.normal(0.0, 1.0 / math.sqrt(latent_dim), size=(max_views, latent_dim, noise_dim))
        view_projs = np.einsum("kzc,dc->kzd", mixers, complement)
        basis, _ = np.linalg.qr(rng.normal(size=(feature_dim, 2 * N_SHIFT_PLANES + 1)))
        spec = cls(
            seed=int(seed),
            latent_dim=int(latent_dim),
            feature_dim=int(feature_dim),
            max_views=int(max_views),
            shift_enabled=bool(shift_enabled),
            shift_strength=float(shift_strength),
            text_proj=text_proj,
            view_projs=view_projs,
            shift_u=basis[:, 0 : 2 * N_SHIFT_PLANES : 2].T.copy(),
            shift_v=basis[:, 1 : 2 * N_SHIFT_PLANES : 2].T.copy(),
            shift_bias_dir=basis[:, -1].copy(),
        )
        cond = np.linalg.cond(shift_matrix(spec, 1.0))
        if not cond < 1e3:
            raise NumericError(f"shift transform badly conditioned: cond={cond:.3e}")
        return spec

    def with_strength(self, s: float) -> "FrozenEncoderSpec":
        if not 0.0 <= s <= 1.0:
            raise ConfigError(f"shift strength must be in [0, 1], got {s}")
        return replace(self, shift_strength=float(s))


def shift_matrix(spec: FrozenEncoderSpec, s: float | None = None) -> np.ndarray:
    """Orthogonal linear part of the domain shift at strength s."""
    s = spec.shift_strength if s is None else float(s)
    theta = s * SHIFT_THETA_MAX
    d = spec.feature_dim
    m = np.eye(d)
    c, sn = math.cos(theta), math.sin(theta)
    for u, v in zip(spec.shift_u, spec.shift_v):
        m += (c - 1.0) * (np.outer(u, u) + np.outer(v, v))
        m += sn * (np.outer(v, u) - np.outer(u, v))
    return m


def shift_apply(x, spec: FrozenEncoderSpec, s: float | None = None) -> np.ndarray:
    """Affine domain shift: rotate in the fixed planes, then add the bias."""
    s = spec.shift_strength if s is None else float(s)
    arr = nk.as_f64(x, "shift input")
    return arr @ shift_matrix(spec, s).T + s * SHIFT_BIAS_SCALE * spec.shift_bias_dir


def shift_invert(y, spec: FrozenEncoderSpec, s: float | None = None) -> np.ndarray:
    """Exact inverse of ``shift_apply`` on raw (un-normalized) vectors."""
    s = spec.shift_strength if s is None else float(s)
    arr = nk.as_f64(y, "shift input")
    return (arr - s * SHIFT_BIAS_SCALE * spec.shift_bias_dir) @ shift_matrix(spec, s)


def frozen_text_embed(latent, spec: FrozenEncoderSpec) -> np.ndarray:
    """Unit-norm text-path feature of a latent vector (or a batch of them)."""
    arr = nk.as_f64(latent, "text latent")
    if arr.shape[-1] != spec.latent_dim:
        raise ShapeError(f"latent dim {arr.shape[-1]} != spec latent dim {spec.latent_dim}")
    return nk.l2_normalize(arr @ spec.text_proj).value


def frozen_image_embed(latent, view_index: int, spec: FrozenEncoderSpec, shifted: bool = True) -> np.ndarray:
    """Image-path feature: a per-view perturbation of the text-path embedding.

    With ``shifted`` and an enabled shift of strength > 0, the unit feature is
    pushed through the fixed affine transform and renormalized.
    """
    if not 0 <= view_index < spec.max_views:
        raise ConfigError(f"view index {view_index} outside [0, {spec.max_views})")
    arr = nk.as_f64(latent, "image latent")
    if arr.shape[-1] != spec.latent_dim:
        raise ShapeError(f"latent dim {arr.shape[-1]} != spec latent dim {spec.latent_dim}")
    raw = arr @ spec.text_proj + VIEW_SCALE * (arr @ spec.view_projs[view_index])
    unshifted = nk.l2_normalize(raw).value
    if not shifted or not spec.shift_enabled or spec.shift_strength == 0.0:
        return unshifted
    return nk.l2_normalize(shift_apply(unshifted, spec)).value


# ---------------------------------------------------------------------------
# Point-cloud encoder
# ---------------------------------------------------------------------------


@dataclass
class PointEncoderParams:
    w1: np.ndarray  # (3, h)
    w2: np.ndarray  # (h, h)
    head: np.ndarray  # (2h, d)

    def __post_init__(self):
        self.w1 = np.asarray(self.w1, dtype=np.float64)
        self.w2 = np.asarray(self.w2, dtype=np.float64)
        self.head = np.asarray(self.head, dtype=np.float64)
        h = self.w1.shape[1]
        if self.w1.shape[0] != 3 or self.w2.shape != (h, h) or self.head.shape[0] != 2 * h:
            raise ShapeError(
                f"point encoder weights disagree: w1 {self.w1.shape}, w2 {self.w2.shape}, head {self.head.shape}"
            )

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    @property
    def out_dim(self) -> int:
        return self.head.shape[1]


def init_point_encoder(hidden: int, out_dim: int, seed: int) -> PointEncoderParams:
    if hidden < 1 or out_dim < 1:
        raise ConfigError(f"point encoder dims must be >= 1, got h={hidden}, d={out_dim}")
    rng = np.random.default_rng(seed)
    w1 = rng.uniform(-math.sqrt(2.0), math.sqrt(2.0), size=(3, hidden))
    w2 = rng.uniform(-math.sqrt(6.0 / hidden), math.sqrt(6.0 / hidden), size=(hidden, hidden))
    head = rng.uniform(-math.sqrt(3.0 / hidden), math.sqrt(3.0 / hidden), size=(2 * hidden, out_dim))
    return PointEncoderParams(w1, w2, head)


def _canonical_order(cloud: np.ndarray) -> np.ndarray:
    # lexicographic point order (x, then y, then z) makes every downstream
    # reduction independent of the input permutation, bit for bit
    return np.lexsort((cloud[:, 2], cloud[:, 1], cloud[:, 0]))


def _tree_sum(x: np.ndarray, axis: int) -> np.ndarray:
    # adjacent-pair balanced reduction: duplicating every slice doubles every
    # partial sum exactly, so pooled means survive duplication bitwise
    x = np.moveaxis(x, axis, 0)
    while x.shape[0] > 1:
        k = x.shape[0] // 2
        paired = x[0 : 2 * k : 2] + x[1 : 2 * k : 2]
        if x.shape[0] % 2:
            paired = np.concatenate([paired, x[-1:]], axis=0)
        x = paired
    return x[0]


def encode_points(clouds, params: PointEncoderParams) -> GradPair:
    """Unit-norm feature of one (N,3) cloud or a (B,N,3) batch.

    Per-point MLP 3 -> h -> h with relu, pooled by concatenated mean and max
    over points, projected 2h -> d, then row-normalized. Exactly permutation
    invariant. backward(g) -> (d_w1, d_w2, d_head).
    """
    arr = nk.as_f64(clouds, "point cloud")
    squeezed = arr.ndim == 2
    if squeezed:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"point clouds must be (N,3) or (B,N,3), got {arr.shape}")
    n_b, n_pts, _ = arr.shape
    if n_pts < MIN_CLOUD_POINTS:
        raise ShapeError(f"point clouds need at least {MIN_CLOUD_POINTS} points, got {n_pts}")
    ordered = np.empty_like(arr)
    for i in range(n_b):
        ordered[i] = arr[i][_canonical_order(arr[i])]

    h = params.hidden
    flat = ordered.reshape(n_b * n_pts, 3)
    lin1 = nk.matmul(flat, params.w1)
    act1 = nk.relu(lin1.value)
    lin2 = nk.matmul(act1.value, params.w2)
    act2 = nk.relu(lin2.value)
    feats = act2.value.reshape(n_b, n_pts, h)
    mean_pool = _tree_sum(feats, axis=1) / n_pts
    amax = feats.argmax(axis=1)
    max_pool = feats.max(axis=1)
    pooled = np.concatenate([mean_pool, max_pool], axis=1)
    proj = nk.matmul(pooled, params.head)
    out = nk.l2_normalize(proj.value)
    value = out.value[0] if squeezed else out.value

    def backward(g):
        gm = np.asarray(g, dtype=np.float64)
        if squeezed:
            gm = gm[None, :]
        (gp,) = out.backward(gm)
        g_pool, g_head = proj.backward(gp)
        g_feats = np.zeros_like(feats)
        np.put_along_axis(g_feats, amax[:, None, :], g_pool[:, None, h:], axis=1)
        g_feats += g_pool[:, None, :h] / n_pts
        (g_lin2,) = act2.backward(g_feats.reshape(n_b * n_pts, h))
        g_act1, g_w2 = lin2.backward(g_lin2)
        (g_lin1,) = act1.backward(g_act1)
        _, g_w1 = lin1.backward(g_lin1)
        return g_w1, g_w2, g_head

    return GradPair(value, backward)
