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
GROUP = 8  # clouds per cache block of the point-encoder step; fixed, not a knob
OVERFLOW_SAFE = 1e300  # a hidden layer bounded below this cannot overflow


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


def _tree_sum(x: np.ndarray) -> np.ndarray:
    # adjacent-pair balanced reduction over the point axis of (B, N, h):
    # duplicating every point doubles every partial sum exactly, so pooled
    # means survive duplication bitwise
    while x.shape[1] > 1:
        k = x.shape[1] // 2
        paired = x[:, 0 : 2 * k : 2] + x[:, 1 : 2 * k : 2]
        if x.shape[1] % 2:
            paired = np.concatenate([paired, x[:, -1:]], axis=1)
        x = paired
    return x[:, 0]


def _relu_grad(act: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    # np.where(act > 0, g, 0.0) into ``out`` (not aliasing ``g``), bit for bit,
    # as an and with all-ones or all-zero words: no branch on the mask
    bits = out.view(np.int64)
    np.negative((act > 0.0).view(np.int8), out=bits, dtype=np.int64)
    np.bitwise_and(bits, g.view(np.int64), out=bits)
    return out


def encode_points(clouds, params: PointEncoderParams) -> GradPair:
    """Unit-norm feature of one (N,3) cloud or a (B,N,3) batch.

    Per-point MLP 3 -> h -> h with relu, pooled by concatenated mean and max
    over points, projected 2h -> d, then row-normalized. Exactly permutation
    invariant. backward(g) -> (d_w1, d_w2, d_head).

    The step runs over groups of ``GROUP`` clouds, so each group's hidden
    layers stay in cache from their products through relu and pooling; no
    array of size B*N*h outlives the forward, and backward recomputes each
    group's layers bit for bit. Every product is row-blocked only, so the
    result does not depend on the grouping.

    Clouds, weights and the head output are checked finite; the hidden
    layers only when the checked maxima do not bound them far from overflow.
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
    w1 = nk.as_f64(params.w1, "point encoder w1")
    w2 = nk.as_f64(params.w2, "point encoder w2")
    head = nk.as_f64(params.head, "point encoder head")
    ordered = np.empty_like(arr)

    h = params.hidden
    # relu can hide a hidden -inf from the output check (a non-finite pooled
    # sum cannot), so scan the hidden layers unless these bounds are far from
    # overflow; a nan bound (inf * 0) scans too
    lin1_bound = 3.0 * float(np.abs(arr).max(initial=0.0)) * float(np.abs(w1).max(initial=0.0))
    lin2_bound = h * lin1_bound * float(np.abs(w2).max(initial=0.0))
    scan = not (lin1_bound < OVERFLOW_SAFE and lin2_bound < OVERFLOW_SAFE)
    flat = ordered.reshape(n_b * n_pts, 3)
    groups = [(lo, min(lo + GROUP, n_b)) for lo in range(0, n_b, GROUP)]
    scratch1 = np.empty((min(GROUP, n_b) * n_pts, h))
    scratch2 = np.empty_like(scratch1)

    def layers(lo, hi, act1, check):
        # relu'd hidden layers of clouds lo:hi, layer 1 into act1 and layer 2
        # into scratch2, returned as (clouds, points, h)
        x = flat[lo * n_pts : hi * n_pts]
        np.matmul(x, w1, out=act1)
        if check:
            nk.as_f64(act1, "point encoder layer 1")
        np.maximum(act1, 0.0, out=act1)
        act2 = np.matmul(act1, w2, out=scratch2[: len(x)])
        if check:
            nk.as_f64(act2, "point encoder layer 2")
        np.maximum(act2, 0.0, out=act2)
        return act2.reshape(hi - lo, n_pts, h)

    pooled = np.empty((n_b, 2 * h))
    for lo, hi in groups:
        for i in range(lo, hi):
            ordered[i] = arr[i][_canonical_order(arr[i])]
        feats = layers(lo, hi, scratch1[: (hi - lo) * n_pts], scan)
        np.divide(_tree_sum(feats), n_pts, out=pooled[lo:hi, :h])
        feats.max(axis=1, out=pooled[lo:hi, h:])
    out = nk.l2_normalize(pooled @ head)
    value = out.value[0] if squeezed else out.value

    def backward(g):
        gm = np.asarray(g, dtype=np.float64)
        if squeezed:
            gm = gm[None, :]
        (gp,) = out.backward(gm)
        g_pool = gp @ head.T
        g_head = pooled.T @ gp
        # d feats = g_mean / n_pts everywhere + g_max at the first argmax;
        # + 0.0 turns -0.0 into +0.0, as summing into a zeroed buffer does
        g_mean = g_pool[:, :h] / n_pts
        share = (g_mean + 0.0)[:, None, :]
        peak = np.where(pooled[:, h:] > 0.0, g_pool[:, h:] + g_mean, 0.0)
        act1 = np.empty((n_b * n_pts, h))
        g_lin2 = np.empty_like(act1)
        g_lin1 = np.empty_like(act1)
        for lo, hi in groups:
            rows = slice(lo * n_pts, hi * n_pts)
            # the recomputed layers equal the forward's bit for bit: no scan
            feats = layers(lo, hi, act1[rows], False)
            g_feats = _relu_grad(feats, share[lo:hi], g_lin2[rows].reshape(feats.shape))
            # relu outputs hold no nan or -0.0, so this is argmax's first pick
            amax = (feats == pooled[lo:hi, None, h:]).argmax(axis=1)
            g_feats[np.arange(hi - lo)[:, None], amax, np.arange(h)] = peak[lo:hi]
            g_act1 = np.matmul(g_lin2[rows], w2.T, out=scratch1[: (hi - lo) * n_pts])
            _relu_grad(act1[rows], g_act1, g_lin1[rows])
        # the weight gradients sum over all B*N rows in one product each:
        # splitting their inner axis would change the order of summation
        return flat.T @ g_lin1, act1.T @ g_lin2, g_head

    return GradPair(value, backward)
