"""Frozen synthetic text/image feature encoders plus the trainable
permutation-invariant point-cloud encoder.

The frozen paths project latent vectors through fixed seeded matrices into a
shared d-dimensional unit sphere; the image path adds a per-view perturbation.
The fixed invertible domain shift (planar rotations plus a common bias) is
defined here, but its strength belongs to the dataset, which passes it to
every call. The point encoder is a per-point MLP pooled by concatenated mean
and max.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import numkit as nk
from .errors import ConfigError, NumericError, ShapeError
from .numkit import OVERFLOW_SAFE, GradPair

N_SHIFT_PLANES = 6
SHIFT_THETA_MAX = math.pi / 2.0
SHIFT_BIAS_SCALE = 3.0  # bias-dominant shift: crushes matching at s=1 yet stays cheap to undo
VIEW_SCALE = 0.25  # size of the per-view perturbation of image features

MIN_CLOUD_POINTS = 8
GROUP = 8  # clouds per cache block of the point-encoder step; fixed, not a knob


@dataclass(frozen=True)
class FrozenEncoderSpec:
    """Fixed projections for the text and image paths and the shift planes.

    Everything is derived from ``seed`` at construction, so serializing
    (seed, dims) reproduces the encoder exactly.
    """

    seed: int
    latent_dim: int
    feature_dim: int
    max_views: int
    text_proj: np.ndarray = field(repr=False, compare=False)
    view_projs: np.ndarray = field(repr=False, compare=False)
    shift_u: np.ndarray = field(repr=False, compare=False)
    shift_v: np.ndarray = field(repr=False, compare=False)
    shift_bias_dir: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def build(cls, seed: int, latent_dim: int, feature_dim: int, max_views: int) -> "FrozenEncoderSpec":
        if latent_dim < 1 or feature_dim < 1 or max_views < 1:
            raise ConfigError("encoder dims and view count must be >= 1")
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


def shift_matrix(spec: FrozenEncoderSpec, s: float) -> np.ndarray:
    """Orthogonal linear part of the domain shift at strength s."""
    theta = float(s) * SHIFT_THETA_MAX
    d = spec.feature_dim
    m = np.eye(d)
    c, sn = math.cos(theta), math.sin(theta)
    for u, v in zip(spec.shift_u, spec.shift_v):
        m += (c - 1.0) * (np.outer(u, u) + np.outer(v, v))
        m += sn * (np.outer(v, u) - np.outer(u, v))
    return m


def shift_apply(x, spec: FrozenEncoderSpec, s: float) -> np.ndarray:
    """Affine domain shift at strength s: rotate in the fixed planes, then add the bias."""
    s = float(s)
    arr = nk.as_f64(x, "shift input")
    return arr @ shift_matrix(spec, s).T + s * SHIFT_BIAS_SCALE * spec.shift_bias_dir


def frozen_text_embed(latent, spec: FrozenEncoderSpec) -> np.ndarray:
    """Unit-norm text-path feature of a latent vector (or a batch of them)."""
    arr = nk.as_f64(latent, "text latent")
    if arr.shape[-1] != spec.latent_dim:
        raise ShapeError(f"latent dim {arr.shape[-1]} != spec latent dim {spec.latent_dim}")
    return nk.l2_normalize(arr @ spec.text_proj).value


def frozen_image_embed(latent, view_index: int, spec: FrozenEncoderSpec) -> np.ndarray:
    """Unshifted image-path feature: a per-view perturbation of the text-path
    embedding, renormalized."""
    if not 0 <= view_index < spec.max_views:
        raise ConfigError(f"view index {view_index} outside [0, {spec.max_views})")
    arr = nk.as_f64(latent, "image latent")
    if arr.shape[-1] != spec.latent_dim:
        raise ShapeError(f"latent dim {arr.shape[-1]} != spec latent dim {spec.latent_dim}")
    raw = arr @ spec.text_proj + VIEW_SCALE * (arr @ spec.view_projs[view_index])
    return nk.l2_normalize(raw).value


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


def _tree_sum(x: np.ndarray, spare: np.ndarray) -> np.ndarray:
    # adjacent-pair balanced reduction over the point axis of a contiguous
    # (B, N, h) array, level by level between x's buffer and ``spare`` (at
    # least B*N*h floats), both overwritten: duplicating every point doubles
    # every partial sum exactly, so pooled means survive duplication bitwise
    n_c, n, h = x.shape
    while n > 1:
        k, odd = n // 2, n % 2
        dst = spare.reshape(-1)[: n_c * (k + odd) * h].reshape(n_c, k + odd, h)
        np.add(x[:, 0 : 2 * k : 2], x[:, 1 : 2 * k : 2], out=dst[:, :k])
        if odd:
            dst[:, k] = x[:, -1]
        spare, x, n = x, dst, k + odd
    return x[:, 0]


def _masked(keep: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    # np.where(keep, g, 0.0) into ``out`` (not aliasing ``g``), bit for bit,
    # as an and with all-ones or all-zero words: no branch on the bool ``keep``
    bits = out.view(np.int64)
    np.negative(keep.view(np.int8), out=bits, dtype=np.int64)
    np.bitwise_and(bits, g.view(np.int64), out=bits)
    return out


@functools.cache
def _openblas_get_num_threads():
    """OpenBLAS's ``int f(void)`` thread-count getter, reached through numpy's
    BLAS-linked linalg extension, or None if it exports none. Looked up once."""
    try:
        linked = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
    return next((ctypes.CFUNCTYPE(ctypes.c_int)((name, linked)) for name in symbols if hasattr(linked, name)), None)


def _lane_count(n_tasks: int) -> int:
    """Threads that may run beside BLAS: the affinity CPUs over the thread
    count BLAS reports now, at most one per task; one if BLAS cannot be asked.
    The encoder's groups are its tasks; ``train._fit`` asks for two, the epoch's
    steps and the last epoch's row."""
    get_threads = _openblas_get_num_threads()
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return 1 if get_threads is None else max(1, min(n_tasks, cpus // get_threads()))


def _in_lanes(n_tasks: int, lanes: int, run) -> None:
    """``run(lane, t)`` for every task t < n_tasks, on ``lanes`` lanes that
    take the tasks in order from one shared counter, so task 0 starts first
    and the lanes that finish early take more of the rest.

    Lanes 1 and up are threads; the caller runs lane 0 and waits for all. A
    lane stops at its first failing task. Tasks are handed out in order and a
    lane takes no task while it runs one, so every task below the lowest
    failing one ran cleanly, and that task's error, the one a serial loop
    meets first, is raised.
    """
    tickets = itertools.count()
    failed = {}

    def lane(k):
        for t in tickets:
            if t >= n_tasks:
                return
            try:
                run(k, t)
            except Exception as exc:  # handed to the caller, raised below
                failed[t] = exc
                return

    # each thread runs in a copy of the caller's context, so numpy's error
    # state (np.errstate, np.seterr) holds in every lane as in the caller
    threads = [
        threading.Thread(target=contextvars.copy_context().run, args=(lane, k), name=f"encoder-lane-{k}")
        for k in range(1, lanes)
    ]
    for t in threads:
        t.start()
    try:
        lane(0)
    finally:
        for t in threads:
            t.join()
    if failed:
        raise failed[min(failed)]


def encode_points(clouds, params: PointEncoderParams, want_grads: bool) -> GradPair:
    """Unit-norm features of a (B,N,3) batch of clouds.

    Per-point MLP 3 -> h -> h with relu, pooled by concatenated mean and max
    over points, projected 2h -> d, then row-normalized. Exactly permutation
    invariant. With ``want_grads``, backward(g) -> (d_w1, d_w2, d_head);
    without, the forward keeps nothing for a backward and the result's
    ``backward`` is None.

    The step runs over groups of ``GROUP`` clouds, so each group's hidden
    layers stay in cache from their products through relu and pooling. The
    forward's products are row-blocked only, so its result does not depend
    on the grouping. With ``want_grads``, each group also keeps where its
    layer 2 is positive, in its rows of one B*N*h bool mask, and each
    channel's first argmax over points. The kept state belongs to the call,
    so backward may run more than once and forwards may interleave.

    Backward is one pass over the groups, each in its lane's group-sized
    scratch: it recomputes the group's layer 1 (K = 3), bit for bit, builds
    its layer-2 gradient from the kept mask and argmax, and sums its own
    partial ``w2`` and ``w1`` gradients over fixed ``numkit.SUM_ROWS``-row
    chunks in order, no chunk crossing the group. The partials are then
    added in group order, and the head gradient is summed over the same
    chunks of the batch. So the gradient bits depend on ``GROUP`` and
    ``SUM_ROWS`` alone, not on the lane count or on BLAS's thread count, and
    backward keeps no B*N*h float array.

    Groups run forward and backward on ``_lane_count`` parallel lanes, one
    per CPU that BLAS leaves idle: with c CPUs, ``OPENBLAS_NUM_THREADS=1``
    gives c lanes, and OpenBLAS's default of every CPU gives one. Each lane
    writes only its own groups' rows and partials, so every output bit is
    the same at any lane count.

    Clouds, weights and the head output are checked finite; the hidden
    layers only when the checked maxima do not bound them far from overflow.
    A non-finite hidden layer raises the ``NumericError`` of the first group
    that has one, at every lane count.
    """
    arr, x_max = nk._checked(clouds, "point cloud")
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ShapeError(f"point clouds must be (B,N,3), got {arr.shape}")
    n_b, n_pts, _ = arr.shape
    if n_pts < MIN_CLOUD_POINTS:
        raise ShapeError(f"point clouds need at least {MIN_CLOUD_POINTS} points, got {n_pts}")
    w1, w1_max = nk._checked(params.w1, "point encoder w1")
    w2, w2_max = nk._checked(params.w2, "point encoder w2")
    head = nk.as_f64(params.head, "point encoder head")
    ordered = np.empty_like(arr)

    h = params.hidden
    # relu can hide a hidden -inf from the output check (a non-finite pooled
    # sum cannot), so scan the hidden layers unless these bounds are far from
    # overflow; a nan bound (inf * 0) scans too
    lin1_bound = 3.0 * x_max * w1_max
    lin2_bound = h * lin1_bound * w2_max
    scan = not (lin1_bound < OVERFLOW_SAFE and lin2_bound < OVERFLOW_SAFE)
    flat = ordered.reshape(n_b * n_pts, 3)
    groups = [(lo, min(lo + GROUP, n_b)) for lo in range(0, n_b, GROUP)]
    lanes = _lane_count(len(groups))
    # two float buffers and a bool mask per lane, so no lane allocates a
    # buffer per group, forward or backward
    block = min(GROUP, n_b) * n_pts
    scratch = [(np.empty((block, h)), np.empty((block, h)), np.empty((block, h), bool)) for _ in range(lanes)]

    def layer1(lo, hi, act1, check):
        # relu'd layer 1 of clouds lo:hi into act1
        np.matmul(flat[lo * n_pts : hi * n_pts], w1, out=act1)
        if check:
            nk.as_f64(act1, "point encoder layer 1")
        return np.maximum(act1, 0.0, out=act1)

    pooled = np.empty((n_b, 2 * h))
    if want_grads:
        relu2 = np.empty((n_b, n_pts, h), bool)
        amax = np.empty((n_b, h), np.intp)

    def forward_group(lane, g):
        lo, hi = groups[g]
        m = (hi - lo) * n_pts
        buf1, buf2, mask = scratch[lane]
        for i in range(lo, hi):
            ordered[i] = arr[i][_canonical_order(arr[i])]
        np.matmul(layer1(lo, hi, buf1[:m], scan), w2, out=buf2[:m])
        if scan:
            nk.as_f64(buf2[:m], "point encoder layer 2")
        feats = np.maximum(buf2[:m], 0.0, out=buf2[:m]).reshape(hi - lo, n_pts, h)
        # the max first: the tree sum overwrites both buffers
        feats.max(axis=1, out=pooled[lo:hi, h:])
        if want_grads:
            np.greater(feats, 0.0, out=relu2[lo:hi])
            # relu outputs hold no nan or -0.0, so this is argmax's first pick
            peaks = np.equal(feats, pooled[lo:hi, None, h:], out=mask[:m].reshape(feats.shape))
            peaks.argmax(axis=1, out=amax[lo:hi])
        np.divide(_tree_sum(feats, buf1), n_pts, out=pooled[lo:hi, :h])

    _in_lanes(len(groups), lanes, forward_group)
    out = nk.l2_normalize(pooled @ head)
    if not want_grads:
        return GradPair(out.value, None)

    def backward(g):
        (gp,) = out.backward(np.asarray(g, dtype=np.float64))
        g_pool = gp @ head.T
        # d feats = g_mean / n_pts everywhere + g_max at the first argmax;
        # + 0.0 turns -0.0 into +0.0, as summing into a zeroed buffer does
        g_mean = g_pool[:, :h] / n_pts
        share = (g_mean + 0.0)[:, None, :]
        peak = np.where(pooled[:, h:] > 0.0, g_pool[:, h:] + g_mean, 0.0)
        g_w1s, g_w2s = np.empty((len(groups), 3, h)), np.empty((len(groups), h, h))

        def group_grads(lane, g):
            lo, hi = groups[g]
            m = (hi - lo) * n_pts
            act1, g_lin, mask = (buf[:m] for buf in scratch[lane])
            # the recomputed layer equals the forward's bit for bit: no scan
            layer1(lo, hi, act1, False)
            # layer 2's gradient into g_lin, then layer 1's over it
            g_feats = _masked(relu2[lo:hi], share[lo:hi], g_lin.reshape(hi - lo, n_pts, h))
            g_feats[np.arange(hi - lo)[:, None], amax[lo:hi], np.arange(h)] = peak[lo:hi]
            g_w2s[g] = nk._t_matmul(act1, g_lin)
            np.greater(act1, 0.0, out=mask)
            g_act1 = np.matmul(g_lin, w2.T, out=act1)  # act1 is spent once its mask is taken
            g_w1s[g] = nk._t_matmul(flat[lo * n_pts : hi * n_pts], _masked(mask, g_act1, g_lin))

        _in_lanes(len(groups), lanes, group_grads)
        # the group partials add in group order, whichever lane made each
        return functools.reduce(np.add, g_w1s), functools.reduce(np.add, g_w2s), nk._t_matmul(pooled, gp)

    return GradPair(out.value, backward)
