"""Optimizer, learning-rate schedule, the two pre-training stages, the
one-stage ablation, and binary checkpointing.

Training steps run in order and are fully determined by (seed, config,
dataset): per-epoch shuffles derive from (seed, epoch), the optimizer is
functional, and checkpoints restore parameters, moments, and step counter
exactly, so a resumed run reproduces an uninterrupted one bit for bit.
"""

from __future__ import annotations

import contextvars
import csv
import hashlib
import math
import struct
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import numkit as nk
from .adapters import AdapterParams, CiaConfig, cia_forward, dual_forward
from .codec import FramedReader, atomic_open, format_value, parse_value, write_framed
from .datagen import PRETRAIN, EVAL_HELDOUT, TripletSet
from .encoders import PointEncoderParams, _lane_count, encode_points
from .errors import ConfigError, DegenerateVectorError, FormatError, IncompatibilityError, ShapeError
from .losses import ACCURACY_BATCH, LossConfig, _scorer, contrastive_loss, trimodal_loss

ADAM_EPS = 1e-8

CKPT_MAGIC = b"TAMK"
CKPT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 5e-4
    warmup_epochs: int = 2
    total_epochs: int = 50
    batch_size: int = 128
    tau: float = LossConfig.tau
    alpha: float = CiaConfig.alpha
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be positive and finite, got {self.base_lr}")
        if not all(0 <= b < 1 for b in self.betas):
            raise ConfigError(f"betas must lie in [0, 1), got {self.betas}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(f"need 0 <= warmup_epochs < total_epochs, got {self.warmup_epochs}/{self.total_epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        LossConfig(self.tau)  # the rules of tau and alpha, checked here before any artifact is read
        CiaConfig(self.alpha)


@dataclass
class OptimState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros(cls, params: dict[str, np.ndarray]) -> "OptimState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            step=0,
        )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimState,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    weight_decay: float = 0.0,
) -> tuple[dict[str, np.ndarray], OptimState]:
    """Decoupled-weight-decay update with bias correction; purely functional."""
    if params.keys() != grads.keys():
        raise ShapeError(f"parameter/gradient key mismatch: {sorted(params)} vs {sorted(grads)}")
    b1, b2 = betas
    t = state.step + 1
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    new_p, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        m = b1 * state.m[name] + (1.0 - b1) * g
        v = b2 * state.v[name] + (1.0 - b2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
        new_p[name] = (1.0 - lr * weight_decay) * p - lr * update
        new_m[name] = m
        new_v[name] = v
    return new_p, OptimState(new_m, new_v, t)


def cosine_lr(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear warmup to base_lr, then a half cosine down to zero."""
    if not 0 <= step <= total_steps:
        raise ConfigError(f"step {step} outside [0, {total_steps}]")
    if not 0 <= warmup_steps < total_steps:
        raise ConfigError(f"need 0 <= warmup_steps < total_steps, got {warmup_steps}/{total_steps}")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# Stage orchestration
# ---------------------------------------------------------------------------


class Checkpoint(NamedTuple):
    blocks: dict[str, np.ndarray]
    optim: OptimState
    config: TrainConfig
    meta: dict[str, str]


def _epoch_perm(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, epoch, 0x5EED]).permutation(n)


def _resume_state(resume: Checkpoint | None, params: dict, cfg: TrainConfig, record: dict, frozen: dict, spe: int):
    """The fresh state of ``params``, or ``resume``'s if it continues this very run:
    the same config (by parsed value) and ``record`` (``run_meta``; a key it lacks
    is a mismatch), its blocks outside ``params`` bit for bit this run's
    ``frozen`` ones, an epoch-boundary step, and ``params``' shapes."""
    if resume is None:
        return {name: p.copy() for name, p in params.items()}, OptimState.zeros(params), 0
    found = {**vars(resume.config), **{key: resume.meta.get(key) for key in record}}
    for key, value in {**vars(cfg), **record}.items():
        if found[key] != value:
            was = f"no recorded {key}" if found[key] is None else f"{key}={found[key]}"
            raise IncompatibilityError(f"resume checkpoint was fit with {was}, not {key}={value}")
    fitted = {(name, b.shape, b.tobytes()) for name, b in resume.blocks.items() if name not in params}
    ours = {(name, b.shape, b.tobytes()) for name, b in frozen.items()}
    if fitted != ours:
        differ = ", ".join(sorted({name for name, *_ in fitted ^ ours}))
        raise IncompatibilityError(f"resume checkpoint's frozen blocks differ from this run's: {differ}")
    # every checkpoint tamm writes sits on an epoch boundary
    step = resume.optim.step
    if not (0 <= step <= spe * cfg.total_epochs and step % spe == 0):
        raise IncompatibilityError(f"resume step {step} is not an epoch boundary ({spe} steps per epoch)")
    for name, p in params.items():
        for prefix, store in (("", resume.blocks), ("optim.m:", resume.optim.m), ("optim.v:", resume.optim.v)):
            shape = getattr(store.get(name), "shape", None)
            if shape != p.shape:
                raise ShapeError(f"checkpoint block {prefix}{name!r} has shape {shape}, expected {p.shape}")
    restored = {name: resume.blocks[name].copy() for name in params}
    return restored, resume.optim, step


def _fit(
    params: dict[str, np.ndarray],
    step,
    n: int,
    cfg: TrainConfig,
    record: dict[str, str],
    resume: Checkpoint | None = None,
    on_epoch=None,
    initial_row: bool = True,
    frozen: dict[str, np.ndarray] | None = None,
    *,
    stop_after_epochs: int | None = None,
) -> tuple[dict[str, np.ndarray], list[dict], OptimState]:
    """The epoch loop every stage shares: shuffle, cosine LR, AdamW.

    ``step(params, take, want_grads) -> (terms, grads)`` runs one batch of the
    ``n`` training examples; ``terms`` holds per-batch scalars whose epoch
    means become the row's metrics, and ``on_epoch(params, means)`` may turn
    those means into the row's final metric fields. ``initial_row`` adds an
    epoch-0 row for the untrained state (fresh runs only), evaluated on the
    unshuffled batches. ``record`` (``run_meta``) labels the rows with its
    stage, and ``resume`` must match it and ``frozen``, the blocks the run
    reads but does not train (``_resume_state``). Resuming a finished run
    trains nothing and returns no rows. ``stop_after_epochs`` ends the run
    after that many epochs without altering the schedule; no ``train_*`` function passes it, and the
    interrupt-and-resume tests bind it with ``functools.partial`` over
    ``train._fit``, which the ``train_*`` functions look up at call time.

    With a CPU that BLAS leaves idle (``_lane_count(2) >= 2``), rows are
    recorded in epoch order on a helper thread beside the next epoch's steps.
    ``on_epoch`` must not write ``params`` and should allocate no full-size
    array there (glibc gives each thread its own arena). Errors surface in
    serial order, and a ``KeyboardInterrupt`` is never replaced.
    """
    if cfg.batch_size > n:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds {n} training examples")
    bs = cfg.batch_size
    spe = n // bs
    total_steps = spe * cfg.total_epochs
    warmup_steps = spe * cfg.warmup_epochs
    params, optim, start_step = _resume_state(resume, params, cfg, record, frozen or {}, spe)

    rows: list[dict] = []
    helper = ThreadPoolExecutor(1, thread_name_prefix="tamm-epoch-row") if _lane_count(2) >= 2 else None
    pending: list[Future] = []  # the row in flight on the helper

    def add_row(params, epoch: int, terms: list[dict], lr: float) -> None:
        means = {key: float(np.mean([t[key] for t in terms])) for key in terms[0]}
        metrics = on_epoch(params, means) if on_epoch else means
        rows.append({"stage": record["trained_stage"], "epoch": epoch, **metrics, "lr": lr})

    def settle() -> None:
        if pending:
            pending.pop().result()  # raises the row's error

    def submit(*args) -> None:
        settle()
        if helper is None:
            add_row(*args)
        else:  # in a copy of the caller's context, so that np.errstate holds there too
            pending.append(helper.submit(contextvars.copy_context().run, add_row, *args))

    lr = 0.0
    last_epoch = cfg.total_epochs if stop_after_epochs is None else min(stop_after_epochs, cfg.total_epochs)
    try:
        if initial_row and start_step == 0:
            submit(params, 0, [step(params, np.arange(b * bs, (b + 1) * bs), False)[0] for b in range(spe)], 0.0)
        for epoch in range(start_step // spe, last_epoch):
            perm = _epoch_perm(cfg.seed, epoch, n)
            terms = []
            for b in range(spe):
                gstep = epoch * spe + b
                batch_terms, grads = step(params, perm[b * bs : (b + 1) * bs], True)
                lr = cosine_lr(gstep, total_steps, warmup_steps, cfg.base_lr)
                params, optim = adamw_step(params, grads, optim, lr, cfg.betas, cfg.weight_decay)
                terms.append(batch_terms)
            submit(params, epoch + 1, terms, lr)
        settle()
    except Exception:
        settle()  # a serial loop meets the error of the row in flight first
        raise
    finally:
        if helper is not None:
            helper.shutdown()
    return params, rows, optim


def _realign_step(
    params, image_batches, texts, weight: float, loss_cfg: LossConfig, cia_cfg: CiaConfig, want_grads: bool
):
    """Mean contrastive loss of the cia-adapted image batches against the texts,
    the adapted batches, and the ``cia`` gradients of each batch's loss at ``weight``."""
    cia = blocks_to_model(params)[0]
    adapted = [cia_forward(x, cia, cia_cfg) for x in image_batches]
    pairs = [contrastive_loss(a.value, texts, loss_cfg) for a in adapted]
    loss = float(np.sum([p.value for p in pairs])) / len(pairs)
    views = [a.value for a in adapted]
    if not want_grads:
        return loss, views, None
    g_w1 = g_w2 = 0.0
    for a, p in zip(adapted, pairs):
        _, gw1, gw2 = a.backward(p.backward(weight)[0])
        g_w1, g_w2 = g_w1 + gw1, g_w2 + gw2
    return loss, views, model_blocks(AdapterParams(g_w1, g_w2))


def _trimodal_step(params, clouds, texts, views, loss_cfg: LossConfig, want_grads: bool):
    """Trimodal loss of the point encoder and dual heads against fixed image
    views, and its gradients for the ``pe``/``iaa``/``taa`` blocks."""
    _, pe, iaa, taa = blocks_to_model(params)
    enc_out = encode_points(clouds, pe, want_grads)
    vp = dual_forward(enc_out.value, iaa)
    sp = dual_forward(enc_out.value, taa)
    tl = trimodal_loss(sp.value, texts, vp.value, views, loss_cfg)
    if not want_grads:
        return tl, None
    d_sp, d_vp = tl.backward(1.0)
    g_fp_t, g_t1, g_t2 = sp.backward(d_sp)
    g_fp_v, g_v1, g_v2 = vp.backward(d_vp)
    g_w1, g_w2, g_head = enc_out.backward(g_fp_t + g_fp_v)
    pe_grads = PointEncoderParams(g_w1, g_w2, g_head)
    return tl, model_blocks(None, pe_grads, AdapterParams(g_v1, g_v2), AdapterParams(g_t1, g_t2))


def stage1_step(views: np.ndarray, texts: np.ndarray, cfg: TrainConfig):
    """Stage 1 over (n, m, d) image views: the realign loss of the cia, with
    every (sample, view) pair one example; example r is view r % m of sample r // m."""
    loss_cfg, cia_cfg = LossConfig(cfg.tau), CiaConfig(cfg.alpha)
    m = views.shape[1]
    rows = views.reshape(-1, views.shape[2])

    def step(params, take, want_grads):
        loss, _, grads = _realign_step(params, [rows[take]], texts[take // m], 1.0, loss_cfg, cia_cfg, want_grads)
        return {"loss": loss}, grads

    return step


def stage2_step(views: np.ndarray, texts: np.ndarray, clouds: np.ndarray, cfg: TrainConfig):
    """Stage 2 against fixed (n, m, d) image views: the trimodal loss and its terms."""
    loss_cfg = LossConfig(cfg.tau)

    def step(params, take, want_grads):
        fixed = [views[take, k] for k in range(views.shape[1])]
        tl, grads = _trimodal_step(params, clouds[take], texts[take], fixed, loss_cfg, want_grads)
        return {"loss": tl.value, "loss_text": tl.text_term, "loss_image": tl.image_term}, grads

    return step


def joint_step(images: np.ndarray, texts: np.ndarray, clouds: np.ndarray, cfg: TrainConfig):
    """The one-stage ablation over (n, m, d) raw image views: the realign loss (each
    view at weight 1/m) plus the trimodal loss against the adapted views, which
    are fixed targets there, so the cia learns only through the realign term."""
    loss_cfg, cia_cfg = LossConfig(cfg.tau), CiaConfig(cfg.alpha)
    m = images.shape[1]

    def step(params, take, want_grads):
        batches = [images[take, k] for k in range(m)]
        realign, views, cia_grads = _realign_step(params, batches, texts[take], 1.0 / m, loss_cfg, cia_cfg, want_grads)
        tl, grads = _trimodal_step(params, clouds[take], texts[take], views, loss_cfg, want_grads)
        terms = dict(loss_realign=realign, loss_trimodal=tl.value, loss_text=tl.text_term, loss_image=tl.image_term)
        if want_grads:
            grads.update(cia_grads)
        return terms, grads

    return step


def adapt_views(image_feats: np.ndarray, cia: AdapterParams | None, cfg: CiaConfig) -> np.ndarray:
    """Push (n, m, d) image features through a frozen cia; identity when None.
    Either way the views come back as float64."""
    if cia is None:
        return nk.as_f64(image_feats, "image features")
    flat = cia_forward(image_feats.reshape(-1, image_feats.shape[-1]), cia, cfg).value
    return flat.reshape(image_feats.shape)


def _accuracy_check(splits, hidden: int, cfg: CiaConfig):
    """``check(cia)``: ``contrastive_accuracy(adapt_views(images, cia, cfg),
    texts)`` of each (n, m, d) image / (n, d) text split, bit for bit, in work
    buffers built here once, calling nothing perfbench traces (its tracer keeps
    one span stack). Weights are checked on every call, the hidden layer and
    blend only under ``numkit.matmul``'s overflow bound."""
    d = splits[0][0].shape[2]
    n_rows = max(images.shape[0] * images.shape[1] for images, _ in splits)
    # the scores reuse the blend's buffer, and the hidden layer and the scorer's stack the spare one
    bufs = [np.empty(n_rows * width) for width in (max(d, ACCURACY_BATCH), max(d, hidden), 1)]
    prepared = []
    for images, texts in splits:
        n, m, _ = images.shape
        score = _scorer(nk.as_f64(texts, "text features"), m, stack=bufs[1], scores=bufs[0])
        x, x_max = nk._checked(images.reshape(-1, d), "image features")
        views = [(0, n * m, d), (1, n * m, hidden), (1, n * m, d), (2, n * m, 1)]
        blend, hid, spare, norms = (bufs[i][: math.prod(s)].reshape(s) for i, *s in views)
        prepared.append((x, x_max, blend, hid, spare, norms, blend.reshape(n, m, d), score))

    def check(cia: AdapterParams) -> list[float]:
        w1, w1_max = nk._checked(cia.w1, "cia w1")
        w2, w2_max = nk._checked(cia.w2, "cia w2")
        accs = []
        for x, x_max, blend, hid, spare, norms, adapted, score in prepared:
            np.matmul(x, w1, out=hid)
            if not d * x_max * w1_max < nk.OVERFLOW_SAFE:
                nk._finite_out(hid, "cia hidden layer")
            np.maximum(hid, 0.0, out=hid)
            np.matmul(hid, w2, out=blend)
            blend *= cfg.alpha
            blend += np.multiply(1.0 - cfg.alpha, x, out=spare)
            if not hidden * d * x_max * w1_max * w2_max + x_max < nk.OVERFLOW_SAFE:
                nk._finite_out(blend, "cia blend")
            # np.linalg.norm's own steps, then l2_normalize's
            np.sqrt(np.add.reduce(np.multiply(blend, blend, out=spare), axis=1, keepdims=True, out=norms), out=norms)
            if norms.min() <= nk.NORM_EPS:
                raise DegenerateVectorError(f"cannot normalize: norm <= {nk.NORM_EPS}")
            blend /= norms
            accs.append(score(adapted))
        return accs

    return check


def views_count(data: TripletSet, views_limit: int | None) -> int:
    m = data.spec.views if views_limit is None else views_limit
    if m < 1:
        raise ConfigError(f"views must be >= 1, got {m}")
    if m > data.spec.views:
        raise IncompatibilityError(f"requested {views_limit} views, dataset stores {data.spec.views}")
    return m


def run_meta(stage: str, data: TripletSet, views_limit: int | None = None) -> dict[str, str]:
    """The record a ``stage`` ("stage1", "stage2" or "joint") checkpoint keeps of its run beside
    the config, which a resume must match: ``trained_stage``, ``dataset`` (a 12-hex sha256
    prefix of ``repr(data.spec)``) and, for stage 2 and joint, ``views``."""
    views = {} if stage == "stage1" else {"views": str(views_count(data, views_limit))}
    return {"trained_stage": stage, "dataset": hashlib.sha256(repr(data.spec).encode()).hexdigest()[:12], **views}


def run_id(cfg: TrainConfig, record: dict[str, str], frozen: dict[str, np.ndarray]) -> str:
    """The metrics CSV's id of a run: a 10-hex sha256 prefix of what ``_resume_state``
    requires a resume to share with its run, the config, ``record`` (``run_meta``) and
    the ``frozen`` blocks (stage 2's cia, else none). A resume keeps its run's id."""
    facts = {**config_to_meta(cfg), **record}
    h = hashlib.sha256("".join(f"{key}={facts[key]}\n" for key in sorted(facts)).encode())
    for name in sorted(frozen):
        block = np.ascontiguousarray(frozen[name], "<f8")
        h.update(f"{name}{block.shape}\n".encode() + block.tobytes())
    return h.hexdigest()[:10]


def train_stage1(
    data: TripletSet,
    cia: AdapterParams,
    cfg: TrainConfig,
    resume: Checkpoint | None = None,
) -> tuple[AdapterParams, list[dict], OptimState]:
    """Fit the image re-alignment adapter on shifted image/text pairs.

    Every view of a sample counts as an independent pair. Returns the trained
    adapter, one metrics row per epoch (plus an epoch-0 row for the untrained
    state), and the final optimizer state.
    """
    # the pretrain features stage 1 fits and the held-out ones of the per-epoch diagnostic, gathered and widened once
    splits = [
        (nk.as_f64(data.image_feats[idx], "image features"), nk.as_f64(data.text_feats[idx], "text features"))
        for idx in map(data.indices, (PRETRAIN, EVAL_HELDOUT))
    ]
    check = _accuracy_check(splits, cia.w1.shape[1], CiaConfig(cfg.alpha))

    def on_epoch(params, means):
        pre, held = check(blocks_to_model(params)[0])
        return {**means, "acc_pretrain": pre, "acc_heldout": held}

    views, texts = splits[0]
    step = stage1_step(views, texts, cfg)
    n = views.shape[0] * views.shape[1]
    params, rows, optim = _fit(model_blocks(cia), step, n, cfg, run_meta("stage1", data), resume, on_epoch)
    return blocks_to_model(params)[0], rows, optim


def train_stage2(
    data: TripletSet,
    cia: AdapterParams | None,
    encoder: PointEncoderParams,
    iaa: AdapterParams,
    taa: AdapterParams,
    cfg: TrainConfig,
    resume: Checkpoint | None = None,
    views_limit: int | None = None,
) -> tuple[PointEncoderParams, AdapterParams, AdapterParams, list[dict], OptimState]:
    """Fit the point encoder and the dual adapters against frozen targets.

    Image features pass once through the frozen cia (``None`` trains directly
    against the raw, shifted features). Both loss components are logged.
    """
    m = views_count(data, views_limit)
    idx = data.indices(PRETRAIN)
    adapted = adapt_views(data.image_feats[idx, :m], cia, CiaConfig(cfg.alpha))
    step = stage2_step(adapted, data.text_feats[idx], data.points[idx], cfg)
    blocks = model_blocks(None, encoder, iaa, taa)
    params, rows, optim = _fit(blocks, step, idx.size, cfg, run_meta("stage2", data, m), resume, frozen=model_blocks(cia))
    _, out_pe, out_iaa, out_taa = blocks_to_model(params)
    return out_pe, out_iaa, out_taa, rows, optim


def train_onestage(
    data: TripletSet,
    cia: AdapterParams,
    encoder: PointEncoderParams,
    iaa: AdapterParams,
    taa: AdapterParams,
    cfg: TrainConfig,
    resume: Checkpoint | None = None,
    views_limit: int | None = None,
) -> tuple[AdapterParams, PointEncoderParams, AdapterParams, AdapterParams, list[dict], OptimState]:
    """Joint ablation: one loop over realign + trimodal with the cia trainable
    (see ``joint_step``)."""
    m = views_count(data, views_limit)
    idx = data.indices(PRETRAIN)
    step = joint_step(data.image_feats[idx, :m], data.text_feats[idx], data.points[idx], cfg)

    def on_epoch(params, means):
        return {"loss": means["loss_realign"] + means["loss_trimodal"], **means}

    blocks = model_blocks(cia, encoder, iaa, taa)
    params, rows, optim = _fit(blocks, step, idx.size, cfg, run_meta("joint", data, m), resume, on_epoch, initial_row=False)
    out_cia, out_pe, out_iaa, out_taa = blocks_to_model(params)
    return out_cia, out_pe, out_iaa, out_taa, rows, optim


# ---------------------------------------------------------------------------
# Checkpoints and metrics
# ---------------------------------------------------------------------------


def config_to_meta(cfg: TrainConfig) -> dict[str, str]:
    return {f.name: format_value(getattr(cfg, f.name)) for f in fields(cfg)}


def config_from_meta(meta: dict[str, str]) -> TrainConfig:
    return TrainConfig(**{f.name: parse_value(f, meta[f.name]) for f in fields(TrainConfig)})


def save_checkpoint(
    path,
    blocks: dict[str, np.ndarray],
    optim: OptimState,
    cfg: TrainConfig,
    step: int,
    extra: dict[str, str] | None = None,
) -> None:
    """Meta (key=value lines), then named f64 blocks, optimizer moments included."""
    meta = dict(config_to_meta(cfg))
    meta["step"] = str(step)
    for k, v in (extra or {}).items():
        if k in meta:
            raise ConfigError(f"extra meta key {k!r} collides with a config key")
        meta[k] = str(v)
    all_blocks = dict(blocks)
    for name, arr in optim.m.items():
        all_blocks[f"optim.m:{name}"] = arr
    for name, arr in optim.v.items():
        all_blocks[f"optim.v:{name}"] = arr
    meta_bytes = "\n".join(f"{k}={meta[k]}" for k in sorted(meta)).encode("utf-8")
    parts = [struct.pack("<I", len(meta_bytes)), meta_bytes, struct.pack("<I", len(all_blocks))]
    for name in sorted(all_blocks):
        arr = np.ascontiguousarray(all_blocks[name], dtype="<f8")
        nb = name.encode("utf-8")
        parts += [struct.pack(f"<I{len(nb)}sI{arr.ndim}I", len(nb), nb, arr.ndim, *arr.shape), arr]
    write_framed(path, CKPT_MAGIC, CKPT_VERSION, parts)


def load_checkpoint(path) -> Checkpoint:
    reader = FramedReader(path, CKPT_MAGIC, CKPT_VERSION, "checkpoint")
    (meta_len,) = reader.unpack("<I", "meta length")
    meta_at = reader.offset
    meta = {}
    for line in reader.text(meta_len, "meta").splitlines():
        key, _, value = line.partition("=")
        meta[key] = value
    (n_blocks,) = reader.unpack("<I", "block count")
    named: dict[str, np.ndarray] = {}
    for _ in range(n_blocks):
        (name_len,) = reader.unpack("<I", "block name length")
        name = reader.text(name_len, "block name")
        (ndim,) = reader.unpack("<I", "block rank")
        dims = reader.unpack(f"<{ndim}I", "block dims")
        named[name] = reader.array("<f8", dims, f"block {name!r} data")
    reader.finish()
    blocks = {k: v for k, v in named.items() if not k.startswith("optim.")}
    m = {k.split(":", 1)[1]: v for k, v in named.items() if k.startswith("optim.m:")}
    v = {k.split(":", 1)[1]: v for k, v in named.items() if k.startswith("optim.v:")}
    # a damaged file, not a missing stage: an unknown block, or a model part cut short
    if named.keys() - _CKPT_NAMES:
        raise FormatError(f"checkpoint block {min(named.keys() - _CKPT_NAMES)!r} is not a model block")
    for _, names in _BLOCK_LAYOUT:
        if names.keys() & blocks.keys() and not names.keys() <= blocks.keys():
            raise FormatError(f"checkpoint block {min(names.keys() - blocks.keys())!r} is missing from its part")
    try:
        step = int(meta["step"])
        cfg = config_from_meta(meta)
    except KeyError as exc:
        raise FormatError(f"checkpoint meta block at byte {meta_at}: missing key {exc}") from None
    except ValueError as exc:  # ConfigError included
        raise FormatError(f"checkpoint meta block at byte {meta_at}: {exc}") from None
    return Checkpoint(blocks, OptimState(m, v, step), cfg, meta)


# each model part's type and its {block name: field}, in model_blocks' order
_BLOCK_LAYOUT = tuple(
    (cls, {f"{part}.{f.name}": f.name for f in fields(cls)})
    for part, cls in zip(("cia", "pe", "iaa", "taa"), (AdapterParams, PointEncoderParams, AdapterParams, AdapterParams))
)
_CKPT_NAMES = frozenset(pre + name for pre in ("", "optim.m:", "optim.v:") for _, names in _BLOCK_LAYOUT for name in names)


def model_blocks(
    cia: AdapterParams | None,
    encoder: PointEncoderParams | None = None,
    iaa: AdapterParams | None = None,
    taa: AdapterParams | None = None,
) -> dict[str, np.ndarray]:
    blocks: dict[str, np.ndarray] = {}
    for part, (_, names) in zip((cia, encoder, iaa, taa), _BLOCK_LAYOUT):
        if part is not None:
            for name, attr in names.items():
                blocks[name] = getattr(part, attr)
    return blocks


def blocks_to_model(
    blocks: dict[str, np.ndarray],
) -> tuple[AdapterParams | None, PointEncoderParams | None, AdapterParams | None, AdapterParams | None]:
    """The model's parts, None for each part not all of whose blocks are present."""
    return tuple(
        cls(*map(blocks.get, names)) if names.keys() <= blocks.keys() else None for cls, names in _BLOCK_LAYOUT
    )


def write_metrics_csv(rows: list[dict], path, run_id: str) -> None:
    """Long-format metrics table: run_id, stage, epoch, metric, value."""
    with atomic_open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "stage", "epoch", "metric", "value"])
        for row in rows:
            for key, value in row.items():
                if key in ("stage", "epoch"):
                    continue
                writer.writerow([run_id, row["stage"], row["epoch"], key, repr(float(value))])
