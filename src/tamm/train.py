"""Optimizer, learning-rate schedule, the two pre-training stages, the
one-stage ablation, and binary checkpointing.

Training is single-threaded and fully determined by (seed, config, dataset):
per-epoch shuffles derive from (seed, epoch), the optimizer is functional,
and checkpoints restore parameters, moments, and step counter exactly, so a
resumed run reproduces an uninterrupted one bit for bit.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .adapters import AdapterParams, CiaConfig, cia_forward, dual_forward
from .codec import FramedReader, atomic_open, format_value, parse_value, write_framed
from .datagen import PRETRAIN, EVAL_HELDOUT, TripletSet, batched_contrastive_accuracy
from .encoders import PointEncoderParams, encode_points
from .errors import ConfigError, FormatError, IncompatibilityError, ShapeError
from .losses import LossConfig, contrastive_loss, trimodal_loss

ADAM_EPS = 1e-8

CKPT_MAGIC = b"TAMK"
CKPT_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    base_lr: float = 5e-4
    warmup_epochs: int = 2
    total_epochs: int = 50
    batch_size: int = 128
    tau: float = 0.07
    alpha: float = 0.2
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if not self.base_lr > 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not 0 <= self.warmup_epochs < self.total_epochs:
            raise ConfigError(f"need 0 <= warmup_epochs < total_epochs, got {self.warmup_epochs}/{self.total_epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")


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
    eps: float = ADAM_EPS,
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
        update = (m / c1) / (np.sqrt(v / c2) + eps)
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
    step: int
    meta: dict[str, str]


def _epoch_perm(seed: int, epoch: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, epoch, 0x5EED]).permutation(n)


def _resume_state(resume: Checkpoint | None, params: dict, cfg: TrainConfig, stage: str, spe: int):
    if resume is None:
        return {name: p.copy() for name, p in params.items()}, OptimState.zeros(params), 0
    if resume.config != cfg:
        raise IncompatibilityError("resume checkpoint was written with a different train config")
    if resume.meta.get("trained_stage") != stage:
        raise IncompatibilityError(f"resume checkpoint is for stage {resume.meta.get('trained_stage')!r}, not {stage!r}")
    # every checkpoint tamm writes sits on an epoch boundary
    if not (0 <= resume.step <= spe * cfg.total_epochs and resume.step % spe == 0):
        raise IncompatibilityError(f"resume step {resume.step} is not an epoch boundary ({spe} steps per epoch)")
    for name, p in params.items():
        for prefix, store in (("", resume.blocks), ("optim.m:", resume.optim.m), ("optim.v:", resume.optim.v)):
            shape = getattr(store.get(name), "shape", None)
            if shape != p.shape:
                raise ShapeError(f"checkpoint block {prefix}{name!r} has shape {shape}, expected {p.shape}")
    restored = {name: resume.blocks[name].copy() for name in params}
    return restored, resume.optim, resume.step


def _fit(
    params: dict[str, np.ndarray],
    step,
    n: int,
    cfg: TrainConfig,
    stage: str,
    resume: Checkpoint | None = None,
    stop_after_epochs: int | None = None,
    on_epoch=None,
    initial_row: bool = True,
) -> tuple[dict[str, np.ndarray], list[dict], OptimState]:
    """The epoch loop every stage shares: shuffle, cosine LR, AdamW.

    ``step(params, take, want_grads) -> (terms, grads)`` runs one batch of the
    ``n`` training examples; ``terms`` holds per-batch scalars whose epoch
    means become the row's metrics, and ``on_epoch(params, means)`` may turn
    those means into the row's final metric fields. ``initial_row`` adds an
    epoch-0 row for the untrained state (fresh runs only), evaluated on the
    unshuffled batches. ``stop_after_epochs`` interrupts the run early without
    altering the schedule, for checkpoint-and-resume. Resuming a finished run
    trains nothing and returns no rows.
    """
    if cfg.batch_size > n:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds {n} training examples")
    bs = cfg.batch_size
    spe = n // bs
    total_steps = spe * cfg.total_epochs
    warmup_steps = spe * cfg.warmup_epochs
    params, optim, start_step = _resume_state(resume, params, cfg, stage, spe)

    rows: list[dict] = []

    def record(params, epoch: int, terms: list[dict], lr: float) -> None:
        means = {key: float(np.mean([t[key] for t in terms])) for key in terms[0]}
        metrics = on_epoch(params, means) if on_epoch else means
        rows.append({"stage": stage, "epoch": epoch, **metrics, "lr": lr})

    if initial_row and start_step == 0:
        record(params, 0, [step(params, np.arange(b * bs, (b + 1) * bs), False)[0] for b in range(spe)], 0.0)

    lr = 0.0
    last_epoch = cfg.total_epochs if stop_after_epochs is None else min(stop_after_epochs, cfg.total_epochs)
    for epoch in range(start_step // spe, last_epoch):
        perm = _epoch_perm(cfg.seed, epoch, n)
        terms = []
        for b in range(spe):
            gstep = epoch * spe + b
            batch_terms, grads = step(params, perm[b * bs : (b + 1) * bs], True)
            lr = cosine_lr(gstep, total_steps, warmup_steps, cfg.base_lr)
            params, optim = adamw_step(params, grads, optim, lr, cfg.betas, cfg.weight_decay)
            terms.append(batch_terms)
        record(params, epoch + 1, terms, lr)
    return params, rows, optim


def train_stage1(
    data: TripletSet,
    cia: AdapterParams,
    cfg: TrainConfig,
    resume: Checkpoint | None = None,
    stop_after_epochs: int | None = None,
) -> tuple[AdapterParams, list[dict], OptimState]:
    """Fit the image re-alignment adapter on shifted image/text pairs.

    Every view of a sample counts as an independent pair. Returns the trained
    adapter, one metrics row per epoch (plus an epoch-0 row for the untrained
    state), and the final optimizer state.
    """
    # pretrain and held-out features of the per-epoch diagnostic, gathered once
    splits = [(data.image_feats[idx], data.text_feats[idx]) for idx in map(data.indices, (PRETRAIN, EVAL_HELDOUT))]
    imgs = splits[0][0].reshape(-1, data.spec.feature_dim)
    txts = np.repeat(splits[0][1], data.spec.views, axis=0)
    loss_cfg = LossConfig(cfg.tau)
    cia_cfg = CiaConfig(cfg.alpha)

    def step(params, take, want_grads):
        adapted = cia_forward(imgs[take], blocks_to_model(params)[0], cia_cfg)
        loss = contrastive_loss(adapted.value, txts[take], loss_cfg)
        if not want_grads:
            return {"loss": loss.value}, None
        (d_adapted,) = loss.backward(1.0)
        _, gw1, gw2 = adapted.backward(d_adapted)
        return {"loss": loss.value}, model_blocks(AdapterParams(gw1, gw2))

    def on_epoch(params, means):
        cur = blocks_to_model(params)[0]
        pre, held = (batched_contrastive_accuracy(adapt_views(im, cur, cia_cfg), tx) for im, tx in splits)
        return {**means, "acc_pretrain": pre, "acc_heldout": held}

    params, rows, optim = _fit(
        model_blocks(cia), step, imgs.shape[0], cfg, "stage1", resume, stop_after_epochs, on_epoch
    )
    return blocks_to_model(params)[0], rows, optim


def adapt_views(image_feats: np.ndarray, cia: AdapterParams | None, cfg: CiaConfig) -> np.ndarray:
    """Push (n, m, d) image features through a frozen cia; identity when None."""
    if cia is None:
        return image_feats
    flat = cia_forward(image_feats.reshape(-1, image_feats.shape[-1]), cia, cfg).value
    return flat.reshape(image_feats.shape)


def views_count(data: TripletSet, views_limit: int | None) -> int:
    m = data.spec.views if views_limit is None else views_limit
    if not 1 <= m <= data.spec.views:
        raise IncompatibilityError(f"requested {views_limit} views, dataset stores {data.spec.views}")
    return m


def _trimodal_step(params, clouds, texts, views, loss_cfg: LossConfig, want_grads: bool):
    """Trimodal loss of the point encoder and dual heads against fixed image
    views, and its gradients for the ``pe``/``iaa``/``taa`` blocks."""
    _, pe, iaa, taa = blocks_to_model(params)
    enc_out = encode_points(clouds, pe)
    vp = dual_forward(enc_out.value, iaa)
    sp = dual_forward(enc_out.value, taa)
    tl = trimodal_loss(sp.value, texts, vp.value, views, loss_cfg)
    if not want_grads:
        return tl, None
    d_sp, d_vp = tl.backward(1.0)
    g_fp_t, g_t1, g_t2 = sp.backward(d_sp)
    g_fp_v, g_v1, g_v2 = vp.backward(d_vp)
    g_w1, g_w2, g_head = enc_out.backward(g_fp_t + g_fp_v)
    grads = model_blocks(
        None,
        PointEncoderParams(g_w1, g_w2, g_head),
        AdapterParams(g_v1, g_v2),
        AdapterParams(g_t1, g_t2),
    )
    return tl, grads


def train_stage2(
    data: TripletSet,
    cia: AdapterParams | None,
    encoder: PointEncoderParams,
    iaa: AdapterParams,
    taa: AdapterParams,
    cfg: TrainConfig,
    resume: Checkpoint | None = None,
    views_limit: int | None = None,
    stop_after_epochs: int | None = None,
) -> tuple[PointEncoderParams, AdapterParams, AdapterParams, list[dict], OptimState]:
    """Fit the point encoder and the dual adapters against frozen targets.

    Image features pass once through the frozen cia (``None`` trains directly
    against the raw, shifted features). Both loss components are logged.
    """
    m = views_count(data, views_limit)
    idx = data.indices(PRETRAIN)
    adapted = adapt_views(data.image_feats[idx][:, :m], cia, CiaConfig(cfg.alpha))
    texts = data.text_feats[idx]
    clouds = data.points[idx]
    loss_cfg = LossConfig(cfg.tau)

    def step(params, take, want_grads):
        views = [adapted[take, k] for k in range(m)]
        tl, grads = _trimodal_step(params, clouds[take], texts[take], views, loss_cfg, want_grads)
        return {"loss": tl.value, "loss_text": tl.text_term, "loss_image": tl.image_term}, grads

    params, rows, optim = _fit(
        model_blocks(None, encoder, iaa, taa), step, idx.size, cfg, "stage2", resume, stop_after_epochs
    )
    _, out_pe, out_iaa, out_taa = blocks_to_model(params)
    return out_pe, out_iaa, out_taa, rows, optim


def train_onestage(
    data: TripletSet,
    cia: AdapterParams,
    encoder: PointEncoderParams,
    iaa: AdapterParams,
    taa: AdapterParams,
    cfg: TrainConfig,
    views_limit: int | None = None,
    resume: Checkpoint | None = None,
    stop_after_epochs: int | None = None,
) -> tuple[AdapterParams, PointEncoderParams, AdapterParams, AdapterParams, list[dict], OptimState]:
    """Joint ablation: one loop over realign + trimodal with the cia trainable.

    The trimodal term still treats the adapted image features as frozen
    targets, so the cia only learns through the realign term.
    """
    m = views_count(data, views_limit)
    idx = data.indices(PRETRAIN)
    images = data.image_feats[idx][:, :m]
    texts = data.text_feats[idx]
    clouds = data.points[idx]
    loss_cfg = LossConfig(cfg.tau)
    cia_cfg = CiaConfig(cfg.alpha)

    def step(params, take, want_grads):
        cur_cia = blocks_to_model(params)[0]
        adapted_views = [cia_forward(images[take, k], cur_cia, cia_cfg) for k in range(m)]
        realign_pairs = [contrastive_loss(av.value, texts[take], loss_cfg) for av in adapted_views]
        views = [av.value for av in adapted_views]
        tl, grads = _trimodal_step(params, clouds[take], texts[take], views, loss_cfg, want_grads)
        terms = {
            "loss_realign": float(np.sum([rp.value for rp in realign_pairs])) / m,
            "loss_trimodal": tl.value,
            "loss_text": tl.text_term,
            "loss_image": tl.image_term,
        }
        if want_grads:
            g_c1 = np.zeros_like(params["cia.w1"])
            g_c2 = np.zeros_like(params["cia.w2"])
            for av, rp in zip(adapted_views, realign_pairs):
                (d_ad,) = rp.backward(1.0 / m)
                _, gw1, gw2 = av.backward(d_ad)
                g_c1 += gw1
                g_c2 += gw2
            grads.update(model_blocks(AdapterParams(g_c1, g_c2)))
        return terms, grads

    def on_epoch(params, means):
        return {"loss": means["loss_realign"] + means["loss_trimodal"], **means}

    params, rows, optim = _fit(
        model_blocks(cia, encoder, iaa, taa),
        step,
        idx.size,
        cfg,
        "joint",
        resume,
        stop_after_epochs,
        on_epoch,
        initial_row=False,
    )
    out_cia, out_pe, out_iaa, out_taa = blocks_to_model(params)
    return out_cia, out_pe, out_iaa, out_taa, rows, optim


# ---------------------------------------------------------------------------
# Checkpoints and metrics
# ---------------------------------------------------------------------------


def config_to_meta(cfg: TrainConfig) -> dict[str, str]:
    return {f.name: format_value(getattr(cfg, f.name)) for f in fields(cfg)}


def config_from_meta(meta: dict[str, str]) -> TrainConfig:
    try:
        return TrainConfig(**{f.name: parse_value(f, meta[f.name]) for f in fields(TrainConfig)})
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from None


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
    try:
        step = int(meta.get("step", "0"))
        cfg = config_from_meta(meta)
    except ValueError as exc:  # ConfigError included
        raise FormatError(f"checkpoint meta block at byte {meta_at}: {exc}") from None
    return Checkpoint(blocks, OptimState(m, v, step), cfg, step, meta)


def model_blocks(
    cia: AdapterParams | None,
    encoder: PointEncoderParams | None = None,
    iaa: AdapterParams | None = None,
    taa: AdapterParams | None = None,
) -> dict[str, np.ndarray]:
    blocks: dict[str, np.ndarray] = {}
    if cia is not None:
        blocks["cia.w1"], blocks["cia.w2"] = cia.w1, cia.w2
    if encoder is not None:
        blocks["pe.w1"], blocks["pe.w2"], blocks["pe.head"] = encoder.w1, encoder.w2, encoder.head
    if iaa is not None:
        blocks["iaa.w1"], blocks["iaa.w2"] = iaa.w1, iaa.w2
    if taa is not None:
        blocks["taa.w1"], blocks["taa.w2"] = taa.w1, taa.w2
    return blocks


def blocks_to_model(
    blocks: dict[str, np.ndarray],
) -> tuple[AdapterParams | None, PointEncoderParams | None, AdapterParams | None, AdapterParams | None]:
    cia = AdapterParams(blocks["cia.w1"], blocks["cia.w2"]) if "cia.w1" in blocks else None
    pe = PointEncoderParams(blocks["pe.w1"], blocks["pe.w2"], blocks["pe.head"]) if "pe.w1" in blocks else None
    iaa = AdapterParams(blocks["iaa.w1"], blocks["iaa.w2"]) if "iaa.w1" in blocks else None
    taa = AdapterParams(blocks["taa.w1"], blocks["taa.w2"]) if "taa.w1" in blocks else None
    return cia, pe, iaa, taa


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
