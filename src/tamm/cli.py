"""Command-line entry point tying generation, training, evaluation, and
gradient checks into reproducible runs.

Configuration is a plain key=value file (# comments) whose keys are the
dataset-spec and train-config field names; --set flags override file values,
and --seed overrides both for the seed. All outputs are deterministic
functions of the effective config, so rerunning a command reproduces its
artifacts byte for byte.

Exit codes: 0 success, 1 check failure, 2 config error (includes a config too
large for memory and an output path naming another path flag's file), 3 a
path that cannot be read or written (missing file, directory, permissions), 4
incompatibility (includes malformed binary artifacts).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import datagen, evaluate, train
from . import numkit as nk
from .adapters import AdapterParams, CiaConfig, init_adapter
from .codec import parse_value
from .datagen import DatasetSpec, read_triplets, write_triplets
from .encoders import init_point_encoder
from .errors import (
    ConfigError,
    DegenerateVectorError,
    FormatError,
    IncompatibilityError,
    NumericError,
    ShapeError,
)
from .gradcheck import TOLERANCE, all_pass, run_gradcheck
from .train import TrainConfig, load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_INCOMPATIBLE = 4

POINT_ENCODER_HIDDEN = 128
_STAGES = {"1": "stage1", "2": "stage2", "joint": "joint"}  # --stage: the stage a checkpoint records

_DATASET_FIELDS = {f.name: f for f in fields(DatasetSpec)}
_TRAIN_FIELDS = {f.name: f for f in fields(TrainConfig)}


def _parse_config_file(path) -> dict[str, str]:
    pairs = {}
    # undecodable bytes become U+FFFD, which no key or value accepts
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs


def build_configs(args) -> tuple[DatasetSpec, TrainConfig]:
    """Merge defaults <- --config file <- --set items <- --seed, flags every config command defines."""
    merged: dict[str, str] = {}
    if args.config:
        merged.update(_parse_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        merged[key.strip()] = value.strip()
    if args.seed is not None:
        merged["seed"] = str(args.seed)

    for key in merged:
        if key not in _DATASET_FIELDS and key not in _TRAIN_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")

    def parsed(known):
        return {key: parse_value(field, merged[key]) for key, field in known.items() if key in merged}

    return DatasetSpec(**parsed(_DATASET_FIELDS)), TrainConfig(**parsed(_TRAIN_FIELDS))


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _refuse_shared_paths(inputs: dict, outputs: dict, allowed: set) -> None:
    """Before anything is read: no output flag may name the file of an input
    or of an earlier output, save the (output, input) pairs ``allowed``."""
    named = [(flag, path) for flag, path in inputs.items() if path]
    for flag, path in outputs.items():
        if not path:
            continue
        for other, other_path in named:
            if (flag, other) not in allowed and _same_file(path, other_path):
                raise ConfigError(f"{flag} names the same file as {other}: {path}")
        named.append((flag, path))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_datagen(args) -> int:
    _refuse_shared_paths({"--config": args.config}, {"--out": args.out}, set())
    spec, _ = build_configs(args)
    tset = datagen.generate(spec)
    held = tset.indices(datagen.EVAL_HELDOUT)
    # scored before the write, so a set too small to score leaves no file
    acc = datagen.batched_contrastive_accuracy(tset.image_feats[held], tset.text_feats[held])
    write_triplets(tset, args.out)
    print(f"wrote {args.out}")
    print(
        f"classes={spec.classes} samples_per_class={spec.samples_per_class} "
        f"views={spec.views} feature_dim={spec.feature_dim} seed={spec.seed}"
    )
    print(f"shift_strength={tset.spec.shift_strength:.6f} heldout_pre_adapter_accuracy={acc:.4f}")
    return EXIT_OK


def _metrics_path(args) -> str:
    return args.metrics if args.metrics else args.out + ".metrics.csv"


def _stage2_cia(args, d: int) -> AdapterParams | None:
    """Stage 2's frozen cia: the --cia checkpoint's, or None under --no-cia."""
    if args.cia is None:
        return None
    cia = train.blocks_to_model(load_checkpoint(args.cia).blocks)[0]
    if cia is None:
        raise IncompatibilityError(f"{args.cia} holds no cia parameters")
    if cia.w1.shape[0] != d:
        raise IncompatibilityError(f"cia feature dim {cia.w1.shape[0]} vs dataset feature dim {d}")
    return cia


def cmd_pretrain(args) -> int:
    _refuse_shared_paths(
        {"--config": args.config, "--data": args.data, "--cia": args.cia, "--resume": args.resume},
        {"--out": args.out, "--metrics": _metrics_path(args)},
        {("--out", "--resume")},  # a resume continues its run in place
    )
    given = {"--views": args.views is not None, "--cia": args.cia is not None, "--no-cia": args.cia_off}
    for flag in {"1": ("--views", "--cia", "--no-cia"), "2": (), "joint": ("--cia", "--no-cia")}[args.stage]:
        if given[flag]:
            raise ConfigError(f"{flag} is not used by --stage {args.stage}")
    if given["--cia"] and given["--no-cia"]:
        raise ConfigError("--cia and --no-cia exclude each other")
    if args.stage == "2" and not (given["--cia"] or given["--no-cia"]):
        raise ConfigError("--stage 2 needs --cia <stage-1 checkpoint> or --no-cia")
    _, cfg = build_configs(args)
    data = read_triplets(args.data)
    resume = load_checkpoint(args.resume) if args.resume else None
    d = data.spec.feature_dim
    adapter_hidden = max(1, d // 2)
    cia = init_adapter(d, adapter_hidden, cfg.seed + 101, "cia")
    encoder = init_point_encoder(POINT_ENCODER_HIDDEN, d, cfg.seed + 202)
    iaa = init_adapter(d, adapter_hidden, cfg.seed + 303, "dual")
    taa = init_adapter(d, adapter_hidden, cfg.seed + 404, "dual")
    extra = train.run_meta(_STAGES[args.stage], data, args.views)  # resolves --views before --cia is read
    frozen = {}
    if args.stage == "1":
        *parts, rows, optim = train.train_stage1(data, cia, cfg, resume=resume)
    elif args.stage == "2":
        cia = _stage2_cia(args, d)
        frozen = train.model_blocks(cia)
        *trained, rows, optim = train.train_stage2(data, cia, encoder, iaa, taa, cfg, resume, args.views)
        parts = [cia, *trained]
    else:  # joint
        *parts, rows, optim = train.train_onestage(data, cia, encoder, iaa, taa, cfg, resume, args.views)
    save_checkpoint(args.out, train.model_blocks(*parts), optim, cfg, optim.step, extra=extra)
    if rows:
        train.write_metrics_csv(rows, _metrics_path(args), train.run_id(cfg, extra, frozen))
        last = rows[-1]
        summary = " ".join(f"{k}={v:.6f}" for k, v in last.items() if k not in ("stage", "epoch"))
        print(f"stage={last['stage']} epochs={last['epoch']} {summary}")
        print(f"wrote {args.out} and {_metrics_path(args)}")
    else:  # a finished run resumed: no epoch ran, so the run's CSV stays as it is
        print(f"wrote {args.out}; no epoch ran, {_metrics_path(args)} left as it was")
    return EXIT_OK


def _eval_split_indices(data, split: str) -> np.ndarray:
    if split == "heldout":
        return data.indices(datagen.EVAL_HELDOUT)
    if split == "seen":
        return np.flatnonzero(data.labels < data.spec.seen_classes)
    if split == "all":
        return np.arange(data.labels.size)
    raise ConfigError(f"unknown split {split!r}")


def cmd_eval(args) -> int:
    _refuse_shared_paths({"--ckpt": args.ckpt, "--data": args.data}, {"--report": args.report}, set())
    try:
        ks = sorted({int(k) for k in args.topk.split(",")})
    except ValueError:
        raise ConfigError(f"-k/--topk expects comma-separated integers, got {args.topk!r}") from None
    if args.views is not None and not (args.task == "retrieve" and args.query_modality == "image"):
        raise ConfigError("--views is used only by --task retrieve --query-modality image")
    ck = load_checkpoint(args.ckpt)
    data = read_triplets(args.data)
    cia, encoder, iaa, taa = train.blocks_to_model(ck.blocks)
    if encoder is None or iaa is None or taa is None:
        raise IncompatibilityError("checkpoint lacks the point encoder or dual adapters; run stage 2 first")
    d = data.spec.feature_dim
    if encoder.out_dim != d:
        raise IncompatibilityError(f"checkpoint feature dim {encoder.out_dim} vs dataset feature dim {d}")

    idx = _eval_split_indices(data, args.split)
    if idx.size == 0:
        raise ConfigError(f"split {args.split!r} is empty")
    f_vp, f_sp = evaluate.dual_features(data, encoder, iaa, taa, idx)
    labels = data.labels[idx]
    rows = []

    if args.task == "zeroshot":
        bank = evaluate.build_category_bank(data, np.unique(labels))
        accs = evaluate.zeroshot_topk(f_vp, f_sp, labels, bank, args.mode, ks)
        for k in ks:
            rows.append(evaluate.report_row(f"zeroshot_top{k}", args.mode, args.split, accs[k]))
    elif args.task == "linear":
        feats = {"both": np.concatenate([f_vp, f_sp], axis=1), "iaa": f_vp, "taa": f_sp}[args.mode]
        acc = evaluate.linear_probe(feats, labels, seed=ck.config.seed)
        rows.append(evaluate.report_row("linear_probe", args.mode, args.split, acc))
    elif args.task == "fewshot":
        feats = np.concatenate([f_vp, f_sp], axis=1)
        res = evaluate.fewshot_eval(feats, labels, args.ways, args.shots, args.trials, seed=ck.config.seed)
        rows.append(evaluate.report_row(f"fewshot_{args.ways}way_{args.shots}shot_mean", "both", args.split, res.mean))
        rows.append(evaluate.report_row(f"fewshot_{args.ways}way_{args.shots}shot_std", "both", args.split, res.std))
        print(f"{args.ways}-way {args.shots}-shot over {args.trials} trials: {res.mean:.4f} +/- {res.std:.4f}")
    elif args.task == "retrieve":
        qi = args.query_index
        if not 0 <= qi < data.labels.size:
            raise ConfigError(f"query index {qi} outside dataset of {data.labels.size} samples")
        if args.query_modality == "text":
            query = data.text_feats[qi]
        else:
            n_views = train.views_count(data, 1 if args.views is None else args.views)
            adapted = train.adapt_views(data.image_feats[qi : qi + 1, :n_views], cia, CiaConfig(ck.config.alpha))
            query = nk.l2_normalize(adapted[0].mean(axis=0)).value
        ranked = evaluate.retrieve(query, f_vp, f_sp, args.query_modality, args.topk_retrieve)
        hits = idx[ranked]
        print(f"query sample {qi} ({args.query_modality}) top-{len(hits)}: {list(map(int, hits))}")
        for rank, sample in enumerate(hits):
            rows.append(evaluate.report_row(f"retrieve_rank{rank + 1}", args.query_modality, args.split, int(sample)))
    else:
        raise ConfigError(f"unknown task {args.task!r}")

    print(evaluate.format_report(rows))
    if args.report:
        evaluate.write_report_csv(rows, args.report)
        print(f"wrote {args.report}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = run_gradcheck()
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.max_rel_error < TOLERANCE else "FAIL"
        print(f"{r.name.ljust(width)}  {r.max_rel_error:.3e}  {status}")
    if not all_pass(results):
        return EXIT_CHECK_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def _add_config_flags(p):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--seed", type=int, help="override the seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tamm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datagen", help="generate a synthetic triplet dataset")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_datagen)

    p = sub.add_parser("pretrain", help="run a pre-training stage")
    _add_config_flags(p)
    p.add_argument("--stage", choices=["1", "2", "joint"], required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cia", help="stage-1 checkpoint feeding stage 2")
    p.add_argument("--no-cia", action="store_true", dest="cia_off", help="stage 2 without image re-alignment")
    p.add_argument("--views", type=int, help="restrict training to the first N image views")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--metrics", help="metrics CSV path (default: OUT.metrics.csv)")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--task", choices=["zeroshot", "linear", "fewshot", "retrieve"], required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--mode", choices=["both", "iaa", "taa"], default="both")
    p.add_argument("--split", choices=["heldout", "seen", "all"], default="heldout")
    p.add_argument("-k", "--topk", default="1,3,5", help="comma-separated k list for zeroshot")
    p.add_argument("--ways", type=int, default=5)
    p.add_argument("--shots", type=int, default=10)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--views", type=int, help="image views used for image-query retrieval")
    p.add_argument("--query-index", type=int, default=0)
    p.add_argument("--query-modality", choices=["text", "image"], default="text")
    p.add_argument("--topk-retrieve", type=int, default=5)
    p.add_argument("--report", help="write the report rows to this CSV")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of every differentiable op and training step")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot read or write a path: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ShapeError, IncompatibilityError, FormatError) as exc:
        print(f"incompatible artifacts: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (DegenerateVectorError, NumericError) as exc:
        print(f"numeric check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except MemoryError as exc:
        # numpy's message names the allocation that failed
        print(f"config error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
