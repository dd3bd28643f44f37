"""The three benchmark workloads, their set-up and their correctness checks.

Each workload is one client in a closed loop: it calls into tamm, waits for
the result, checks it, and only then makes the next call. The loop is a fixed
cycle of units; a unit is a short list of calls, each timed on its own with
checking and hashing kept outside the timed region. Every input comes from
``DatasetSpec(seed=dataset_seed(seed))`` and ``TrainConfig(seed=seed)`` at
the shipped default scale (30 classes x 100 samples, 4 views, 256 points,
d=64, encoder hidden 128, batch 128).

All calls go through module attributes (``train.train_stage1``,
``cli.main``, ...) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tamm import adapters, cli, datagen, encoders, train
from tamm.errors import ConfigError

# Set-up trains the cia that feeds stage 2 on a short schedule: stage-2 cost
# does not depend on how well the cia is trained, and a full 50-epoch stage 1
# would make set-up longer than the measured loop.
SETUP_STAGE1_EPOCHS = 5
# One stage-2 epoch and two joint epochs: the shortest schedules on which the
# loss-decrease checks are meaningful (the joint check compares its first and
# last epoch, so it needs two).
STAGE2_EPOCHS = 1
JOINT_EPOCHS = 2
POST_STAGE1_FLOOR = 0.90  # held-out matching accuracy after a default stage 1


@dataclass
class Op:
    """One timed call into the program and what its checks found."""

    kind: str
    seconds: float
    items: int = 0  # pairs, samples or clouds the call processed
    digest: str = ""  # sha256 of the call's output, compared across repeats
    problems: list[str] = field(default_factory=list)


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def blocks_digest(blocks: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in sorted(blocks):
        arr = np.ascontiguousarray(blocks[name], dtype="<f8")
        h.update(f"{name}:{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def combined(*digests: str) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def non_finite(blocks: dict[str, np.ndarray]) -> list[str]:
    return [f"parameter {name} is not finite" for name in sorted(blocks) if not np.isfinite(blocks[name]).all()]


# A seed whose domain shift cannot reach the target accuracy band even at full
# strength makes ``generate`` refuse it with a ConfigError (seed 406 is the
# only one among 0-799). Such a seed is replaced by the first of
# seed + k * SEED_STRIDE, k = 1, 2, ..., that generates.
SEED_STRIDE = 1_000_003


def dataset_seed(seed: int) -> int:
    """The dataset seed a workload seed maps to: itself, unless refused."""
    candidate = seed
    while True:
        try:
            datagen.generate(datagen.DatasetSpec(seed=candidate))
            return candidate
        except ConfigError:
            candidate += SEED_STRIDE


class Workload:
    """Set-up builds the inputs; ``unit(i)`` runs the i-th unit of the loop."""

    name = ""
    cycle = 1  # units in one full pass over the workload's mix

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.spec = datagen.DatasetSpec(seed=dataset_seed(seed))
        self.data_path = workdir / "triplets.bin"
        self.data = None

    def datagen_op(self) -> Op:
        """``generate`` plus ``write_triplets``, as ``tamm datagen`` runs them."""
        t0 = time.perf_counter()
        self.data = datagen.generate(self.spec)
        datagen.write_triplets(self.data, self.data_path)
        return Op("datagen", time.perf_counter() - t0, digest=file_digest(self.data_path))

    def setup(self) -> tuple[list[Op], str]:
        """Build the inputs; return the ops timed inside and a digest of the artifacts."""
        op = self.datagen_op()
        return [op], op.digest

    def unit(self, i: int) -> list[Op]:
        raise NotImplementedError

    # the seeded initial parameters, exactly as ``tamm pretrain`` draws them
    def initial_cia(self):
        d = self.spec.feature_dim
        return adapters.init_adapter(d, d // 2, self.seed + 101, "cia")

    def initial_stage2(self):
        d = self.spec.feature_dim
        return (
            encoders.init_point_encoder(cli.POINT_ENCODER_HIDDEN, d, self.seed + 202),
            adapters.init_adapter(d, d // 2, self.seed + 303, "dual"),
            adapters.init_adapter(d, d // 2, self.seed + 404, "dual"),
        )


class Realign(Workload):
    """Datagen, then a default 50-epoch stage 1: the cia path, no point encoder."""

    name = "realign"

    def unit(self, i: int) -> list[Op]:
        gen = self.datagen_op()
        data = self.data
        held = data.indices(datagen.EVAL_HELDOUT)
        cfg = train.TrainConfig(seed=self.seed)
        (cia, rows, optim), seconds = timed(train.train_stage1, data, self.initial_cia(), cfg)
        blocks = train.model_blocks(cia)
        fit = Op("stage1", seconds, optim.step * cfg.batch_size, blocks_digest(blocks), non_finite(blocks))
        pre = datagen.batched_contrastive_accuracy(data.image_feats[held], data.text_feats[held])
        lo, hi = datagen.TUNE_BAND
        if not lo <= pre <= hi:
            gen.problems.append(f"held-out pre-adapter accuracy {pre:.4f} outside [{lo}, {hi}]")
        post = rows[-1]["acc_heldout"]
        if not post >= POST_STAGE1_FLOOR:
            fit.problems.append(f"held-out accuracy after stage 1 {post:.4f} < {POST_STAGE1_FLOOR}")
        return [gen, fit]


class Pretrain(Workload):
    """Stage 2 against a set-up cia, then the joint ablation, from one initial state."""

    name = "pretrain"

    def setup(self) -> tuple[list[Op], str]:
        ops, digest = super().setup()
        cfg = train.TrainConfig(seed=self.seed, total_epochs=SETUP_STAGE1_EPOCHS, warmup_epochs=1)
        self.cia, _, _ = train.train_stage1(self.data, self.initial_cia(), cfg)
        return ops, combined(blocks_digest(train.model_blocks(self.cia)), digest)

    def unit(self, i: int) -> list[Op]:
        encoder, iaa, taa = self.initial_stage2()
        cfg = train.TrainConfig(seed=self.seed, total_epochs=STAGE2_EPOCHS, warmup_epochs=0)
        (pe, iaa2, taa2, rows, optim), seconds = timed(
            train.train_stage2, self.data, self.cia, encoder, iaa, taa, cfg
        )
        blocks = train.model_blocks(None, pe, iaa2, taa2)
        stage2 = Op("stage2", seconds, optim.step * cfg.batch_size, blocks_digest(blocks), non_finite(blocks))
        if not rows[-1]["loss"] < rows[0]["loss"]:
            stage2.problems.append(f"stage-2 loss did not fall: {rows[0]['loss']:.6f} -> {rows[-1]['loss']:.6f}")

        cfg = train.TrainConfig(seed=self.seed, total_epochs=JOINT_EPOCHS, warmup_epochs=0)
        (cia, pe, iaa2, taa2, rows, optim), seconds = timed(
            train.train_onestage, self.data, self.initial_cia(), encoder, iaa, taa, cfg
        )
        blocks = train.model_blocks(cia, pe, iaa2, taa2)
        joint = Op("joint", seconds, optim.step * cfg.batch_size, blocks_digest(blocks), non_finite(blocks))
        if not rows[-1]["loss"] < rows[0]["loss"]:
            joint.problems.append(f"joint loss did not fall: {rows[0]['loss']:.6f} -> {rows[-1]['loss']:.6f}")
        return [stage2, joint]


class Eval(Workload):
    """Closed loop of ``tamm eval`` requests, in-process, over a fixed task mix.

    Every request uses the default held-out split, so each re-reads both
    artifacts and re-encodes the same 1,000 clouds. The checkpoint holds the
    seeded initial parameters: request cost does not depend on the weight
    values, and training one in set-up would dominate the run.
    """

    name = "eval"

    MIX = (
        ("zeroshot-both", ("--task", "zeroshot", "--mode", "both")),
        ("zeroshot-iaa", ("--task", "zeroshot", "--mode", "iaa")),
        ("zeroshot-taa", ("--task", "zeroshot", "--mode", "taa")),
        ("linear", ("--task", "linear")),
        ("fewshot", ("--task", "fewshot", "--ways", "5", "--shots", "10")),
        ("retrieve-text", ("--task", "retrieve", "--query-modality", "text")),
        ("retrieve-image", ("--task", "retrieve", "--query-modality", "image")),
    )
    cycle = len(MIX)

    def setup(self) -> tuple[list[Op], str]:
        ops, digest = super().setup()
        self.ckpt_path = self.workdir / "model.ckpt"
        self.report_path = self.workdir / "report.csv"
        blocks = train.model_blocks(self.initial_cia(), *self.initial_stage2())
        train.save_checkpoint(
            self.ckpt_path,
            blocks,
            train.OptimState.zeros(blocks),
            train.TrainConfig(seed=self.seed),
            0,
            extra={"trained_stage": "stage2"},
        )
        held = self.data.indices(datagen.EVAL_HELDOUT)
        self.n_samples = self.data.labels.size
        self.clouds = held.size
        self.query = str(int(held[np.random.default_rng([self.seed, 0xB3]).integers(held.size)]))
        return ops, combined(file_digest(self.ckpt_path), digest)

    def unit(self, i: int) -> list[Op]:
        kind, task = self.MIX[i % self.cycle]
        argv = ["eval", *task, "--ckpt", str(self.ckpt_path), "--data", str(self.data_path)]
        argv += ["--report", str(self.report_path)]
        if kind.startswith("retrieve"):
            argv += ["--query-index", self.query]
        self.report_path.unlink(missing_ok=True)
        sink = io.StringIO()
        with redirect_stdout(sink), redirect_stderr(sink):
            code, seconds = timed(cli.main, argv)
        op = Op(kind, seconds, self.clouds)
        if code != 0:
            op.problems.append(f"exit code {code}: {sink.getvalue().strip()[-300:]}")
            return [op]
        raw = self.report_path.read_bytes()
        op.digest = hashlib.sha256(raw).hexdigest()
        rows = list(csv.DictReader(io.StringIO(raw.decode())))
        if not rows:
            op.problems.append("empty report")
        for row in rows:
            value = float(row["value"])
            if row["metric"].startswith("retrieve_rank"):
                if not (value.is_integer() and 0 <= value < self.n_samples):
                    op.problems.append(f"{row['metric']}: {value} is not a sample index")
            elif not (math.isfinite(value) and 0.0 <= value <= 1.0):
                op.problems.append(f"{row['metric']}: {value} outside [0, 1]")
        return [op]


WORKLOADS = {w.name: w for w in (Realign, Pretrain, Eval)}

# Traced functions each workload must reach, set-up included; a miss means a
# binding the tracer did not patch.
EXPECTED_CALLS = {
    "realign": (
        "datagen.generate",
        "datagen.write_triplets",
        "datagen.batched_contrastive_accuracy",
        "losses.contrastive_accuracy",
        "train.train_stage1",
        "adapters.cia_forward",
        "losses.contrastive_loss",
        "numkit.matmul",
        "numkit.relu",
        "numkit.l2_normalize",
        "numkit.logsumexp_rows",
        "train.adamw_step",
    ),
    "pretrain": (
        "datagen.generate",
        "datagen.write_triplets",
        "train.train_stage1",
        "train.train_stage2",
        "train.train_onestage",
        "encoders.encode_points",
        "adapters.cia_forward",
        "adapters.dual_forward",
        "losses.trimodal_loss",
        "losses.contrastive_loss",
        "numkit.matmul",
        "numkit.relu",
        "numkit.gelu",
        "numkit.l2_normalize",
        "numkit.logsumexp_rows",
        "train.adamw_step",
    ),
    "eval": (
        "datagen.generate",
        "datagen.write_triplets",
        "train.save_checkpoint",
        "cli.main",
        "train.load_checkpoint",
        "datagen.read_triplets",
        "evaluate.dual_features",
        "encoders.encode_points",
        "adapters.dual_forward",
        "adapters.cia_forward",
        "numkit.matmul",
        "numkit.relu",
        "numkit.gelu",
        "numkit.l2_normalize",
        "numkit.logsumexp_rows",
        "evaluate.train_probe",
        "evaluate.probe_layer_loss",
        "train.adamw_step",
        "evaluate.zeroshot_topk",
        "evaluate.retrieve",
    ),
}
