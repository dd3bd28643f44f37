import contextlib
import hashlib
import itertools
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tamm import train
from tamm.adapters import AdapterParams, CiaConfig, init_adapter
from tamm.datagen import EVAL_HELDOUT, PRETRAIN, DatasetSpec, batched_contrastive_accuracy, generate
from tamm.encoders import init_point_encoder
from tamm.errors import ConfigError, DegenerateVectorError, FormatError, IncompatibilityError, ShapeError
from tamm.losses import LossConfig
from tamm.train import (
    ADAM_EPS,
    Checkpoint,
    OptimState,
    TrainConfig,
    adamw_step,
    adapt_views,
    blocks_to_model,
    config_from_meta,
    config_to_meta,
    cosine_lr,
    load_checkpoint,
    model_blocks,
    save_checkpoint,
    stage1_step,
    stage2_step,
    train_onestage,
    train_stage1,
    train_stage2,
    write_metrics_csv,
)

SMALL_DATA = dict(classes=5, samples_per_class=12, heldout_classes=2, views=2, points_per_cloud=16)
SMALL_CFG = dict(total_epochs=3, warmup_epochs=1, batch_size=8)


@pytest.fixture(scope="module")
def data():
    return generate(DatasetSpec(seed=1, **SMALL_DATA))


def small_models(d, seed=0):
    return (
        init_adapter(d, d // 2, seed + 101, "cia"),
        init_point_encoder(12, d, seed + 202),
        init_adapter(d, d // 2, seed + 303, "dual"),
        init_adapter(d, d // 2, seed + 404, "dual"),
    )


class TestAdamW:
    def params(self):
        rng = np.random.default_rng(0)
        return {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}

    def test_zero_grad_with_decay_shrinks_exactly(self):
        params = self.params()
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        new, _ = adamw_step(params, grads, OptimState.zeros(params), lr=0.1, weight_decay=0.05)
        for k in params:
            np.testing.assert_array_equal(new[k], (1.0 - 0.1 * 0.05) * params[k])

    def test_zero_grad_no_decay_is_identity(self):
        params = self.params()
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        new, _ = adamw_step(params, grads, OptimState.zeros(params), lr=0.1, weight_decay=0.0)
        for k in params:
            np.testing.assert_array_equal(new[k], params[k])

    def test_first_step_direction(self):
        params = {"a": np.array([1.0, -2.0, 0.5])}
        g = np.array([0.3, -0.7, 2.0])
        lr = 0.01
        new, state = adamw_step(params, {"a": g}, OptimState.zeros(params), lr=lr, weight_decay=0.0)
        expected = params["a"] - lr * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(new["a"], expected, atol=1e-15)
        assert state.step == 1

    def test_shape_mismatch(self):
        params = {"a": np.ones(3)}
        with pytest.raises(ShapeError):
            adamw_step(params, {"a": np.ones(4)}, OptimState.zeros(params), lr=0.1)

    def test_key_mismatch(self):
        params = {"a": np.ones(3)}
        with pytest.raises(ShapeError):
            adamw_step(params, {"b": np.ones(3)}, OptimState.zeros(params), lr=0.1)


class TestCosineLr:
    def test_warmup_start_is_zero(self):
        assert cosine_lr(0, 100, 10, 1e-3) == 0.0

    def test_warmup_end_is_base(self):
        assert cosine_lr(10, 100, 10, 1e-3) == 1e-3

    def test_midpoint_is_half(self):
        assert cosine_lr(55, 100, 10, 1e-3) == pytest.approx(5e-4, abs=1e-12)

    def test_final_step_is_zero(self):
        assert cosine_lr(100, 100, 10, 1e-3) == pytest.approx(0.0, abs=1e-18)

    def test_continuous_at_warmup_boundary(self):
        before = cosine_lr(9, 100, 10, 1e-3)
        at = cosine_lr(10, 100, 10, 1e-3)
        assert at - before < 1.1e-4

    def test_nonnegative_everywhere(self):
        for step in range(0, 101):
            assert cosine_lr(step, 100, 10, 1e-3) >= 0.0

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            cosine_lr(101, 100, 10, 1e-3)
        with pytest.raises(ConfigError):
            cosine_lr(-1, 100, 10, 1e-3)
        with pytest.raises(ConfigError):
            cosine_lr(5, 100, 100, 1e-3)


class TestTrainConfig:
    def test_defaults_match_shipped_values(self):
        cfg = TrainConfig()
        assert cfg.base_lr == 5e-4
        assert cfg.warmup_epochs == 2
        assert cfg.betas == (0.9, 0.999)
        assert cfg.weight_decay == 0.01
        assert cfg.tau == 0.07
        assert cfg.alpha == 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [dict(base_lr=0.0), dict(warmup_epochs=5, total_epochs=5), dict(batch_size=1), dict(base_lr=math.inf),
         dict(base_lr=math.nan), dict(betas=(1.0, 0.999)), dict(betas=(0.9, -0.1)), dict(betas=(0.9, math.nan)),
         dict(weight_decay=-5.0), dict(weight_decay=math.inf), dict(tau=math.inf), dict(tau=1e-300),
         dict(alpha=1.5), dict(seed=-1)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_meta_roundtrip(self):
        cfg = TrainConfig(base_lr=3e-4, seed=9, betas=(0.85, 0.995))
        assert config_from_meta(config_to_meta(cfg)) == cfg


class TestStage1:
    def test_loss_decreases_over_first_epochs(self, data):
        cia, *_ = small_models(data.spec.feature_dim)
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        _, rows, _ = train_stage1(data, cia, cfg)
        assert rows[-1]["loss"] < rows[0]["loss"]

    def test_deterministic(self, data):
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        outs = []
        for _ in range(2):
            cia, *_ = small_models(data.spec.feature_dim)
            trained, _, _ = train_stage1(data, cia, cfg)
            outs.append(trained)
        np.testing.assert_array_equal(outs[0].w1, outs[1].w1)
        np.testing.assert_array_equal(outs[0].w2, outs[1].w2)

    def test_batch_larger_than_data_rejected(self, data):
        cia, *_ = small_models(data.spec.feature_dim)
        with pytest.raises(ConfigError):
            train_stage1(data, cia, TrainConfig(seed=0, total_epochs=3, warmup_epochs=1, batch_size=10_000))

    def test_epoch_zero_row_reports_initial_state(self, data):
        cia, *_ = small_models(data.spec.feature_dim)
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        _, rows, _ = train_stage1(data, cia, cfg)
        assert rows[0]["epoch"] == 0 and rows[0]["lr"] == 0.0
        assert len(rows) == cfg.total_epochs + 1

    def test_first_steps_monotone_on_separable_batch(self, data):
        # fixed batch, fixed lr: the realign objective falls at every step
        idx = data.indices(PRETRAIN)[:16]
        step = stage1_step(data.image_feats[idx, :1], data.text_feats[idx], TrainConfig())
        cia, *_ = small_models(data.spec.feature_dim)
        params = model_blocks(cia)
        state = OptimState.zeros(params)
        losses = []
        for _ in range(11):
            terms, grads = step(params, np.arange(16), True)
            losses.append(terms["loss"])
            params, state = adamw_step(params, grads, state, lr=1e-3)
        for a, b in zip(losses, losses[1:]):
            assert b < a

    def test_step_equals_realign_on_flattened_pairs(self, data):
        # example r of the (n, m, d) views is view r % m of sample r // m: the
        # row r of the flattened views, against the texts repeated m times
        idx = data.indices(PRETRAIN)
        views, texts = data.image_feats[idx], data.text_feats[idx]
        m = views.shape[1]
        assert m == 2
        cfg = TrainConfig()
        step = stage1_step(views, texts, cfg)
        flat, repeated = views.reshape(-1, views.shape[2]), np.repeat(texts, m, axis=0)
        params = model_blocks(small_models(data.spec.feature_dim)[0])
        take = np.random.default_rng(0).permutation(len(flat))[:16]
        for want_grads in (False, True):
            terms, grads = step(params, take, want_grads)
            loss, _, want = train._realign_step(
                params, [flat[take]], repeated[take], 1.0, LossConfig(cfg.tau), CiaConfig(cfg.alpha), want_grads
            )
            assert terms == {"loss": loss}
            assert (grads is None) == (want is None)
            for name in want or {}:
                np.testing.assert_array_equal(grads[name], want[name])

    def test_default_fit_memory_peak(self):
        # stage 1 steps through the stored (n, m, d) views and (n, d) texts;
        # flattening the views and repeating each text m times peaked at 17.2 MiB
        data = generate(DatasetSpec())
        d = data.spec.feature_dim
        cia = init_adapter(d, d // 2, 101, "cia")
        tracemalloc.start()
        try:
            train_stage1(data, cia, TrainConfig(total_epochs=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15.5 * 2**20


def _unit_rows(rng, *shape):
    x = rng.standard_normal(shape)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


class TestAccuracyCheck:
    """``_accuracy_check`` against ``batched_contrastive_accuracy(adapt_views(...))``."""

    @staticmethod
    def reference(splits, cia, cfg):
        return [batched_contrastive_accuracy(adapt_views(im, cia, cfg), tx) for im, tx in splits]

    def test_dataset_splits(self, data):
        # fewer than 64 samples in each split: one short batch per view
        splits = [(data.image_feats[idx], data.text_feats[idx]) for idx in map(data.indices, (PRETRAIN, EVAL_HELDOUT))]
        assert all(len(tx) < 64 for _, tx in splits)
        d, cfg = data.spec.feature_dim, CiaConfig(0.2)
        check = train._accuracy_check(splits, d // 2, cfg)
        for seed in (0, 1):
            cia = init_adapter(d, d // 2, seed, "dual")
            assert check(cia) == self.reference(splits, cia, cfg)

    @pytest.mark.parametrize("views", [1, 4])
    def test_dropped_partial_batch(self, views):
        # 1,000 samples are 15 batches of 64 and 40 dropped; the smaller split reuses the larger one's buffers
        rng = np.random.default_rng(views)
        d, h, cfg = 16, 8, CiaConfig(0.3)
        splits = [(_unit_rows(rng, n, views, d), _unit_rows(rng, n, d)) for n in (130, 1000, 70)]
        check = train._accuracy_check(splits, h, cfg)
        for seed in (0, 1):
            cia = init_adapter(d, h, seed, "dual")
            assert check(cia) == self.reference(splits, cia, cfg)

    def test_row_sent_to_zero_raises_in_both(self):
        rng = np.random.default_rng(5)
        d, h, cfg = 16, 8, CiaConfig(1.0)
        splits = [(_unit_rows(rng, 100, 2, d), _unit_rows(rng, 100, d))]
        # alpha 1 keeps only the correction, and every hidden unit of the first row is negative
        cia = AdapterParams(-np.outer(splits[0][0][0, 0], np.ones(h)), rng.standard_normal((h, d)))
        with pytest.raises(DegenerateVectorError):
            self.reference(splits, cia, cfg)
        with pytest.raises(DegenerateVectorError):
            train._accuracy_check(splits, h, cfg)(cia)


@pytest.fixture
def row_threads(monkeypatch):
    """The names of the threads started while the test runs."""
    started = []

    class Counting(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counting)
    return started


def _failing_after(fn, at: int, exc: BaseException):
    """``fn``, raising ``exc`` instead on its call number ``at`` (from 0)."""
    calls = itertools.count()

    def wrapped(*args, **kwargs):
        if next(calls) == at:
            raise exc
        return fn(*args, **kwargs)

    return wrapped


class TestRowsBesideSteps:
    """Stage 1 with one lane (rows recorded in line) and two (rows recorded on
    a helper thread beside the next epoch's steps)."""

    CFG = TrainConfig(seed=0, total_epochs=4, warmup_epochs=1, batch_size=8)

    def test_rows_parameters_and_moments_identical(self, data, lane_inputs, stop_after, tmp_path, row_threads):
        cia, *_ = small_models(data.spec.feature_dim)
        runs = []
        for cpus in (1, 2):
            lane_inputs(cpus)
            before, started = threading.active_count(), len(row_threads)
            full = train_stage1(data, cia, self.CFG)
            with stop_after(2):
                half = train_stage1(data, cia, self.CFG)
            path = tmp_path / f"half-{cpus}.ckpt"
            save_checkpoint(path, model_blocks(half[0]), half[2], self.CFG, half[2].step, extra=train.run_meta("stage1", data))
            resumed = train_stage1(data, cia, self.CFG, resume=load_checkpoint(path))
            assert threading.active_count() == before
            # with two lanes, one helper thread per fit
            assert len(row_threads) - started == (0 if cpus == 1 else 3)
            runs.append([(model_blocks(trained), rows, optim) for trained, rows, optim in (full, half, resumed)])
        for (blocks1, rows1, optim1), (blocks2, rows2, optim2) in zip(*runs):
            assert repr(rows1) == repr(rows2)
            assert optim1.step == optim2.step
            for name in blocks1:
                for a, b in ((blocks1, blocks2), (optim1.m, optim2.m), (optim1.v, optim2.v)):
                    assert a[name].tobytes() == b[name].tobytes()

    @pytest.mark.parametrize("next_steps_fail", [False, True])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_row_error_is_raised(self, data, lane_inputs, monkeypatch, cpus, next_steps_fail):
        # the row of epoch 2 fails; with two lanes it runs beside epoch 3's steps, which may fail too
        lane_inputs(cpus)
        build = train._accuracy_check
        monkeypatch.setattr(
            train, "_accuracy_check", lambda *args: _failing_after(build(*args), 2, RuntimeError("row of epoch 2"))
        )
        if next_steps_fail:
            steps_per_epoch = data.indices(PRETRAIN).size * data.spec.views // self.CFG.batch_size
            monkeypatch.setattr(train, "adamw_step", _failing_after(train.adamw_step, 2 * steps_per_epoch, ValueError()))
        cia, *_ = small_models(data.spec.feature_dim)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="row of epoch 2"):
            train_stage1(data, cia, self.CFG)
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_keyboard_interrupt_from_a_step(self, data, lane_inputs, monkeypatch, cpus):
        lane_inputs(cpus)
        monkeypatch.setattr(train, "adamw_step", _failing_after(train.adamw_step, 9, KeyboardInterrupt()))
        cia, *_ = small_models(data.spec.feature_dim)
        before = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            train_stage1(data, cia, self.CFG)
        assert threading.active_count() == before


def fit_stage(stage, data, cia, cfg, resume=None, views_limit=None):
    """One ``stage`` fit from ``small_models``' initial state with ``cia`` as its
    cia: the blocks a checkpoint of it holds (stage 2's frozen cia included, as
    the CLI writes them), its rows and its optimizer state."""
    _, pe, iaa, taa = small_models(data.spec.feature_dim)
    if stage == "stage1":
        trained, rows, optim = train_stage1(data, cia, cfg, resume)
        return model_blocks(trained), rows, optim
    if stage == "stage2":
        *trained, rows, optim = train_stage2(data, cia, pe, iaa, taa, cfg, resume, views_limit)
        return model_blocks(cia, *trained), rows, optim
    *trained, rows, optim = train_onestage(data, cia, pe, iaa, taa, cfg, resume, views_limit)
    return model_blocks(*trained), rows, optim


class TestResumeContract:
    """A resume must continue the run its checkpoint records: the same stage,
    dataset, view count and frozen cia, or an IncompatibilityError before any step."""

    CFG = TrainConfig(seed=0, **SMALL_CFG)

    def half_done(self, tmp_path, stop_after, stage, data, cia, views_limit=None):
        with stop_after(1):
            blocks, _, optim = fit_stage(stage, data, cia, self.CFG, views_limit=views_limit)
        path = tmp_path / "half.ckpt"
        save_checkpoint(path, blocks, optim, self.CFG, optim.step, extra=train.run_meta(stage, data, views_limit))
        return load_checkpoint(path)

    @pytest.fixture
    def refused(self, monkeypatch):
        """``with refused(match):`` expects an IncompatibilityError matching ``match`` before any step."""

        @contextlib.contextmanager
        def use(match):
            with monkeypatch.context() as patch, pytest.raises(IncompatibilityError, match=match):
                patch.setattr(train, "adamw_step", lambda *args, **kwargs: pytest.fail("a step ran"))
                yield

        return use

    def test_record_of_each_stage(self, data):
        dataset = hashlib.sha256(repr(data.spec).encode("utf-8")).hexdigest()[:12]
        assert train.run_meta("stage1", data, 1) == {"trained_stage": "stage1", "dataset": dataset}
        assert train.run_meta("stage2", data) == {"trained_stage": "stage2", "dataset": dataset, "views": "2"}
        assert train.run_meta("joint", data, 1) == {"trained_stage": "joint", "dataset": dataset, "views": "1"}

    @pytest.mark.parametrize("fitted, resumed", [(0, 1), (0, None), (None, 0)], ids=["other", "cia-to-none", "none-to-cia"])
    def test_stage2_against_another_cia(self, tmp_path, data, stop_after, refused, fitted, resumed):
        cias = {seed: small_models(data.spec.feature_dim, seed)[0] for seed in (0, 1)}
        ck = self.half_done(tmp_path, stop_after, "stage2", data, cias.get(fitted))
        with refused("frozen blocks differ from this run's: cia.w1, cia.w2$"):
            fit_stage("stage2", data, cias.get(resumed), self.CFG, resume=ck)

    @pytest.mark.parametrize("stage", ["stage2", "joint"])
    @pytest.mark.parametrize("fitted, resumed", [(1, 2), (2, 1), (1, None)])
    def test_another_view_count(self, tmp_path, data, stop_after, refused, stage, fitted, resumed):
        cia, *_ = small_models(data.spec.feature_dim)
        ck = self.half_done(tmp_path, stop_after, stage, data, cia, fitted)
        with refused(f"fit with views={fitted}, not views={resumed or 2}$"):
            fit_stage(stage, data, cia, self.CFG, resume=ck, views_limit=resumed)

    @pytest.mark.parametrize("stage", ["stage1", "stage2", "joint"])
    def test_another_dataset(self, tmp_path, data, stop_after, refused, stage):
        cia, *_ = small_models(data.spec.feature_dim)
        ck = self.half_done(tmp_path, stop_after, stage, data, cia)
        other = generate(DatasetSpec(seed=2, **SMALL_DATA))
        fitted, resumed = (train.run_meta(stage, d)["dataset"] for d in (data, other))
        with refused(f"fit with dataset={fitted}, not dataset={resumed}$"):
            fit_stage(stage, other, cia, self.CFG, resume=ck)

    def test_another_stage_and_missing_record(self, tmp_path, data, stop_after, refused):
        cia, *_ = small_models(data.spec.feature_dim)
        ck = self.half_done(tmp_path, stop_after, "stage1", data, cia)
        with refused("fit with trained_stage=stage1, not trained_stage=joint$"):
            fit_stage("joint", data, cia, self.CFG, resume=ck)
        unrecorded = ck._replace(meta={k: v for k, v in ck.meta.items() if k != "dataset"})
        with refused("fit with no recorded dataset, not dataset="):
            fit_stage("stage1", data, cia, self.CFG, resume=unrecorded)

    def test_another_config_names_the_key(self, tmp_path, data, stop_after, refused):
        cia, *_ = small_models(data.spec.feature_dim)
        ck = self.half_done(tmp_path, stop_after, "stage1", data, cia)
        with refused("fit with base_lr=0.0005, not base_lr=0.001$"):
            train_stage1(data, cia, TrainConfig(seed=0, base_lr=1e-3, **SMALL_CFG), resume=ck)


class TestStoredWidth:
    """Features held at their stored f32 width give the bits their float64 widening gives."""

    def test_adapt_views_without_cia_widens(self, data, widened):
        assert data.image_feats.dtype == data.text_feats.dtype == np.float32
        views = [adapt_views(d.image_feats[:, :1], None, CiaConfig()) for d in (data, widened(data))]
        assert views[0].dtype == views[1].dtype == np.float64
        assert views[0].tobytes() == views[1].tobytes()

    @pytest.mark.parametrize(
        "stage, with_cia, views_limit",
        [("stage1", True, None), ("stage2", True, None), ("stage2", False, None), ("stage2", False, 1), ("joint", True, 1)],
        ids=["stage1", "stage2-cia", "stage2-no-cia", "stage2-no-cia-views-1", "joint-views-1"],
    )
    def test_fits_equal_bitwise(self, data, widened, stage, with_cia, views_limit):
        cia = small_models(data.spec.feature_dim)[0] if with_cia else None
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        (blocks, rows, optim), (wide_blocks, wide_rows, wide_optim) = (
            fit_stage(stage, d, cia, cfg, views_limit=views_limit) for d in (data, widened(data))
        )
        assert rows == wide_rows
        for name in blocks:
            assert blocks[name].tobytes() == wide_blocks[name].tobytes()
        for name in optim.m:
            assert (optim.m[name].tobytes(), optim.v[name].tobytes()) == (
                wide_optim.m[name].tobytes(), wide_optim.v[name].tobytes()
            )


class TestStage2:
    def test_cia_frozen(self, data):
        cia, pe, iaa, taa = small_models(data.spec.feature_dim)
        before = (cia.w1.tobytes(), cia.w2.tobytes())
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        train_stage2(data, cia, pe, iaa, taa, cfg)
        assert (cia.w1.tobytes(), cia.w2.tobytes()) == before

    def test_loss_drops_below_untrained(self, data, stop_after):
        cia, pe, iaa, taa = small_models(data.spec.feature_dim)
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        with stop_after(1):
            pe1, iaa1, taa1, rows, _ = train_stage2(data, cia, pe, iaa, taa, cfg)
        assert {"loss", "loss_text", "loss_image"} <= set(rows[0])

        idx = data.indices(PRETRAIN)
        adapted = adapt_views(data.image_feats[idx], cia, CiaConfig(cfg.alpha))
        step = stage2_step(adapted, data.text_feats[idx], data.points[idx], cfg)

        def eval_loss(enc, a, b):
            return step(model_blocks(None, enc, a, b), np.arange(idx.size), want_grads=False)[0]["loss"]

        assert eval_loss(pe1, iaa1, taa1) < eval_loss(pe, iaa, taa)

    def test_views_limit(self, data):
        cia, pe, iaa, taa = small_models(data.spec.feature_dim)
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        train_stage2(data, cia, pe, iaa, taa, cfg, views_limit=1)
        with pytest.raises(IncompatibilityError):
            train_stage2(data, cia, pe, iaa, taa, cfg, views_limit=99)
        for below_one in (0, -1):
            with pytest.raises(ConfigError, match=f"views must be >= 1, got {below_one}"):
                train_stage2(data, cia, pe, iaa, taa, cfg, views_limit=below_one)

    def test_no_cia_path(self, data):
        _, pe, iaa, taa = small_models(data.spec.feature_dim)
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        _, _, _, rows, _ = train_stage2(data, None, pe, iaa, taa, cfg)
        assert len(rows) == cfg.total_epochs + 1


class TestOnestage:
    def test_runs_and_reports(self, data):
        cia, pe, iaa, taa = small_models(data.spec.feature_dim)
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        out_cia, _, _, _, rows, _ = train_onestage(data, cia, pe, iaa, taa, cfg)
        assert {"loss", "loss_realign", "loss_trimodal", "lr"} <= set(rows[-1])
        # stage-2's loss components appear too, so the two runs compare row for row
        assert {"loss_text", "loss_image"} <= set(rows[-1])
        assert not np.array_equal(out_cia.w1, cia.w1)  # cia actually trains


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path, data):
        cia, pe, iaa, taa = small_models(data.spec.feature_dim)
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        pe2, iaa2, taa2, _, optim = train_stage2(data, cia, pe, iaa, taa, cfg)
        path = tmp_path / "model.ckpt"
        blocks = model_blocks(cia, pe2, iaa2, taa2)
        save_checkpoint(path, blocks, optim, cfg, optim.step, extra={"trained_stage": "stage2"})
        ck = load_checkpoint(path)
        assert ck.optim.step == optim.step
        assert ck.config == cfg
        assert ck.meta["trained_stage"] == "stage2"
        for name, arr in blocks.items():
            np.testing.assert_array_equal(ck.blocks[name], arr)
        for name, arr in optim.m.items():
            np.testing.assert_array_equal(ck.optim.m[name], arr)

    def test_untrained_checkpoint_zero_state(self, tmp_path, data):
        cia, pe, iaa, taa = small_models(data.spec.feature_dim)
        blocks = model_blocks(cia, pe, iaa, taa)
        optim = OptimState.zeros(blocks)
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(path, blocks, optim, TrainConfig(), 0, extra={"trained_stage": "stage2"})
        ck = load_checkpoint(path)
        assert ck.optim.step == 0
        assert all(np.all(v == 0.0) for v in ck.optim.m.values())

    @pytest.mark.parametrize("stage", ["stage1", "stage2", "joint"])
    def test_resume_equals_uninterrupted(self, tmp_path, data, stop_after, stage):
        cfg = TrainConfig(seed=0, total_epochs=4, warmup_epochs=1, batch_size=8)
        cia, *_ = small_models(data.spec.feature_dim)
        full, full_rows, full_optim = fit_stage(stage, data, cia, cfg)
        with stop_after(2):
            half, _, half_optim = fit_stage(stage, data, cia, cfg)
        path = tmp_path / "half.ckpt"
        save_checkpoint(path, half, half_optim, cfg, half_optim.step, extra=train.run_meta(stage, data))
        resumed, resumed_rows, resumed_optim = fit_stage(stage, data, cia, cfg, resume=load_checkpoint(path))

        assert resumed.keys() == full.keys()
        for name in full:
            np.testing.assert_array_equal(resumed[name], full[name])
        assert resumed_optim.m.keys() == full_optim.m.keys()
        for name in full_optim.m:
            np.testing.assert_array_equal(resumed_optim.m[name], full_optim.m[name])
            np.testing.assert_array_equal(resumed_optim.v[name], full_optim.v[name])
        assert resumed_optim.step == full_optim.step
        assert resumed_rows == full_rows[-2:]

    def test_resume_from_meta_with_retired_stage_key(self, tmp_path, data, stop_after):
        # checkpoints once carried a no-op ``stage=two`` config key; they still load and resume
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        cia, *_ = small_models(data.spec.feature_dim)
        full, _, full_optim = train_stage1(data, cia, cfg)
        with stop_after(1):
            half, _, half_optim = train_stage1(data, cia, cfg)
        path = tmp_path / "old.ckpt"
        extra = {**train.run_meta("stage1", data), "stage": "two"}
        save_checkpoint(path, model_blocks(half), half_optim, cfg, half_optim.step, extra=extra)
        ck = load_checkpoint(path)
        assert ck.meta["stage"] == "two" and ck.config == cfg
        resumed, _, resumed_optim = train_stage1(data, cia, cfg, resume=ck)
        np.testing.assert_array_equal(resumed.w1, full.w1)
        np.testing.assert_array_equal(resumed.w2, full.w2)
        assert resumed_optim.step == full_optim.step

    def test_resume_config_mismatch(self, tmp_path, data):
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        cia, *_ = small_models(data.spec.feature_dim)
        trained, _, optim = train_stage1(data, cia, cfg)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, model_blocks(trained), optim, cfg, optim.step, extra=train.run_meta("stage1", data))
        other = TrainConfig(seed=1, **SMALL_CFG)
        with pytest.raises(IncompatibilityError):
            train_stage1(data, cia, other, resume=load_checkpoint(path))

    def test_resume_dim_mismatch(self, tmp_path, data):
        cfg = TrainConfig(seed=0, **SMALL_CFG)
        small_cia = init_adapter(8, 4, 0, "cia")
        blocks = model_blocks(small_cia)
        path = tmp_path / "d.ckpt"
        save_checkpoint(path, blocks, OptimState.zeros(blocks), cfg, 0, extra=train.run_meta("stage1", data))
        cia, *_ = small_models(data.spec.feature_dim)
        with pytest.raises(ShapeError):
            train_stage1(data, cia, cfg, resume=load_checkpoint(path))

    def test_corrupt_checkpoint(self, tmp_path, data):
        cia, *_ = small_models(data.spec.feature_dim)
        blocks = model_blocks(cia)
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, blocks, OptimState.zeros(blocks), TrainConfig(), 0)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 12])
        with pytest.raises(FormatError, match="byte"):
            load_checkpoint(path)
        path.write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "drop, add, message",
        [("cia.w2", None, "'cia.w2' is missing from its part"),
         (None, "cia.w3", "'cia.w3' is not a model block"),
         (None, "optim.m:cia.w3", "'optim.m:cia.w3' is not a model block")],
    )
    def test_damaged_block_set(self, tmp_path, data, drop, add, message):
        cia, *_ = small_models(data.spec.feature_dim)
        blocks = model_blocks(cia)
        optim = OptimState.zeros(blocks)
        blocks.pop(drop, None)
        if add == "cia.w3":
            blocks[add] = cia.w2
        elif add:
            optim.m["cia.w3"] = cia.w2
        path = tmp_path / "damaged.ckpt"
        save_checkpoint(path, blocks, optim, TrainConfig(), 0)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)

    def test_blocks_to_model(self, data):
        cia, pe, iaa, taa = small_models(data.spec.feature_dim)
        back_cia, back_pe, back_iaa, back_taa = blocks_to_model(model_blocks(cia, pe, iaa, taa))
        np.testing.assert_array_equal(back_cia.w1, cia.w1)
        np.testing.assert_array_equal(back_pe.head, pe.head)
        np.testing.assert_array_equal(back_iaa.w2, iaa.w2)
        np.testing.assert_array_equal(back_taa.w1, taa.w1)
        no_cia, *_ = blocks_to_model(model_blocks(None, pe, iaa, taa))
        assert no_cia is None


class TestMetricsCsv:
    def test_long_format(self, tmp_path):
        rows = [
            {"stage": "stage1", "epoch": 0, "loss": 1.5, "lr": 0.0},
            {"stage": "stage1", "epoch": 1, "loss": 1.25, "lr": 5e-4},
        ]
        path = tmp_path / "m.csv"
        write_metrics_csv(rows, path, "abc123")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "run_id,stage,epoch,metric,value"
        assert lines[1] == "abc123,stage1,0,loss,1.5"
        assert len(lines) == 5


# Generates a small tuned dataset, trains a small stage 1, stage 2 (on the
# stage-1 cia) and joint run, and prints the sha256 of the dataset arrays and
# tuned shift strength, and of every run's trained parameters, optimizer
# moments and metric rows. The point-MLP batches (32 clouds x 64 points,
# hidden 64) are large enough for OpenBLAS to split its matmuls across
# threads; the shift bisection and the stage-1 rows cover the stacked
# matching-accuracy product. One BLAS thread leaves CPUs idle for the point
# encoder's lanes, two (on two CPUs) do not, so the runs also compare lanes.
_HASH_RUNS = """
import hashlib
import numpy as np
from tamm.adapters import init_adapter
from tamm.datagen import DatasetSpec, generate
from tamm.encoders import init_point_encoder
from tamm.train import TrainConfig, model_blocks, train_onestage, train_stage1, train_stage2

data = generate(DatasetSpec(seed=1, classes=5, samples_per_class=26, heldout_classes=2, views=2, points_per_cloud=64))
h = hashlib.sha256(repr(data.spec.shift_strength).encode())
floats = [np.asarray(a, dtype=np.float64) for a in (data.points, data.image_feats, data.text_feats)]
for arr in (*floats, data.labels):
    h.update(arr.tobytes())
print("dataset", h.hexdigest())
d = data.spec.feature_dim
cfg = TrainConfig(seed=0, total_epochs=2, warmup_epochs=1, batch_size=32)
cia = init_adapter(d, d // 2, 101, "cia")
models = (init_point_encoder(64, d, 202), init_adapter(d, d // 2, 303, "dual"), init_adapter(d, d // 2, 404, "dual"))
cia1, rows1, opt1 = train_stage1(data, cia, cfg)
*stage2, rows2, opt2 = train_stage2(data, cia1, *models, cfg)
*joint, rows3, opt3 = train_onestage(data, cia, *models, cfg)
for name, blocks, rows, optim in [("stage1", model_blocks(cia1), rows1, opt1),
                                  ("stage2", model_blocks(None, *stage2), rows2, opt2),
                                  ("joint", model_blocks(*joint), rows3, opt3)]:
    h = hashlib.sha256(repr(rows).encode())
    for key in sorted(blocks):
        h.update(key.encode() + blocks[key].tobytes() + optim.m[key].tobytes() + optim.v[key].tobytes())
    print(name, h.hexdigest())
"""

# _HASH_RUNS's output, pinned so that a change moving any trained bit fails
# even when it moves it alike at every thread count. Recorded with numpy
# 2.4.6 and OpenBLAS 0.3.31 on x86-64; a BLAS whose kernels round
# differently needs them recorded again.
_HASH_DIGESTS = """\
dataset 09d0edf3e9c0c399aae6513f4776dccb5a2c28394e4795803fd1d8d491b8ba5c
stage1 a9feab8cb2c05af64e3eefc9e5f7423364fc32f94399ce4e45b1cfc8b34702a7
stage2 9b2b1af3962ff2830f90e5d8efdbed5299f303b51e128bd42aa3390a3814b9d9
joint 0203419e7ede7ebcaea21f99b8fcb743253f4643e37d7ea72da2138ed12e0155
"""


def _stdout_at_blas_threads(script):
    """``script``'s stdout at one and at two BLAS threads, each in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        outs.append(out.stdout)
    return outs


def test_trained_hashes_independent_of_blas_threads():
    assert _stdout_at_blas_threads(_HASH_RUNS) == [_HASH_DIGESTS, _HASH_DIGESTS]


# A small stage 2 whose encoder weight gradients sum over B*N rows, batch
# times points: 1,200 and 520 rows, which OpenBLAS rounds differently at one
# and at two threads when they are summed in one product.
_STAGE2_ROWS = """
import hashlib
from tamm.adapters import init_adapter
from tamm.datagen import DatasetSpec, generate
from tamm.encoders import init_point_encoder
from tamm.train import TrainConfig, model_blocks, train_stage2

data = generate(DatasetSpec(seed=1, classes=5, samples_per_class=26, heldout_classes=2, views=2, points_per_cloud={points}))
d = data.spec.feature_dim
cfg = TrainConfig(seed=0, total_epochs=2, warmup_epochs=1, batch_size={batch})
models = (init_point_encoder(64, d, 202), init_adapter(d, d // 2, 303, "dual"), init_adapter(d, d // 2, 404, "dual"))
blocks = model_blocks(None, *train_stage2(data, None, *models, cfg)[:3])
print(hashlib.sha256(b"".join(key.encode() + blocks[key].tobytes() for key in sorted(blocks))).hexdigest())
"""

# A stage 1 of batch 520 on the default dataset: the cia's weight gradients
# and the contrastive loss's backward product sum over 520 rows.
_STAGE1_520_ROWS = """
import hashlib
from tamm.adapters import init_adapter
from tamm.datagen import DatasetSpec, generate
from tamm.train import TrainConfig, model_blocks, train_stage1

data = generate(DatasetSpec())
d = data.spec.feature_dim
cfg = TrainConfig(total_epochs=3, batch_size=520)
blocks = model_blocks(train_stage1(data, init_adapter(d, d // 2, 101, "cia"), cfg)[0])
print(hashlib.sha256(b"".join(key.encode() + blocks[key].tobytes() for key in sorted(blocks))).hexdigest())
"""

# A linear probe on 1,200 random rows: its weight gradient sums over them.
_PROBE_1200_ROWS = """
import hashlib
import numpy as np
from tamm.evaluate import train_probe

rng = np.random.default_rng(0)
w, b = train_probe(rng.standard_normal((1200, 128)), rng.integers(0, 10, 1200), 10)
print(hashlib.sha256(w.tobytes() + b.tobytes()).hexdigest())
"""


@pytest.mark.parametrize(
    "script",
    [_STAGE2_ROWS.format(points=100, batch=12), _STAGE2_ROWS.format(points=40, batch=13), _STAGE1_520_ROWS,
     _PROBE_1200_ROWS],
    ids=["stage2-1200-rows", "stage2-520-rows", "stage1-520-rows", "probe-1200-rows"],
)
def test_trained_hashes_independent_of_blas_threads_at_long_batch_axes(script):
    one, two = _stdout_at_blas_threads(script)
    assert one == two
