"""Acceptance gates: every criterion at its stated tolerance, one printed
pass line each. Run with ``pytest tests/test_acceptance.py -s``.

The expensive artifacts (default dataset, both training stages) are built
once per session and shared; the wall-clock budgets are asserted on those
builds.
"""

import math
import time

import numpy as np
import pytest

from tamm import numkit as nk
from tamm.adapters import init_adapter
from tamm.cli import main
from tamm.datagen import (
    EVAL_HELDOUT,
    EVAL_SEEN,
    PRETRAIN,
    TUNE_BAND,
    DatasetSpec,
    batched_contrastive_accuracy,
    generate,
    read_triplets,
    write_triplets,
)
from tamm.encoders import encode_points, init_point_encoder
from tamm.evaluate import (
    build_category_bank,
    dual_features,
    fewshot_episode,
    fewshot_eval,
    linear_probe,
    zeroshot_scores,
    zeroshot_topk,
)
from tamm.gradcheck import TOLERANCE, run_gradcheck
from tamm.losses import LossConfig, contrastive_loss
from tamm.train import (
    TrainConfig,
    load_checkpoint,
    model_blocks,
    run_meta,
    save_checkpoint,
    train_stage1,
    train_stage2,
)

ADAPTER_HIDDEN = 32
PE_HIDDEN = 128


@pytest.fixture(scope="module")
def default_data():
    t0 = time.time()
    data = generate(DatasetSpec(seed=0))
    return data, time.time() - t0


@pytest.fixture(scope="module")
def stage1(default_data):
    data, _ = default_data
    d = data.spec.feature_dim
    cfg = TrainConfig(seed=0)
    t0 = time.time()
    cia, rows, optim = train_stage1(data, init_adapter(d, ADAPTER_HIDDEN, cfg.seed + 101, "cia"), cfg)
    return {"cia": cia, "rows": rows, "optim": optim, "cfg": cfg, "seconds": time.time() - t0}


@pytest.fixture(scope="module")
def stage2(default_data, stage1):
    data, _ = default_data
    d = data.spec.feature_dim
    cfg = TrainConfig(seed=0)
    t0 = time.time()
    pe, iaa, taa, rows, optim = train_stage2(
        data,
        stage1["cia"],
        init_point_encoder(PE_HIDDEN, d, cfg.seed + 202),
        init_adapter(d, ADAPTER_HIDDEN, cfg.seed + 303, "dual"),
        init_adapter(d, ADAPTER_HIDDEN, cfg.seed + 404, "dual"),
        cfg,
    )
    return {"pe": pe, "iaa": iaa, "taa": taa, "rows": rows, "optim": optim, "seconds": time.time() - t0}


@pytest.fixture(scope="module")
def heldout_features(default_data, stage2):
    data, _ = default_data
    held = data.indices(EVAL_HELDOUT)
    f_vp, f_sp = dual_features(data, stage2["pe"], stage2["iaa"], stage2["taa"], held)
    bank = build_category_bank(data, np.unique(data.labels[held]))
    return held, f_vp, f_sp, bank


def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = run_gradcheck()
    elapsed = time.time() - t0
    worst = max(results, key=lambda r: r.max_rel_error)
    assert all(r.max_rel_error < TOLERANCE for r in results), results
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 1: {len(results)} gradient checks < 1e-6 "
        f"(worst {worst.name} at {worst.max_rel_error:.2e}), {elapsed:.1f}s < 60s"
    )


def test_criterion_2_loss_oracle():
    def naive(fa, fb, tau):
        n = fa.shape[0]
        total = 0.0
        for i in range(n):
            total += math.log(
                math.exp(float(fa[i] @ fb[i]) / tau) / sum(math.exp(float(fa[i] @ fb[j]) / tau) for j in range(n))
            )
            total += math.log(
                math.exp(float(fb[i] @ fa[i]) / tau) / sum(math.exp(float(fb[i] @ fa[j]) / tau) for j in range(n))
            )
        return -total / (2.0 * n)

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 9))
        d = int(rng.integers(2, 17))
        tau = float(rng.choice([0.05, 0.07, 1.0]))
        fa = nk.l2_normalize(rng.normal(size=(n, d))).value
        fb = nk.l2_normalize(rng.normal(size=(n, d))).value
        worst = max(worst, abs(contrastive_loss(fa, fb, LossConfig(tau)).value - naive(fa, fb, tau)))
    assert worst < 1e-10

    single = contrastive_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), LossConfig(0.07)).value
    assert single == 0.0
    closed_form_err = 0.0
    for tau in (0.05, 0.07, 1.0):
        got = contrastive_loss(np.eye(2), np.eye(2), LossConfig(tau)).value
        closed_form_err = max(closed_form_err, abs(got - math.log(1.0 + math.exp(-1.0 / tau))))
    assert closed_form_err < 1e-9
    print(
        f"\nPASS criterion 2: naive-oracle max diff {worst:.2e} < 1e-10 over 200 instances; "
        f"n=1 exactly 0; orthonormal n=2 within {closed_form_err:.2e} < 1e-9"
    )


def test_criterion_3_stage1_recovery(default_data, stage1):
    data, _ = default_data
    pre = batched_contrastive_accuracy(
        data.image_feats[data.indices(EVAL_HELDOUT)], data.text_feats[data.indices(EVAL_HELDOUT)]
    )
    post = stage1["rows"][-1]["acc_heldout"]
    assert TUNE_BAND[0] <= pre <= TUNE_BAND[1]
    assert post >= 0.90
    assert stage1["seconds"] < 300.0

    retrained, _, _ = train_stage1(
        data, init_adapter(data.spec.feature_dim, ADAPTER_HIDDEN, 101, "cia"), stage1["cfg"]
    )
    assert np.array_equal(retrained.w1, stage1["cia"].w1)
    assert np.array_equal(retrained.w2, stage1["cia"].w2)
    print(
        f"\nPASS criterion 3: held-out accuracy {pre:.3f} in [0.35, 0.55] pre-adapter, "
        f"{post:.3f} >= 0.90 after stage 1; {stage1['seconds']:.0f}s < 300s; retrain bit-identical"
    )


def test_criterion_4_stage2_learning(default_data, stage1, stage2, heldout_features):
    data, gen_seconds = default_data
    held, f_vp, f_sp, bank = heldout_features
    top1 = zeroshot_topk(f_vp, f_sp, data.labels[held], bank, "both", (1,))[1]
    assert top1 >= 0.50

    untrained = []
    for s in range(16):
        pe0 = init_point_encoder(PE_HIDDEN, data.spec.feature_dim, 5000 + s)
        iaa0 = init_adapter(data.spec.feature_dim, ADAPTER_HIDDEN, 6000 + s, "dual")
        taa0 = init_adapter(data.spec.feature_dim, ADAPTER_HIDDEN, 7000 + s, "dual")
        v0, s0 = dual_features(data, pe0, iaa0, taa0, held)
        untrained.append(zeroshot_topk(v0, s0, data.labels[held], bank, "both", (1,))[1])
    baseline = float(np.mean(untrained))
    assert abs(baseline - 0.10) <= 0.05

    total = gen_seconds + stage1["seconds"] + stage2["seconds"]
    assert total < 600.0
    print(
        f"\nPASS criterion 4: held-out zero-shot top-1 {top1:.3f} >= 0.50 (chance 0.10); "
        f"untrained baseline {baseline:.3f} within 0.10+/-0.05; full two-stage {total:.0f}s < 600s"
    )


def test_criterion_5_dual_adapter_complementarity(default_data, heldout_features):
    data, _ = default_data
    held, f_vp, f_sp, bank = heldout_features
    accs = {mode: zeroshot_topk(f_vp, f_sp, data.labels[held], bank, mode, (1,))[1] for mode in ("both", "iaa", "taa")}
    chance = 1.0 / bank.class_ids.size
    assert accs["both"] >= max(accs["iaa"], accs["taa"]) - 0.02
    assert accs["iaa"] >= chance + 0.20
    assert accs["taa"] >= chance + 0.20
    print(
        f"\nPASS criterion 5: zero-shot top-1 both={accs['both']:.3f} >= "
        f"max(iaa={accs['iaa']:.3f}, taa={accs['taa']:.3f}) - 0.02; each single >= {chance:.2f} + 0.20"
    )


def test_criterion_6_linear_probe(default_data, stage2):
    data, _ = default_data
    seen = np.sort(np.concatenate([data.indices(PRETRAIN), data.indices(EVAL_SEEN)]))
    f_vp, f_sp = dual_features(data, stage2["pe"], stage2["iaa"], stage2["taa"], seen)
    labels = data.labels[seen]
    acc = {
        "concat": linear_probe(np.concatenate([f_vp, f_sp], axis=1), labels, seed=0),
        "iaa": linear_probe(f_vp, labels, seed=0),
        "taa": linear_probe(f_sp, labels, seed=0),
    }
    assert acc["concat"] >= acc["iaa"] - 0.02
    assert acc["concat"] >= acc["taa"] - 0.02
    assert acc["concat"] >= 0.90
    print(
        f"\nPASS criterion 6: seen-class probe concat={acc['concat']:.3f} >= 0.90 and >= "
        f"singles (iaa={acc['iaa']:.3f}, taa={acc['taa']:.3f}) - 0.02"
    )


def test_criterion_7_fewshot_protocol(default_data, stage2):
    data, _ = default_data
    idx = np.arange(data.labels.size)
    f_vp, f_sp = dual_features(data, stage2["pe"], stage2["iaa"], stage2["taa"], idx)
    feats = np.concatenate([f_vp, f_sp], axis=1)
    res = fewshot_eval(feats, data.labels, ways=5, shots=10, trials=10, seed=0)
    assert res.mean >= 0.80
    assert len(res.accuracies) == 10

    for t in range(10):
        ep = fewshot_episode(data.labels, 5, 10, trial_seed=t)
        assert ep.support.size == 5 * 10
        assert ep.query.size == 20 * 5
        assert not set(ep.support.tolist()) & set(ep.query.tolist())
    print(
        f"\nPASS criterion 7: 5-way 10-shot over 10 trials = {res.mean:.3f} +/- {res.std:.3f} "
        f"(mean >= 0.80); all episodes sized 50/100 and disjoint"
    )


def test_criterion_8_exact_invariants(tmp_path, default_data, stage1, stage2, heldout_features, stop_after):
    data, _ = default_data
    held, f_vp, f_sp, bank = heldout_features

    # permutation invariance, bit-exact over 100 permutations
    cloud = data.points[held[:1]]
    base = encode_points(cloud, stage2["pe"], False).value
    for seed in range(100):
        perm = np.random.default_rng(seed).permutation(cloud.shape[1])
        assert np.array_equal(encode_points(cloud[:, perm], stage2["pe"], False).value, base)

    # argmax invariance under positive scaling
    preds = bank.class_ids[np.argmax(zeroshot_scores(f_vp, f_sp, bank, "both"), axis=1)]
    assert zeroshot_topk(3.7 * f_vp, 3.7 * f_sp, preds, bank, "both", (1,))[1] == 1.0

    # top-k nesting on every evaluation
    for mode in ("both", "iaa", "taa"):
        accs = zeroshot_topk(f_vp, f_sp, data.labels[held], bank, mode, (1, 3, 5))
        assert accs[1] <= accs[3] <= accs[5]

    # dataset and checkpoint byte-identical round trips
    p1, p2 = tmp_path / "d1.bin", tmp_path / "d2.bin"
    write_triplets(data, p1)
    write_triplets(read_triplets(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    c1, c2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
    blocks = model_blocks(stage1["cia"], stage2["pe"], stage2["iaa"], stage2["taa"])
    cfg = TrainConfig(seed=0)
    save_checkpoint(c1, blocks, stage2["optim"], cfg, stage2["optim"].step, extra={"trained_stage": "stage2"})
    ck = load_checkpoint(c1)
    save_checkpoint(c2, ck.blocks, ck.optim, ck.config, ck.optim.step, extra={"trained_stage": ck.meta["trained_stage"]})
    assert c1.read_bytes() == c2.read_bytes()

    # resumed training equals uninterrupted training, bit for bit
    small = generate(DatasetSpec(seed=5, classes=5, samples_per_class=12, heldout_classes=2, views=2, points_per_cloud=16))
    rcfg = TrainConfig(seed=0, total_epochs=4, warmup_epochs=1, batch_size=8)
    cia0 = init_adapter(small.spec.feature_dim, 8, 9, "cia")
    full, _, _ = train_stage1(small, cia0, rcfg)
    with stop_after(2):
        half, _, half_optim = train_stage1(small, cia0, rcfg)
    hp = tmp_path / "half.ckpt"
    save_checkpoint(hp, model_blocks(half), half_optim, rcfg, half_optim.step, extra=run_meta("stage1", small))
    resumed, _, _ = train_stage1(small, cia0, rcfg, resume=load_checkpoint(hp))
    assert np.array_equal(resumed.w1, full.w1) and np.array_equal(resumed.w2, full.w2)

    print(
        "\nPASS criterion 8: 100 permutations bit-exact; argmax scale-invariant; top-k nested; "
        "dataset+checkpoint round trips byte-identical; resume == uninterrupted bit-exactly"
    )


def test_retrieval_spec_example(default_data, stage1, stage2, heldout_features):
    # class-level text and image queries retrieve a top-5 majority of their
    # class from the held-out gallery for most held-out classes
    from tamm.adapters import CiaConfig
    from tamm.evaluate import retrieve
    from tamm.train import adapt_views

    data, _ = default_data
    held, f_vp, f_sp, bank = heldout_features
    text_hits, image_hits = [], []
    for pos, c in enumerate(bank.class_ids):
        got = retrieve(bank.embeddings[pos], f_vp, f_sp, "text", k=5)
        text_hits.append(float(np.mean(data.labels[held[got]] == c)) > 0.5)
        qi = held[np.flatnonzero(data.labels[held] == c)[0]]
        query = adapt_views(data.image_feats[qi : qi + 1], stage1["cia"], CiaConfig(0.2))[0, 0]
        got = retrieve(query, f_vp, f_sp, "image", k=5)
        image_hits.append(float(np.mean(data.labels[held[got]] == c)) > 0.5)
    assert float(np.mean(text_hits)) >= 0.6
    assert float(np.mean(image_hits)) >= 0.6
    print(
        f"\nPASS retrieval example: top-5 own-class majority for {np.mean(text_hits):.0%} "
        f"of text queries and {np.mean(image_hits):.0%} of image queries (held-out gallery)"
    )


def test_criterion_9_ablation_machinery(tmp_path, capsys):
    small = [
        "--set", "classes=6", "--set", "samples_per_class=24", "--set", "heldout_classes=2",
        "--set", "views=8", "--set", "points_per_cloud=16",
        "--set", "total_epochs=2", "--set", "warmup_epochs=1", "--set", "batch_size=16",
    ]
    data = tmp_path / "ab.bin"
    assert main(["datagen", "--out", str(data), "--seed", "1", *small]) == 0
    s1 = tmp_path / "ab_s1.ckpt"
    assert main(["pretrain", "--stage", "1", "--data", str(data), "--out", str(s1), "--seed", "1", *small]) == 0

    ran = []
    for views in (1, 2, 4, 8):
        out = tmp_path / f"ab_v{views}.ckpt"
        rc = main(["pretrain", "--stage", "2", "--data", str(data), "--cia", str(s1), "--out", str(out),
                   "--views", str(views), "--seed", "1", *small])
        assert rc == 0
        ran.append(f"views={views}")

    no_cia = tmp_path / "ab_nocia.ckpt"
    assert main(["pretrain", "--stage", "2", "--no-cia", "--data", str(data), "--out", str(no_cia),
                 "--seed", "1", *small]) == 0
    ran.append("no-cia")
    joint = tmp_path / "ab_joint.ckpt"
    assert main(["pretrain", "--stage", "joint", "--data", str(data), "--out", str(joint), "--seed", "1", *small]) == 0
    ran.append("joint")

    # comparable report rows for every inference mode and for two- vs one-stage
    two_stage = tmp_path / "ab_v4.ckpt"
    for mode in ("both", "iaa", "taa"):
        rc = main(["eval", "--task", "zeroshot", "--ckpt", str(two_stage), "--data", str(data),
                   "--mode", mode, "-k", "1,2", "--report", str(tmp_path / f"r_{mode}.csv")])
        assert rc == 0
        ran.append(f"mode={mode}")
    for name, ckpt in (("two-stage", two_stage), ("one-stage", joint)):
        rc = main(["eval", "--task", "zeroshot", "--ckpt", str(ckpt), "--data", str(data),
                   "-k", "1", "--report", str(tmp_path / f"r_{name}.csv")])
        assert rc == 0
    capsys.readouterr()
    two = (tmp_path / "r_two-stage.csv").read_text().strip().splitlines()
    one = (tmp_path / "r_one-stage.csv").read_text().strip().splitlines()
    assert two[0] == one[0]  # same schema: comparable rows, comparison reported, not gated
    two_acc = float(two[1].split(",")[-1])
    one_acc = float(one[1].split(",")[-1])
    print(
        f"\nPASS criterion 9: end-to-end runs for {', '.join(ran)}; "
        f"two-stage vs one-stage zero-shot top-1 reported: {two_acc:.3f} vs {one_acc:.3f}"
    )
