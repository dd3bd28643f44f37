import numpy as np
import pytest

from tamm import numkit as nk
from tamm.adapters import init_adapter
from tamm.datagen import DatasetSpec, generate
from tamm.encoders import init_point_encoder
from tamm.errors import ConfigError
from tamm.evaluate import (
    QUERY_PER_CLASS,
    CategoryBank,
    build_category_bank,
    dual_features,
    fewshot_episode,
    fewshot_eval,
    format_report,
    linear_probe,
    probe_layer_loss,
    report_row,
    retrieve,
    train_probe,
    write_report_csv,
    zeroshot_scores,
    zeroshot_topk,
)


def unit_rows(rng, n, d):
    return nk.l2_normalize(rng.normal(size=(n, d))).value


def toy_bank(d=4, classes=2):
    emb = np.eye(d)[:classes]
    return CategoryBank(np.arange(classes, dtype=np.int64), emb)


class TestZeroshot:
    def test_score_summation(self):
        # iaa scores (.9, .1), taa scores (.2, .8) -> sums (1.1, .9) -> class 0
        bank = toy_bank()
        f_vp = np.array([[0.9, 0.1, 0.0, 0.0]])
        f_sp = np.array([[0.2, 0.8, 0.0, 0.0]])
        np.testing.assert_allclose(zeroshot_scores(f_vp, f_sp, bank, "both")[0], [1.1, 0.9])
        assert zeroshot_topk(f_vp, f_sp, [0], bank, "both", k_list=(1,))[1] == 1.0

    def test_single_adapter_modes(self):
        bank = toy_bank()
        f_vp = np.array([[0.9, 0.1, 0.0, 0.0]])
        f_sp = np.array([[0.2, 0.8, 0.0, 0.0]])
        assert zeroshot_topk(f_vp, f_sp, [0], bank, "iaa", k_list=(1,))[1] == 1.0
        assert zeroshot_topk(f_vp, f_sp, [1], bank, "taa", k_list=(1,))[1] == 1.0
        with pytest.raises(ConfigError, match="inference mode"):
            zeroshot_topk(f_vp, f_sp, [0], bank, "iaa_only", k_list=(1,))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        bank = CategoryBank(np.arange(5, dtype=np.int64), unit_rows(rng, 5, 8))
        f_vp, f_sp = unit_rows(rng, 20, 8), unit_rows(rng, 20, 8)
        preds = bank.class_ids[np.argmax(zeroshot_scores(f_vp, f_sp, bank), axis=1)]
        assert zeroshot_topk(7.3 * f_vp, 7.3 * f_sp, preds, bank, k_list=(1,))[1] == 1.0

    def test_tie_breaks_to_lowest_id(self):
        bank = toy_bank()
        f_vp = np.array([[0.5, 0.5, 0.0, 0.0]])
        assert zeroshot_topk(f_vp, f_vp, [0], bank, k_list=(1,))[1] == 1.0
        assert zeroshot_topk(f_vp, f_vp, [1], bank, k_list=(1,))[1] == 0.0

    def test_topk_exhaustive_is_one(self):
        rng = np.random.default_rng(1)
        bank = CategoryBank(np.arange(6, dtype=np.int64), unit_rows(rng, 6, 8))
        f_vp, f_sp = unit_rows(rng, 30, 8), unit_rows(rng, 30, 8)
        labels = rng.integers(0, 6, size=30)
        assert zeroshot_topk(f_vp, f_sp, labels, bank, k_list=(6,))[6] == 1.0

    def test_topk_nesting(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            bank = CategoryBank(np.arange(8, dtype=np.int64), unit_rows(rng, 8, 8))
            f_vp, f_sp = unit_rows(rng, 40, 8), unit_rows(rng, 40, 8)
            labels = rng.integers(0, 8, size=40)
            accs = zeroshot_topk(f_vp, f_sp, labels, bank, k_list=(1, 3, 5))
            assert accs[1] <= accs[3] <= accs[5]

    def test_random_features_near_chance(self):
        hits = []
        for seed in range(300):
            rng = np.random.default_rng(seed)
            bank = CategoryBank(np.arange(20, dtype=np.int64), unit_rows(rng, 20, 32))
            f_vp, f_sp = unit_rows(rng, 10, 32), unit_rows(rng, 10, 32)
            labels = rng.integers(0, 20, size=10)
            hits.append(zeroshot_topk(f_vp, f_sp, labels, bank, k_list=(1,))[1])
        assert abs(float(np.mean(hits)) - 0.05) < 0.05

    def test_k_exceeding_bank_rejected(self):
        bank = toy_bank()
        with pytest.raises(ConfigError):
            zeroshot_topk(np.ones((1, 4)), np.ones((1, 4)), [0], bank, k_list=(3,))

    def test_bank_from_dataset(self):
        data = generate(DatasetSpec(seed=2, classes=4, samples_per_class=6, heldout_classes=1, views=1, points_per_cloud=16))
        bank = build_category_bank(data, np.unique(data.labels))
        assert bank.embeddings.shape == (4, data.spec.feature_dim)
        np.testing.assert_allclose(np.linalg.norm(bank.embeddings, axis=1), 1.0, atol=1e-9)
        sub = build_category_bank(data, [3])
        assert sub.class_ids.tolist() == [3]

    def test_bank_of_f32_features_equals_their_widening(self, widened):
        # each class's mean is taken in float64 whatever width the set holds
        data = generate(DatasetSpec(seed=2, classes=4, samples_per_class=30, heldout_classes=1, views=1, points_per_cloud=16))
        wide = widened(data)
        assert data.text_feats.dtype == np.float32
        ids = np.unique(data.labels)
        assert build_category_bank(data, ids).embeddings.tobytes() == build_category_bank(wide, ids).embeddings.tobytes()


class TestLinearProbe:
    def test_separable_two_class(self):
        # brute-force separability: classes split by a coordinate threshold
        rng = np.random.default_rng(3)
        x0 = rng.normal(size=(40, 6)) + np.array([3.0, 0, 0, 0, 0, 0])
        x1 = rng.normal(size=(40, 6)) - np.array([3.0, 0, 0, 0, 0, 0])
        assert x0[:, 0].min() > x1[:, 0].max()  # the oracle: a threshold separates them
        features = np.concatenate([x0, x1])
        labels = np.array([0] * 40 + [1] * 40)
        assert linear_probe(features, labels, seed=0) == 1.0

    def test_permuted_labels_near_chance(self):
        rng = np.random.default_rng(4)
        accs = []
        for seed in range(5):
            rng2 = np.random.default_rng(seed)
            features = rng2.normal(size=(120, 8))
            labels = np.repeat(np.arange(4), 30)
            labels = labels[rng2.permutation(120)]
            accs.append(linear_probe(features, labels, seed=seed))
        assert abs(float(np.mean(accs)) - 0.25) < 0.15

    def test_single_class_rejected(self):
        with pytest.raises(ConfigError):
            linear_probe(np.random.default_rng(0).normal(size=(10, 4)), np.zeros(10, dtype=int))

    def test_empty_test_split_rejected(self):
        # a one-sample class keeps its sample for training, leaving nothing to test
        with pytest.raises(ConfigError, match="test split is empty"):
            linear_probe(np.eye(3), np.arange(3))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(60, 6))
        labels = np.repeat(np.arange(3), 20)
        assert linear_probe(features, labels, seed=7) == linear_probe(features, labels, seed=7)

    def test_probe_layer_gradients(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 4))
        w = rng.normal(size=(4, 3)) * 0.1
        b = rng.normal(size=3) * 0.1
        labels = rng.integers(0, 3, size=6)

        def f(params):
            out = probe_layer_loss(x, params[0], params[1], labels)
            dw, db = out.backward(1.0)
            return float(out.value), [dw, db]

        assert nk.finite_diff_check(f, [w, b]) < 1e-6


class TestFewshot:
    def labels(self):
        return np.repeat(np.arange(6), 40)

    def test_episode_sizes(self):
        ep = fewshot_episode(self.labels(), ways=5, shots=10, trial_seed=0)
        assert ep.support.size == 5 * 10
        assert ep.query.size == 5 * QUERY_PER_CLASS == 100

    def test_deterministic(self):
        a = fewshot_episode(self.labels(), 3, 5, trial_seed=11)
        b = fewshot_episode(self.labels(), 3, 5, trial_seed=11)
        np.testing.assert_array_equal(a.support, b.support)
        np.testing.assert_array_equal(a.query, b.query)

    def test_disjoint_support_query(self):
        for seed in range(100):
            ep = fewshot_episode(self.labels(), 4, 6, trial_seed=seed)
            assert not set(ep.support.tolist()) & set(ep.query.tolist())

    def test_insufficient_samples_names_class(self):
        labels = np.repeat(np.arange(3), 15)  # 15 < shots + 20
        with pytest.raises(ConfigError, match="class"):
            fewshot_episode(labels, 2, 10, trial_seed=0)

    def test_too_many_ways(self):
        with pytest.raises(ConfigError):
            fewshot_episode(self.labels(), 7, 5, trial_seed=0)

    @pytest.mark.parametrize("ways", [0, -1])
    def test_too_few_ways(self, ways):
        with pytest.raises(ConfigError, match="ways"):
            fewshot_episode(self.labels(), ways, 5, trial_seed=0)

    def test_single_trial_std_zero(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(240, 8)) + np.eye(8)[np.repeat(np.arange(6), 40) % 8] * 4
        res = fewshot_eval(features, self.labels(), 2, 5, trials=1, seed=0)
        assert res.std == 0.0

    def test_mean_invariant_to_trial_order(self):
        rng = np.random.default_rng(8)
        features = rng.normal(size=(240, 8))
        res = fewshot_eval(features, self.labels(), 3, 5, trials=4, seed=1)
        assert res.mean == pytest.approx(float(np.mean(res.accuracies)))
        assert res.mean == pytest.approx(float(np.mean(sorted(res.accuracies))))

    def test_untrained_features_near_chance(self):
        rng = np.random.default_rng(9)
        features = rng.normal(size=(240, 16))
        res = fewshot_eval(features, self.labels(), 4, 10, trials=10, seed=0)
        assert abs(res.mean - 0.25) < 0.15


class TestRetrieve:
    def gallery(self):
        rng = np.random.default_rng(10)
        return unit_rows(rng, 30, 8), unit_rows(rng, 30, 8)

    def test_self_retrieval_first(self):
        vp, sp = self.gallery()
        assert retrieve(sp[17], vp, sp, "text", k=5)[0] == 17
        assert retrieve(vp[3], vp, sp, "image", k=5)[0] == 3

    def test_k1_is_argmax_of_k5(self):
        vp, sp = self.gallery()
        rng = np.random.default_rng(11)
        q = nk.l2_normalize(rng.normal(size=8)).value
        top5 = retrieve(q, vp, sp, "text", k=5)
        top1 = retrieve(q, vp, sp, "text", k=1)
        assert top1[0] == top5[0]

    def test_k_beyond_the_gallery_rejected(self):
        vp, sp = self.gallery()
        assert retrieve(sp[0], vp, sp, "text", k=30).size == 30
        with pytest.raises(ConfigError, match="at most the gallery size 30, got 31"):
            retrieve(sp[0], vp, sp, "text", k=31)

    def test_mode_validated(self):
        vp, sp = self.gallery()
        with pytest.raises(ConfigError):
            retrieve(sp[0], vp, sp, "audio", k=3)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one_rejected(self, k):
        vp, sp = self.gallery()
        with pytest.raises(ConfigError, match="k must be >= 1"):
            retrieve(sp[0], vp, sp, "text", k=k)


class TestDualFeatures:
    def test_empty_indices_give_empty_features(self):
        spec = DatasetSpec(seed=0, classes=4, samples_per_class=8, heldout_classes=1, views=1,
                           points_per_cloud=16, shift_strength=0.0)
        data = generate(spec)
        d = spec.feature_dim
        encoder = init_point_encoder(8, d, 0)
        iaa, taa = init_adapter(d, d // 2, 1, "dual"), init_adapter(d, d // 2, 2, "dual")
        f_vp, f_sp = dual_features(data, encoder, iaa, taa, np.arange(0))
        assert f_vp.shape == f_sp.shape == (0, d)
        f_vp, f_sp = dual_features(data, encoder, iaa, taa, np.arange(3))
        assert f_vp.shape == f_sp.shape == (3, d)


class TestReports:
    def test_format_and_csv(self, tmp_path):
        rows = [
            report_row("zeroshot_top1", "both", "heldout", 0.71),
            report_row("zeroshot_top3", "both", "heldout", 0.88),
        ]
        text = format_report(rows)
        lines = text.splitlines()
        assert lines[0].split() == ["metric", "mode", "split", "value"]
        assert "zeroshot_top1" in lines[1]
        path = tmp_path / "r.csv"
        write_report_csv(rows, path)
        got = path.read_text().strip().splitlines()
        assert got[0] == "metric,mode,split,value"
        assert got[1] == "zeroshot_top1,both,heldout,0.71"
