import struct
import tracemalloc

import numpy as np
import pytest

from tamm import datagen
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
from tamm.errors import ConfigError, FormatError, ShapeError
from tamm.losses import contrastive_accuracy

SMALL = dict(classes=6, samples_per_class=20, heldout_classes=2, views=2, points_per_cloud=32)


@pytest.fixture(scope="module")
def tuned_set():
    return generate(DatasetSpec(seed=0, **SMALL))


@pytest.fixture(scope="module")
def clean_set():
    return generate(DatasetSpec(seed=0, shift_strength=0.0, **SMALL))


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
            dict(seed=-1),
            dict(seed=2**64),
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

    def test_clouds_drawn_in_blocks_equal_one_whole_draw(self, monkeypatch):
        # 37 points leave a partial set of blobs on every cloud
        spec = DatasetSpec(seed=5, shift_strength=0.0, **{**SMALL, "points_per_cloud": 37})
        assert spec.n_samples > datagen.POINT_BLOCK and spec.n_samples % datagen.POINT_BLOCK  # a partial last block
        blocked = generate(spec)
        monkeypatch.setattr(datagen, "POINT_BLOCK", spec.n_samples)
        whole = generate(spec)
        np.testing.assert_array_equal(blocked.points, whole.points)
        np.testing.assert_array_equal(blocked.image_feats, whole.image_feats)

    def test_default_set_memory_peaks(self, tmp_path):
        # neither generate nor write_triplets holds a float64 copy of all the
        # clouds (17.6 MiB here); with one, they peaked at 41.4 and 12.5 MiB.
        # Every array is held at the f32 width the file stores, so a set is
        # 12.5 MiB and write_triplets copies nothing; with float64 features a
        # set was 16.1 MiB, write_triplets peaked 3.7 MiB above it and
        # read_triplets at 28.8 MiB. generate builds each image view once,
        # straight into the f32 array it returns, and tunes the shift on the
        # held-out views in one float64 buffer; with a float64 stack of every
        # view and fresh shifted copies per bisection step it peaked at 27.7 MiB
        tracemalloc.start()
        try:
            tset = generate(DatasetSpec())
            generate_peak = tracemalloc.get_traced_memory()[1]
            held_bytes = sum(a.nbytes for a in (tset.points, tset.image_feats, tset.text_feats, tset.labels))
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            write_triplets(tset, tmp_path / "t.bin")
            write_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            read_triplets(tmp_path / "t.bin")
            read_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert generate_peak <= 22 * 2**20
        assert held_bytes <= 13 * 2**20
        assert write_peak <= 1 * 2**20
        assert read_peak <= 26 * 2**20

    def test_untunable_shift_refused_before_any_cloud_is_drawn(self):
        # seed 406's views reach the top of the band even at s = 1; the
        # 8.8 MiB of clouds a default set holds are never allocated (drawing
        # them first, the refusal peaked at 27.7 MiB)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="domain shift too weak to reach the target band"):
                generate(DatasetSpec(seed=406))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * 2**20

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
    """The per-batch loop the stacked accuracy replaced: one call per batch."""
    imgs = np.asarray(image_feats, dtype=np.float64)
    txts = np.asarray(text_feats, dtype=np.float64)
    n = imgs.shape[0]
    size = min(ACCURACY_BATCH, n)
    accs = []
    for k in range(imgs.shape[1]):
        for start in range(0, n - size + 1, size):
            rows = slice(start, start + size)
            accs.append(contrastive_accuracy(imgs[None, rows, k], txts[None, rows]))
    return float(np.mean(accs))


def _noisy_pairs(seed, n, m, d, noise):
    """Text rows and (n, m, d) image rows near them."""
    rng = np.random.default_rng(seed)
    txts = nk.l2_normalize(rng.normal(size=(n, d))).value
    return txts[:, None, :] + noise * rng.normal(size=(n, m, d)), txts


class TestBatchedAccuracy:
    @pytest.mark.parametrize(
        "n, m",
        [
            (5 * ACCURACY_BATCH, 1),  # one view
            (3 * ACCURACY_BATCH, 4),
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

    def test_images_must_have_a_view_axis(self):
        imgs, txts = _noisy_pairs(4, ACCURACY_BATCH, 1, 16, 0.1)
        for bad_imgs, bad_txts in ((imgs[:, 0], txts), (imgs, txts[:-1]), (imgs, txts[:, None])):
            with pytest.raises(ShapeError):
                batched_contrastive_accuracy(bad_imgs, bad_txts)

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
        # every float array is held at the f32 width the file stores
        for tset in (tuned_set, back):
            assert (tset.points.dtype, tset.image_feats.dtype, tset.text_feats.dtype) == (np.float32,) * 3
            assert tset.labels.dtype == np.int64
        np.testing.assert_array_equal(back.points, tuned_set.points)
        np.testing.assert_array_equal(back.image_feats, tuned_set.image_feats)
        np.testing.assert_array_equal(back.text_feats, tuned_set.text_feats)
        np.testing.assert_array_equal(back.labels, tuned_set.labels)

    def test_rewrite_identical_bytes(self, tmp_path, tuned_set):
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        write_triplets(tuned_set, p1)
        write_triplets(read_triplets(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_shift_slot_is_written_but_not_read(self, tmp_path, tuned_set, clean_set):
        # the header's u32 slot between split_ratio and shift_strength, after magic and version
        at = 8 + struct.calcsize("<7IQd")
        path = tmp_path / "t.bin"
        for tset, flag in ((tuned_set, 1), (clean_set, 0)):
            write_triplets(tset, path)
            blob = bytearray(path.read_bytes())
            assert int.from_bytes(blob[at : at + 4], "little") == flag
            blob[at : at + 4] = (7).to_bytes(4, "little")
            path.write_bytes(bytes(blob))
            assert read_triplets(path).spec == tset.spec

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
