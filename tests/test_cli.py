import dataclasses
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tamm import cli, datagen, gradcheck
from tamm.cli import main
from tamm.datagen import DatasetSpec, TripletSet, read_triplets, write_triplets
from tamm.encoders import FrozenEncoderSpec
from tamm.train import load_checkpoint, save_checkpoint

SMALL = [
    "--set", "classes=5",
    "--set", "samples_per_class=26",
    "--set", "heldout_classes=2",
    "--set", "views=2",
    "--set", "points_per_cloud=16",
]
FAST_TRAIN = [
    "--set", "total_epochs=3",
    "--set", "warmup_epochs=1",
    "--set", "batch_size=8",
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.bin"
    assert main(["datagen", "--out", str(data), "--seed", "0", *SMALL]) == 0
    s1 = root / "s1.ckpt"
    assert main(["pretrain", "--stage", "1", "--data", str(data), "--out", str(s1), "--seed", "0", *SMALL, *FAST_TRAIN]) == 0
    s2 = root / "s2.ckpt"
    assert (
        main(
            ["pretrain", "--stage", "2", "--data", str(data), "--cia", str(s1), "--out", str(s2), "--seed", "0",
             *SMALL, *FAST_TRAIN]
        )
        == 0
    )
    return root


def _cli_process(argv, preexec_fn=None, **env):
    """``python -m tamm.cli *argv`` in a fresh process on this tree's sources, ``env`` added."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "tamm.cli", *argv]
    return subprocess.run(argv, env=env, capture_output=True, text=True, preexec_fn=preexec_fn)


class TestDatagen:
    def test_roundtrips_through_pretrain(self, workdir):
        data = read_triplets(workdir / "data.bin")
        assert data.spec.classes == 5

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(["datagen", "--out", str(a), "--seed", "7", *SMALL]) == 0
        assert main(["datagen", "--out", str(b), "--seed", "7", *SMALL]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_module_entry_point_runs(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        proc = _cli_process(["datagen", "--out", str(a), "--seed", "7", *SMALL])
        assert proc.returncode == 0, proc.stderr
        assert main(["datagen", "--out", str(b), "--seed", "7", *SMALL]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        rc = main(["datagen", "--out", str(tmp_path / "x.bin"), "--set", "classess=5"])
        assert rc == 2
        assert "classess" in capsys.readouterr().err

    def test_config_file_seed_overridden_by_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("classes=5\nsamples_per_class=12\nheldout_classes=2\nviews=2\npoints_per_cloud=16\nseed=3\n")
        a, b, c = (tmp_path / f"{name}.bin" for name in "abc")
        assert main(["datagen", "--config", str(cfg), "--out", str(a), "--seed", "9"]) == 0
        assert main(["datagen", "--config", str(cfg), "--out", str(b), "--set", "seed=9"]) == 0
        assert main(["datagen", "--config", str(cfg), "--out", str(c)]) == 0
        assert a.read_bytes() == b.read_bytes() != c.read_bytes()  # --seed == --set seed=, both beat the file

    def test_bad_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("classes 5\n")
        assert main(["datagen", "--config", str(cfg), "--out", str(tmp_path / "x.bin")]) == 2

    def test_out_of_memory_exit_2(self, tmp_path, monkeypatch, capsys):
        message = "Unable to allocate 116. TiB for an array with shape (1000000000000, 16)"

        def no_memory(spec):
            raise MemoryError(message)

        monkeypatch.setattr(datagen, "generate", no_memory)
        rc = main(["datagen", "--out", str(tmp_path / "x.bin"), "--set", "classes=1000000000000"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.splitlines() == [f"config error: out of memory: {message}"]
        assert not (tmp_path / "x.bin").exists()

    def test_out_of_memory_exit_2_in_a_real_process(self, tmp_path):
        # numpy refuses the 116 TiB array at once; the 1 GiB address-space cap
        # keeps anything from paging in whatever the overcommit policy, and one
        # BLAS thread keeps a many-core machine's thread stacks under it
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        argv = ["datagen", "--out", str(tmp_path / "x.bin"), "--set", "classes=1000000000000", "--set", "heldout_classes=1"]
        proc = _cli_process(argv, preexec_fn=cap_address_space, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("config error: out of memory:") and "Traceback" not in proc.stderr
        assert not (tmp_path / "x.bin").exists()


class TestPretrain:
    def test_stage2_without_cia_flag_exit_3(self, workdir, capsys):
        rc = main(
            ["pretrain", "--stage", "2", "--data", str(workdir / "data.bin"), "--out", str(workdir / "x.ckpt"),
             "--seed", "0", *SMALL, *FAST_TRAIN]
        )
        assert rc == 3

    def test_stage2_no_cia_runs(self, workdir):
        out = workdir / "nocia.ckpt"
        rc = main(
            ["pretrain", "--stage", "2", "--no-cia", "--data", str(workdir / "data.bin"), "--out", str(out),
             "--seed", "0", *SMALL, *FAST_TRAIN]
        )
        assert rc == 0
        ck = load_checkpoint(out)
        assert "cia.w1" not in ck.blocks
        assert ck.meta["no_cia"] == "1"

    def test_joint_stage_runs(self, workdir):
        out = workdir / "joint.ckpt"
        rc = main(
            ["pretrain", "--stage", "joint", "--data", str(workdir / "data.bin"), "--out", str(out),
             "--seed", "0", *SMALL, *FAST_TRAIN]
        )
        assert rc == 0
        assert load_checkpoint(out).meta["trained_stage"] == "joint"

    def test_missing_data_exit_3(self, workdir):
        rc = main(["pretrain", "--stage", "1", "--data", str(workdir / "nope.bin"), "--out", str(workdir / "x.ckpt")])
        assert rc == 3

    def test_metrics_csv_written_and_idempotent(self, workdir, tmp_path):
        data = str(workdir / "data.bin")
        out1, out2 = tmp_path / "r1.ckpt", tmp_path / "r2.ckpt"
        for out in (out1, out2):
            rc = main(["pretrain", "--stage", "1", "--data", data, "--out", str(out), "--seed", "0", *SMALL, *FAST_TRAIN])
            assert rc == 0
        assert (str(out1) + ".metrics.csv") != (str(out2) + ".metrics.csv")
        m1 = (tmp_path / "r1.ckpt.metrics.csv").read_bytes()
        m2 = (tmp_path / "r2.ckpt.metrics.csv").read_bytes()
        assert m1 == m2
        assert out1.read_bytes() == out2.read_bytes()

    def test_views_limit_exceeding_data_exit_4(self, workdir, capsys):
        rc = main(
            ["pretrain", "--stage", "2", "--no-cia", "--views", "9", "--data", str(workdir / "data.bin"),
             "--out", str(workdir / "v.ckpt"), "--seed", "0", *SMALL, *FAST_TRAIN]
        )
        assert rc == 4
        err = capsys.readouterr().err
        assert "9" in err and "2" in err

    @pytest.mark.parametrize("stage", ["1", "2", "joint"])
    def test_resume_matches_uninterrupted(self, workdir, tmp_path, stop_after, stage):
        run = ["pretrain", "--stage", stage, "--data", str(workdir / "data.bin"), "--seed", "0", *SMALL, *FAST_TRAIN]
        if stage == "2":
            run += ["--cia", str(workdir / "s1.ckpt")]
        full, half, resumed = (tmp_path / f"{name}.ckpt" for name in ("full", "half", "resumed"))
        assert main([*run, "--out", str(full)]) == 0
        # the same run interrupted after one epoch, then resumed from its checkpoint
        with stop_after(1):
            assert main([*run, "--out", str(half)]) == 0
        assert load_checkpoint(half).optim.step < load_checkpoint(full).optim.step
        assert main([*run, "--out", str(resumed), "--resume", str(half)]) == 0
        assert resumed.read_bytes() == full.read_bytes()
        # resuming the finished run trains nothing and rewrites the same checkpoint
        assert main([*run, "--out", str(resumed), "--resume", str(full)]) == 0
        assert resumed.read_bytes() == full.read_bytes()


def edited_checkpoint(src, dst, old: bytes, new: bytes):
    """Copy a checkpoint with one edit: inside the meta block (its length prefix
    follows), or a same-length edit further on."""
    blob = src.read_bytes()
    meta_end = 12 + int.from_bytes(blob[8:12], "little")
    meta = blob[12:meta_end]
    if old in meta:
        meta = meta.replace(old, new, 1)
        blob = blob[:8] + len(meta).to_bytes(4, "little") + meta + blob[meta_end:]
    else:
        assert len(old) == len(new) and old in blob
        blob = blob.replace(old, new, 1)
    dst.write_bytes(blob)
    return dst


class TestMalformedInput:
    """Bad config text exits 2 and a bad artifact exits 4, without a traceback."""

    @pytest.mark.parametrize(
        "item",
        ["classes=abc", "classes=3.0", "betas=a,b", "betas=0.9", "betas=0.9,0.99,0.999", "shift_strength=abc",
         "base_lr=x", "topk=abc"],
    )
    def test_unparsable_config_value_exit_2(self, workdir, tmp_path, capsys, item):
        key, _, value = item.partition("=")
        if key == "topk":  # an eval flag rather than a config key
            argv = ["eval", "--task", "zeroshot", "--ckpt", str(workdir / "s2.ckpt"), "--data",
                    str(workdir / "data.bin"), "-k", value]
        else:
            argv = ["datagen", "--out", str(tmp_path / "x.bin"), "--set", item]
        assert main(argv) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "item",
        ["betas=1.0,0.999", "base_lr=inf", "weight_decay=-5", "ways=0", "ways=-1", "topk-retrieve=-3",
         "topk-retrieve=0", "tau=inf", "tau=1e-300"],
    )
    def test_out_of_range_value_exit_2(self, workdir, tmp_path, capsys, item):
        key, _, value = item.partition("=")
        data = ["--data", str(workdir / "data.bin")]
        evaluate = ["eval", *data, "--ckpt", str(workdir / "s2.ckpt"), "--split", "all", "--report", str(tmp_path / "r.csv")]
        argv = {
            "ways": [*evaluate, "--task", "fewshot", "--ways", value],
            "topk-retrieve": [*evaluate, "--task", "retrieve", "--topk-retrieve", value],
        }.get(key, ["pretrain", "--stage", "1", *data, "--out", str(tmp_path / "x.ckpt"), "--seed", "0", *SMALL,
                    *FAST_TRAIN, "--set", item])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_config_file_not_utf8_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"classes=\xff\n")
        assert main(["datagen", "--config", str(cfg), "--out", str(tmp_path / "x.bin")]) == 2

    # (old, new) edits of the stage-2 checkpoint that leave it unreadable
    BAD_CHECKPOINTS = {
        "meta-not-utf8": (b"alpha=", b"alpha\xff="),
        "block-name-not-utf8": (b"cia.w1", b"cia.w\xff"),
        "base_lr-not-float": (b"base_lr=0.0005", b"base_lr=x"),
        "step-not-int": (b"step=", b"step=x"),
        "step-missing": (b"step=", b"stop="),
        "config-key-missing": (b"tau=", b"tua="),
        "betas-without-comma": (b"betas=0.9,", b"betas=0.9;"),
        "config-fails-validation": (b"batch_size=8", b"batch_size=1"),
        "tau-out-of-range": (b"tau=0.07", b"tau=inf"),
    }
    # edits that load but cannot be resumed
    UNRESUMABLE = {
        "step-mid-epoch": (b"step=21", b"step=20"),
        "step-past-the-end": (b"step=21", b"step=28"),
        "moment-missing": (b"optim.m:pe.w1", b"optim.m:pe.w9"),
    }

    def resume(self, workdir, ckpt, out):
        return ["pretrain", "--stage", "2", "--data", str(workdir / "data.bin"), "--cia", str(workdir / "s1.ckpt"),
                "--seed", "0", *SMALL, *FAST_TRAIN, "--resume", str(ckpt), "--out", str(out)]

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize("edit", BAD_CHECKPOINTS)
    def test_malformed_checkpoint_exit_4(self, workdir, tmp_path, capsys, edit, command):
        bad = edited_checkpoint(workdir / "s2.ckpt", tmp_path / "bad.ckpt", *self.BAD_CHECKPOINTS[edit])
        if command == "eval":
            argv = ["eval", "--task", "zeroshot", "--ckpt", str(bad), "--data", str(workdir / "data.bin")]
        else:
            argv = self.resume(workdir, bad, tmp_path / "out.ckpt")
        assert main(argv) == 4
        assert "byte" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", UNRESUMABLE)
    def test_unresumable_checkpoint_exit_4(self, workdir, tmp_path, edit):
        assert load_checkpoint(workdir / "s2.ckpt").optim.step == 21  # 3 epochs x 7 steps
        bad = edited_checkpoint(workdir / "s2.ckpt", tmp_path / "bad.ckpt", *self.UNRESUMABLE[edit])
        assert main(self.resume(workdir, bad, tmp_path / "out.ckpt")) == 4
        assert not (tmp_path / "out.ckpt").exists()

    @pytest.mark.parametrize("task", ["pretrain", "zeroshot", "linear"])
    def test_adapter_wider_than_its_input_exit_4(self, workdir, tmp_path, capsys, task):
        # one more w2 column: stage 2 reads the cia, eval the iaa
        src, name = ("s1.ckpt", "cia.w2") if task == "pretrain" else ("s2.ckpt", "iaa.w2")
        ck = load_checkpoint(workdir / src)
        blocks = dict(ck.blocks, **{name: np.hstack([ck.blocks[name], ck.blocks[name][:, :1]])})
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, blocks, ck.optim, ck.config, ck.optim.step)
        data = ["--data", str(workdir / "data.bin")]
        argv = {
            "pretrain": ["pretrain", "--stage", "2", *data, "--cia", str(bad), "--out", str(tmp_path / "out.ckpt"),
                         "--seed", "0", *SMALL, *FAST_TRAIN],
        }.get(task, ["eval", "--task", task, *data, "--ckpt", str(bad)])
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("incompatible artifacts: adapter weights disagree") and "Traceback" not in err
        assert not (tmp_path / "out.ckpt").exists()

    def test_checkpoint_missing_one_block_of_a_part_exit_4(self, workdir, tmp_path, capsys):
        # the encoder's w1 and w2 are there, its head is not
        name = b"pe.head"
        bad = edited_checkpoint(workdir / "s2.ckpt", tmp_path / "bad.ckpt", struct.pack("<I", len(name)) + name,
                                struct.pack("<I", len(name)) + b"pe.hea_")
        assert main(["eval", "--task", "zeroshot", "--ckpt", str(bad), "--data", str(workdir / "data.bin")]) == 4
        err = capsys.readouterr().err
        assert "checkpoint block 'pe.hea_' is not a model block" in err and "Traceback" not in err

    def test_cia_checkpoint_missing_one_block_exit_4(self, workdir, tmp_path, capsys):
        # a stage-1 checkpoint that lost cia.w2 is damaged, not a checkpoint without a cia
        ck = load_checkpoint(workdir / "s1.ckpt")
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, {"cia.w1": ck.blocks["cia.w1"]}, ck.optim, ck.config, ck.optim.step)
        argv = ["pretrain", "--stage", "2", "--data", str(workdir / "data.bin"), "--cia", str(bad),
                "--out", str(tmp_path / "out.ckpt"), "--seed", "0", *SMALL, *FAST_TRAIN]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert "checkpoint block 'cia.w2' is missing from its part" in err and "Traceback" not in err
        assert not (tmp_path / "out.ckpt").exists()

    def test_dataset_header_fails_spec_validation_exit_4(self, workdir, tmp_path, capsys):
        blob = bytearray((workdir / "data.bin").read_bytes())
        blob[32:36] = (0).to_bytes(4, "little")  # heldout_classes
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--task", "zeroshot", "--ckpt", str(workdir / "s2.ckpt"), "--data", str(bad)]) == 4
        assert "heldout" in capsys.readouterr().err

    # payload edits of the SMALL dataset: (struct format, 4-byte words from the end of the file, new value)
    N_SAMPLES = 5 * 26
    BAD_PAYLOADS = {
        "label-out-of-range": ("<I", 1, 5),
        "class-count-off": ("<I", N_SAMPLES, 1),  # the first sample, of class 0, relabelled 1
        "nan-point": ("<f", N_SAMPLES * (1 + 64 + 2 * 64 + 16 * 3), float("nan")),  # labels, text, image, points
        "inf-text-feature": ("<f", N_SAMPLES + 7, float("inf")),
    }

    @pytest.mark.parametrize("edit", BAD_PAYLOADS)
    def test_dataset_payload_rejected_exit_4(self, workdir, tmp_path, capsys, edit):
        fmt, from_end, value = self.BAD_PAYLOADS[edit]
        blob = bytearray((workdir / "data.bin").read_bytes())
        at = len(blob) - 4 * from_end
        blob[at : at + 4] = struct.pack(fmt, value)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        assert main(["eval", "--task", "zeroshot", "--ckpt", str(workdir / "s2.ckpt"), "--data", str(bad)]) == 4
        assert f"at byte {at}" in capsys.readouterr().err

    def test_huge_feature_dim_reads_without_building_an_encoder(self, workdir, tmp_path, monkeypatch, capsys):
        # latent_dim just below feature_dim = 2^17 once made every read build a
        # frozen encoder with a feature_dim x feature_dim (128 GB) matrix
        def no_encoder(*args, **kwargs):
            raise AssertionError("reading a dataset must not build the frozen encoder")

        monkeypatch.setattr(FrozenEncoderSpec, "build", no_encoder)
        d = 2**17
        spec = DatasetSpec(classes=2, samples_per_class=1, views=1, latent_dim=d - 1, feature_dim=d,
                           points_per_cloud=8, heldout_classes=1, shift_strength=0.5)
        path = tmp_path / "huge.bin"
        write_triplets(TripletSet(spec, np.zeros((2, 8, 3)), np.ones((2, 1, d)), np.ones((2, d)), np.arange(2)), path)
        assert path.stat().st_size < 2_200_000
        assert read_triplets(path).spec == spec
        assert main(["eval", "--task", "zeroshot", "--ckpt", str(workdir / "s2.ckpt"), "--data", str(path)]) == 4
        assert str(d) in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["data-is-a-directory", "out-parent-missing", "report-parent-missing"])
    def test_unusable_path_exit_3(self, workdir, tmp_path, case, capsys):
        evaluate = ["eval", "--task", "zeroshot", "-k", "1", "--ckpt", str(workdir / "s2.ckpt")]
        argv = {
            "data-is-a-directory": [*evaluate, "--data", str(tmp_path)],
            "out-parent-missing": ["datagen", "--out", str(tmp_path / "missing" / "x.bin"), "--seed", "0", *SMALL],
            "report-parent-missing": [*evaluate, "--data", str(workdir / "data.bin"),
                                      "--report", str(tmp_path / "missing" / "r.csv")],
        }[case]
        assert main(argv) == 3
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err
        written = {"out-parent-missing": "x.bin", "report-parent-missing": "r.csv"}.get(case)
        if written:
            assert f"{tmp_path / 'missing' / written}'" in err and ".tmp" not in err


class TestEval:
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_seen_split_is_the_pretrain_and_eval_seen_samples(self, workdir, shuffled):
        data = read_triplets(workdir / "data.bin")
        if shuffled:
            data = dataclasses.replace(data, labels=np.random.default_rng(5).permutation(data.labels))
        want = np.sort(np.concatenate([data.indices(datagen.PRETRAIN), data.indices(datagen.EVAL_SEEN)]))
        np.testing.assert_array_equal(cli._eval_split_indices(data, "seen"), want)

    def test_zeroshot_modes_and_nesting(self, workdir, tmp_path, capsys):
        args = ["eval", "--task", "zeroshot", "--ckpt", str(workdir / "s2.ckpt"), "--data", str(workdir / "data.bin"),
                "-k", "1,2", "--report", str(tmp_path / "z.csv")]
        assert main(args + ["--mode", "both"]) == 0
        out_both = capsys.readouterr().out
        assert main(args + ["--mode", "iaa"]) == 0
        out_iaa = capsys.readouterr().out
        assert "zeroshot_top1" in out_both and "zeroshot_top1" in out_iaa
        lines = (tmp_path / "z.csv").read_text().strip().splitlines()
        accs = {row.split(",")[0]: float(row.split(",")[-1]) for row in lines[1:]}
        assert accs["zeroshot_top1"] <= accs["zeroshot_top2"]

    def test_linear_and_fewshot(self, workdir, capsys):
        base = ["--ckpt", str(workdir / "s2.ckpt"), "--data", str(workdir / "data.bin")]
        assert main(["eval", "--task", "linear", "--split", "seen", *base]) == 0
        assert "linear_probe" in capsys.readouterr().out
        assert main(["eval", "--task", "fewshot", "--split", "all", "--ways", "2", "--shots", "5", "--trials", "2", *base]) == 0
        out = capsys.readouterr().out
        assert "2-way 5-shot" in out and "+/-" in out

    def test_retrieve_both_modalities(self, workdir, capsys):
        base = ["--ckpt", str(workdir / "s2.ckpt"), "--data", str(workdir / "data.bin"), "--split", "all"]
        assert main(["eval", "--task", "retrieve", "--query-modality", "text", "--query-index", "3", *base]) == 0
        assert main(["eval", "--task", "retrieve", "--query-modality", "image", "--query-index", "3", "--views", "2", *base]) == 0
        assert "top-5" in capsys.readouterr().out

    def test_retrieve_k_beyond_the_gallery_exit_2(self, workdir, capsys):
        base = ["--ckpt", str(workdir / "s2.ckpt"), "--data", str(workdir / "data.bin"), "--split", "all"]
        argv = ["eval", "--task", "retrieve", "--query-modality", "text", "--query-index", "3", *base]
        assert main([*argv, "--topk-retrieve", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: retrieval k must be >= 1 and at most the gallery size {5 * 26}, got 100000"]
        assert "Warning" not in err

    def test_retrieve_zero_views_exit_4(self, workdir, capsys):
        base = ["--ckpt", str(workdir / "s2.ckpt"), "--data", str(workdir / "data.bin"), "--split", "all"]
        assert main(["eval", "--task", "retrieve", "--query-modality", "image", "--query-index", "3", "--views", "0", *base]) == 4
        assert "requested 0 views" in capsys.readouterr().err

    def test_dim_mismatch_exit_4(self, workdir, tmp_path, capsys):
        other = tmp_path / "other.bin"
        assert main(["datagen", "--out", str(other), "--seed", "0", "--set", "classes=5", "--set", "samples_per_class=12",
                     "--set", "heldout_classes=2", "--set", "views=2", "--set", "points_per_cloud=16",
                     "--set", "feature_dim=32"]) == 0
        rc = main(["eval", "--task", "zeroshot", "--ckpt", str(workdir / "s2.ckpt"), "--data", str(other)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "64" in err and "32" in err

    def test_stage1_checkpoint_rejected_for_eval(self, workdir, capsys):
        rc = main(["eval", "--task", "zeroshot", "--ckpt", str(workdir / "s1.ckpt"), "--data", str(workdir / "data.bin")])
        assert rc == 4


class TestGradcheckCommand:
    def test_cli_gradcheck_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_corrupted_backward_fails_with_name(self, capsys, mis_scale):
        mis_scale("contrastive_loss")
        assert main(["gradcheck"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines if line.endswith("FAIL")] == ["contrastive_loss"]
        assert sum(line.endswith("PASS") for line in lines) == len(gradcheck.CASES) - 1
