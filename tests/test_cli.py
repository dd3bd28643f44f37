import ast
import dataclasses
import os
import resource
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tamm import cli, datagen, gradcheck, train
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
    @pytest.mark.parametrize("data", ["present", "missing"])
    def test_stage2_without_cia_flag_exit_2(self, workdir, tmp_path, capsys, data):
        # refused before any artifact is read, so a missing --data is not what it names
        path = workdir / "data.bin" if data == "present" else tmp_path / "no.bin"
        out = tmp_path / "x.ckpt"
        argv = ["pretrain", "--stage", "2", "--data", str(path), "--out", str(out), "--seed", "0", *SMALL, *FAST_TRAIN]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: --stage 2 needs --cia <stage-1 checkpoint> or --no-cia"]
        assert not out.exists()

    def test_stage2_no_cia_runs(self, workdir):
        out = workdir / "nocia.ckpt"
        rc = main(
            ["pretrain", "--stage", "2", "--no-cia", "--data", str(workdir / "data.bin"), "--out", str(out),
             "--seed", "0", *SMALL, *FAST_TRAIN]
        )
        assert rc == 0
        ck = load_checkpoint(out)
        assert not any(name.startswith("cia.") for name in ck.blocks)
        assert "no_cia" not in ck.meta

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
        # the view count is resolved before the --cia checkpoint is read, so a missing one is not what it names
        for cia in (["--no-cia"], ["--cia", str(workdir / "missing.ckpt")]):
            rc = main(
                ["pretrain", "--stage", "2", *cia, "--views", "9", "--data", str(workdir / "data.bin"),
                 "--out", str(workdir / "v.ckpt"), "--seed", "0", *SMALL, *FAST_TRAIN]
            )
            assert rc == 4
            assert capsys.readouterr().err.splitlines() == ["incompatible artifacts: requested 9 views, dataset stores 2"]

    @pytest.mark.parametrize("views", ["0", "-1"])
    def test_views_below_one_exit_2(self, workdir, capsys, views):
        rc = main(
            ["pretrain", "--stage", "2", "--no-cia", "--views", views, "--data", str(workdir / "data.bin"),
             "--out", str(workdir / "v.ckpt"), "--seed", "0", *SMALL, *FAST_TRAIN]
        )
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: views must be >= 1, got {views}"]

    @pytest.mark.parametrize(
        "stage, flags, named",
        [
            ("1", ["--views", "1"], "--views is not used by --stage 1"),
            ("1", ["--cia", "s1.ckpt"], "--cia is not used by --stage 1"),
            ("1", ["--no-cia"], "--no-cia is not used by --stage 1"),
            ("joint", ["--cia", "s1.ckpt"], "--cia is not used by --stage joint"),
            ("joint", ["--no-cia"], "--no-cia is not used by --stage joint"),
            ("2", ["--no-cia", "--cia", "s1.ckpt"], "--cia and --no-cia exclude each other"),
        ],
        ids=["stage1-views", "stage1-cia", "stage1-no-cia", "joint-cia", "joint-no-cia", "cia-and-no-cia"],
    )
    def test_unread_flag_exit_2(self, tmp_path, capsys, stage, flags, named):
        # refused before any artifact is read: neither the data nor the cia exists
        argv = ["pretrain", "--stage", stage, *flags, "--data", str(tmp_path / "no.bin"), "--out", str(tmp_path / "x.ckpt")]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {named}"]
        assert not (tmp_path / "x.ckpt").exists()

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
        # every part of the run writes its rows under the run's one id
        assert len({run_id(tmp_path / f"{name}.ckpt.metrics.csv") for name in ("full", "half", "resumed")}) == 1
        # resuming the finished run trains nothing and rewrites the same checkpoint
        assert main([*run, "--out", str(resumed), "--resume", str(full)]) == 0
        assert resumed.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("case", ["cia-resumed-as-no-cia", "no-cia-resumed-with-cia", "cia-of-another-seed"])
    def test_stage2_resume_against_another_cia_exit_4(self, workdir, tmp_path, stop_after, capsys, case):
        # a half-done stage-2 fit may not go on against other frozen targets
        data = str(workdir / "data.bin")
        with_cia, other_cia = ["--cia", str(workdir / "s1.ckpt")], ["--cia", str(tmp_path / "other-s1.ckpt")]
        fitted_with, resumed_with = {
            "cia-resumed-as-no-cia": (with_cia, ["--no-cia"]),
            "no-cia-resumed-with-cia": (["--no-cia"], with_cia),
            "cia-of-another-seed": (with_cia, other_cia),
        }[case]
        if resumed_with is other_cia:
            stage1 = ["pretrain", "--stage", "1", "--data", data, "--out", other_cia[1], "--seed", "1"]
            assert main([*stage1, *SMALL, *FAST_TRAIN]) == 0
        run = ["pretrain", "--stage", "2", "--data", data, "--seed", "0", *SMALL, *FAST_TRAIN]
        half, out = tmp_path / "half.ckpt", tmp_path / "out.ckpt"
        with stop_after(1):
            assert main([*run, *fitted_with, "--out", str(half)]) == 0
        capsys.readouterr()
        assert main([*run, *resumed_with, "--resume", str(half), "--out", str(out)]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "incompatible artifacts: resume checkpoint's frozen blocks differ from this run's: cia.w1, cia.w2"
        ]
        assert not out.exists() and not (tmp_path / "out.ckpt.metrics.csv").exists()

    @pytest.mark.parametrize("stage", ["2", "joint"])
    @pytest.mark.parametrize("fitted, resumed", [("1", "2"), ("2", "1"), (None, "2")], ids=["1-to-2", "2-to-1", "missing"])
    def test_resume_over_other_views_exit_4(self, workdir, tmp_path, stop_after, capsys, stage, fitted, resumed):
        # a half-done stage-2 or joint fit may not go on over another view count;
        # a checkpoint that records none (fitted=None) cannot show it is the same
        run = ["pretrain", "--stage", stage, "--data", str(workdir / "data.bin"), "--seed", "0", *SMALL, *FAST_TRAIN]
        if stage == "2":
            run += ["--cia", str(workdir / "s1.ckpt")]
        half, out = tmp_path / "half.ckpt", tmp_path / "out.ckpt"
        with stop_after(1):
            assert main([*run, "--views", fitted or resumed, "--out", str(half)]) == 0
        assert load_checkpoint(half).meta["views"] == (fitted or resumed)
        if fitted is None:
            edited_checkpoint(half, half, f"views={resumed}\n".encode(), b"")
            assert "views" not in load_checkpoint(half).meta
        capsys.readouterr()
        assert main([*run, "--views", resumed, "--resume", str(half), "--out", str(out)]) == 4
        fitted_with = f"views={fitted}" if fitted else "no recorded views"
        assert capsys.readouterr().err.splitlines() == [
            f"incompatible artifacts: resume checkpoint was fit with {fitted_with}, not views={resumed}"
        ]
        assert not out.exists() and not (tmp_path / "out.ckpt.metrics.csv").exists()

    def test_run_ids_tell_runs_apart(self, workdir, tmp_path):
        # runs that differ only in a fact a resume must match: the stage, the views, the frozen cia, the config
        data, s1 = str(workdir / "data.bin"), str(workdir / "s1.ckpt")
        runs = {
            "stage1": ["--stage", "1"],
            "joint": ["--stage", "joint"],
            "cia": ["--stage", "2", "--cia", s1],
            "cia-views-1": ["--stage", "2", "--cia", s1, "--views", "1"],
            "no-cia": ["--stage", "2", "--no-cia"],
            "no-cia-views-1": ["--stage", "2", "--no-cia", "--views", "1"],
            "no-cia-seed-1": ["--stage", "2", "--no-cia", "--seed", "1"],
        }
        for name, flags in runs.items():
            argv = ["pretrain", "--data", data, "--out", str(tmp_path / f"{name}.ckpt"), "--seed", "0", *SMALL, *FAST_TRAIN]
            assert main([*argv, *flags]) == 0
        ids = [run_id(tmp_path / f"{name}.ckpt.metrics.csv") for name in runs]
        assert len(set(ids)) == len(runs)

    def test_only_stage2_and_joint_record_views(self, workdir):
        # --views left out: the dataset's count, 2 here
        assert "views" not in load_checkpoint(workdir / "s1.ckpt").meta
        assert load_checkpoint(workdir / "s2.ckpt").meta["views"] == "2"

    @pytest.mark.parametrize("stage", ["1", "2", "joint"])
    def test_resume_on_another_dataset_exit_4(self, workdir, tmp_path, stop_after, capsys, stage):
        # the module's dataset spec with another seed
        other = tmp_path / "other.bin"
        assert main(["datagen", "--out", str(other), "--seed", "1", *SMALL]) == 0
        run = ["pretrain", "--stage", stage, "--seed", "0", *SMALL, *FAST_TRAIN]
        if stage == "2":
            run += ["--cia", str(workdir / "s1.ckpt")]
        half, out = tmp_path / "half.ckpt", tmp_path / "out.ckpt"
        with stop_after(1):
            assert main([*run, "--data", str(workdir / "data.bin"), "--out", str(half)]) == 0
        capsys.readouterr()
        assert main([*run, "--data", str(other), "--resume", str(half), "--out", str(out)]) == 4
        fitted = load_checkpoint(half).meta["dataset"]
        resumed = train.run_meta("stage1", read_triplets(other))["dataset"]
        assert fitted != resumed
        assert capsys.readouterr().err.splitlines() == [
            f"incompatible artifacts: resume checkpoint was fit with dataset={fitted}, not dataset={resumed}"
        ]
        assert not out.exists() and not (tmp_path / "out.ckpt.metrics.csv").exists()

    @pytest.mark.parametrize(
        "stage, seed, named",
        [("joint", "0", "trained_stage=stage1, not trained_stage=joint"), ("1", "1", "seed=0, not seed=1")],
        ids=["another-stage", "another-config"],
    )
    def test_resume_of_another_run_exit_4(self, workdir, tmp_path, capsys, stage, seed, named):
        out = tmp_path / "out.ckpt"
        argv = ["pretrain", "--stage", stage, "--data", str(workdir / "data.bin"), "--seed", seed, *SMALL, *FAST_TRAIN,
                "--resume", str(workdir / "s1.ckpt"), "--out", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr().err.splitlines() == [f"incompatible artifacts: resume checkpoint was fit with {named}"]
        assert list(tmp_path.iterdir()) == []

    def test_finished_run_resume_leaves_the_csv(self, workdir, tmp_path, capsys):
        out, csv = tmp_path / "f.ckpt", tmp_path / "f.ckpt.metrics.csv"
        run = ["pretrain", "--stage", "1", "--data", str(workdir / "data.bin"), "--seed", "0", *SMALL, *FAST_TRAIN,
               "--out", str(out)]
        assert main(run) == 0
        before = out.read_bytes(), csv.read_bytes()
        assert len(before[1].splitlines()) > 1
        capsys.readouterr()
        assert main([*run, "--resume", str(out)]) == 0
        assert (out.read_bytes(), csv.read_bytes()) == before
        assert capsys.readouterr().out.splitlines() == [f"wrote {out}; no epoch ran, {csv} left as it was"]


class TestSharedPaths:
    """An output flag naming an input's or another output's file exits 2
    before anything is read or written."""

    # argv over the run's folder {dir}: dataset {D}, checkpoints {S1} and {S2}, config {C}; the two flags named
    CASES = {
        "datagen-out-is-config": (["datagen", "--config", "{C}", "--out", "{C}"], "--out", "--config"),
        "out-is-data": (["pretrain", "--stage", "1", "--data", "{D}", "--out", "{D}"], "--out", "--data"),
        "out-is-config": (["pretrain", "--stage", "1", "--config", "{C}", "--data", "{D}", "--out", "{C}"],
                          "--out", "--config"),
        "out-is-cia": (["pretrain", "--stage", "2", "--data", "{D}", "--cia", "{S1}", "--out", "{S1}"], "--out", "--cia"),
        "metrics-is-out": (["pretrain", "--stage", "1", "--data", "{D}", "--out", "{dir}/n.ckpt",
                            "--metrics", "{dir}/n.ckpt"], "--metrics", "--out"),
        "metrics-is-out-spelled-apart": (["pretrain", "--stage", "1", "--data", "{D}", "--out", "{dir}/n.ckpt",
                                          "--metrics", "{dir}/gone/../n.ckpt"], "--metrics", "--out"),
        "metrics-is-data": (["pretrain", "--stage", "1", "--data", "{D}", "--out", "{dir}/n.ckpt", "--metrics", "{D}"],
                            "--metrics", "--data"),
        "metrics-links-to-data": (["pretrain", "--stage", "1", "--data", "{D}", "--out", "{dir}/n.ckpt",
                                   "--metrics", "{dir}/link"], "--metrics", "--data"),
        "metrics-is-resume": (["pretrain", "--stage", "1", "--data", "{D}", "--resume", "{S1}", "--out", "{dir}/n.ckpt",
                               "--metrics", "{S1}"], "--metrics", "--resume"),
        "default-metrics-is-data": (["pretrain", "--stage", "1", "--data", "{dir}/o.ckpt.metrics.csv",
                                     "--out", "{dir}/o.ckpt"], "--metrics", "--data"),
        "report-is-data": (["eval", "--task", "zeroshot", "--ckpt", "{S2}", "--data", "{D}", "--report", "{D}"],
                           "--report", "--data"),
        "report-is-ckpt": (["eval", "--task", "zeroshot", "--ckpt", "{S2}", "--data", "{D}", "--report", "{S2}"],
                           "--report", "--ckpt"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_refused_pair_exit_2_and_no_file_touched(self, workdir, tmp_path, capsys, case):
        argv, flag, other = self.CASES[case]
        paths = {"dir": tmp_path, "D": tmp_path / "data.bin", "S1": tmp_path / "s1.ckpt", "S2": tmp_path / "s2.ckpt",
                 "C": tmp_path / "c.txt"}
        for name in ("data.bin", "s1.ckpt", "s2.ckpt"):
            (tmp_path / name).write_bytes((workdir / name).read_bytes())
        (tmp_path / "o.ckpt.metrics.csv").write_bytes((workdir / "data.bin").read_bytes())
        (tmp_path / "c.txt").write_text("seed=0\n")
        (tmp_path / "link").symlink_to(tmp_path / "data.bin")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert main([arg.format(**paths) for arg in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: {flag} names the same file as {other}: ")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def run_id(metrics_csv) -> str:
    """The one ``run_id`` a metrics CSV's rows carry."""
    ids = {line.split(",")[0] for line in metrics_csv.read_text().splitlines()[1:]}
    assert len(ids) == 1
    return ids.pop()


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

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("flag", ["--seed", "--set"])
    @pytest.mark.parametrize("command", ["datagen", "pretrain"])
    def test_seed_out_of_range_exit_2(self, tmp_path, capsys, command, flag, seed):
        # refused before any artifact is read or generated: the --data file does not exist
        argv = ["datagen"] if command == "datagen" else ["pretrain", "--stage", "1", "--data", str(tmp_path / "no.bin")]
        given = [flag, seed] if flag == "--seed" else [flag, f"seed={seed}"]
        assert main([*argv, *given, "--out", str(tmp_path / "x.out")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: seed must be in [0, 2**64), got {seed}"]
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
        assert not (tmp_path / "out.ckpt").exists() and not (tmp_path / "out.ckpt.metrics.csv").exists()

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

    def test_image_retrieval_without_cia_equals_widened_features(self, workdir, tmp_path, monkeypatch, capsys, widened):
        # the query is the mean of two raw views: it must be taken in float64, as the widened set takes it
        data, ckpt, report = str(workdir / "data.bin"), str(tmp_path / "nocia.ckpt"), tmp_path / "r.csv"
        argv = ["pretrain", "--stage", "2", "--no-cia", "--data", data, "--out", ckpt, "--seed", "0", *SMALL, *FAST_TRAIN]
        assert main(argv) == 0
        argv = ["eval", "--task", "retrieve", "--query-modality", "image", "--views", "2", "--query-index", "3",
                "--split", "all", "--ckpt", ckpt, "--data", data, "--report", str(report)]
        outs = []
        for widen in (False, True):
            if widen:
                monkeypatch.setattr(cli, "read_triplets", lambda path: widened(read_triplets(path)))
            capsys.readouterr()
            assert main(argv) == 0
            outs.append((capsys.readouterr().out, report.read_bytes()))
        assert read_triplets(data).image_feats.dtype == np.float32
        assert outs[0] == outs[1]

    def test_retrieve_k_beyond_the_gallery_exit_2(self, workdir, capsys):
        base = ["--ckpt", str(workdir / "s2.ckpt"), "--data", str(workdir / "data.bin"), "--split", "all"]
        argv = ["eval", "--task", "retrieve", "--query-modality", "text", "--query-index", "3", *base]
        assert main([*argv, "--topk-retrieve", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: retrieval k must be >= 1 and at most the gallery size {5 * 26}, got 100000"]
        assert "Warning" not in err

    @pytest.mark.parametrize("views", ["0", "-1"])
    def test_retrieve_views_below_one_exit_2(self, workdir, capsys, views):
        base = ["--ckpt", str(workdir / "s2.ckpt"), "--data", str(workdir / "data.bin"), "--split", "all"]
        assert main(["eval", "--task", "retrieve", "--query-modality", "image", "--query-index", "3", "--views", views, *base]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: views must be >= 1, got {views}"]

    @pytest.mark.parametrize(
        "task", [["--task", "zeroshot"], ["--task", "linear"], ["--task", "fewshot"], ["--task", "retrieve"]],
        ids=["zeroshot", "linear", "fewshot", "retrieve-text"],
    )
    def test_views_outside_image_retrieval_exit_2(self, tmp_path, capsys, task):
        # refused before either artifact is read: neither path exists
        argv = ["eval", *task, "--views", "1", "--ckpt", str(tmp_path / "no.ckpt"), "--data", str(tmp_path / "no.bin")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: --views is used only by --task retrieve --query-modality image"]

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


def test_no_module_reads_an_environment_variable():
    # the README promises that flags and config files are tamm's only inputs:
    # no module under src/tamm reads, sets or unsets a variable through os
    banned = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}
    found = []
    for path in sorted(Path(cli.__file__).parent.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
        imported = (a for node in nodes if isinstance(node, ast.Import) for a in node.names)
        os_names = {a.asname or a.name for a in imported if a.name == "os"}
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in os_names:
                name = node.attr
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                name = next((a.name for a in node.names if a.name in banned), None)
            else:
                continue
            if name in banned:
                found.append(f"{path.name}:{node.lineno} os.{name}")
    assert found == []
