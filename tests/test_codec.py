import argparse
import random
from dataclasses import fields

import numpy as np
import pytest

from tamm.cli import build_configs, main
from tamm.codec import FramedReader, format_value, parse_value, write_framed
from tamm.datagen import DatasetSpec
from tamm.errors import ConfigError, FormatError
from tamm.evaluate import report_row, write_report_csv
from tamm.train import TrainConfig, write_metrics_csv

TINY = [
    "--set", "classes=4",
    "--set", "samples_per_class=10",
    "--set", "heldout_classes=1",
    "--set", "views=1",
    "--set", "points_per_cloud=8",
    "--set", "latent_dim=8",
    "--set", "feature_dim=16",
    "--set", "shift_strength=0.5",
]
TINY_TRAIN = ["--set", "total_epochs=2", "--set", "warmup_epochs=1", "--set", "batch_size=8"]


class TestFraming:
    def test_roundtrip_and_offsets_in_errors(self, tmp_path):
        path = tmp_path / "f.bin"
        write_framed(path, b"TEST", 3, [b"\x02\x00\x00\x00", np.array([1.5, -2.0], dtype="<f4"), b"hi"])
        reader = FramedReader(path, b"TEST", 3, "test file")
        (n,) = reader.unpack("<I", "count")
        values = reader.array("<f4", (n,), "values")
        np.testing.assert_array_equal(values, [1.5, -2.0])
        assert values.dtype == np.float32 and values.flags.writeable  # the stored width, in a copy
        assert reader.text(2, "tail") == "hi"
        reader.finish()
        reader = FramedReader(path, b"TEST", 3, "test file")
        with pytest.raises(FormatError, match="needs 4000000000 bytes at byte 8"):
            reader.take(4_000_000_000, "huge block")
        with pytest.raises(FormatError, match="trailing garbage: 14 unexpected bytes at byte 8"):
            reader.finish()

    def test_failed_write_keeps_previous_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "f.bin"
        write_framed(path, b"TEST", 1, [b"old payload"])
        before = path.read_bytes()

        def parts():
            yield b"new payload, first half"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_framed(path, b"TEST", 1, parts())
        assert path.read_bytes() == before

        # the metrics and report CSVs go through the same atomic write
        def rows(row):
            yield row
            raise OSError("disk full")

        csvs = {
            "metrics.csv": (lambda rows, p: write_metrics_csv(rows, p, "run"), {"stage": "stage1", "epoch": 1, "loss": 0.5}),
            "report.csv": (write_report_csv, report_row("linear_probe", "both", "heldout", 0.5)),
        }
        for name, (write, row) in csvs.items():
            write([row, row], tmp_path / name)
            before = (tmp_path / name).read_bytes()
            assert before.endswith(b"0.5\r\n")
            with pytest.raises(OSError, match="disk full"):
                write(rows(row), tmp_path / name)
            assert (tmp_path / name).read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "metrics.csv", "report.csv"]


class TestValues:
    @pytest.mark.parametrize("config", [DatasetSpec(shift_strength=0.25), DatasetSpec(), TrainConfig()], ids=str)
    def test_every_field_roundtrips(self, config):
        for f in fields(config):
            value = getattr(config, f.name)
            assert parse_value(f, format_value(value)) == value


# --- seeded mutation fuzz: both binary formats and the config parser ---------


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data, ckpt = root / "data.bin", root / "s2.ckpt"
    assert main(["datagen", "--out", str(data), "--seed", "0", *TINY]) == 0
    run = ["pretrain", "--stage", "2", "--no-cia", "--data", str(data), "--seed", "0", *TINY, *TINY_TRAIN]
    assert main([*run, "--out", str(ckpt)]) == 0
    return root, run


def mutants(blob: bytes, end: int, seed: int):
    """The file cut at every offset below ``end``, then with each of those bytes replaced."""
    rng = random.Random(seed)
    for at in range(end):
        yield f"cut@{at}", blob[:at]
    for at in range(end):
        yield f"flip@{at}", blob[:at] + bytes([blob[at] ^ rng.randrange(1, 256)]) + blob[at + 1 :]


def run_all(cases, tmp_path, argvs) -> dict[str, int]:
    """Exit codes outside 0-4 by case; an exception escaping ``main`` fails the test."""
    bad = {}
    target = tmp_path / "mutant.bin"
    for name, blob in cases:
        target.write_bytes(blob)
        for argv in argvs(str(target)):
            code = main(argv)
            if code not in range(5):
                bad[f"{name} {argv[:2]}"] = code
    return bad


def test_dataset_header_mutations_exit_0_to_4(tiny, tmp_path, capsys):
    root, _ = tiny
    blob = (root / "data.bin").read_bytes()
    header_end = 8 + 56

    def argvs(path):
        yield ["eval", "--task", "zeroshot", "-k", "1", "--ckpt", str(root / "s2.ckpt"), "--data", path]

    assert run_all(mutants(blob, header_end, seed=1), tmp_path, argvs) == {}


def test_checkpoint_meta_and_first_block_mutations_exit_0_to_4(tiny, tmp_path, capsys):
    root, run = tiny
    blob = (root / "s2.ckpt").read_bytes()
    meta_end = 12 + int.from_bytes(blob[8:12], "little")
    name_len = int.from_bytes(blob[meta_end + 4 : meta_end + 8], "little")
    rank_at = meta_end + 8 + name_len
    dims_end = rank_at + 4 + 4 * int.from_bytes(blob[rank_at : rank_at + 4], "little")

    def argvs(path):
        yield ["eval", "--task", "zeroshot", "-k", "1", "--ckpt", path, "--data", str(root / "data.bin")]
        yield [*run, "--resume", path, "--out", str(tmp_path / "resumed.ckpt")]

    assert run_all(mutants(blob, dims_end, seed=2), tmp_path, argvs) == {}


def test_config_text_mutations_raise_only_config_error(tmp_path):
    text = (
        b"classes=5  # comment\ntau=0.07\nshift_strength=auto\nsplit_ratio=0.7\n"
        b"betas=0.9,0.999\nbase_lr=0.0005\nbatch_size=8\nseed=3\n"
    )
    path = tmp_path / "run.cfg"
    parsed = 0
    for name, blob in mutants(text, len(text), seed=3):
        path.write_bytes(blob)
        sets = [item for item in blob.decode("utf-8", "replace").split("\n") if item.strip()]
        for args in (argparse.Namespace(config=str(path), set=None, seed=None),
                     argparse.Namespace(config=None, set=sets, seed=None)):
            try:
                build_configs(args)
                parsed += 1
            except ConfigError:
                pass
    assert parsed > 0
