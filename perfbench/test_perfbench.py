"""Tests of the benchmark's own code: span arithmetic, the tail rule, the
wrapper install/restore cycle and the counters computed from arguments.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
from tamm import adapters, cli, datagen, encoders, evaluate, losses, numkit, train
from tamm.errors import ShapeError
from workloads import EXPECTED_CALLS, SEED_STRIDE, WORKLOADS, dataset_seed


def fake_clock():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    return (lambda: now[0]), tick


def test_self_time_of_nested_and_repeated_spans():
    clock, tick = fake_clock()
    layers = tuple(tracing.Layer("m", name, ("calls", "self_s")) for name in ("top", "mid", "leaf"))
    tracer = tracing.Tracer(layers, clock)
    leaf = tracer.timed(("m.leaf", tracing.CALL), lambda: tick(1))

    def mid_body():
        tick(2)
        leaf()
        tick(3)

    mid = tracer.timed(("m.mid", tracing.CALL), mid_body)

    def top_body():
        tick(1)
        mid()
        mid()
        tick(4)

    top = tracer.timed(("m.top", tracing.CALL), top_body)
    top()
    top()
    got = tracer.summary()
    # each top: 1 + 2 * (2 + 1 + 3) + 4 = 17 s, of which 5 s its own
    assert got["m.top.self_s"] == 10
    assert got["m.mid.self_s"] == 20
    assert got["m.leaf.self_s"] == 4
    assert (got["m.top.calls"], got["m.mid.calls"], got["m.leaf.calls"]) == (2, 4, 4)
    assert tracer.attributed_s() == 34 == sum(tracer.self_times())


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    for n in range(11, 400):
        values = [float(v) for v in range(n, 0, -1)]
        p, value = run.tail_percentile(values)
        assert sum(v > value for v in values) >= 10, n
        rank_above = -(-(p + 1) * n // 100)
        assert p == 99 or n - rank_above < 10, n


def test_tail_examples_and_too_few_samples():
    assert run.tail_percentile(range(1, 41)) == (75, 30)
    assert run.tail_percentile(range(1, 29)) == (64, 18)
    assert run.tail_percentile(range(1, 12)) == (9, 1)
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


def test_restore_after_exception_inside_wrapped_call():
    before = tracing.bindings()
    original = numkit.matmul
    tracer = tracing.Tracer()
    with pytest.raises(ShapeError):
        with tracer.installed():
            assert numkit.matmul is not original
            numkit.relu(np.ones(3)).backward(np.ones(4))
    with pytest.raises(ShapeError):
        with tracer.installed():
            numkit.matmul(np.ones((2, 3)), np.ones((2, 3)))
    assert numkit.matmul is original
    assert tracing.changed_bindings(before) == []
    got = tracer.summary()
    assert got["numkit.relu.failed"] == 1 and got["numkit.relu.calls"] == 1
    assert got["numkit.matmul.failed"] == 1


def test_gflop_counted_from_operand_shapes():
    tracer = tracing.Tracer()
    with tracer.installed():
        out = numkit.matmul(np.ones((3, 4)), np.ones((4, 5)))
        assert tracer.summary()["numkit.matmul.gflop"] == pytest.approx(2 * 3 * 4 * 5 / 1e9)
        out.backward(np.ones((3, 5)))
    # forward 2mkn plus backward G @ B.T and A.T @ G, 2mkn each
    assert tracer.summary()["numkit.matmul.gflop"] == pytest.approx(6 * 3 * 4 * 5 / 1e9)
    assert tracing.encoded_clouds((np.zeros((7, 16, 3)),), {}) == 7
    assert tracing.encoded_clouds((np.zeros((16, 3)),), {}) == 1


def test_every_consumer_binding_is_wrapped_and_restored():
    originals = {
        "relu": numkit.relu,
        "gelu": numkit.gelu,
        "encode_points": encoders.encode_points,
        "dual_forward": adapters.dual_forward,
        "adamw_step": train.adamw_step,
        "contrastive_accuracy": losses.contrastive_accuracy,
        "load_checkpoint": train.load_checkpoint,
    }
    def consumers():
        return {
            "relu": [numkit.relu, adapters._ACT["relu"]],
            "gelu": [numkit.gelu, adapters._ACT["gelu"]],
            "encode_points": [encoders.encode_points, train.encode_points, evaluate.encode_points],
            "dual_forward": [adapters.dual_forward, train.dual_forward, evaluate.dual_forward],
            "adamw_step": [train.adamw_step, evaluate.adamw_step],
            "contrastive_accuracy": [losses.contrastive_accuracy, datagen.contrastive_accuracy],
            "load_checkpoint": [train.load_checkpoint, cli.load_checkpoint],
        }

    with tracing.Tracer().installed():
        for name, bound in consumers().items():
            assert all(b is bound[0] and b is not originals[name] for b in bound), name
    for name, bound in consumers().items():
        assert all(b is originals[name] for b in bound), name


def test_tracing_changes_no_output_bit():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 8))
    g = rng.normal(size=(6, 8))
    cia = adapters.init_adapter(8, 4, 1, "cia")
    plain = adapters.cia_forward(x, cia, adapters.CiaConfig())
    plain_grads = plain.backward(g)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = adapters.cia_forward(x, cia, adapters.CiaConfig())
        traced_grads = traced.backward(g)
    assert np.array_equal(plain.value, traced.value)
    assert all(np.array_equal(a, b) for a, b in zip(plain_grads, traced_grads))
    bwd = {tracer.keys[k] for k, p in zip(tracer.span_key, tracer.parent) if p >= 0}
    assert ("numkit.matmul", tracing.BWD) in bwd and ("numkit.relu", tracing.BWD) in bwd
    assert tracer.summary()["numkit.matmul.calls"] == 2


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer = tracing.layer_metric_names() + list(run.BENCH_LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layer
    assert set(EXPECTED_CALLS) == set(WORKLOADS)
    qualnames = {layer.qualname for layer in tracing.LAYERS}
    assert all(set(names) <= qualnames for names in EXPECTED_CALLS.values())


def test_refused_dataset_seed_maps_to_the_next_candidate():
    assert dataset_seed(3) == 3
    # generate refuses seed 406: its shift cannot reach the accuracy band
    assert dataset_seed(406) == 406 + SEED_STRIDE
