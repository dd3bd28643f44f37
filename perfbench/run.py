"""Run one tamm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {realign,pretrain,eval} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``. The
report goes to stdout, and its last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0`` sets the workload up ``SETUP_REPEATS`` times, then runs whole
  cycles of its loop untraced for about ``S`` seconds and reports the
  end-to-end metrics.
* ``--trace 1`` runs one set-up, one untraced warm-up cycle, then whole
  cycles of the loop for about ``S`` seconds in all, each set-up and unit twice
  in a row: untraced, then under the span tracer. It reports the per-layer metrics of the traced half, the
  unattributed remainder and the tracing overhead.

Every operation is checked; a failed check, an exception, or an output hash
that differs from the first repeat of the same operation counts as failed. A
JSON copy of the report goes to ``perfbench/out/``; a traced run also writes
every span there, replacing the previous traced run's spans of the workload.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# One client and nothing in parallel, so one BLAS thread (never above nproc)
# keeps timings steady. Set before numpy is first imported, which is why the
# modules that import numpy (workloads, tracing, tamm) are imported late.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "items/s"),
    ("op_s_p50", "s"),
)
BENCH_LAYER_METRICS = (
    ("bench.traced_wall_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_pct", "%"),
)


def tail_percentile(values, beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """Highest whole percentile with at least ``beyond`` samples above it.

    Nearest-rank: percentile p reads the sorted sample at rank ceil(p*n/100),
    leaving n - rank samples beyond it. Needs more than ``beyond`` samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    p = 100 * (n - beyond) // n
    rank = max(1, -(-p * n // 100))
    return p, xs[rank - 1]


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "blas_threads_runtime": openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


class Ledger:
    """Every operation of one invocation, its checks, and the reference hashes."""

    def __init__(self):
        self.ops = []
        self.reference: dict[str, str] = {}
        self.checks: list[tuple[str, list[str]]] = []

    def record(self, ops) -> None:
        for op in ops:
            first = self.reference.setdefault(op.kind, op.digest) if op.digest else ""
            if op.digest != first:
                op.problems.append(f"output hash {op.digest[:16]} differs from the first {op.kind}: {first[:16]}")
            for problem in op.problems:
                print(f"FAILED {op.kind}: {problem}", file=sys.stderr)
            self.ops.append(op)

    def check(self, name: str, problems: list[str]) -> None:
        for problem in problems:
            print(f"FAILED {name}: {problem}", file=sys.stderr)
        self.checks.append((name, problems))

    @property
    def attempted(self) -> int:
        return len(self.ops) + len(self.checks)

    @property
    def failed(self) -> int:
        return sum(bool(op.problems) for op in self.ops) + sum(bool(p) for _, p in self.checks)

    def output_digest(self) -> str:
        """sha256 over every operation's reference output hash."""
        joined = "".join(f"{kind}={digest}\n" for kind, digest in sorted(self.reference.items()))
        return hashlib.sha256(joined.encode()).hexdigest()


def guarded(ledger: Ledger, kind: str, fn, *args):
    """Run one unit or set-up; an exception counts as one failed operation."""
    from workloads import Op

    try:
        return fn(*args)
    except Exception:
        traceback.print_exc()
        ledger.record([Op(kind, 0.0, problems=["raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]])])
        return None


def run_setup(workload, ledger: Ledger) -> float:
    from workloads import Op

    t0 = time.perf_counter()
    done = guarded(ledger, "setup", workload.setup)
    seconds = time.perf_counter() - t0
    if done is None:
        raise RuntimeError(f"{workload.name} set-up failed")
    ops, digest = done
    ledger.record(ops + [Op("setup", seconds, digest=digest)])
    return seconds


def run_units(workload, ledger: Ledger, units: list[list], first: int, count: int) -> None:
    for i in range(first, first + count):
        ops = guarded(ledger, "unit", workload.unit, i)
        if ops:
            ledger.record(ops)
            units.append(ops)


def run_cycles(cycle: int, budget_s: float, run_cycle) -> int:
    """Call ``run_cycle(first_unit)`` while the next cycle is expected to end
    within the budget (always at least once); return the units run."""
    t0 = time.perf_counter()
    done = 0
    while True:
        c0 = time.perf_counter()
        run_cycle(done)
        done += cycle
        now = time.perf_counter()
        if now - t0 + (now - c0) > budget_s:
            return done


def workload_metrics(name: str, ledger: Ledger, units: list[list]) -> dict[str, tuple[float, str]]:
    """The metrics particular to one workload, from its untraced run."""
    ops = [op for unit in units for op in unit]

    def rate(kind: str) -> float:
        picked = [op for op in ops if op.kind == kind]
        return sum(op.items for op in picked) / sum(op.seconds for op in picked)

    if name == "realign":
        datagen = [op.seconds for op in ledger.ops if op.kind == "datagen"]
        return {"datagen_s": (statistics.median(datagen), "s"), "stage1_pairs_per_s": (rate("stage1"), "pairs/s")}
    if name == "pretrain":
        return {
            "stage2_samples_per_s": (rate("stage2"), "samples/s"),
            "joint_samples_per_s": (rate("joint"), "samples/s"),
        }
    latencies = [op.seconds for op in ops]
    out = {"eval_s_p50": (statistics.median(latencies), "s"), "eval_requests": (len(latencies), "count")}
    if len(latencies) > TAIL_BEYOND:
        p, value = tail_percentile(latencies)
        out[f"eval_s_tail_p{p}"] = (value, "s")
    return out


def end_to_end(setups: list[float], units: list[list]) -> dict[str, float]:
    loop_ops = [op for unit in units for op in unit if op.items]
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": sum(op.items for op in loop_ops) / sum(op.seconds for op in loop_ops),
        "op_s_p50": statistics.median(sum(op.seconds for op in unit) for unit in units),
    }


def measure(workload, ledger: Ledger, seconds: float) -> tuple[dict, dict]:
    setups = [run_setup(workload, ledger) for _ in range(SETUP_REPEATS)]
    units: list[list] = []
    run_cycles(workload.cycle, seconds, lambda first: run_units(workload, ledger, units, first, workload.cycle))
    return end_to_end(setups, units), workload_metrics(workload.name, ledger, units)


def measure_traced(workload, ledger: Ledger, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Each set-up and unit runs twice in a row, untraced then traced.

    Interleaving keeps slow drifts of the machine out of the overhead figure;
    one untraced warm-up cycle first keeps first-call costs out of it.
    """
    import tracing
    from workloads import EXPECTED_CALLS

    tracer = tracing.Tracer()
    wall = {False: 0.0, True: 0.0}

    def twice(fn, *args) -> None:
        for traced in (False, True):
            t0 = time.perf_counter()
            if traced:
                with tracer.installed():
                    fn(*args)
            else:
                fn(*args)
            wall[traced] += time.perf_counter() - t0

    def run_cycle(first: int) -> None:
        for i in range(first, first + workload.cycle):
            twice(run_units, workload, ledger, [], i, 1)

    t0 = time.perf_counter()
    twice(run_setup, workload, ledger)
    run_units(workload, ledger, [], 0, workload.cycle)
    n = run_cycles(workload.cycle, seconds - (time.perf_counter() - t0), run_cycle)
    tracer.write_spans(spans_path)

    summary = tracer.summary()
    missed = [name for name in EXPECTED_CALLS[workload.name] if not summary[f"{name}.calls"]]
    ledger.check("trace-coverage", [f"{name} was never reached through a wrapper" for name in missed])
    metrics = {name: summary[name] for name, _ in tracing.layer_metric_names()}
    metrics["bench.traced_wall_s"] = wall[True]
    metrics["bench.unattributed_s"] = wall[True] - tracer.attributed_s()
    metrics["bench.trace_overhead_pct"] = 100.0 * (wall[True] - wall[False]) / wall[False]
    return metrics, {"traced_units": (n, "count"), "spans": (len(tracer), "count")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["realign", "pretrain", "eval"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tamm" / "__init__.py").is_file():
        print(f"perfbench: no tamm sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import tamm.cli  # noqa: F401  (loads every tamm module before the bindings snapshot)
    import tracing
    from workloads import WORKLOADS

    pristine = tracing.bindings()
    env = environment()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT))
    ledger = Ledger()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, extra = measure_traced(workload, ledger, args.seconds, OUT / f"{args.workload}-spans.tsv")
            units = dict(tracing.layer_metric_names() + list(BENCH_LAYER_METRICS))
        else:
            metrics, extra = measure(workload, ledger, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    changed = tracing.changed_bindings(pristine)
    ledger.check("bindings-restored", [f"{'.'.join(map(str, key))} is not the original object" for key in changed])

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "dataset_seed": workload.spec.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "output_sha256": ledger.output_digest(),
        "op_sha256": dict(sorted(ledger.reference.items())),
        "op_seconds": {kind: [op.seconds for op in ledger.ops if op.kind == kind] for kind in sorted(ledger.reference)},
        "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
    }
    print(
        f"perfbench {args.workload} seed={args.seed} dataset_seed={workload.spec.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in extra.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    for name in units:
        print(f"  {name:<40} {metrics[name]:>16.6g} {units[name]}")
    print(f"  output_sha256 {report['output_sha256']}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps({**report, **result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
