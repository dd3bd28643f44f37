"""Span tracing around the public functions of the tamm modules, from outside.

The tracer replaces each function in ``LAYERS`` at every binding a tamm module
holds -- module attributes, including names imported with ``from ... import``,
and entries of module-level dicts such as ``adapters._ACT`` -- with a wrapper
that records one span per call. When a call returns a tuple with a
``backward`` closure (``GradPair``, ``TrimodalLoss``), the closure is wrapped
as well, so forward and backward time are kept apart. The wrappers pass
arguments and results through untouched, so tracing cannot change an output
bit; leaving the ``installed()`` block puts every original object back, also
when a traced call raised.

Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of the spans opened inside it.
"""

from __future__ import annotations

import functools
import sys
from array import array
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

CALL = "call"
BWD = "bwd"


def _shape(x) -> tuple:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return tuple(shape)
    import numpy as np

    return np.shape(x)


def matmul_gflop(args, kwargs) -> float:
    """2mkn of one forward ``matmul(a[m,k], b[k,n])``, in GFLOP."""
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    (m, k), n = _shape(a), _shape(b)[1]
    return 2.0 * m * k * n / 1e9


def encoded_clouds(args, kwargs) -> float:
    """Clouds in one ``encode_points`` call: a (B,N,3) batch or one (N,3) cloud."""
    shape = _shape(args[0] if args else kwargs["clouds"])
    return float(shape[0]) if len(shape) == 3 else 1.0


def requested_clouds(args, kwargs) -> float:
    """Clouds ``dual_features`` encodes: one per requested index."""
    indices = args[4] if len(args) > 4 else kwargs["indices"]
    return float(_shape(indices)[0])


@dataclass(frozen=True)
class Layer:
    """One traced function and the metric kinds reported for it.

    Kinds: ``calls``; ``self_s`` (all phases); ``fwd_self_s`` / ``bwd_self_s``
    (the call and its backward closure); ``failed`` (exceptions raised); and
    the counter named by ``counter``, whose amount per call ``count`` computes
    from the arguments. A backward call adds ``bwd_factor`` times the amount of
    the forward call that made it.
    """

    module: str
    name: str
    kinds: tuple[str, ...]
    counter: str | None = None
    count: Callable | None = None
    bwd_factor: float = 0.0

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


LAYERS = (
    Layer("encoders", "encode_points", ("calls", "clouds", "fwd_self_s", "bwd_self_s"), "clouds", encoded_clouds),
    # backward forms G @ B.T and A.T @ G: two more products of the forward's size
    Layer("numkit", "matmul", ("calls", "fwd_self_s", "bwd_self_s", "gflop"), "gflop", matmul_gflop, 2.0),
    Layer("numkit", "relu", ("fwd_self_s", "bwd_self_s")),
    Layer("numkit", "gelu", ("fwd_self_s", "bwd_self_s")),
    Layer("numkit", "l2_normalize", ("fwd_self_s", "bwd_self_s")),
    Layer("numkit", "logsumexp_rows", ("self_s",)),
    Layer("losses", "contrastive_loss", ("calls", "fwd_self_s", "bwd_self_s")),
    Layer("losses", "trimodal_loss", ("fwd_self_s", "bwd_self_s")),
    Layer("losses", "contrastive_accuracy", ("calls", "self_s")),
    Layer("adapters", "cia_forward", ("fwd_self_s", "bwd_self_s")),
    Layer("adapters", "dual_forward", ("calls", "fwd_self_s", "bwd_self_s")),
    Layer("train", "adamw_step", ("calls", "self_s")),
    Layer("train", "train_stage1", ("self_s",)),
    Layer("train", "train_stage2", ("self_s",)),
    Layer("train", "train_onestage", ("self_s",)),
    Layer("train", "save_checkpoint", ("self_s",)),
    Layer("train", "load_checkpoint", ("self_s",)),
    Layer("datagen", "read_triplets", ("self_s",)),
    Layer("datagen", "write_triplets", ("self_s",)),
    Layer("datagen", "generate", ("self_s",)),
    Layer("datagen", "batched_contrastive_accuracy", ("calls", "self_s")),
    Layer("evaluate", "dual_features", ("calls", "clouds", "self_s"), "clouds", requested_clouds),
    Layer("evaluate", "train_probe", ("calls", "self_s")),
    Layer("evaluate", "probe_layer_loss", ("fwd_self_s", "bwd_self_s")),
    Layer("evaluate", "zeroshot_topk", ("self_s",)),
    Layer("evaluate", "retrieve", ("self_s",)),
    Layer("cli", "main", ("calls", "failed", "self_s")),
)

KIND_UNITS = {
    "calls": "count",
    "failed": "count",
    "clouds": "count",
    "gflop": "GFLOP",
    "self_s": "s",
    "fwd_self_s": "s",
    "bwd_self_s": "s",
}


def layer_metric_names(layers=LAYERS) -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in table order."""
    return [(f"{layer.qualname}.{kind}", KIND_UNITS[kind]) for layer in layers for kind in layer.kinds]


def tamm_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == "tamm" or n.startswith("tamm."))]


def bindings() -> dict[tuple, object]:
    """Every module attribute and module-level dict entry of the loaded tamm modules."""
    out: dict[tuple, object] = {}
    for mod in tamm_modules():
        for attr, value in vars(mod).items():
            if attr.startswith("__"):
                continue
            out[(mod.__name__, attr)] = value
            if type(value) is dict:
                for key, item in value.items():
                    out[(mod.__name__, attr, key)] = item
    return out


def changed_bindings(before: dict[tuple, object]) -> list[tuple]:
    """Keys whose object is not the one in ``before`` (identity, not equality)."""
    after = bindings()
    return [key for key in before.keys() | after.keys() if before.get(key, before) is not after.get(key, after)]


class Tracer:
    """Records spans of the traced functions while ``installed()`` is active.

    Spans live in flat arrays (not one Python object per span), so a long
    traced run does not load the garbage collector.
    """

    def __init__(self, layers=LAYERS, clock: Callable[[], float] = time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.keys: list[tuple[str, str]] = []  # (qualname, phase) per key id
        self._key_ids: dict[tuple[str, str], int] = {}
        self.span_key = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")  # index of the enclosing span, -1 at the root
        self.failed = bytearray()
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def timed(self, key: tuple[str, str], fn: Callable, count_name: str | None = None, amount: float = 0.0):
        """``fn`` wrapped to record one span under ``key`` per call."""
        key_id = self._key_ids.setdefault(key, len(self.keys))
        if key_id == len(self.keys):
            self.keys.append(key)
        span_key, start, end, parent, failed = self.span_key, self.start, self.end, self.parent, self.failed
        stack, clock, counts = self._stack, self.clock, self.counts

        def call(*args, **kwargs):
            if count_name is not None:
                counts[count_name] = counts.get(count_name, 0.0) + amount
            idx = len(start)
            span_key.append(key_id)
            parent.append(stack[-1] if stack else -1)
            failed.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        return call

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        name = layer.qualname
        count_name = f"{name}.{layer.counter}" if layer.counter else None
        forward = self.timed((name, CALL), fn)
        bwd_key = (name, BWD)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            amount = 0.0
            if count_name is not None:
                amount = layer.count(args, kwargs)
                self.counts[count_name] = self.counts.get(count_name, 0.0) + amount
            out = forward(*args, **kwargs)
            backward = getattr(out, "backward", None)
            if callable(backward) and hasattr(out, "_replace"):
                out = out._replace(backward=self.timed(bwd_key, backward, count_name, amount * layer.bwd_factor))
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        modules = {m.__name__: m for m in tamm_modules()}
        wrappers = {}
        for layer in self.layers:
            fn = getattr(modules[f"tamm.{layer.module}"], layer.name)
            wrappers[id(fn)] = (fn, self.wrap(layer, fn))
        patched: list[tuple[dict, object, object]] = []

        def patch(mapping: dict, key, value) -> None:
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                mapping[key] = hit[1]
                patched.append((mapping, key, value))

        try:
            for mod in modules.values():
                namespace = vars(mod)
                for attr, value in list(namespace.items()):
                    if attr.startswith("__"):
                        continue
                    patch(namespace, attr, value)
                    if type(value) is dict:
                        for key, item in list(value.items()):
                            patch(value, key, item)
            yield self
        finally:
            for mapping, key, original in reversed(patched):
                mapping[key] = original

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [e - s for s, e in zip(self.start, self.end)]
        out = list(own)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def summary(self) -> dict[str, float]:
        """Per-layer totals: ``<qualname>.<kind>`` for every kind, every layer."""
        totals: dict[tuple, float] = {}
        for key_id, own, failed in zip(self.span_key, self.self_times(), self.failed):
            key = self.keys[key_id]
            for stat, amount in (("self", own), ("n", 1.0), ("failed", float(failed))):
                totals[key + (stat,)] = totals.get(key + (stat,), 0.0) + amount
        out: dict[str, float] = {}
        for layer in self.layers:
            name = layer.qualname

            def get(phase: str, stat: str) -> float:
                return totals.get((name, phase, stat), 0.0)

            out[f"{name}.calls"] = get(CALL, "n")
            out[f"{name}.fwd_self_s"] = get(CALL, "self")
            out[f"{name}.bwd_self_s"] = get(BWD, "self")
            out[f"{name}.self_s"] = get(CALL, "self") + get(BWD, "self")
            out[f"{name}.failed"] = get(CALL, "failed") + get(BWD, "failed")
            if layer.counter:
                out[f"{name}.{layer.counter}"] = self.counts.get(f"{name}.{layer.counter}", 0.0)
        return out

    def attributed_s(self) -> float:
        """Sum of all self times, which equals the summed duration of root spans."""
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, name, phase, start, end, parent, failed."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as fh:
            fh.write("index\tname\tphase\tstart_s\tend_s\tparent\tfailed\n")
            rows = zip(self.span_key, self.start, self.end, self.parent, self.failed)
            for i, (key_id, s, e, p, f) in enumerate(rows):
                name, phase = self.keys[key_id]
                fh.write(f"{i}\t{name}\t{phase}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\t{f}\n")
