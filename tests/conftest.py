import contextlib
import dataclasses
import functools
import os

import numpy as np
import pytest

from tamm import encoders, gradcheck, train


@pytest.fixture
def mis_scale(monkeypatch):
    """``mis_scale(name)`` swaps gradcheck case ``name`` in ``CASES`` for one
    whose first analytic gradient is 0.1% too large, so the check must fail."""

    def use(name):
        build = gradcheck.CASES[name]

        def mis_scaled():
            f, params = build()

            def wrong(p):
                value, grads = f(p)
                return value, [grads[0] * 1.001, *grads[1:]]

            return wrong, params

        monkeypatch.setitem(gradcheck.CASES, name, mis_scaled)

    return use


@pytest.fixture
def stop_after(monkeypatch):
    """``with stop_after(k):`` ends every ``train_*`` run inside after ``k``
    epochs, schedule unchanged, through the private ``train._fit``."""

    @contextlib.contextmanager
    def use(epochs):
        with monkeypatch.context() as patch:
            patch.setattr(train, "_fit", functools.partial(train._fit, stop_after_epochs=epochs))
            yield

    return use


@pytest.fixture
def lane_inputs(monkeypatch):
    """``lane_inputs(cpus, blas=1)`` sets what ``encoders._lane_count`` reads:
    the thread count BLAS reports (None: no BLAS to ask) and ``cpus`` CPUs."""

    def use(cpus, blas=1):
        getter = None if blas is None else lambda: blas
        monkeypatch.setattr(encoders, "_openblas_get_num_threads", lambda: getter)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    return use


@pytest.fixture
def widened():
    """``widened(data)``: the triplet set ``data`` with its image and text
    features widened to float64, values unchanged."""

    def use(data):
        wide = {name: getattr(data, name).astype(np.float64) for name in ("image_feats", "text_feats")}
        return dataclasses.replace(data, **wide)

    return use
