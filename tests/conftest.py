import contextlib
import functools

import pytest

from tamm import gradcheck, train


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
