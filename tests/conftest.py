import pytest

from tamm import gradcheck


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
