"""Dense float64 kernels with hand-derived backward passes.

Every differentiable operation returns a ``GradPair``: the forward value plus
a closure mapping the upstream gradient to one gradient per input, in input
order. All math is 64-bit; inputs are checked finite, and so is every output
that the checked inputs do not already bound far from overflow.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DegenerateVectorError, NumericError, ShapeError

NORM_EPS = 1e-12
FD_STEP = 1e-5  # central-difference step of finite_diff_check
OVERFLOW_SAFE = 1e300  # a value bounded below this cannot overflow
SUM_ROWS = 256  # rows per partial product of a sum over a batch axis; fixed, not a knob

# tanh-approximation constants for gelu
GELU_CUBIC = 0.044715
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class GradPair(NamedTuple):
    value: np.ndarray | float
    backward: Callable[..., tuple] | None  # None from a forward that keeps nothing for one


def _checked(x, name: str, keep_f32: bool = False) -> tuple[np.ndarray, float]:
    """``x`` as float64 (a float32 ``x`` as it is, with ``keep_f32``) and its
    largest magnitude; non-finite entries raise."""
    arr = np.asarray(x)
    if not (keep_f32 and arr.dtype == np.float32):
        arr = np.asarray(arr, dtype=np.float64)
    lo, hi = (float(arr.min()), float(arr.max())) if arr.size else (0.0, 0.0)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericError(f"{name} contains non-finite entries")
    return arr, max(-lo, hi)


def as_f64(x, name: str = "input") -> np.ndarray:
    return _checked(x, name)[0]


def _quiet(expected: bool):
    """Silences overflow and invalid-value warnings when ``expected``."""
    return np.errstate(over="ignore", invalid="ignore") if expected else contextlib.nullcontext()


def _finite_out(arr: np.ndarray, op: str) -> np.ndarray:
    # min/max reductions propagate nan and expose inf without a bool temp
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise NumericError(f"{op} produced non-finite entries")
    return arr


def _check_grad_shape(g: np.ndarray, expected: tuple, op: str) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.shape != expected:
        raise ShapeError(f"{op} backward: upstream gradient shape {g.shape} != output shape {expected}")
    return g


def _t_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b`` summed over fixed ``SUM_ROWS``-row chunks of the shared
    first axis, in order: one product over a longer inner axis is split by
    OpenBLAS according to its thread count, and so rounds differently at
    different thread counts. Up to ``SUM_ROWS`` rows this is the one product."""
    out = a[:SUM_ROWS].T @ b[:SUM_ROWS]
    for lo in range(SUM_ROWS, a.shape[0], SUM_ROWS):
        out += a[lo : lo + SUM_ROWS].T @ b[lo : lo + SUM_ROWS]
    return out


def matmul(a, b) -> GradPair:
    """Dense product A[m,k] @ B[k,n]; backward returns (G @ B.T, A.T @ G),
    the second summed over fixed row chunks by ``_t_matmul``.

    The output is scanned only when its bound k * max|A| * max|B| is not
    below ``OVERFLOW_SAFE``.
    """
    am, a_max = _checked(a, "matmul lhs")
    bm, b_max = _checked(b, "matmul rhs")
    if am.ndim != 2 or bm.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {am.shape} and {bm.shape}")
    if am.shape[1] != bm.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {am.shape} x {bm.shape}")
    out = am @ bm
    if not am.shape[1] * a_max * b_max < OVERFLOW_SAFE:
        _finite_out(out, "matmul")

    def backward(g):
        gm = _check_grad_shape(g, out.shape, "matmul")
        return gm @ bm.T, _t_matmul(am, gm)

    return GradPair(out, backward)


def relu(x) -> GradPair:
    """Elementwise max(x, 0); the derivative at exactly 0 is fixed to 0."""
    arr = as_f64(x, "relu input")
    out = np.maximum(arr, 0.0)

    def backward(g):
        gm = _check_grad_shape(g, out.shape, "relu")
        return (np.where(arr > 0.0, gm, 0.0),)

    return GradPair(out, backward)


def gelu(x) -> GradPair:
    """Tanh-approximation gelu: 0.5*x*(1 + tanh(sqrt(2/pi)*(x + 0.044715*x^3)))."""
    arr, x_max = _checked(x, "gelu input")
    # past this bound the cubic overflows to inf and tanh saturates to the
    # exact +-1; the overflow (and, backward, the inf * 0) is expected there
    huge = not x_max * x_max * x_max < OVERFLOW_SAFE
    with _quiet(huge):
        sq = arr * arr
        t = np.tanh((sq * arr * GELU_CUBIC + arr) * _SQRT_2_OVER_PI)
    out = _finite_out((1.0 + t) * arr * 0.5, "gelu")

    def backward(g):
        gm = _check_grad_shape(g, out.shape, "gelu")
        with _quiet(huge):
            d_inner = (sq * (3.0 * GELU_CUBIC) + 1.0) * _SQRT_2_OVER_PI * arr * (1.0 - t * t)
        if huge:
            # where the cubic overflowed, tanh saturates and inf * 0 left nan;
            # zero leaves 0.5 * (1 + t), the exact limits 1 and 0 of the slope
            d_inner[np.isnan(d_inner)] = 0.0
        return ((d_inner + (1.0 + t)) * 0.5 * gm,)

    return GradPair(out, backward)


def l2_normalize(v) -> GradPair:
    """Unit-norm a vector, or each row of a matrix.

    Backward applies the projection Jacobian (I - u u^T) / ||v|| per row.
    """
    arr = as_f64(v, "l2_normalize input")
    if arr.ndim not in (1, 2):
        raise ShapeError(f"l2_normalize needs a vector or matrix, got shape {arr.shape}")
    norms = np.linalg.norm(arr, axis=-1, keepdims=True)
    if np.any(norms <= NORM_EPS):
        raise DegenerateVectorError(f"cannot normalize: norm <= {NORM_EPS}")
    unit = arr / norms

    def backward(g):
        gm = _check_grad_shape(g, unit.shape, "l2_normalize")
        proj = np.sum(gm * unit, axis=-1, keepdims=True)
        return ((gm - proj * unit) / norms,)

    return GradPair(unit, backward)


def logsumexp_rows(mat: np.ndarray) -> np.ndarray:
    """Row-wise stabilized logsumexp of a 2-D array (forward only)."""
    m = mat.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(mat - m).sum(axis=1, keepdims=True)))[:, 0]


def finite_diff_check(f, params) -> float:
    """Max relative error of analytic gradients against central differences
    of step ``FD_STEP``.

    ``f`` maps a list of float64 arrays to ``(scalar, [grad arrays])`` and must
    not mutate its argument. Per coordinate the error is
    |analytic - numeric| / max(1e-12, |analytic| + |numeric|).
    """
    work = [np.array(p, dtype=np.float64) for p in params]
    value, grads = f(work)
    if not np.isfinite(value):
        raise NumericError("finite_diff_check: f is non-finite at the base point")
    if len(grads) != len(work):
        raise ShapeError(f"f returned {len(grads)} gradients for {len(work)} parameters")
    max_rel = 0.0
    for p, g in zip(work, grads):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
        for idx in np.ndindex(p.shape):
            orig = p[idx]
            p[idx] = orig + FD_STEP
            f_plus = f(work)[0]
            p[idx] = orig - FD_STEP
            f_minus = f(work)[0]
            p[idx] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(f"finite_diff_check: f non-finite near coordinate {idx}")
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            analytic = float(g[idx])
            rel = abs(analytic - numeric) / max(1e-12, abs(analytic) + abs(numeric))
            if rel > max_rel:
                max_rel = rel
    return max_rel
