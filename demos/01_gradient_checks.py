"""Tour of the numeric kernel: every op carries its own backward pass, and a
central-difference checker verifies each one.

Run: python demos/01_gradient_checks.py
"""

import numpy as np

from tamm import numkit as nk
from tamm.gradcheck import TOLERANCE, run_gradcheck

rng = np.random.default_rng(0)

print("== forward values ==")
print("matmul [[1,2],[3,4]] @ [[1],[1]]      ->", nk.matmul([[1.0, 2.0], [3.0, 4.0]], [[1.0], [1.0]]).value.ravel())
print("relu(-1, 2)                           ->", nk.relu(np.array([-1.0, 2.0])).value)
print("gelu(0, 1)                            ->", nk.gelu(np.array([0.0, 1.0])).value)
print("l2_normalize(3, 4)                    ->", nk.l2_normalize(np.array([3.0, 4.0])).value)

print("\n== a hand-rolled backward, checked against finite differences ==")
a = rng.normal(size=(3, 4))
b = rng.normal(size=(4, 2))
w = rng.normal(size=(3, 2))  # fixed projection turning the matrix output into a scalar


def scalar_through_matmul(params):
    out = nk.matmul(params[0], params[1])
    da, db = out.backward(w)
    return float(np.sum(w * out.value)), [da, db]


err = nk.finite_diff_check(scalar_through_matmul, [a, b])
print(f"matmul: max relative gradient error = {err:.3e}")

print("\n== the full suite (same table the CLI's gradcheck command prints) ==")
for r in run_gradcheck():
    status = "PASS" if r.max_rel_error < TOLERANCE else "FAIL"
    print(f"  {r.name:22s} {r.max_rel_error:.3e}  {status}")
