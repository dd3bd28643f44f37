from tamm.gradcheck import CASES, TOLERANCE, all_pass, run_gradcheck

EXPECTED_COVERAGE = {
    "matmul",
    "relu",
    "gelu",
    "l2_normalize_vector",
    "l2_normalize_rows",
    "cia_forward",
    "dual_forward",
    "contrastive_loss",
    "trimodal_loss",
    "point_encoder",
    "stage2_composite",
    "probe_layer",
}


def test_covers_every_differentiable_op():
    assert set(CASES) == EXPECTED_COVERAGE


def test_fresh_build_passes():
    results = run_gradcheck()
    assert all_pass(results)
    assert {r.name for r in results} == EXPECTED_COVERAGE


def test_corrupted_backward_named():
    results = run_gradcheck(corrupt="dual_forward")
    failed = [r.name for r in results if r.max_rel_error >= TOLERANCE]
    assert failed == ["dual_forward"]
