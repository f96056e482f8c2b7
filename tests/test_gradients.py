"""Fast gradient spot checks (the 20-seed sweep runs in the acceptance suite)."""

from dataclasses import replace

import numpy as np
import pytest

from subspectral.nn import functional as F
from subspectral.nn.gradcheck import grad_check, relative_error, sample_coords
from subspectral.verification import (
    FUNCTIONAL_CASES,
    MODEL_CASES,
    _case_dense,
    _case_subclassifier,
    check_case,
    run_gradient_suite,
)


@pytest.mark.parametrize("case", FUNCTIONAL_CASES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_functional_cases_three_seeds(case, dtype):
    for seed in (0, 1, 2):
        entry = check_case(case(seed), dtype)
        assert entry.passed, f"{entry.case} seed {seed}: {entry.report.worst}"


@pytest.mark.parametrize("case", MODEL_CASES, ids=lambda c: c.__name__)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_model_cases_two_seeds(case, dtype):
    for seed in (0, 1):
        entry = check_case(case(seed), dtype)
        assert entry.passed, f"{entry.case} seed {seed}: {entry.report.worst}"


def test_dense_meets_spec_tolerances():
    f64 = check_case(_case_dense(11), np.float64)
    f32 = check_case(_case_dense(11), np.float32)
    assert f64.report.max_rel_error < 1e-7
    assert f32.report.max_rel_error < 1e-4


def test_subclassifier_stack_meets_spec_tolerance():
    entry = check_case(replace(_case_subclassifier(11), coords=3), np.float32)
    assert entry.report.max_rel_error < 1e-3


def test_relu_kink_coordinates_excluded():
    x = np.zeros((2, 4))  # every coordinate sits exactly on the kink
    x[0, 0] = 1.0
    r = np.ones_like(x)
    grad = F.relu_backward(r, x > 0)
    mask = x == 0.0
    report = grad_check(
        lambda: float(np.sum(F.relu(x) * r)),
        [("relu", x, grad, mask)],
        tolerance=1e-7,
        coords_per_target=8,
        rng=np.random.default_rng(0),
    )
    # only the single nonzero coordinate is eligible, and it passes
    assert report.n_coords == 1
    assert report.passed


def test_batchnorm_sum_of_squares_matches_fd():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 3, 5, 5))
    gamma = rng.uniform(0.5, 1.5, 3)
    beta = rng.standard_normal(3)

    def loss():
        y, _, _, _ = F.batchnorm2d_train(x, gamma, beta, eps=1e-3)
        return float(np.sum(y**2))

    y, _, _, cache = F.batchnorm2d_train(x, gamma, beta, eps=1e-3)
    dx, dgamma, dbeta = F.batchnorm2d_backward(2 * y, cache)
    report = grad_check(
        loss,
        [("x", x, dx), ("gamma", gamma, dgamma), ("beta", beta, dbeta)],
        tolerance=1e-4,
        coords_per_target=10,
        rng=np.random.default_rng(1),
    )
    assert report.passed, report.worst


def test_sample_coords_respects_exclusion():
    rng = np.random.default_rng(0)
    mask = np.ones((3, 3), dtype=bool)
    mask[1, 1] = False
    coords = sample_coords((3, 3), 10, rng, exclude_mask=mask)
    assert coords == [(1, 1)]


def test_relative_error_definition():
    assert relative_error(2.0, 2.0) == 0.0
    assert relative_error(0.0, 1e-9) == pytest.approx(1e-9)
    assert relative_error(10.0, 5.0) == pytest.approx(0.5)


def test_suite_runner_reports_entries():
    entries = run_gradient_suite(seeds=[0])
    assert len(entries) == 2 * (len(FUNCTIONAL_CASES) + len(MODEL_CASES))
    assert all(e.passed for e in entries)
