"""Quadratic objectives checked against direct matrix arithmetic."""

import numpy as np
import pytest

from stepbias.errors import DimensionMismatch, SingularKernel
from stepbias.kernels import gaussian_kernel_matrix, ridge_alpha, to_eigen_coords
from stepbias.quadratic import (
    ProblemPair,
    QuadraticObjective,
    evaluate,
    from_kernel,
    grad,
)
from stepbias.spectral import diagonal_spectrum, eig_sym


def make_objective(rng, n, min_value=0.0):
    A = rng.normal(size=(n, n))
    spec = eig_sym(A @ A.T + n * np.eye(n))
    return QuadraticObjective(spec, rng.normal(size=n), min_value=min_value)


def test_evaluate_matches_matrix_form():
    rng = np.random.default_rng(0)
    obj = make_objective(rng, 6, min_value=0.3)
    T = obj.spectrum.matrix()
    for _ in range(5):
        theta = rng.normal(size=6)
        d = theta - obj.optimum
        want = 0.5 * d @ T @ d + 0.3
        assert evaluate(obj, theta) == pytest.approx(want, rel=1e-12)
        assert evaluate(obj, theta) - obj.min_value == pytest.approx(want - 0.3, rel=1e-12)
        assert np.allclose(grad(obj, theta), T @ d, atol=1e-12)


def test_grad_zero_at_optimum():
    rng = np.random.default_rng(1)
    obj = make_objective(rng, 4)
    assert np.allclose(grad(obj, obj.optimum), 0.0, atol=1e-14)
    assert evaluate(obj, obj.optimum) - obj.min_value == pytest.approx(0.0, abs=1e-15)


def test_dimension_checks():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        evaluate(obj, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        ProblemPair(obj, QuadraticObjective(diagonal_spectrum([1.0]), np.zeros(1)))


def test_pair_requires_zero_test_min():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    bad = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2), min_value=0.1)
    with pytest.raises(ValueError):
        ProblemPair(obj, bad)


def ridge_loss(K, y, lam, alpha):
    n = K.shape[0]
    r = y - K @ alpha
    return float(r @ r) / (2 * n) + 0.5 * lam * float(alpha @ K @ alpha)


def test_from_kernel_matches_dual_ridge_loss():
    """The theta-space objective evaluates to the dual ridge loss.

    For any dual vector a, the objective at the eigen-coordinates of a
    must equal (1/2n)||y - K a||^2 + (lam/2) a^T K a; this pins down the
    operator, the optimum and the min_value simultaneously.
    """
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 2))
    y = rng.choice([-1.0, 1.0], size=12)
    K = gaussian_kernel_matrix(X, 0.8)
    lam = 1e-3
    obj = from_kernel(K, y, lam)
    from stepbias.kernels import Dataset, kernel_problem

    prob = kernel_problem(Dataset(X, y), 0.8, lam)
    for _ in range(5):
        a = rng.normal(size=12)
        theta = to_eigen_coords(prob, a)
        assert evaluate(obj, theta) == pytest.approx(ridge_loss(K, y, lam, a), rel=1e-9)
    astar = ridge_alpha(K, y, lam)
    assert np.allclose(obj.optimum, to_eigen_coords(prob, astar), atol=1e-9)
    assert obj.min_value == pytest.approx(ridge_loss(K, y, lam, astar), rel=1e-9)


def test_from_kernel_lam_zero_min_value():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 2)) * 3.0  # spread points: K well conditioned
    y = rng.choice([-1.0, 1.0], size=6)
    K = gaussian_kernel_matrix(X, 0.4)
    obj = from_kernel(K, y, 0.0)
    assert obj.min_value == 0.0


def test_from_kernel_singular_at_lam_zero():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])  # duplicated point
    y = np.array([1.0, 1.0, -1.0])
    K = gaussian_kernel_matrix(X, 0.5)
    with pytest.raises(SingularKernel):
        from_kernel(K, y, 0.0)
    from_kernel(K, y, 1e-3)  # regularized version is fine


def test_from_kernel_rejects_bad_inputs():
    K = np.eye(3)
    with pytest.raises(DimensionMismatch):
        from_kernel(K, np.ones(2), 0.1)
    with pytest.raises(ValueError):
        from_kernel(K, np.ones(3), -0.1)
