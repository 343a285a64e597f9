"""Quadratic objectives checked against direct matrix arithmetic."""

import dataclasses

import numpy as np
import pytest

from stepbias.errors import DimensionMismatch, SingularKernel, SingularSystem
from stepbias.kernels import (
    Dataset,
    kernel_problem,
    ridge_alpha,
    ridge_fit,
    to_eigen_coords,
)
from stepbias.quadratic import ProblemPair, QuadraticObjective, coefficients, excess_losses, grad
from stepbias.spectral import diagonal_spectrum, eig_sym


def loss(obj, theta):
    """The objective's excess loss at theta: excess_losses of its eigen-coefficients."""
    coeffs = coefficients(obj.spectrum.eigenvectors, np.asarray(theta, dtype=float), obj.optimum)
    return float(excess_losses(obj.spectrum.eigenvalues, coeffs))


def make_objective(rng, n):
    A = rng.normal(size=(n, n))
    spec = eig_sym(A @ A.T + n * np.eye(n))
    return QuadraticObjective(spec, rng.normal(size=n))


def test_evaluate_matches_matrix_form():
    rng = np.random.default_rng(0)
    obj = make_objective(rng, 6)
    T = obj.spectrum.matrix()
    for _ in range(5):
        theta = rng.normal(size=6)
        d = theta - obj.optimum
        want = 0.5 * d @ T @ d
        assert loss(obj, theta) == pytest.approx(want, rel=1e-12)
        assert np.allclose(grad(obj, theta), T @ d, atol=1e-12)


def test_grad_zero_at_optimum():
    rng = np.random.default_rng(1)
    obj = make_objective(rng, 4)
    assert np.allclose(grad(obj, obj.optimum), 0.0, atol=1e-14)
    assert loss(obj, obj.optimum) == pytest.approx(0.0, abs=1e-15)


def test_dimension_checks():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        grad(obj, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(3))
    with pytest.raises(DimensionMismatch):
        ProblemPair(obj, QuadraticObjective(diagonal_spectrum([1.0]), np.zeros(1)))


def ridge_loss(K, y, lam, alpha):
    n = K.shape[0]
    r = y - K @ alpha
    return float(r @ r) / (2 * n) + 0.5 * lam * float(alpha @ K @ alpha)


def test_ridge_fit_matches_excess_dual_ridge_loss():
    """The theta-space objective evaluates to the excess dual ridge loss.

    For any dual vector a, the objective at the eigen-coordinates of a
    must equal L(a) - L(a*), with L(a) = (1/2n)||y - K a||^2 +
    (lam/2) a^T K a; this pins down the operator and the optimum
    simultaneously.
    """
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 2))
    y = rng.choice([-1.0, 1.0], size=12)
    lam = 1e-3
    prob = kernel_problem(Dataset(X, y), 0.8, lam)
    K = prob.K
    obj, alpha_star = ridge_fit(prob)
    astar = ridge_alpha(K, y, lam)
    assert np.allclose(alpha_star, astar, rtol=1e-9)
    for _ in range(5):
        a = rng.normal(size=12)
        theta = to_eigen_coords(prob, a)
        want = ridge_loss(K, y, lam, a) - ridge_loss(K, y, lam, astar)
        assert loss(obj, theta) == pytest.approx(want, rel=1e-9)
    assert np.allclose(obj.optimum, to_eigen_coords(prob, astar), atol=1e-9)


def test_ridge_fit_singular_at_lam_zero():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])  # duplicated point
    data = Dataset(X, np.array([1.0, 1.0, -1.0]))
    # SingularKernel comes before the eigenvalue test, which refuses it too.
    with pytest.raises(SingularKernel):
        ridge_fit(kernel_problem(data, 0.5, 0.0))
    with pytest.raises(SingularSystem, match=r"of K \+ n lam I is below"):
        ridge_fit(kernel_problem(data, 0.5, 1e-20))
    with pytest.raises(SingularSystem, match=r"n \(sigma \+ lam\) overflows at n = 3"):
        ridge_fit(kernel_problem(data, 0.5, 1.7e308))
    ridge_fit(kernel_problem(data, 0.5, 1e-3))  # regularized version is fine


def test_ridge_fit_rejects_bad_inputs():
    prob = kernel_problem(Dataset(np.eye(3), np.ones(3)), 0.5, 0.1)
    # kernel_problem assembles K from the same points, so a label vector
    # of another length takes a hand-built problem.
    short = Dataset(np.eye(2), np.ones(2))
    with pytest.raises(DimensionMismatch):
        ridge_fit(dataclasses.replace(prob, dataset=short, lam=-0.1))
    with pytest.raises(ValueError):
        ridge_fit(dataclasses.replace(prob, lam=-0.1))
