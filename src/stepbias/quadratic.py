"""Quadratic train/test objectives with explicit optima.

An objective is F(theta) = 0.5 * ||theta - optimum||^2_T + min_value for
a positive definite operator T given by its Spectrum. Test objectives
carry min_value = 0. Kernel ridge problems convert to this
representation once (from_kernel), so the GD analysis never has to
re-solve linear systems.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularKernel
from .spectral import Spectrum, diagonal_spectrum, eig_sym

KERNEL_SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True)
class QuadraticObjective:
    spectrum: Spectrum
    optimum: np.ndarray
    min_value: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "optimum", np.asarray(self.optimum, dtype=float))
        if self.optimum.shape[0] != self.spectrum.n:
            raise DimensionMismatch(
                f"optimum has dimension {self.optimum.shape[0]}, "
                f"spectrum has {self.spectrum.n}"
            )
        if self.min_value < 0:
            raise ValueError("min_value must be nonnegative")

    @property
    def n(self):
        return self.spectrum.n


@dataclass(frozen=True)
class ProblemPair:
    """A train objective F and a test objective R in shared coordinates."""

    train: QuadraticObjective
    test: QuadraticObjective

    def __post_init__(self):
        if self.train.n != self.test.n:
            raise DimensionMismatch("train and test dimensions differ")
        if self.test.min_value != 0.0:
            raise ValueError("test objective must have min_value 0")

    @property
    def n(self):
        return self.train.n


def _check_dim(obj, theta):
    theta = np.asarray(theta, dtype=float)
    if theta.shape[0] != obj.n:
        raise DimensionMismatch(
            f"point has dimension {theta.shape[0]}, objective has {obj.n}"
        )
    return theta


def evaluate(obj, theta):
    """Objective value 0.5 (theta-opt)^T T (theta-opt) + min_value."""
    theta = _check_dim(obj, theta)
    delta = theta - obj.optimum
    coeffs = obj.spectrum.eigenvectors.T @ delta
    return 0.5 * float(np.sum(obj.spectrum.eigenvalues * coeffs * coeffs)) + obj.min_value


def grad(obj, theta):
    """Gradient T (theta - optimum); zero at the optimum."""
    theta = _check_dim(obj, theta)
    return obj.spectrum.apply(theta - obj.optimum)


def from_kernel(K, y, lam):
    """Build the ridge train objective from a kernel matrix and labels.

    The returned objective lives in the eigen-coordinate system of K/n:
    its operator is diag(eig(K/n) + lam) and its optimum is the
    coefficient vector of the ridge solution on that eigenbasis,
    sqrt(n sigma_i) <alpha*, u_i> with (K + n lam) alpha* = y. Its
    min_value is (1/2n) y^T [I - (K/n)(K/n + lam)^{-1}] y, which is 0 at
    lam = 0.
    """
    K = np.asarray(K, dtype=float)
    return _ridge_fit(eig_sym(K / K.shape[0]), y, lam)[0]


def _ridge_fit(kn_spec, y, lam):
    """from_kernel given the spectrum of K/n instead of K.

    Returns the objective and alpha*'s coefficients on the eigenbasis U
    of K/n, U^T y / (n (sigma + lam)), so alpha* = U times them.
    """
    y = np.asarray(y, dtype=float)
    n = kn_spec.n
    if y.shape[0] != n:
        raise DimensionMismatch("label vector length does not match kernel size")
    if lam < 0:
        raise ValueError("regularization must be nonnegative")
    sig = kn_spec.eigenvalues
    if lam == 0.0 and sig[-1] < KERNEL_SINGULARITY_RTOL * sig[0] * n:
        raise SingularKernel(
            "kernel matrix is numerically singular and lambda is 0"
        )
    u = kn_spec.eigenvectors
    yu = u.T @ y
    # (K + n lam) alpha* = y solved in the eigenbasis of K/n.
    alpha_star_coeffs = yu / (n * (sig + lam))
    optimum = np.sqrt(n * np.maximum(sig, 0.0)) * alpha_star_coeffs
    # m_hat = (1/2n) y^T [I - (K/n)(K/n + lam)^{-1}] y.
    min_value = float(np.sum(yu * yu * (1.0 - sig / (sig + lam)))) / (2 * n)
    shifted = diagonal_spectrum(sig + lam, degenerate=kn_spec.degenerate)
    obj = QuadraticObjective(shifted, optimum, min_value=max(min_value, 0.0))
    return obj, alpha_star_coeffs
