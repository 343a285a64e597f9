"""Quadratic train/test objectives with explicit optima.

An objective is the excess loss F(theta) = 0.5 * ||theta - optimum||^2_T
for a positive definite operator T given by its Spectrum, so it is 0 at
the optimum. Kernel ridge problems convert to this representation once
(kernels.ridge_fit), so the GD analysis never has to re-solve linear
systems.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .spectral import Spectrum, matvec, row_sums


@dataclass(frozen=True)
class QuadraticObjective:
    spectrum: Spectrum
    optimum: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "optimum", np.asarray(self.optimum, dtype=float))
        if self.optimum.shape[0] != self.spectrum.n:
            raise DimensionMismatch(
                f"optimum has dimension {self.optimum.shape[0]}, "
                f"spectrum has {self.spectrum.n}"
            )

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


def coefficients(bases, points, optima):
    """Eigen-coefficients V^T (point - optimum), over stacks of bases and points."""
    return matvec(bases.swapaxes(-1, -2), points - optima)


def excess_losses(sig, coeffs):
    """1/2 sum_i sig_i c_i^2 of each row of eigen-coefficients c (the last axis), by row_sums."""
    return 0.5 * row_sums(sig * coeffs * coeffs)


def grad(obj, theta):
    """Gradient T (theta - optimum); zero at the optimum."""
    theta = _check_dim(obj, theta)
    q = obj.spectrum.eigenvectors
    return matvec(q, obj.spectrum.eigenvalues * coefficients(q, theta, obj.optimum))
