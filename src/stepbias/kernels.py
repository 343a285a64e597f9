"""Kernel ridge instantiation: Gaussian kernels and dual-space GD.

A function theta in the RKHS restricted to the span of the training
features is carried by dual coefficients alpha, theta(x) =
sum_i alpha_i k(x_i, x), with theta = sqrt(n) S* alpha. The i-th
eigen-coefficient of theta on the eigenbasis of K/n is
sqrt(n sigma_i) <alpha, u_i>, which is how kernel problems talk to the
quadratic/GD machinery. Hilbert-norm functionals are always computed
through K, never through K^{-1}.

Gaussian kernels are computed from coordinate differences at every
scale (gaussian_cross_kernel), so each entry depends only on its own
pair of points. binary_error scores a test set one block of test points
at a time, so scoring memory is O(n x block), not O(n x n_test), and a
block's kernel entries are those of the whole cross kernel.
A sweep's ridge system (K + n lam I) alpha* = y is solved once, in the
eigenbasis of K/n that the problem already holds (ridge_fit), and
dual_objective takes its optimum from the same solve; ridge_alpha's
Cholesky solve is an independent check of it.
"""

import csv
import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyTestSet,
    IoError,
    ParseError,
    SingularKernel,
    SingularSystem,
)
from .quadratic import QuadraticObjective
from .spectral import Spectrum, diagonal_spectrum, eig_sym

CHOLESKY_PIVOT_RTOL = 1e-12
KERNEL_SINGULARITY_RTOL = 1e-12
GAUSSIAN_C_K = 1.0
# Bytes of kernel rows binary_error evaluates per block of test points.
# 64 KiB is below glibc's default 128 KiB mmap threshold, so the block
# buffers are reused from the heap instead of being faulted in anew, as
# an n x n_test cross kernel's pages are on every sweep. On the
# benchmark's sweeps (n = 50 and 100, 1000 test points; 2-vCPU x86-64,
# OpenBLAS on one thread) 64, 128 and 256 KiB blocks took 4.7, 7.0 and
# 8.3 % less CPU than one block for the whole test set (medians of 200
# paired passes), 32 KiB about as much. Timed as whole kernel_sweeps ops
# (tools/ab_ops.py, 10 rounds at two seeds), 256 KiB took 5.3-5.6 % more
# CPU than 64 KiB and 128 KiB was within 2 % either way.
SCORE_BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True)
class Dataset:
    """Sample matrix X (n x d) with binary labels in {-1, +1}."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=float))
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("points must be a nonempty n x d matrix")
        if self.labels.shape != (self.points.shape[0],):
            raise DimensionMismatch("labels must match the number of points")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


class GDMode(enum.Enum):
    TRAIN_LOSS = "TrainLoss"
    HILBERT_NORM = "HilbertNorm"


@dataclass(frozen=True)
class DualState:
    alpha: np.ndarray
    mode: GDMode

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))


def gaussian_kernel_matrix(X, s):
    """K_ij = exp(-||x_i - x_j||^2 / (2 s^2)); exactly symmetric, unit diagonal.

    This is gaussian_cross_kernel(X, X, s): the difference a_k - b_k is
    the negation of b_k - a_k, so K_ij and K_ji are the same float, and a
    point against itself gives exp(-0) = 1.
    """
    return gaussian_cross_kernel(X, X, s)


def gaussian_cross_kernel(X_train, X_query, s):
    """Kernel evaluations k(x_i, x) for training rows against query rows.

    Computed as exp(-sum_k ((a_k - b_k) / s)^2 / 2) from coordinate
    differences, summed over the d coordinates in order, at every scale.
    An entry depends only on its own pair of points, so any block of
    query rows gets the bits of the same columns of the whole matrix. A
    difference is 0 only where the coordinates are equal, so equal points
    give exactly 1; a scaled difference that overflows gives inf, hence
    0, without a warning, which is the s -> 0 limit.
    """
    if s <= 0:
        raise ValueError("kernel scale must be positive")
    X_train = np.asarray(X_train, dtype=float)
    X_query = np.atleast_2d(np.asarray(X_query, dtype=float))
    q = np.zeros((X_train.shape[0], X_query.shape[0]))
    with np.errstate(over="ignore"):
        for k in range(X_train.shape[1]):
            z = np.subtract.outer(X_train[:, k], X_query[:, k])
            z /= s
            z *= z
            q += z
    q *= -0.5
    return np.exp(q, out=q)


@dataclass(frozen=True)
class KernelProblem:
    dataset: Dataset
    scale: float
    lam: float
    K: np.ndarray
    spectrum_of_Kn: Spectrum

    @property
    def n(self):
        return self.dataset.n

    @property
    def y(self):
        return self.dataset.labels


def kernel_problem(dataset, scale, lam=0.0):
    """Assemble the kernel matrix and the spectrum of K/n once."""
    if lam < 0:
        raise ValueError("regularization must be nonnegative")
    K = gaussian_kernel_matrix(dataset.points, scale)
    spec = eig_sym(K / dataset.n)
    return KernelProblem(
        dataset=dataset, scale=scale, lam=lam, K=K, spectrum_of_Kn=spec
    )


def ridge_alpha(K, y, lam):
    """Solve (K + n lam I) alpha* = y via Cholesky.

    Raises SingularSystem when the factorization fails or a pivot drops
    below 1e-12 times the largest diagonal entry.
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    n = K.shape[0]
    M = K + n * lam * np.eye(n)
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Cholesky factorization failed: {exc}") from exc
    pivots = np.diag(L) ** 2
    if np.min(pivots) < CHOLESKY_PIVOT_RTOL * np.max(np.diag(M)):
        raise SingularSystem("pivot below 1e-12 of the largest diagonal entry")
    z = np.linalg.solve(L, y)
    return np.linalg.solve(L.T, z)


def to_eigen_coords(prob, alpha):
    """Eigen-coefficients sqrt(n sigma_i) <alpha, u_i> of theta = sqrt(n) S* alpha."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape[0] != prob.n:
        raise DimensionMismatch("alpha length does not match the training size")
    sig = np.maximum(prob.spectrum_of_Kn.eigenvalues, 0.0)
    u = prob.spectrum_of_Kn.eigenvectors
    return np.sqrt(prob.n * sig) * (u.T @ alpha)


def from_eigen_coords(prob, coeffs):
    """Dual increment whose eigen-coefficients are ``coeffs``.

    Inverse of to_eigen_coords on directions with sigma_i > 0; zero
    coefficients are required on (numerically) null directions.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    sig = np.maximum(prob.spectrum_of_Kn.eigenvalues, 0.0)
    scale = np.sqrt(prob.n * sig)
    safe = np.where(scale > 0, scale, 1.0)
    return prob.spectrum_of_Kn.eigenvectors @ (coeffs / safe)


def ridge_fit(prob):
    """The theta-space ridge objective and alpha*, from one solve.

    The objective has operator diag(sigma + lam), sigma the eigenvalues
    of K/n, and optimum to_eigen_coords(alpha*), where (K + n lam I)
    alpha* = y; at to_eigen_coords(a) it is the excess dual ridge loss
    L(a) - L(alpha*), L(a) = (1/2n) ||y - K a||^2 + (lam/2) a^T K a.
    Both come from the stored spectrum U diag(sigma) U^T of K/n, so K is
    neither eigendecomposed nor factored again: alpha* =
    U diag(1 / (n (sigma + lam))) U^T y.

    Refuses, in order: labels not of the spectrum's length, lam < 0, a
    numerically singular K/n at lam = 0 (SingularKernel), and, as
    SingularSystem, an n (sigma + lam) that overflows or a smallest
    eigenvalue n (sigma_n + lam) of K + n lam I below 1e-12 times its
    largest diagonal entry. That is ridge_alpha's pivot test judged on
    eigenvalues; no Cholesky pivot is below the smallest eigenvalue, so
    it refuses a few systems near the line that the pivot test let through.
    """
    kn_spec, y, lam = prob.spectrum_of_Kn, prob.y, prob.lam
    n = kn_spec.n
    if y.shape[0] != n:
        raise DimensionMismatch("label vector length does not match kernel size")
    if lam < 0:
        raise ValueError("regularization must be nonnegative")
    sig = kn_spec.eigenvalues
    if lam == 0.0 and sig[-1] < KERNEL_SINGULARITY_RTOL * sig[0] * n:
        raise SingularKernel("kernel matrix is numerically singular and lambda is 0")
    with np.errstate(over="ignore"):
        shifted_n = n * (sig + lam)
    if not np.all(np.isfinite(shifted_n)):
        raise SingularSystem(f"n (sigma + lam) overflows at n = {n}, lam = {lam!r}")
    smallest = n * (kn_spec.bottom + lam)
    if smallest < CHOLESKY_PIVOT_RTOL * float(np.max(np.diag(prob.K) + n * lam)):
        raise SingularSystem(
            f"smallest eigenvalue {smallest:.3e} of K + n lam I is below "
            "1e-12 of the largest diagonal entry"
        )
    u = kn_spec.eigenvectors
    alpha_star_coeffs = (u.T @ y) / shifted_n
    optimum = np.sqrt(n * np.maximum(sig, 0.0)) * alpha_star_coeffs
    shifted = diagonal_spectrum(sig + lam, degenerate=kn_spec.degenerate)
    return QuadraticObjective(shifted, optimum), u @ alpha_star_coeffs


def dual_objective(prob, mode):
    """Quadratic objective governing alpha-space GD in eigen-coordinates.

    The TrainLoss update attenuates eigen-coefficient i by
    1 - eta n sigma_i (sigma_i + lam) per step, the HilbertNorm update by
    1 - eta n (sigma_i + lam); so the dual flows are plain GD on
    quadratics with spectra n sigma (sigma + lam) and n (sigma + lam).
    """
    sig = np.maximum(prob.spectrum_of_Kn.eigenvalues, 0.0)
    if GDMode(mode) is GDMode.TRAIN_LOSS:
        values = prob.n * sig * (sig + prob.lam)
    else:
        values = prob.n * (sig + prob.lam)
    # ridge_fit's optimum is to_eigen_coords of its alpha*: sqrt(n sigma_i) <alpha*, u_i>.
    optimum = ridge_fit(prob)[0].optimum
    spec = diagonal_spectrum(values, degenerate=prob.spectrum_of_Kn.degenerate)
    return QuadraticObjective(spec, optimum)


def gd_alpha(prob, state, eta):
    """One dual-space GD update.

    TrainLoss: alpha - eta (K/n)((K + n lam) alpha - y).
    HilbertNorm: alpha - eta ((K + n lam) alpha - y).
    Both fix alpha* solving (K + n lam) alpha* = y; at lam = 0 they are
    the plain train-loss and Hilbert-norm recursions.
    """
    if eta <= 0:
        raise ValueError("step size must be positive")
    alpha = state.alpha
    if alpha.shape[0] != prob.n:
        raise DimensionMismatch("alpha length does not match the training size")
    residual = prob.K @ alpha + prob.n * prob.lam * alpha - prob.y
    if state.mode is GDMode.TRAIN_LOSS:
        update = (prob.K @ residual) / prob.n
    else:
        update = residual
    return DualState(alpha=alpha - eta * update, mode=state.mode)


def run_gd_alpha(prob, alpha0, eta, mode, steps):
    """Apply gd_alpha ``steps`` times from alpha0."""
    state = DualState(alpha=np.asarray(alpha0, dtype=float), mode=GDMode(mode))
    for _ in range(steps):
        state = gd_alpha(prob, state, eta)
    return state


def hilbert_distance2(prob, alpha_a, alpha_b):
    """Squared Hilbert distance (a-b)^T K (a-b) of the carried functions."""
    diff = np.asarray(alpha_a, dtype=float) - np.asarray(alpha_b, dtype=float)
    if diff.shape[0] != prob.n:
        raise DimensionMismatch("alpha length does not match the training size")
    return float(diff @ (prob.K @ diff))


def binary_error(prob, alpha, test):
    """Misclassification rate on a dataset, of one dual vector or of each row of a stack.

    Zero and non-finite scores count as errors. The test set is scored
    one block of points at a time: the block's kernel rows, at most
    SCORE_BLOCK_BYTES, are evaluated once and every alpha row is scored
    against them with one product, so scoring memory is O(n x block),
    not O(n x n_test). Returns a float for one vector, an array with one
    rate per row for a stack.
    """
    if test.n == 0:
        raise EmptyTestSet("test dataset is empty")
    alpha = np.asarray(alpha, dtype=float)
    rows = np.atleast_2d(alpha)
    if rows.shape[1] != prob.n:
        raise DimensionMismatch("alpha length does not match the training size")
    train = prob.dataset.points
    block = max(SCORE_BLOCK_BYTES // (8 * prob.n), 1)
    errors = np.zeros(rows.shape[0], dtype=np.int64)
    for lo in range(0, test.n, block):
        cols = slice(lo, lo + block)
        scores = rows @ gaussian_cross_kernel(train, test.points[cols], prob.scale)
        correct = np.isfinite(scores) & (scores * test.labels[cols] > 0.0)
        errors += np.count_nonzero(~correct, axis=1)
    rates = errors / test.n
    return float(rates[0]) if alpha.ndim == 1 else rates


def margin_certificate(prob, alpha, alpha_ref, delta):
    """True iff alpha is within delta/(2 C_K) of alpha_ref in Hilbert norm.

    Under the strong-margin and reference-optimality assumptions of the
    synthetic task, a true verdict forces zero excess binary error.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("margin delta must lie in (0, 1)")
    dist = np.sqrt(hilbert_distance2(prob, alpha, alpha_ref))
    return bool(dist <= delta / (2.0 * GAUSSIAN_C_K))


def two_cluster_dataset(n, rng, d=2):
    """Two Gaussian clusters in d dimensions at +-e_1, std 0.2, labels by cluster."""
    rng = np.random.default_rng(rng)
    cluster = rng.integers(0, 2, size=n)
    e1 = np.zeros(d)
    e1[0] = 1.0
    centers = np.where(cluster[:, None] == 0, 1.0, -1.0) * e1
    points = centers + 0.2 * rng.standard_normal((n, d))
    labels = np.where(cluster == 0, 1.0, -1.0)
    return Dataset(points=points, labels=labels)


def load_dataset(path):
    """Read a dataset CSV with header x_1..x_d,label and labels in {-1, 1}."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
                rows = list(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file, header required") from None
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
            except csv.Error as exc:
                raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    except OSError as exc:
        raise IoError(str(exc)) from exc
    d = len(header) - 1
    if d < 1 or header[-1] != "label" or header[:-1] != [f"x_{i+1}" for i in range(d)]:
        raise ParseError(f"{path}: header must be x_1..x_d,label, got {header}")
    points = np.empty((len(rows), d))
    labels = np.empty(len(rows))
    for i, row in enumerate(rows):
        if len(row) != d + 1:
            raise ParseError(f"{path}: row {i + 2} has {len(row)} fields, expected {d + 1}")
        try:
            points[i] = [float(v) for v in row[:-1]]
            labels[i] = float(row[-1])
        except ValueError as exc:
            raise ParseError(f"{path}: row {i + 2}: {exc}") from exc
        if not (np.all(np.isfinite(points[i])) and np.isfinite(labels[i])):
            raise ParseError(f"{path}: row {i + 2}: non-finite value")
    try:
        return Dataset(points=points, labels=labels)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
