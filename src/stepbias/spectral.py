"""Symmetric eigendecomposition (LAPACK, via numpy) and spectrum utilities.

A Spectrum holds the ordered eigenvalues and orthonormal eigenbasis of a
symmetric operator restricted to an n-dimensional subspace. It is the
foundation every other module builds on: quadratic objectives store one,
learning-rate regimes are classified against one, and kernel problems
bridge to one through K/n. Callers that read only eigenvalues, such as
condition numbers, take them from eigvals_sym (``np.linalg.eigvalsh``),
which skips the eigenvectors; it shares eig_sym's symmetry check and
symmetrization.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSymmetric

SYMMETRY_RTOL = 1e-12
DEGENERACY_RTOL = 1e-10
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) and matching orthonormal eigenvectors.

    eigenvalues[i] pairs with eigenvectors[:, i]. ``degenerate`` records
    whether two eigenvalues sit within 1e-10 relative of each other;
    simulation code tolerates that, certification code refuses it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degenerate: bool = field(default=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", np.asarray(self.eigenvalues, dtype=float)
        )
        object.__setattr__(
            self, "eigenvectors", np.asarray(self.eigenvectors, dtype=float)
        )

    @property
    def n(self):
        return self.eigenvalues.shape[0]

    @property
    def top(self):
        return float(self.eigenvalues[0])

    @property
    def bottom(self):
        return float(self.eigenvalues[-1])

    def matrix(self):
        """Reconstruct the operator Q diag(sigma) Q^T."""
        q = self.eigenvectors
        return (q * self.eigenvalues) @ q.T


def row_sums(x):
    """Sums over the last axis, each row added left to right from +0.0.

    The running sum is never -0.0, so a zero term changes no sum wherever
    it sits: a row keeps its bits in any stack, zero padding or SIMD
    dispatch. Rows of at most 7 entries get the bits of numpy's ``.sum``,
    which adds wider rows in pairwise blocks.
    """
    if x.shape[-1] == 0:
        return np.zeros(x.shape[:-1])
    return np.cumsum(x, axis=-1)[..., -1] + 0.0


def matvec(a, v):
    """a v over stacks: (..., m, n) matrices times (..., n) vectors, each row by row_sums.

    So a row has the bits of that row alone, whatever its stack, its zero
    padding (padded) or the BLAS library, kernel or thread count.
    """
    return row_sums(a * v[..., None, :])


def live_mask(n, width):
    """Where the entries of rows of lengths n sit in a padded stack of the given width."""
    live = np.arange(width) < np.array(n)[:, None] - 1
    live[:, -1] = True
    return live


def padded(arrays, width):
    """Arrays of shape (n,) or (n, n), n <= width, as one zero-padded stack.

    The one layout of every stack of mixed n. An axis keeps its first
    n - 1 entries first and its last entry last, so [..., 0] and [..., -1]
    are the first and last entry of every row of n >= 2, and a row of
    n = 1 keeps its one entry at [..., -1]. Zero terms are exact under
    row_sums: padded sums keep the unpadded bits.
    """
    live = live_mask([len(a) for a in arrays], width)
    if arrays[0].ndim == 2:
        live = live[:, :, None] & live[:, None, :]
    out = np.zeros(live.shape)
    out[live] = np.concatenate(arrays, axis=None)
    return out


def unpadded(rows, n):
    """The rows of a padded (L, width) stack at their own lengths n, as views of one array."""
    flat = rows[live_mask(n, rows.shape[-1])]
    return [flat[end - m : end] for end, m in zip(np.cumsum(n).tolist(), n)]


def diagonal_spectrum(values, degenerate=False):
    """Spectrum of diag(values) in the canonical basis (values descending)."""
    values = np.asarray(values, dtype=float)
    return Spectrum(values, np.eye(values.shape[0]), degenerate=degenerate)


def _check_degenerate(w):
    gaps = w[:-1] - w[1:]
    return bool(np.any(gaps <= DEGENERACY_RTOL * abs(w[0])))


def _sign_convention(v):
    """Negate, in place, each column whose first largest-magnitude entry is negative."""
    top = np.argmax(np.abs(v), axis=0)
    flip = v[top, np.arange(v.shape[1])] < 0
    v[:, flip] = -v[:, flip]


def _symmetrized(A):
    """A as a float matrix, checked square and symmetric within 1e-12, then averaged with A^T."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {A.shape}")
    scale = float(np.max(np.abs(A))) or 1.0
    if np.max(np.abs(A - A.T)) > SYMMETRY_RTOL * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-12 relative")
    return 0.5 * (A + A.T)


def eig_sym(A):
    """Eigendecompose a symmetric matrix with LAPACK (``np.linalg.eigh``).

    Eigenvalues come back sorted descending; each eigenvector is signed
    so its largest-magnitude entry is positive, keeping runs
    byte-reproducible. The spectrum's ``degenerate`` flag is set when two
    eigenvalues are within 1e-10 relative.
    """
    w, v = np.linalg.eigh(_symmetrized(A))
    w, v = w[::-1].copy(), v[:, ::-1].copy()
    _sign_convention(v)
    return Spectrum(w, v, degenerate=_check_degenerate(w))


def eigvals_sym(A):
    """Eigenvalues of a symmetric matrix, descending, without eigenvectors.

    The matrix is checked and symmetrized as in eig_sym. LAPACK's
    eigenvalue-only routine (``np.linalg.eigvalsh``) rounds differently
    from ``eigh``: the two agree to within a few n eps sigma_1, so
    eigenvalues near zero differ in relative terms.
    """
    return np.linalg.eigvalsh(_symmetrized(A))[::-1]


def condition_numbers(w, n):
    """Ratio of the largest to the smallest eigenvalue of each padded row of descending w.

    Row k holds n[k] eigenvalues. inf where the smallest is at most n eps
    times the largest, i.e. zero up to round-off: the ratio is never
    negative, never a division by zero and never a quotient of round-off.
    """
    n = np.asarray(n)
    top, bottom = w[np.arange(len(n)), np.where(n >= 2, 0, -1)], w[:, -1]
    # The quotient is read only where it neither overflows nor divides by 0.
    with np.errstate(all="ignore"):
        return np.where(bottom <= n * EPS * top, math.inf, top / bottom)


def condition_number(w):
    """condition_numbers of the one row w, as a float."""
    w = np.asarray(w, dtype=float)
    return condition_numbers(w[None], [len(w)]).item()
