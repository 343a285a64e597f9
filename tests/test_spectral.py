"""Eigendecomposition against the LAPACK oracle plus contract checks."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepbias.errors import DegenerateSpectrum, NotSymmetric
from stepbias.spectral import (
    Spectrum,
    _check_degenerate,
    _sign_convention,
    EPS,
    condition_number,
    diagonal_spectrum,
    eig_sym,
    eigvals_sym,
    matvec,
)
from stepbias.kernels import gaussian_kernel_matrix, two_cluster_dataset
from stepbias.quadratic import QuadraticObjective, grad


def random_symmetric(rng, n):
    A = rng.normal(size=(n, n))
    return 0.5 * (A + A.T)


def test_matches_lapack_eigenvalues():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5, 10, 25):
        A = random_symmetric(rng, n)
        spec = eig_sym(A)
        oracle = np.sort(np.linalg.eigvalsh(A))[::-1]
        assert np.allclose(spec.eigenvalues, oracle, rtol=0, atol=1e-12 * n)


def test_eigenvectors_orthonormal_and_reconstruct():
    rng = np.random.default_rng(8)
    A = random_symmetric(rng, 12)
    spec = eig_sym(A)
    v = spec.eigenvectors
    assert np.allclose(v.T @ v, np.eye(12), atol=1e-12)
    assert np.allclose(spec.matrix(), A, atol=1e-12)
    theta, optimum = rng.normal(size=(2, 12))
    got = grad(QuadraticObjective(spec, optimum), theta)
    assert np.allclose(got, spec.matrix() @ (theta - optimum), atol=1e-12)


def test_descending_order_and_sign_convention():
    rng = np.random.default_rng(9)
    spec = eig_sym(random_symmetric(rng, 9))
    assert np.all(np.diff(spec.eigenvalues) <= 0)
    for i in range(9):
        col = spec.eigenvectors[:, i]
        assert col[np.argmax(np.abs(col))] > 0


def _sign_convention_by_column(v):
    """The per-column loop the vectorized sign convention replaced."""
    v = v.copy()
    for i in range(v.shape[1]):
        j = int(np.argmax(np.abs(v[:, i])))
        if v[j, i] < 0:
            v[:, i] = -v[:, i]
    return v


def test_sign_convention_matches_column_loop():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 17, 40):
        A = random_symmetric(rng, n)
        _, v = np.linalg.eigh(0.5 * (A + A.T))
        expected = _sign_convention_by_column(v[:, ::-1])
        assert np.array_equal(eig_sym(A).eigenvectors, expected)
    # Columns whose largest-magnitude entries tie, with either sign first,
    # plus an all-zero column and negative zeros: the first maximum decides.
    for _ in range(50):
        m, k = (int(x) for x in rng.integers(2, 9, size=2))
        v = rng.uniform(-0.5, 0.5, size=(m, k))
        for col in range(k):
            rows = rng.choice(m, size=2, replace=False)
            v[rows, col] = rng.choice([-1.0, 1.0], size=2)
        v[:, rng.integers(k)] = 0.0
        v[rng.integers(m), rng.integers(k)] = -0.0
        got = v.copy()
        _sign_convention(got)
        assert np.array_equal(got, _sign_convention_by_column(v))
        assert np.array_equal(np.signbit(got), np.signbit(_sign_convention_by_column(v)))


def test_deterministic_across_calls():
    rng = np.random.default_rng(10)
    A = random_symmetric(rng, 8)
    a = eig_sym(A)
    b = eig_sym(A)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_rejects_asymmetric_and_nonsquare():
    for decompose in (eig_sym, eigvals_sym):
        with pytest.raises(NotSymmetric):
            decompose(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(NotSymmetric):
            decompose(np.zeros((2, 3)))


def test_degenerate_spectrum_warns():
    with pytest.warns(DegenerateSpectrum):
        spec = eig_sym(np.eye(3))
    assert spec.degenerate
    with pytest.warns(DegenerateSpectrum):
        eigvals_sym(np.eye(3))


def test_distinct_spectrum_does_not_warn():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateSpectrum)
        spec = eig_sym(np.diag([3.0, 2.0, 1.0]))
        w = eigvals_sym(np.diag([3.0, 2.0, 1.0]))
    assert not spec.degenerate
    assert w.tolist() == [3.0, 2.0, 1.0]


def test_diagonal_spectrum_and_condition_number():
    spec = diagonal_spectrum([4.0, 2.0, 1.0])
    assert spec.top == 4.0 and spec.bottom == 1.0
    assert condition_number(spec.eigenvalues) == 4.0
    assert np.array_equal(spec.matrix(), np.diag([4.0, 2.0, 1.0]))


def test_condition_number_never_negative():
    # A zero bottom eigenvalue used to divide by zero, a negative one to
    # give a negative ratio.
    assert condition_number(diagonal_spectrum([1.0, 0.5, 0.0]).eigenvalues) == math.inf
    assert condition_number(diagonal_spectrum([1.0, -1e-17]).eigenvalues) == math.inf
    assert condition_number(diagonal_spectrum([-1.0, -2.0]).eigenvalues) == math.inf
    # A bottom eigenvalue at most n eps sigma_1 is round-off: singular.
    eps = np.finfo(float).eps
    assert condition_number(diagonal_spectrum([1.0, 1e-15]).eigenvalues) == pytest.approx(1e15)
    assert condition_number(diagonal_spectrum([1.0, 2 * eps]).eigenvalues) == math.inf
    assert condition_number(diagonal_spectrum([1.0, 1.0, 1.0, 5 * eps]).eigenvalues) == 1 / (5 * eps)
    assert condition_number(diagonal_spectrum([1.0, 1.0, 1.0, 4 * eps]).eigenvalues) == math.inf


def test_eigvals_sym_agrees_with_eig_sym():
    rng = np.random.default_rng(12)
    mats = [random_symmetric(rng, n) for n in (1, 2, 5, 25, 60)]
    mats.append(np.diag([3.0, 2.0, 2.0, 1.0]))
    # Kernel matrices K/n: eigenvalues down to round-off, some degenerate.
    for scale in (0.1, 0.3, 1.0, 3.0):
        points = two_cluster_dataset(40, np.random.default_rng(5)).points
        mats.append(gaussian_kernel_matrix(points, scale) / 40)
    flags = []
    for A in mats:
        n = A.shape[0]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DegenerateSpectrum)
            spec = eig_sym(A)
            w = eigvals_sym(A)
        degenerate = _check_degenerate(w)
        assert w.shape == (n,) and np.all(np.diff(w) <= 0.0)
        sigma_1 = np.max(np.abs(spec.eigenvalues))
        assert np.max(np.abs(w - spec.eigenvalues)) <= 4 * n * EPS * sigma_1
        assert degenerate == spec.degenerate
        assert len(caught) == 2 * degenerate
        flags.append(degenerate)
    assert any(flags) and not all(flags)


def test_spectrum_accessors():
    spec = Spectrum(np.array([2.0, 1.0]), np.eye(2))
    assert spec.n == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10_000))
def test_property_reconstruction(n, seed):
    rng = np.random.default_rng(seed)
    A = random_symmetric(rng, n)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrum)
        spec = eig_sym(A)
    scale = max(np.max(np.abs(A)), 1.0)
    assert np.allclose(spec.matrix(), A, atol=1e-11 * scale * n)


def _scaled(rng, shape):
    """Normal draws of both signs scaled by 2^-20..2^20, so sums cancel and round."""
    return rng.normal(size=shape) * np.exp2(rng.integers(-20, 21, size=shape))


def test_stacked_products_have_the_bits_of_each_row_alone():
    """matvec on stacks of 1-50 rows of n = 1..12, fresh copies of each row alone.

    From n = 8 numpy sums a row with eight accumulators. matvec is
    checked as run_measurements calls it (one basis per row against two
    stacked vectors), on transposed bases, as coefficients calls it,
    where a transposed view and its contiguous copy give the same bits,
    and on one-row matrices, a dot product per row.
    """
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        for stack in range(1, 51):
            a = _scaled(rng, (stack, n, n))
            v, w = _scaled(rng, (2, stack, n))
            both = matvec(a, np.array([v, w]))
            transposed = matvec(a.swapaxes(-1, -2), v)
            dots = matvec(v[:, None], w)[:, 0]
            for k in range(stack):
                # Fresh copies: a row alone starts at its own allocation's
                # alignment, not at byte k n^2 8 or k n 8 of the stack.
                ak, vk, wk = a[k].copy(), v[k].copy(), w[k].copy()
                assert both[0, k].tobytes() == matvec(ak, vk).tobytes()
                assert both[1, k].tobytes() == matvec(ak, wk).tobytes()
                assert transposed[k].tobytes() == matvec(ak.T, vk).tobytes()
                assert transposed[k].tobytes() == matvec(ak.T.copy(), vk).tobytes()
                assert dots[k].tobytes() == matvec(vk[None], wk)[0].tobytes()


def test_products_are_within_the_dot_product_error_bound():
    """|fl(a . b) - a . b| <= gamma_n sum |a_i b_i|, gamma_n = n u / (1 - n u).

    The bound is Higham's (Accuracy and Stability of Numerical
    Algorithms, section 3.1) for any summation order. The reference is
    the exact sum of the exact products, in rationals: math.fsum would
    take the products already rounded.
    """
    u = Fraction(1, 2**53)
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        gamma = n * u / (1 - n * u)
        a = _scaled(rng, (20, n, n))
        v, w = _scaled(rng, (2, 20, n))
        pairs = [(v, w, matvec(v[:, None], w)[:, 0])]
        pairs += [(a[:, i], v, matvec(a, v)[:, i]) for i in range(n)]
        for xs, ys, got in pairs:
            for x, y, g in zip(xs.tolist(), ys.tolist(), got.tolist()):
                products = [Fraction(p) * Fraction(q) for p, q in zip(x, y)]
                exact = sum(products)
                assert abs(Fraction(g) - exact) <= gamma * sum(map(abs, products))
