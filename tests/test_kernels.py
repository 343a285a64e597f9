"""Kernel ridge machinery against direct linear-algebra oracles."""

import warnings

import numpy as np
import pytest

from stepbias import kernels
from stepbias.errors import (
    DimensionMismatch,
    EmptyTestSet,
    IoError,
    ParseError,
    SingularSystem,
)
from stepbias.gd import iterate
from stepbias.kernels import gaussian_cross_kernel, gaussian_kernel_matrix


@pytest.fixture
def prob():
    rng = np.random.default_rng(0)
    data = kernels.two_cluster_dataset(15, rng)
    return kernels.kernel_problem(data, 0.5, 1e-4)


def test_gaussian_kernel_matrix_oracle():
    """Brute-force distances, also on data far from the origin."""
    rng = np.random.default_rng(1)
    X0 = rng.normal(size=(6, 3))
    for offset in (0.0, 1e4):
        X = X0 + offset
        K = kernels.gaussian_kernel_matrix(X, 0.7)
        for i in range(6):
            for j in range(6):
                d2 = float(np.sum((X[i] - X[j]) ** 2))
                assert K[i, j] == pytest.approx(np.exp(-d2 / (2 * 0.49)), rel=1e-12)
        assert np.all(np.diag(K) == 1.0)
        assert np.array_equal(K, K.T)
    with pytest.raises(ValueError):
        kernels.gaussian_kernel_matrix(X, 0.0)


def test_cross_kernel_consistent_with_square():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(5, 2))
    K = kernels.gaussian_kernel_matrix(X, 0.9)
    C = kernels.gaussian_cross_kernel(X, X, 0.9)
    assert C.tobytes() == K.tobytes()


def test_ridge_alpha_oracle(prob):
    astar = kernels.ridge_alpha(prob.K, prob.y, prob.lam)
    want = np.linalg.solve(prob.K + prob.n * prob.lam * np.eye(prob.n), prob.y)
    assert np.allclose(astar, want, rtol=1e-10)


def test_ridge_alpha_singular():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 2.0]])
    K = kernels.gaussian_kernel_matrix(X, 0.5)
    with pytest.raises(SingularSystem):
        kernels.ridge_alpha(K, np.array([1.0, 1.0, -1.0]), 0.0)


def test_ridge_alpha_accepts_a_pivot_at_its_threshold():
    """A pivot equal to 1e-12 of the largest diagonal entry passes; one below it is singular.

    On a diagonal K with lam = 0 the pivots are the diagonal: sqrt(2^-40)
    squares back exactly, and 1e-12 * top rounds to 2^-40.
    """
    pivot = 2.0**-40
    top = pivot / kernels.CHOLESKY_PIVOT_RTOL
    assert kernels.CHOLESKY_PIVOT_RTOL * top == pivot
    astar = kernels.ridge_alpha(np.diag([top, pivot]), np.array([top, pivot]), 0.0)
    assert astar == pytest.approx([1.0, 1.0])
    with pytest.raises(SingularSystem):
        kernels.ridge_alpha(np.diag([top * (1 + 1e-9), pivot]), np.ones(2), 0.0)


def test_eigen_coords_roundtrip(prob):
    rng = np.random.default_rng(3)
    a = rng.normal(size=prob.n)
    coeffs = kernels.to_eigen_coords(prob, a)
    back = kernels.from_eigen_coords(prob, coeffs)
    # Round trip is exact on the span of directions with positive sigma.
    assert np.allclose(
        kernels.to_eigen_coords(prob, back), coeffs, rtol=1e-9, atol=1e-12
    )
    with pytest.raises(DimensionMismatch):
        kernels.to_eigen_coords(prob, np.zeros(prob.n + 1))


def test_eigen_coords_norm_identity(prob):
    """||theta||_H^2 = a^T K a must equal the coefficient norm in theta space."""
    rng = np.random.default_rng(4)
    a = rng.normal(size=prob.n)
    coeffs = kernels.to_eigen_coords(prob, a)
    assert float(a @ prob.K @ a) == pytest.approx(float(coeffs @ coeffs), rel=1e-9)


def test_trainloss_gd_matches_dual_objective(prob):
    """The alpha recursion is plain GD on the TrainLoss dual objective."""
    rng = np.random.default_rng(5)
    alpha0 = rng.normal(size=prob.n) * 0.1
    dual = kernels.dual_objective(prob, kernels.GDMode.TRAIN_LOSS)
    eta = 0.8 / dual.spectrum.top
    state = kernels.run_gd_alpha(prob, alpha0, eta, kernels.GDMode.TRAIN_LOSS, 30)
    beta = iterate(dual, kernels.to_eigen_coords(prob, alpha0), eta, 30)
    assert np.allclose(kernels.to_eigen_coords(prob, state.alpha), beta, rtol=1e-8, atol=1e-12)


def test_hilbertnorm_gd_matches_dual_objective(prob):
    rng = np.random.default_rng(6)
    alpha0 = rng.normal(size=prob.n) * 0.1
    dual = kernels.dual_objective(prob, kernels.GDMode.HILBERT_NORM)
    eta = 0.8 / dual.spectrum.top
    state = kernels.run_gd_alpha(prob, alpha0, eta, kernels.GDMode.HILBERT_NORM, 30)
    beta = iterate(dual, kernels.to_eigen_coords(prob, alpha0), eta, 30)
    assert np.allclose(kernels.to_eigen_coords(prob, state.alpha), beta, rtol=1e-8, atol=1e-12)


def test_hilbertnorm_step_maps_to_primal_rate(prob):
    """A HilbertNorm dual step of eta equals a theta step of n * eta."""
    rng = np.random.default_rng(7)
    alpha0 = rng.normal(size=prob.n) * 0.1
    obj = kernels.ridge_fit(prob)[0]
    eta = 0.5 / (prob.n * obj.spectrum.top)
    state = kernels.run_gd_alpha(prob, alpha0, eta, kernels.GDMode.HILBERT_NORM, 25)
    theta = iterate(obj, kernels.to_eigen_coords(prob, alpha0), prob.n * eta, 25)
    assert np.allclose(kernels.to_eigen_coords(prob, state.alpha), theta, rtol=1e-8, atol=1e-12)


def test_gd_alpha_validation(prob):
    state = kernels.DualState(np.zeros(prob.n), kernels.GDMode.TRAIN_LOSS)
    with pytest.raises(ValueError):
        kernels.gd_alpha(prob, state, 0.0)
    bad = kernels.DualState(np.zeros(prob.n + 1), kernels.GDMode.TRAIN_LOSS)
    with pytest.raises(DimensionMismatch):
        kernels.gd_alpha(prob, bad, 0.1)


def test_hilbert_distance(prob):
    rng = np.random.default_rng(8)
    a, b = rng.normal(size=prob.n), rng.normal(size=prob.n)
    want = float((a - b) @ prob.K @ (a - b))
    assert kernels.hilbert_distance2(prob, a, b) == pytest.approx(want, rel=1e-12)


def test_predict_and_binary_error(prob):
    rng = np.random.default_rng(9)
    astar = kernels.ridge_alpha(prob.K, prob.y, prob.lam)
    test = kernels.two_cluster_dataset(50, rng)
    scores = gaussian_cross_kernel(prob.dataset.points, test.points, prob.scale).T @ astar
    err = kernels.binary_error(prob, astar, test)
    assert err == pytest.approx(float(np.mean(scores * test.labels <= 0)))
    # Zero scores count as errors.
    assert kernels.binary_error(prob, np.zeros(prob.n), test) == 1.0
    with pytest.raises(EmptyTestSet):
        kernels.binary_error(prob, astar, _empty_dataset())
    with pytest.raises(DimensionMismatch):
        kernels.binary_error(prob, np.zeros((2, prob.n + 1)), test)


def test_binary_error_counts_non_finite_scores_as_errors(prob):
    # Every kernel entry is positive here, so an infinite alpha entry
    # makes every score of its row +-inf, and +inf and -inf together NaN.
    # An infinite score of the label's sign still counts as an error.
    picked = np.concatenate([np.flatnonzero(prob.y > 0)[:2], np.flatnonzero(prob.y < 0)[:2]])
    test = kernels.Dataset(prob.dataset.points[picked], prob.y[picked])
    astar = kernels.ridge_alpha(prob.K, prob.y, prob.lam)
    rows = np.array([astar] * 4)
    rows[1, 0] = np.inf
    rows[2, 0] = -np.inf
    rows[3, :2] = np.inf, -np.inf
    with np.errstate(invalid="ignore"):  # inf - inf in the product
        rates = kernels.binary_error(prob, rows, test)
    assert rates.tolist() == [kernels.binary_error(prob, astar, test), 1.0, 1.0, 1.0]
    assert rates[0] == 0.0
    assert kernels.binary_error(prob, np.full(prob.n, np.nan), test) == 1.0


def test_a_nan_row_is_wrong_on_every_point_and_only_in_its_row(prob):
    rng = np.random.default_rng(10)
    test = kernels.two_cluster_dataset(300, rng)
    rows = rng.normal(size=(4, prob.n))
    rows[0] = kernels.ridge_alpha(prob.K, prob.y, prob.lam)
    rows[2] = np.nan
    rates = kernels.binary_error(prob, rows, test)
    assert rates[2] == 1.0
    for k in (0, 1, 3):
        assert rates[k] == kernels.binary_error(prob, rows[k], test) < 1.0


def _recorded_blocks(monkeypatch):
    """(query points, kernel entries) of every cross kernel binary_error evaluates."""
    blocks = []
    original = kernels.gaussian_cross_kernel

    def recording(X_train, X_query, s):
        K = original(X_train, X_query, s)
        blocks.append((np.array(X_query), K.copy()))
        return K

    monkeypatch.setattr(kernels, "gaussian_cross_kernel", recording)
    return blocks


def _scored_in_blocks(monkeypatch, prob, alphas, test):
    """binary_error of the rows of alphas, checked block by block against
    the full cross kernel and against scores computed from it: each
    block's entries are the bits of the full kernel's columns."""
    blocks = _recorded_blocks(monkeypatch)
    rates = kernels.binary_error(prob, alphas, test)
    monkeypatch.undo()
    full = gaussian_cross_kernel(prob.dataset.points, test.points, prob.scale)
    rows = kernels.SCORE_BLOCK_BYTES // (8 * prob.n)
    assert np.concatenate([Q for Q, _ in blocks]).tobytes() == test.points.tobytes()
    lo = 0
    for Q, K in blocks:
        assert 1 <= len(Q) <= rows
        assert K.tobytes() == np.ascontiguousarray(full[:, lo:lo + len(Q)]).tobytes()
        lo += len(Q)
    for alpha, rate in zip(alphas, rates):
        scores = full.T @ alpha
        assert rate == float(np.mean(~(np.isfinite(scores) & (scores * test.labels > 0))))
    return blocks


@pytest.mark.parametrize("blocks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)])
def test_blocked_scoring_matches_the_full_cross_kernel(blocks, extra, monkeypatch):
    n, d = 40, 5
    rows = kernels.SCORE_BLOCK_BYTES // (8 * n)
    n_test = blocks * rows + extra
    rng = np.random.default_rng(n_test)
    prob = kernels.kernel_problem(kernels.two_cluster_dataset(n, rng, d=d), 0.5, 1e-4)
    test = kernels.two_cluster_dataset(n_test, rng, d=d)
    alphas = rng.normal(size=(3, n))
    alphas[0] = kernels.ridge_alpha(prob.K, prob.y, prob.lam)
    evaluated = _scored_in_blocks(monkeypatch, prob, alphas, test)
    assert len(evaluated) == -(-n_test // rows)


def _empty_dataset():
    d = kernels.Dataset(np.zeros((1, 2)), np.array([1.0]))
    object.__setattr__(d, "points", np.zeros((0, 2)))
    object.__setattr__(d, "labels", np.zeros(0))
    return d


def test_margin_certificate(prob):
    astar = kernels.ridge_alpha(prob.K, prob.y, prob.lam)
    assert kernels.margin_certificate(prob, astar, astar, 0.5)
    # A unit-Hilbert-norm perturbation exceeds delta/(2 C_K) = 0.25.
    v = np.zeros(prob.n)
    v[0] = 1.0 / np.sqrt(prob.K[0, 0])
    assert not kernels.margin_certificate(prob, astar + v, astar, 0.5)
    with pytest.raises(ValueError):
        kernels.margin_certificate(prob, astar, astar, 1.5)


def test_two_cluster_dataset_shape():
    data = kernels.two_cluster_dataset(40, np.random.default_rng(0))
    assert data.n == 40 and data.d == 2
    assert set(np.unique(data.labels)) <= {-1.0, 1.0}
    # Labels match the cluster side.
    assert np.all(np.sign(data.points[:, 0]) == data.labels)


def test_dataset_validation():
    with pytest.raises(ValueError):
        kernels.Dataset(np.zeros((3, 2)), np.array([1.0, 0.5, -1.0]))
    with pytest.raises(DimensionMismatch):
        kernels.Dataset(np.zeros((3, 2)), np.array([1.0, -1.0]))


def test_dataset_csv_roundtrip(tmp_path):
    data = kernels.two_cluster_dataset(10, np.random.default_rng(1))
    path = tmp_path / "data.csv"
    rows = [
        ",".join([*(repr(float(v)) for v in row), str(int(label))])
        for row, label in zip(data.points, data.labels)
    ]
    path.write_text("\n".join(["x_1,x_2,label", *rows]) + "\n")
    back = kernels.load_dataset(path)
    assert np.array_equal(back.points, data.points)
    assert np.array_equal(back.labels, data.labels)


def test_load_dataset_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,label\n0.0,0.0,1\n")
    with pytest.raises(ParseError):
        kernels.load_dataset(p)
    p.write_text("x_1,x_2,label\n0.0,1\n")
    with pytest.raises(ParseError):
        kernels.load_dataset(p)
    p.write_text("x_1,x_2,label\n0.0,0.0,1\n1.0,1.0,-1\n0.0,1\n")
    with pytest.raises(ParseError, match="row 4 has 2 fields, expected 3$"):
        kernels.load_dataset(p)
    p.write_text("x_1,x_2,label\n0.0,zero,1\n")
    with pytest.raises(ParseError):
        kernels.load_dataset(p)
    for text in ("x_1,x_2,label\n", "x_1,x_2,label\n0.0,0.0,2\n"):
        p.write_text(text)
        with pytest.raises(ParseError):
            kernels.load_dataset(p)
    for bad in ("nan,0.0,1", "0.0,inf,1", "0.0,0.0,nan", "-Infinity,0.0,-1"):
        p.write_text(f"x_1,x_2,label\n0.0,0.0,1\n{bad}\n")
        with pytest.raises(ParseError, match="row 3"):
            kernels.load_dataset(p)
    p.write_text("")
    with pytest.raises(ParseError):
        kernels.load_dataset(p)
    with pytest.raises(IoError):
        kernels.load_dataset(tmp_path / "missing.csv")


def _expression_kernel(X_train, X_query, s):
    """Oracle: exp(-sum_k ((a_k - b_k) / s)^2 / 2) as one expression. numpy
    sums fewer than 8 terms left to right, so for d <= 7 it gives the bits
    of gaussian_cross_kernel's sum over the coordinates in order."""
    with np.errstate(over="ignore"):
        z = (X_train[:, None, :] - X_query[None, :, :]) / s
        return np.exp(-0.5 * (z**2).sum(axis=2))


def test_gaussian_cross_kernel_at_an_underflowing_scale():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 2))
    Q = np.vstack([X[[0, 4]], rng.normal(size=(3, 2))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # 2 s^2 underflows to 0: the s -> 0 limit, 1 on equal points.
        K = gaussian_cross_kernel(X, Q, 1e-200)
        want = np.zeros((6, 5))
        want[0, 0] = want[4, 1] = 1.0
        assert np.array_equal(K, want)
        assert np.array_equal(gaussian_kernel_matrix(X, 1e-200), np.eye(6))
        # 2 s^2 is tiny but not 0: both equal pairs give 1 and the
        # distinct pairs, whose scaled distance overflows, 0.
        assert np.array_equal(gaussian_cross_kernel(X, Q, 1e-155), want)
        # At normal scales the values are those of the plain expression.
        for s in (0.3, 1.0, 7.0):
            assert gaussian_cross_kernel(X, Q, s).tobytes() == _expression_kernel(X, Q, s).tobytes()


def test_underflowing_scale_compares_the_points_themselves():
    # Centering by the mean (about 1) would round both points to -1.0 + 1.0.
    X = np.array([[1e-20], [2e-20], [3.0]])
    K = gaussian_cross_kernel(X, X, 1e-200)
    assert np.array_equal(K, np.eye(3))


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("offset", [0.0, 1e4, -3e7])
def test_in_place_cross_kernel_is_the_expression_bitwise(d, offset):
    rng = np.random.default_rng(d)
    X = rng.normal(size=(40, d)) + offset
    Q = np.vstack([X[:3], 2.0 * rng.normal(size=(25, d)) + offset])
    for s in (1e-200, 1e-155, 1e-9, 1e-3, 0.05, 0.7, 3.0, 7.0):
        K = gaussian_cross_kernel(X, Q, s)
        assert K.tobytes() == _expression_kernel(X, Q, s).tobytes()
        assert np.all(K[[0, 1, 2], [0, 1, 2]] == 1.0)
        # Differences make the square matrix exactly symmetric, with an
        # exactly unit diagonal, at every scale and offset.
        K = gaussian_kernel_matrix(X, s)
        assert np.array_equal(K, K.T)
        assert np.all(np.diag(K) == 1.0)


def test_a_point_against_itself_gives_exactly_1_at_small_scales():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    points = np.random.default_rng(4).normal(size=(50, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for s in (1e-6, 1e-8, 1e-9, 1e-155, 1e-200):
            assert np.array_equal(gaussian_cross_kernel(X, X, s), np.eye(3))
            assert np.all(np.diag(gaussian_cross_kernel(points, points, s)) == 1.0)
