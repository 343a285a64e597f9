"""Random Givens bases against the per-rotation numpy loop."""

import math

import numpy as np
import pytest

from stepbias.instances import random_orthogonal


def _rotation_loop(rng, n):
    """Oracle: one rng.uniform call and a numpy column update per rotation."""
    q = np.eye(n)
    for p in range(n - 1):
        for r in range(p + 1, n):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(angle), math.sin(angle)
            col_p = q[:, p].copy()
            col_r = q[:, r].copy()
            q[:, p] = c * col_p - s * col_r
            q[:, r] = s * col_p + c * col_r
    return q


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 7, 8])
def test_random_orthogonal_matches_rotation_loop(n):
    for seed in range(20):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _rotation_loop(want_rng, n)
        got = random_orthogonal(got_rng, n)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and got.dtype == np.float64
        # The generator is left in the same state.
        assert got_rng.uniform() == want_rng.uniform()


def test_random_orthogonal_is_orthogonal():
    q = random_orthogonal(np.random.default_rng(0), 8)
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-13)


def _column_list_loop(rng, n):
    """Oracle: each rotation updates two columns held as lists of floats."""
    angles = iter(rng.uniform(0.0, 2.0 * math.pi, size=n * (n - 1) // 2).tolist())
    cols = np.eye(n).tolist()
    for p in range(n - 1):
        for r in range(p + 1, n):
            angle = next(angles)
            c, s = math.cos(angle), math.sin(angle)
            col_p, col_r = cols[p], cols[r]
            cols[p] = [c * x - s * y for x, y in zip(col_p, col_r)]
            cols[r] = [s * x + c * y for x, y in zip(col_p, col_r)]
    return np.array(cols).T.copy()


@pytest.mark.parametrize("n", range(1, 12))
def test_random_orthogonal_matches_column_list_loop(n):
    """Row-wise rotations, with the zero-only ones skipped, give the same bits."""
    for seed in range(50):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _column_list_loop(want_rng, n)
        got = random_orthogonal(got_rng, n)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got_rng.uniform() == want_rng.uniform()
