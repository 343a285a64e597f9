"""Gradient descent: closed form and level-set search vs step-by-step loops."""

import numpy as np
import pytest

from stepbias.errors import AlreadyBelowLevelSet
from stepbias.gd import (
    DIVERGENCE_FACTOR,
    StopStatus,
    closed_form,
    decompose,
    excess_loss,
    iterate,
    reconstruct,
    run_to_level_set,
    step,
)
from stepbias.quadratic import QuadraticObjective
from stepbias.spectral import diagonal_spectrum, eig_sym


def _level_set_run(sigma, mu0, eta, alpha, t_max, divergence_limit):
    """Oracle: iterate GD in eigen-coordinates until the excess loss reaches alpha.

    mu0 holds the initial eigen-coefficients of theta0 - optimum. The
    per-step update multiplies coefficient i by (1 - eta * sigma_i);
    the excess loss is 0.5 * sum(sigma * mu**2). Returns
    (steps, final mu, per-step loss trace, status).
    """
    mu = mu0.copy()
    factors = 1.0 - eta * sigma
    trace = np.empty(t_max)
    for t in range(1, t_max + 1):
        mu = mu * factors
        loss = 0.5 * np.sum(sigma * mu * mu)
        trace[t - 1] = loss
        if loss <= alpha:
            return t, mu, trace[:t], StopStatus.HIT_LEVEL_SET
        if loss > divergence_limit:
            return t, mu, trace[:t], StopStatus.DIVERGED
    return t_max, mu, trace[:t_max], StopStatus.MAX_STEPS_EXCEEDED


def oracle_run(sigma, iota, eta, alpha, t_max):
    """The oracle with run_to_level_set's divergence limit."""
    loss0 = 0.5 * float(np.sum(sigma * iota * iota))
    return _level_set_run(sigma, iota, eta, alpha, t_max, DIVERGENCE_FACTOR * loss0)


def diagonal_run(sigma, iota, eta, alpha, t_max):
    """run_to_level_set on diag(sigma) from optimum 0 and theta0 = iota."""
    sigma = np.asarray(sigma, dtype=float)
    obj = QuadraticObjective(diagonal_spectrum(sigma), np.zeros(sigma.size))
    return run_to_level_set(obj, np.asarray(iota, dtype=float), eta, alpha, t_max)


def random_objective(rng, n):
    A = rng.normal(size=(n, n))
    spec = eig_sym(A @ A.T + 0.5 * np.eye(n))
    return QuadraticObjective(spec, rng.normal(size=n))


def test_step_matches_gradient_formula():
    rng = np.random.default_rng(0)
    obj = random_objective(rng, 5)
    theta = rng.normal(size=5)
    T = obj.spectrum.matrix()
    want = theta - 0.1 * T @ (theta - obj.optimum)
    assert np.allclose(step(obj, theta, 0.1), want, atol=1e-12)
    with pytest.raises(ValueError):
        step(obj, theta, 0.0)


def test_decompose_reconstruct_roundtrip():
    rng = np.random.default_rng(1)
    obj = random_objective(rng, 7)
    theta = rng.normal(size=7)
    assert np.allclose(reconstruct(obj, decompose(obj, theta)), theta, atol=1e-12)


def test_closed_form_matches_iterative():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        obj = random_objective(rng, n)
        theta0 = rng.normal(size=n)
        eta = float(rng.uniform(0.05, 1.8)) / obj.spectrum.top
        t = int(rng.integers(1, 60))
        run = closed_form(obj, theta0, eta, t)
        theta_t = iterate(obj, theta0, eta, t)
        assert np.allclose(run.theta, theta_t, rtol=1e-9, atol=1e-12)
        assert run.loss_trace.shape == (t,)
        assert run.loss_trace[-1] == pytest.approx(excess_loss(obj, theta_t), rel=1e-9)


def test_closed_form_trace_is_per_step_excess():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    run = closed_form(obj, np.array([1.0, 1.0]), 0.3, 4)
    theta = np.array([1.0, 1.0])
    for k in range(4):
        theta = step(obj, theta, 0.3)
        assert run.loss_trace[k] == pytest.approx(excess_loss(obj, theta), rel=1e-12)


def test_run_to_level_set_hits_with_half_level():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    run = run_to_level_set(obj, np.array([1.0, 1.0]), 0.2, 1e-3, 1000)
    assert run.stop_status is StopStatus.HIT_LEVEL_SET
    assert run.final_excess <= 1e-3
    assert excess_loss(obj, run.theta) == pytest.approx(run.final_excess, rel=1e-9)
    # The step before stopping was still above the target.
    assert run.loss_trace[-2] > 1e-3
    assert run.half_level_ok == (run.final_excess >= 0.5e-3)


def test_level_set_run_statuses():
    sigma = np.array([2.0, 1.0])
    mu0 = np.array([1.0, 1.0])
    t, mu, trace, status = _level_set_run(sigma, mu0, 0.2, 1e-6, 10_000, 1e12)
    assert status is StopStatus.HIT_LEVEL_SET
    assert trace.shape == (t,)
    assert trace[-1] <= 1e-6
    assert 0.5 * np.sum(sigma * mu * mu) == trace[-1]

    t, _, _, status = _level_set_run(sigma, mu0, 1e-5, 1e-9, 50, 1e12)
    assert status is StopStatus.MAX_STEPS_EXCEEDED and t == 50

    t, _, trace, status = _level_set_run(sigma, mu0, 10.0, 1e-9, 10_000, 1e6)
    assert status is StopStatus.DIVERGED
    assert trace[-1] > 1e6


def test_level_set_run_matches_scalar_reference():
    rng = np.random.default_rng(0)
    sigma = np.sort(rng.uniform(0.1, 1.0, 6))[::-1].copy()
    mu = rng.normal(size=6)
    eta = 1.5
    t, mu_out, trace, status = _level_set_run(sigma, mu, eta, 1e-10, 1000, 1e15)
    ref = mu.copy()
    for k in range(t):
        ref = ref * (1.0 - eta * sigma)
        loss = 0.5 * float(np.sum(sigma * ref * ref))
        assert trace[k] == loss
    assert np.array_equal(mu_out, ref)


def test_run_to_level_set_max_steps():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    run = run_to_level_set(obj, np.array([1.0, 1.0]), 1e-4, 1e-8, 10)
    assert run.stop_status is StopStatus.MAX_STEPS_EXCEEDED
    assert run.steps == 10
    assert run.half_level_ok is None


def test_run_to_level_set_diverges():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    run = run_to_level_set(obj, np.array([1.0, 1.0]), 5.0, 1e-8, 100_000)
    assert run.stop_status is StopStatus.DIVERGED
    assert run.steps < 100_000


def test_run_to_level_set_already_below():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    with pytest.raises(AlreadyBelowLevelSet):
        run_to_level_set(obj, np.array([1e-8, 1e-8]), 0.2, 1e-3, 100)


def test_run_validates_arguments():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        run_to_level_set(obj, np.array([1.0, 1.0]), 0.2, 0.0, 100)
    with pytest.raises(ValueError):
        run_to_level_set(obj, np.array([1.0, 1.0]), 0.2, 1e-3, 0)
    for eta in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            run_to_level_set(obj, np.array([1.0, 1.0]), eta, 1e-3, 100)
    for alpha in (np.nan, np.inf):
        with pytest.raises(ValueError):
            run_to_level_set(obj, np.array([1.0, 1.0]), 0.2, alpha, 100)


def _assert_matches_oracle(sigma, iota, eta, alpha, t_max):
    run = diagonal_run(sigma, iota, eta, alpha, t_max)
    sigma, iota = np.asarray(sigma, float), np.asarray(iota, float)
    t, mu, trace, status = oracle_run(sigma, iota, eta, alpha, t_max)
    assert (run.steps, run.stop_status) == (t, status)
    scale = np.max(np.abs(mu))
    assert np.all(np.abs(run.mu - mu) <= 1e-12 * scale)
    return run, trace


def test_level_set_search_matches_oracle():
    """Exact hit step and status, mu to 1e-12, on random problems.

    Step sizes reach past the divergence threshold 2/sigma_1, up to
    2.3/sigma_1, and targets go down to 1e-12 of the initial loss.
    """
    rng = np.random.default_rng(7)
    statuses = set()
    for k in range(320):
        n = int(rng.integers(1, 31))
        sigma = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
        sigma[0] = 1.0
        iota = rng.normal(size=n)
        eta = float(rng.uniform(2.0, 2.3)) if k % 4 == 0 else float(rng.uniform(0.01, 2.0))
        loss0 = 0.5 * float(np.sum(sigma * iota * iota))
        alpha = loss0 * 10.0 ** float(rng.uniform(-12, -0.1))
        t_max = int(rng.integers(1, 3000))
        run, _ = _assert_matches_oracle(sigma, iota, eta, alpha, t_max)
        statuses.add(run.stop_status)
    assert statuses == set(StopStatus)


def test_level_set_search_pinned_factors():
    # eta sigma_1 == 1: the top direction is gone after one step.
    run, _ = _assert_matches_oracle([1.0, 0.5], [1.0, 1.0], 1.0, 1e-3, 1000)
    assert run.mu[0] == 0.0 and run.stop_status is StopStatus.HIT_LEVEL_SET
    # eta = 2/sigma_1: the top factor is -1, so that loss never decays.
    run, _ = _assert_matches_oracle([1.0, 0.5], [1.0, 1.0], 2.0, 1e-3, 500)
    assert run.stop_status is StopStatus.MAX_STEPS_EXCEEDED and run.steps == 500
    assert run.mu[0] == 1.0
    run, _ = _assert_matches_oracle([1.0, 0.5], [1.0, 1.0], 2.0, 0.6, 500)
    assert run.stop_status is StopStatus.HIT_LEVEL_SET
    # A zero-weight direction with |factor| = 1.5 neither diverges nor
    # turns into NaN once 1.5**t overflows (t > 1750).
    for t_max, status in ((10**6, StopStatus.HIT_LEVEL_SET), (2000, StopStatus.MAX_STEPS_EXCEEDED)):
        run, _ = _assert_matches_oracle([1.0, 0.001], [0.0, 1.0], 2.5, 1e-9, t_max)
        assert run.stop_status is status and run.steps > 1750
        assert run.mu[0] == 0.0 and np.all(np.isfinite(run.mu))
    # |factor| > 1 on a live direction: Diverged where the loop would be.
    run, trace = _assert_matches_oracle([1.0, 0.1], [1.0, 1.0], 2.2, 1e-9, 10**6)
    assert run.stop_status is StopStatus.DIVERGED
    assert trace[-1] > DIVERGENCE_FACTOR * 0.55


def test_level_set_search_tie_hits():
    """alpha exactly equal to L(t) stops at t (ties go to HitLevelSet).

    The factors are 1/2 and 3/4, so every L(t) here is exact in
    floating point and equal in the search and the loop.
    """
    sigma, iota = np.array([1.0, 0.5]), np.array([1.0, 1.0])
    for t in (1, 2, 5, 9, 16):
        alpha = 0.5 * (0.5 ** (2 * t) + 0.5 * 0.75 ** (2 * t))
        run, trace = _assert_matches_oracle(sigma, iota, 0.5, alpha, 100)
        assert run.steps == t and run.stop_status is StopStatus.HIT_LEVEL_SET
        assert trace[-1] == alpha == run.final_excess
        run = diagonal_run(sigma, iota, 0.5, np.nextafter(alpha, 0.0), 100)
        assert run.steps == t + 1


def test_loss_trace_matches_closed_form():
    rng = np.random.default_rng(3)
    obj = random_objective(rng, 6)
    theta0 = rng.normal(size=6)
    for eta_mult in (0.5, 1.7, 2.1):
        eta = eta_mult / obj.spectrum.top
        run = run_to_level_set(obj, theta0, eta, 1e-6, 400)
        trace = run.loss_trace
        assert isinstance(trace, np.ndarray) and trace.shape == (run.steps,)
        assert trace is run.loss_trace  # computed once
        assert trace[-1] == pytest.approx(run.final_excess, rel=1e-12)
        for t in (1, run.steps // 2, run.steps):
            want = closed_form(obj, theta0, eta, t).final_excess
            assert trace[t - 1] == pytest.approx(want, rel=1e-12)
