"""Gradient descent: closed form vs the step-by-step reference loop."""

import numpy as np
import pytest

from stepbias.errors import AlreadyBelowLevelSet
from stepbias.gd import (
    StopStatus,
    _level_set_run,
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


def test_trace_stride_decimation_keeps_final_value():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    full = run_to_level_set(obj, np.array([1.0, 1.0]), 0.2, 1e-6, 1000)
    strided = run_to_level_set(obj, np.array([1.0, 1.0]), 0.2, 1e-6, 1000, trace_stride=7)
    assert strided.steps == full.steps
    assert strided.loss_trace[-1] == full.loss_trace[-1]
    assert np.array_equal(strided.loss_trace[:-1], full.loss_trace[6::7][: len(strided.loss_trace) - 1])


def test_run_validates_arguments():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        run_to_level_set(obj, np.array([1.0, 1.0]), 0.2, 0.0, 100)
    with pytest.raises(ValueError):
        run_to_level_set(obj, np.array([1.0, 1.0]), 0.2, 1e-3, 0)
