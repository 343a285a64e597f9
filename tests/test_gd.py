"""Gradient descent: closed form and level-set search vs step-by-step loops."""

import math

import numpy as np
import pytest

from stepbias import gd
from stepbias.errors import AlreadyBelowLevelSet
from stepbias.gd import (
    DIVERGENCE_FACTOR,
    StopStatus,
    closed_form,
    decompose,
    hit_lower_bound,
    iterate,
    level_set_search,
    reconstruct,
    run_to_level_set,
    step,
)
from stepbias.quadratic import QuadraticObjective, evaluate
from stepbias.spectral import diagonal_spectrum, eig_sym

from reference import excess, power, row_sum, stepping_run, tie_alpha


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
        want = evaluate(obj, theta_t) - obj.min_value
        assert run.loss_trace[-1] == pytest.approx(want, rel=1e-9)


def test_closed_form_trace_is_per_step_excess():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    run = closed_form(obj, np.array([1.0, 1.0]), 0.3, 4)
    theta = np.array([1.0, 1.0])
    for k in range(4):
        theta = step(obj, theta, 0.3)
        want = evaluate(obj, theta) - obj.min_value
        assert run.loss_trace[k] == pytest.approx(want, rel=1e-12)


def test_run_to_level_set_hits_with_half_level():
    obj = QuadraticObjective(diagonal_spectrum([2.0, 1.0]), np.zeros(2))
    run = run_to_level_set(obj, np.array([1.0, 1.0]), 0.2, 1e-3, 1000)
    assert run.stop_status is StopStatus.HIT_LEVEL_SET
    assert run.final_excess <= 1e-3
    got = evaluate(obj, run.theta) - obj.min_value
    assert got == pytest.approx(run.final_excess, rel=1e-9)
    # The step before stopping was still above the target.
    assert run.loss_trace[-2] > 1e-3
    assert run.half_level_ok == (run.final_excess >= 0.5e-3)


def test_level_set_run_statuses():
    sigma = np.array([2.0, 1.0])
    mu0 = np.array([1.0, 1.0])
    t, mu, trace, status = stepping_run(sigma, mu0, 0.2, 1e-6, 10_000, 1e12)
    assert status is StopStatus.HIT_LEVEL_SET
    assert trace.shape == (t,)
    assert trace[-1] <= 1e-6
    assert 0.5 * row_sum(sigma * mu * mu) == trace[-1]

    t, _, _, status = stepping_run(sigma, mu0, 1e-5, 1e-9, 50, 1e12)
    assert status is StopStatus.MAX_STEPS_EXCEEDED and t == 50

    t, _, trace, status = stepping_run(sigma, mu0, 10.0, 1e-9, 10_000, 1e6)
    assert status is StopStatus.DIVERGED
    assert trace[-1] > 1e6


def test_level_set_run_matches_scalar_reference():
    rng = np.random.default_rng(0)
    sigma = np.sort(rng.uniform(0.1, 1.0, 6))[::-1].copy()
    mu = rng.normal(size=6)
    eta = 1.5
    t, mu_out, trace, status = stepping_run(sigma, mu, eta, 1e-10, 1000, 1e15)
    ref = mu.copy()
    for k in range(t):
        ref = ref * (1.0 - eta * sigma)
        loss = 0.5 * float(row_sum(sigma * ref * ref))
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
    t, mu, trace, status = stepping_run(sigma, iota, eta, alpha, t_max)
    assert (run.steps, run.stop_status) == (t, status)
    scale = np.max(np.abs(mu))
    assert np.all(np.abs(run.mu - mu) <= 1e-12 * scale)
    return run, trace


def _random_problems():
    """The 320 random (sigma, iota, eta, alpha, t_max) of the oracle test."""
    rng = np.random.default_rng(7)
    for k in range(320):
        n = int(rng.integers(1, 31))
        sigma = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
        sigma[0] = 1.0
        iota = rng.normal(size=n)
        eta = float(rng.uniform(2.0, 2.3)) if k % 4 == 0 else float(rng.uniform(0.01, 2.0))
        loss0 = 0.5 * float(np.sum(sigma * iota * iota))
        alpha = loss0 * 10.0 ** float(rng.uniform(-12, -0.1))
        t_max = int(rng.integers(1, 3000))
        yield sigma, iota, eta, alpha, t_max


def test_level_set_search_matches_oracle():
    """Exact hit step and status, mu to 1e-12, on random problems.

    Step sizes reach past the divergence threshold 2/sigma_1, up to
    2.3/sigma_1, and targets go down to 1e-12 of the initial loss.
    """
    statuses = set()
    for problem in _random_problems():
        run, _ = _assert_matches_oracle(*problem)
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
        alpha = tie_alpha(t)
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


def _search_cases():
    """Problems for the lower bound: random, pinned factors, ties, short t_max."""
    yield from _random_problems()
    yield [1.0, 0.5], [1.0, 1.0], 1.0, 1e-3, 1000  # factor 0
    yield [1.0, 0.5], [1.0, 1.0], 2.0, 1e-3, 500  # factor -1, never hits
    yield [1.0, 0.5], [1.0, 1.0], 2.0, 0.6, 500  # factor -1, hits
    yield [1.0, 0.001], [0.0, 1.0], 2.5, 1e-9, 10**6  # zero weight, |factor| 1.5
    yield [1.0, 0.001], [0.0, 1.0], 2.5, 1e-9, 2000
    for t in (1, 2, 5, 9, 16):
        yield [1.0, 0.5], [1.0, 1.0], 0.5, tie_alpha(t), 100
        yield [1.0, 0.5], [1.0, 1.0], 0.5, np.nextafter(tie_alpha(t), 0.0), 100
    # The hit of this run is step 51 and its lower bound step 50; every
    # t_max from below the bound to past the hit.
    for t_max in (1, 30, 49, 50, 51, 52, 60, 10**6):
        yield [1.0, 0.4, 0.1], [1.0, -2.0, 0.5], 0.9, 1e-6, t_max


def test_search_from_the_lower_bound_matches_search_from_step_1(monkeypatch):
    """The lower bound changes how the hit is found, never which step it is.

    Each run is repeated with hit_lower_bound forced to 1, which is
    exponential search from step 1; steps, status, mu and the final loss
    must be identical.
    """
    starts = []
    real = gd.hit_lower_bound

    def recording(*args):
        starts.append(real(*args))
        return starts[-1]

    monkeypatch.setattr(gd, "hit_lower_bound", recording)
    for sigma, iota, eta, alpha, t_max in _search_cases():
        run = diagonal_run(sigma, iota, eta, alpha, t_max)
        with monkeypatch.context() as m:
            m.setattr(gd, "hit_lower_bound", lambda *args: 1)
            ref = diagonal_run(sigma, iota, eta, alpha, t_max)
        assert (run.steps, run.stop_status) == (ref.steps, ref.stop_status)
        assert np.array_equal(run.mu, ref.mu)
        assert run.final_excess == ref.final_excess
    # The search did start from the bound, not always from step 1.
    assert sum(start > 1 for start in starts) > 200


def test_hit_lower_bound_is_no_later_than_the_first_hit():
    offsets = []
    for sigma, iota, eta, alpha, t_max in _search_cases():
        sigma, iota = np.asarray(sigma, float), np.asarray(iota, float)
        w = 0.5 * sigma * iota * iota
        rates = np.abs(1.0 - eta * sigma)[w != 0]
        if np.any(rates > 1.0):
            continue
        start = hit_lower_bound(w[w != 0], rates, alpha, t_max)
        t, _, _, status = stepping_run(sigma, iota, eta, alpha, t_max)
        assert 1 <= start <= t_max
        if status is StopStatus.HIT_LEVEL_SET:
            assert start <= t
            offsets.append(t - start)
    # Lowered by one step, the bound usually sits one step before the hit.
    assert len(offsets) > 200 and np.median(offsets) <= 2


def test_hit_lower_bound_edges():
    w = np.array([0.5, 0.25])
    # A rate of 1 leaves the bound undefined.
    assert hit_lower_bound(w, np.array([1.0, 0.5]), 1e-3, 100) == 1
    # A rate of 0: the term is gone after one step.
    assert hit_lower_bound(w, np.array([0.0, 0.0]), 1e-3, 100) == 1
    # Every term already at or below alpha.
    assert hit_lower_bound(w, np.array([0.5, 0.5]), 0.6, 100) == 1
    # One term: w r^{2t} = alpha at t = 5, lowered by one step.
    one, half = np.array([0.5]), np.array([0.5])
    assert hit_lower_bound(one, half, 0.5 * 0.25**5, 100) in (4, 5)
    assert hit_lower_bound(one, half, 0.4 * 0.25**5, 100) == 5
    # Clamped to t_max.
    assert hit_lower_bound(w, np.array([0.999, 0.5]), 1e-9, 50) == 50
    # An infinite weight has no finite bound.
    assert hit_lower_bound(np.array([np.inf, 1.0]), half.repeat(2), 1e-3, 100) == 1


def _counting(loss):
    calls = []

    def counted(t):
        calls.append(t)
        return loss(t)

    return counted, calls


def test_level_set_search_from_any_start_finds_the_first_hit():
    """A start past the hit fails its check and the search restarts at 1."""
    alpha = tie_alpha(9)
    want = level_set_search(tie_alpha, alpha, 100, start=1)
    assert want == (9, StopStatus.HIT_LEVEL_SET)
    for start in range(1, 101):
        counted, calls = _counting(tie_alpha)
        assert level_set_search(counted, alpha, 100, start=start) == want
        if start > 1:
            assert calls[0] == start - 1  # the check comes first
    # From the step before the hit: the check and two probes.
    counted, calls = _counting(tie_alpha)
    level_set_search(counted, alpha, 100, start=8)
    assert calls == [7, 8, 9]
    # t_max at or below the start: MaxStepsExceeded after the check.
    counted, calls = _counting(tie_alpha)
    assert level_set_search(counted, tie_alpha(60), 5, start=5) == (
        5,
        StopStatus.MAX_STEPS_EXCEEDED,
    )
    assert calls == [4, 5]


def test_certify_runs_start_at_the_lower_bound(monkeypatch):
    """On generated certify instances the bound is one step before the hit.

    Each one-lane search evaluates the losses of three steps (the check
    and two probes), against about 17 for exponential search from step 1.
    The steps evaluated are counted, however many calls evaluate them.
    """
    from stepbias.experiments import stream
    from stepbias.instances import random_instance

    evaluated, starts = [], []
    real_losses, real_bound = gd._losses, gd.hit_lower_bound

    def counting_losses(sig, iota, factors, steps):
        evaluated.extend(np.ravel(steps).tolist())
        return real_losses(sig, iota, factors, steps)

    def recording_bound(*args):
        starts.append(real_bound(*args))
        return starts[-1]

    monkeypatch.setattr(gd, "_losses", counting_losses)
    monkeypatch.setattr(gd, "hit_lower_bound", recording_bound)
    for seed in range(20):
        inst = random_instance(stream(seed, "certify-0"))
        for eta in (inst.eta_s, inst.eta_b):
            evaluated.clear()
            run = run_to_level_set(inst.pair.train, inst.theta0, eta, inst.alpha, inst.t_max)
            start = starts[-1]
            assert run.steps == start + 1
            assert evaluated == [start - 1, start, start + 1]
    assert len(starts) == 40


def _numpy_hit_lower_bound(weights, rates, alpha, t_max):
    """Oracle: the lower bound evaluated with numpy logs on arrays.

    A rate-0 term (a dead direction, or a factor of exactly 0) bounds no
    step, so it is skipped.
    """
    weights, rates = np.asarray(weights, dtype=float), np.asarray(rates, dtype=float)
    if 1.0 in rates:
        return 1
    moving = rates != 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (math.log(alpha) - np.log(weights[moving])) / (2.0 * np.log(rates[moving]))
    end = float(t.max()) if t.size else -math.inf
    if not math.isfinite(end):
        return 1
    return min(max(math.ceil(end) - 1, 1), t_max)


def test_lower_bound_on_floats_finds_what_the_numpy_bound_finds(monkeypatch):
    """Steps, status, mu and final loss are those of a search from the numpy bound.

    On the 320 random problems and the edge cases; the two bounds also agree.
    """
    starts = []
    real = gd.hit_lower_bound

    def both(*args):
        starts.append((real(*args), _numpy_hit_lower_bound(*args)))
        return starts[-1][0]

    monkeypatch.setattr(gd, "hit_lower_bound", both)
    for sigma, iota, eta, alpha, t_max in _search_cases():
        run = diagonal_run(sigma, iota, eta, alpha, t_max)
        with monkeypatch.context() as m:
            m.setattr(gd, "hit_lower_bound", _numpy_hit_lower_bound)
            ref = diagonal_run(sigma, iota, eta, alpha, t_max)
        assert (run.steps, run.stop_status) == (ref.steps, ref.stop_status)
        assert np.array_equal(run.mu, ref.mu)
        assert run.final_excess == ref.final_excess
    assert len(starts) > 200
    assert all(got == want for got, want in starts)


def _eager_final(obj, theta0, eta, steps):
    """Oracle: the final loss evaluated again at the run's step, and its iterate.

    run_to_level_set computed both this way, eagerly, before it reused the
    search's loss and reconstructed theta on first read.
    """
    iota = decompose(obj, theta0)
    sig = obj.spectrum.eigenvalues
    live = sig * iota * iota != 0
    factors = 1.0 - eta * sig
    with np.errstate(over="ignore", invalid="ignore"):
        final = float(excess(sig[live], iota[live] * power(factors[live], steps)))
        mu = gd._final_mu(iota, factors, steps)
    return final, reconstruct(obj, mu)


def test_final_loss_and_iterate_are_bitwise_the_eager_ones():
    from stepbias.experiments import stream
    from stepbias.instances import random_instance

    problems = []
    for sigma, iota, eta, alpha, t_max in _search_cases():
        sigma = np.asarray(sigma, dtype=float)
        obj = QuadraticObjective(diagonal_spectrum(sigma), np.zeros(sigma.size))
        problems.append((obj, np.asarray(iota, dtype=float), eta, alpha, t_max))
    rng = np.random.default_rng(11)
    for _ in range(40):
        obj = random_objective(rng, int(rng.integers(1, 9)))
        theta0 = obj.optimum + rng.normal(size=obj.n)
        top = obj.spectrum.top
        loss0 = evaluate(obj, theta0) - obj.min_value
        for eta in (0.5 / top, 1.9 / top, 2.1 / top):
            problems.append((obj, theta0, eta, loss0 * 1e-6, 10**5))
    for seed in range(20):
        inst = random_instance(stream(seed, "certify-0"))
        for eta in (inst.eta_s, inst.eta_b):
            problems.append((inst.pair.train, inst.theta0, eta, inst.alpha, inst.t_max))
    statuses = set()
    for obj, theta0, eta, alpha, t_max in problems:
        run = run_to_level_set(obj, theta0, eta, alpha, t_max)
        statuses.add(run.stop_status)
        assert "theta" not in vars(run)
        final, theta = _eager_final(obj, theta0, eta, run.steps)
        assert np.float64(run.final_excess).tobytes() == np.float64(final).tobytes()
        assert run.theta.tobytes() == theta.tobytes()
        assert run.theta is run.theta
    assert statuses == set(StopStatus)
