"""Gradient descent on quadratic objectives, in closed form.

Along eigendirection i the iterate obeys
mu_i(t) = iota_i * (1 - eta sigma_i)^t, where iota is the initial
eigen-coefficient vector of theta0 - optimum, so the excess train loss
after t steps is L(t) = 1/2 sum_i sigma_i iota_i^2 (1 - eta sigma_i)^{2t}.

run_to_level_set finds the first step with L(t) <= alpha without
stepping. L is a sum of exponentials in t, hence convex, and
non-increasing when every |1 - eta sigma_i| <= 1. In that case L is at
least its largest term w_i r_i^{2t} (w_i = sigma_i iota_i^2 / 2,
r_i = |1 - eta sigma_i|), which gives a closed-form step no later than
the hit (hit_lower_bound); one loss evaluation confirms it, and
exponential search from it and bisection find the hit step, in about
three evaluations when one direction dominates the loss at the hit. An
unconfirmed bound falls back to the search from step 1. Otherwise
bisection on the sign of L(t + 1) - L(t) finds the minimiser first.

Each search is a coroutine (_descent, _first_true) that names the next
step to test and is told whether the test holds. run_to_level_set
drives one; level_set_runs drives the monotone searches of many lanes
of one dimension in lockstep (_lockstep), each round's losses being rows
of one array expression. Each lane tests the steps, and reads the loss
bits, of its own run_to_level_set.

A run also reports whether it stayed above alpha/2 (the half-level
condition is reported, never enforced). The final loss is the one the
search evaluated at the returned step. The final iterate and the
per-step loss trace of a run are computed only when they are read.
"""

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlreadyBelowLevelSet
from .quadratic import QuadraticObjective, _check_dim, coefficients, excess_losses, grad

DIVERGENCE_FACTOR = 1e12


class StopStatus(enum.Enum):
    HIT_LEVEL_SET = "HitLevelSet"
    MAX_STEPS_EXCEEDED = "MaxStepsExceeded"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class GDRun:
    """Record of one gradient-descent trajectory.

    mu holds the final per-eigendirection coefficients of
    theta - optimum; iota the initial ones; objective the train
    objective the run descends, whose spectrum gives the eigenvalues.
    final_excess is the excess train loss after the last step (None
    after zero steps). half_level_ok is None unless the run targeted a
    level set, in which case it reports whether the final excess loss is
    >= alpha/2.
    """

    eta: float
    steps: int
    mu: np.ndarray
    iota: np.ndarray
    stop_status: StopStatus
    objective: QuadraticObjective
    final_excess: float | None
    alpha: float | None = None
    half_level_ok: bool | None = None

    @cached_property
    def theta(self):
        """The final iterate optimum + V mu, reconstructed when first read."""
        return reconstruct(self.objective, self.mu)

    @cached_property
    def loss_trace(self):
        """Excess train loss after each step 1..steps, from the closed form.

        Built one direction at a time, so it needs O(steps) memory.
        """
        sig = self.objective.spectrum.eigenvalues
        t = np.arange(1, self.steps + 1)
        trace = np.zeros(self.steps)
        with np.errstate(over="ignore"):
            for s, i, f in zip(sig, self.iota, 1.0 - self.eta * sig):
                if s * i * i != 0:
                    mu = i * f**t
                    trace += s * mu * mu
        return 0.5 * trace


def step(obj, theta, eta):
    """One GD update theta - eta * grad(obj, theta)."""
    if eta <= 0:
        raise ValueError("step size must be positive")
    return theta - eta * grad(obj, theta)


def decompose(obj, theta):
    """Eigen-coefficients mu_i = <theta - optimum, e_i>."""
    theta = _check_dim(obj, theta)
    return coefficients(obj.spectrum.eigenvectors, theta, obj.optimum)


def reconstruct(obj, mu):
    """Inverse of decompose: optimum + sum_i mu_i e_i."""
    return obj.optimum + obj.spectrum.eigenvectors @ mu


def _powers(factors, steps):
    """factors ** steps along the last axis, each row to its own step.

    One int step is ``factors ** step``. An array of steps broadcasts
    against the leading axes of factors, and each row gets the bits of
    ``row ** step``: numpy's ``**`` with an int exponent takes fast paths
    at 1 (a copy) and 2 (a square), and a SIMD power kernel can differ
    from the square in the last bit, so rows at those steps are computed
    as ``**`` computes them. Callers silence numpy's overflow warnings
    around it.
    """
    if isinstance(steps, int):
        return factors**steps
    t = np.asarray(steps, dtype=float)[..., None]
    powers = np.power(factors, t)
    if t.min() <= 2.0:
        powers = np.where(t == 1.0, factors, np.where(t == 2.0, factors * factors, powers))
    return powers


def _losses(sig, iota, factors, steps):
    """L(t) = 1/2 sum_i sig_i (iota_i factors_i^t)^2 of each row at its step."""
    return excess_losses(sig, iota * _powers(factors, steps))


def _final_mu(iota, factors, steps):
    """iota * factors**steps per row, with 0 (not 0 * inf) on zero coefficients.

    Callers silence numpy's overflow and invalid-value warnings around it.
    """
    mu = iota * _powers(factors, steps)
    mu[iota == 0] = 0.0
    return mu


def closed_form(obj, theta0, eta, t):
    """Exact GD iterate after t steps via per-direction powers."""
    if t < 0:
        raise ValueError("step count must be nonnegative")
    iota = decompose(obj, theta0)
    sig = obj.spectrum.eigenvalues
    with np.errstate(over="ignore", invalid="ignore"):
        mu = _final_mu(iota, 1.0 - eta * sig, t)
    return GDRun(
        eta=eta,
        steps=t,
        mu=mu,
        iota=iota,
        stop_status=StopStatus.MAX_STEPS_EXCEEDED,
        objective=obj,
        final_excess=float(excess_losses(sig, mu)) if t else None,
    )


def _first_true(lo, hi):
    """Search coroutine: the smallest t in [lo, hi] whose test holds, or hi + 1.

    It yields each step to test and is sent whether the test holds
    there; the test must be false then true on [lo, hi] (monotone).
    """
    while lo <= hi:
        mid = (lo + hi) // 2
        if (yield mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


def _descent(t_max, start):
    """Search coroutine: the first step in 1..t_max with loss(t) <= alpha, as (t, StopStatus).

    It yields each step to test and is sent whether loss(t) <= alpha
    there, for a loss that does not increase. Exponential search from
    step start and bisection find the hit; start must be a step no later
    than the hit, which the first test checks (loss(start - 1) > alpha),
    and the search starts from step 1 when the check fails.
    """
    if start > 1 and (yield start - 1):
        start = 1
    lo = hi = start
    while not (yield hi):
        if hi == t_max:
            return t_max, StopStatus.MAX_STEPS_EXCEEDED
        lo, hi = hi + 1, min(2 * hi - start + 1, t_max)
    # The test holds at hi, so only [lo, hi - 1] is left to search.
    return (yield from _first_true(lo, hi - 1)), StopStatus.HIT_LEVEL_SET


def _lockstep(searches, test):
    """Run search coroutines side by side; their results, in order.

    Each round collects the step that every unfinished search asks
    about and answers them all with one call test(lanes, steps), which
    returns whether each lane's test holds at its step.
    """
    results = [None] * len(searches)
    lanes = list(range(len(searches)))
    answers = [None] * len(searches)
    while lanes:
        asking, steps = [], []
        for lane, answer in zip(lanes, answers):
            try:
                steps.append(searches[lane].send(answer))
                asking.append(lane)
            except StopIteration as done:
                results[lane] = done.value
        lanes = asking
        answers = test(lanes, steps) if lanes else []
    return results


def _solo(search, test):
    """The result of one search coroutine, each step tested by test(t): _lockstep on one lane."""
    try:
        t = next(search)
        while True:
            t = search.send(test(t))
    except StopIteration as done:
        return done.value


def hit_lower_bound(weights, rates, alpha, t_max):
    """A step in 1..t_max no later than the first L(t) <= alpha.

    L(t) = sum_i w_i r_i^{2t} with weights w_i >= 0 and rates r_i in
    [0, 1] is at least its largest term, so no step before max_i T_i,
    T_i = log(alpha / w_i) / (2 log r_i), reaches alpha. Terms with
    w_i <= alpha or r_i = 0 give T_i <= 0 and are skipped, as a step
    below 1 bounds nothing. The bound is lowered by one step against
    rounding and clamped to [1, t_max]. Where it is undefined (some rate
    is 1 or some weight is not finite) the bound is step 1. Evaluated
    on plain floats, one term at a time: it only picks where the search
    starts, never which step it finds.
    """
    log_alpha = math.log(alpha)
    end = -math.inf
    for w, r in zip(weights, rates):
        if r == 1.0 or not w < math.inf:
            return 1
        if w > alpha and r > 0.0:
            t = (log_alpha - math.log(w)) / (2.0 * math.log(r))
            if t > end:
                end = t
    if not math.isfinite(end):
        return 1
    return min(max(math.ceil(end) - 1, 1), t_max)


def level_set_search(
    loss, alpha, t_max, nonincreasing=True, limit=math.inf, start=1
):
    """First step t in 1..t_max with loss(t) <= alpha, as (t, StopStatus).

    loss(t) is the excess loss after t steps and must be convex in t.
    When it is also non-increasing, the search is _descent from step
    start, in O(log(t - start)) evaluations. Otherwise bisection on the
    sign of loss(t + 1) - loss(t) finds the minimiser t* first: the hit,
    if any, lies in [1, t*], where loss is non-increasing, and without
    one the run is Diverged at the first t >= t* with loss(t) > limit.
    These are exactly the step and status of stepping t = 1, 2, ...
    until loss(t) <= alpha (ties hit) or loss(t) > limit.
    """

    def below(t):
        return loss(t) <= alpha

    if nonincreasing:
        return _solo(_descent(t_max, start), below)
    bottom = _solo(_first_true(1, t_max - 1), lambda t: loss(t + 1) >= loss(t))
    if below(bottom):
        return _solo(_first_true(1, bottom), below), StopStatus.HIT_LEVEL_SET
    t = _solo(_first_true(bottom, t_max), lambda t: loss(t) > limit)
    if t <= t_max:
        return t, StopStatus.DIVERGED
    return t_max, StopStatus.MAX_STEPS_EXCEEDED


def _argument_error(eta, alpha, t_max):
    """The ValueError run_to_level_set raises on these arguments, or None."""
    if not (math.isfinite(eta) and eta > 0):
        return ValueError(f"step size must be finite and positive, got {eta!r}")
    if not (math.isfinite(alpha) and alpha > 0):
        return ValueError(f"level-set target must be finite and positive, got {alpha!r}")
    if t_max < 1:
        return ValueError("t_max must be at least 1")
    return None


def run_to_level_set(obj, theta0, eta, alpha, t_max):
    """Run GD until the excess train loss is <= alpha.

    Stops with HitLevelSet at the first step whose excess loss is <=
    alpha (ties included); flags Diverged when the loss exceeds 1e12
    times its initial value; MaxStepsExceeded at t_max otherwise. Raises
    AlreadyBelowLevelSet when theta0 already sits at or below the level
    set, and ValueError on a non-finite or non-positive eta or alpha.
    """
    error = _argument_error(eta, alpha, t_max)
    if error is not None:
        raise error
    iota = decompose(obj, theta0)
    sig = obj.spectrum.eigenvalues
    power = sig * iota * iota
    loss0 = 0.5 * float(power.sum())
    if loss0 <= alpha:
        raise AlreadyBelowLevelSet(
            f"initial excess loss {loss0:.3e} is already <= alpha {alpha:.3e}"
        )
    factors = 1.0 - eta * sig
    # Zero-weight directions never move the loss; dropping them keeps
    # 0 * inf out of the powers of |factor| > 1.
    live = power != 0
    sig_l, iota_l, fac_l, power_l = sig[live], iota[live], factors[live], power[live]
    evaluated = {}

    def loss(t):
        evaluated[t] = value = float(_losses(sig_l, iota_l, fac_l, t))
        return value

    rates = np.abs(fac_l)
    nonincreasing = bool(rates.max() <= 1.0)
    start = 1
    if nonincreasing:
        weights = 0.5 * power_l
        start = hit_lower_bound(weights.tolist(), rates.tolist(), alpha, int(t_max))
    # Powers of |factor| > 1 may overflow to inf: that is the Diverged case.
    with np.errstate(over="ignore", invalid="ignore"):
        steps, status = level_set_search(
            loss,
            float(alpha),
            int(t_max),
            nonincreasing=nonincreasing,
            limit=DIVERGENCE_FACTOR * loss0,
            start=start,
        )
        final = evaluated[steps] if steps in evaluated else loss(steps)
        mu = _final_mu(iota, factors, steps)
    return _level_set_run(obj, eta, alpha, steps, status, final, mu, iota)


def _level_set_run(obj, eta, alpha, steps, status, final, mu, iota):
    half_ok = final >= 0.5 * alpha if status is StopStatus.HIT_LEVEL_SET else None
    return GDRun(
        eta=eta,
        steps=steps,
        mu=mu,
        iota=iota,
        stop_status=status,
        objective=obj,
        final_excess=final,
        alpha=float(alpha),
        half_level_ok=half_ok,
    )


def level_set_runs(objs, iota, etas, alphas, t_maxes):
    """run_to_level_set on many lanes of one dimension, searched in lockstep.

    Lane k runs GD on objs[k] from the eigen-coefficients iota[k] (rows
    of an (L, n) array) at rate etas[k] to alphas[k] within t_maxes[k]
    steps. A lane with valid arguments, an initial loss above its target,
    weight on every direction and every |1 - eta sigma_i| <= 1 is
    searched by _descent from its hit_lower_bound, and gets the GDRun of
    run_to_level_set bit for bit. The first round evaluates every lane's
    start - 1, start and start + 1 at once, the steps a search tests when
    its bound sits one step before the hit, as it usually does. Any
    other lane gets None: run_to_level_set runs it alone.
    """
    sig = np.array([obj.spectrum.eigenvalues for obj in objs])
    power = sig * iota * iota
    loss0 = (0.5 * power.sum(axis=1)).tolist()
    factors = 1.0 - np.array(etas)[:, None] * sig
    rates = np.abs(factors)
    weighted_monotone = ((power != 0).all(axis=1) & (rates.max(axis=1) <= 1.0)).tolist()
    searched = [
        k
        for k, ok in enumerate(weighted_monotone)
        if ok
        and _argument_error(etas[k], alphas[k], t_maxes[k]) is None
        and loss0[k] > alphas[k]
    ]
    runs = [None] * len(objs)
    if not searched:
        return runs
    if len(searched) < len(objs):
        sig, iota, factors, power, rates = (
            a[searched] for a in (sig, iota, factors, power, rates)
        )
    targets = [alphas[k] for k in searched]
    limits = [int(t_maxes[k]) for k in searched]
    starts = [
        hit_lower_bound(w, r, alpha, t_max)
        for w, r, alpha, t_max in zip(
            (0.5 * power).tolist(), rates.tolist(), targets, limits
        )
    ]
    guesses = [
        [max(start - 1, 1) for start in starts],
        starts,
        [min(start + 1, t_max) for start, t_max in zip(starts, limits)],
    ]
    # Monotone lanes stay finite unless iota itself is huge; the one-lane
    # search silences the same warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        first = _losses(sig, iota, factors, guesses).tolist()
        evaluated = [dict(zip(ts, values)) for ts, values in zip(zip(*guesses), zip(*first))]

        def below(lanes, steps):
            missing = [(lane, t) for lane, t in zip(lanes, steps) if t not in evaluated[lane]]
            if missing:
                rows, ts = (list(x) for x in zip(*missing))
                values = _losses(sig[rows], iota[rows], factors[rows], ts).tolist()
                for lane, t, value in zip(rows, ts, values):
                    evaluated[lane][t] = value
            return [evaluated[lane][t] <= targets[lane] for lane, t in zip(lanes, steps)]

        found = _lockstep([_descent(*args) for args in zip(limits, starts)], below)
        mu = _final_mu(iota, factors, [t for t, _ in found])
    for lane, k in enumerate(searched):
        t, status = found[lane]
        runs[k] = _level_set_run(
            objs[k], etas[k], alphas[k], t, status, evaluated[lane][t], mu[lane], iota[lane]
        )
    return runs


def iterate(obj, theta0, eta, t):
    """Apply step() t times (the slow reference path for tests)."""
    theta = np.asarray(theta0, dtype=float)
    for _ in range(t):
        theta = step(obj, theta, eta)
    return theta
