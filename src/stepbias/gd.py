"""Gradient descent on quadratic objectives, in closed form.

Along eigendirection i the iterate obeys
mu_i(t) = iota_i * (1 - eta sigma_i)^t, where iota is the initial
eigen-coefficient vector of theta0 - optimum, so the excess train loss
after t steps is L(t) = 1/2 sum_i sigma_i iota_i^2 (1 - eta sigma_i)^{2t}.

run_to_level_set finds the first step with L(t) <= alpha without
stepping: L is a sum of exponentials in t, hence convex, and
non-increasing when every |1 - eta sigma_i| <= 1. In that case L is at
least its largest term w_i r_i^{2t} (w_i = sigma_i iota_i^2 / 2,
r_i = |1 - eta sigma_i|), which gives a closed-form step no later than
the hit; one loss evaluation confirms it, and exponential search from
it and bisection find the hit step, in O(n log t_max) work and, when one
direction dominates the loss at the hit, in about three evaluations. An
unconfirmed bound falls back to the search from step 1. The bound is
evaluated on plain floats, since it only picks where the search starts;
the loss stays a numpy expression, evaluated once per step. It also
reports whether the run stayed above alpha/2 (the half-level condition
is reported, never enforced). The final loss is the one the search
evaluated at the returned step. The final iterate and the per-step loss
trace of a run are computed only when they are read.
"""

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AlreadyBelowLevelSet
from .quadratic import QuadraticObjective, _check_dim, grad

DIVERGENCE_FACTOR = 1e12


class StopStatus(enum.Enum):
    HIT_LEVEL_SET = "HitLevelSet"
    MAX_STEPS_EXCEEDED = "MaxStepsExceeded"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class GDRun:
    """Record of one gradient-descent trajectory.

    mu holds the final per-eigendirection coefficients of
    theta - optimum; iota the initial ones; sigma the eigenvalues of the
    train operator; objective the train objective the run descends.
    final_excess is the excess train loss after the last step (None
    after zero steps). half_level_ok is None unless the run targeted a
    level set, in which case it reports whether the final excess loss is
    >= alpha/2.
    """

    eta: float
    steps: int
    mu: np.ndarray
    iota: np.ndarray
    sigma: np.ndarray
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
        t = np.arange(1, self.steps + 1)
        trace = np.zeros(self.steps)
        with np.errstate(over="ignore"):
            for s, i, f in zip(self.sigma, self.iota, 1.0 - self.eta * self.sigma):
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
    return obj.spectrum.eigenvectors.T @ (theta - obj.optimum)


def reconstruct(obj, mu):
    """Inverse of decompose: optimum + sum_i mu_i e_i."""
    return obj.optimum + obj.spectrum.eigenvectors @ mu


def _final_mu(iota, factors, steps):
    """iota * factors**steps, with 0 (not 0 * inf) on zero coefficients.

    Callers silence numpy's overflow and invalid-value warnings around it.
    """
    mu = iota * factors**steps
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
        sigma=sig,
        stop_status=StopStatus.MAX_STEPS_EXCEEDED,
        objective=obj,
        final_excess=0.5 * float(np.sum(sig * mu * mu)) if t else None,
    )


def _first_true(pred, lo, hi):
    """Smallest t in [lo, hi] with pred(t), or hi + 1 if there is none.

    pred must be false then true on [lo, hi] (monotone).
    """
    while lo <= hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


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
    When it is also non-increasing, exponential search from step start
    and bisection find the hit in O(log(t - start)) evaluations; start
    must be a step no later than the hit, which one evaluation checks
    (loss(start - 1) > alpha), and the search starts from step 1 when
    the check fails. Otherwise bisection on the sign of
    loss(t + 1) - loss(t) finds the minimiser t* first: the hit, if any,
    lies in [1, t*], where loss is non-increasing, and without one the
    run is Diverged at the first t >= t* with loss(t) > limit.
    These are exactly the step and status of stepping t = 1, 2, ...
    until loss(t) <= alpha (ties hit) or loss(t) > limit.
    """

    def below(t):
        return loss(t) <= alpha

    if nonincreasing:
        if start > 1 and below(start - 1):
            start = 1
        lo = hi = start
        while not below(hi):
            if hi == t_max:
                return t_max, StopStatus.MAX_STEPS_EXCEEDED
            lo, hi = hi + 1, min(2 * hi - start + 1, t_max)
        # below(hi) holds, so only [lo, hi - 1] is left to search.
        return _first_true(below, lo, hi - 1), StopStatus.HIT_LEVEL_SET
    bottom = _first_true(lambda t: loss(t + 1) >= loss(t), 1, t_max - 1)
    if below(bottom):
        return _first_true(below, 1, bottom), StopStatus.HIT_LEVEL_SET
    t = _first_true(lambda t: loss(t) > limit, bottom, t_max)
    if t <= t_max:
        return t, StopStatus.DIVERGED
    return t_max, StopStatus.MAX_STEPS_EXCEEDED


def run_to_level_set(obj, theta0, eta, alpha, t_max):
    """Run GD until the excess train loss is <= alpha.

    Stops with HitLevelSet at the first step whose excess loss is <=
    alpha (ties included); flags Diverged when the loss exceeds 1e12
    times its initial value; MaxStepsExceeded at t_max otherwise. Raises
    AlreadyBelowLevelSet when theta0 already sits at or below the level
    set, and ValueError on a non-finite or non-positive eta or alpha.
    """
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"step size must be finite and positive, got {eta!r}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"level-set target must be finite and positive, got {alpha!r}")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
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
        mu_t = iota_l * fac_l**t
        evaluated[t] = value = 0.5 * float((sig_l * mu_t * mu_t).sum())
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
    half_ok = final >= 0.5 * alpha if status is StopStatus.HIT_LEVEL_SET else None
    return GDRun(
        eta=eta,
        steps=steps,
        mu=mu,
        iota=iota,
        sigma=sig,
        stop_status=status,
        objective=obj,
        final_excess=final,
        alpha=float(alpha),
        half_level_ok=half_ok,
    )


def iterate(obj, theta0, eta, t):
    """Apply step() t times (the slow reference path for tests)."""
    theta = np.asarray(theta0, dtype=float)
    for _ in range(t):
        theta = step(obj, theta, eta)
    return theta
