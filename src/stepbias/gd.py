"""Gradient descent on quadratic objectives, in closed form.

Along eigendirection i the iterate obeys
mu_i(t) = iota_i * (1 - eta sigma_i)^t, where iota is the initial
eigen-coefficient vector of theta0 - optimum, so the excess train loss
after t steps is L(t) = 1/2 sum_i sigma_i iota_i^2 (1 - eta sigma_i)^{2t}.

A level-set run finds the first step with L(t) <= alpha without
stepping. L is a sum of exponentials in t, hence convex, and
non-increasing when every |1 - eta sigma_i| <= 1. In that case L is at
least its largest term w_i r_i^{2t} (w_i = sigma_i iota_i^2 / 2,
r_i = |1 - eta sigma_i|), which gives a closed-form step no later than
the hit (hit_lower_bound); one loss evaluation confirms it, and
exponential search from it and bisection find the hit step, in about
three evaluations when one direction dominates the loss at the hit. An
unconfirmed bound falls back to the search from step 1. Otherwise
bisection on the sign of L(t + 1) - L(t) finds the minimiser first.

The search is a coroutine (_search) that names each step whose loss it
reads and is sent that loss. One loop, _lockstep, runs every search:
level_set_lanes drives the searches of many lanes, padded to one width,
side by side in one pass, each round's losses being rows of one array
expression, with the loss bits of each lane run alone, and gives them
as columns (LevelSetLanes), which the certify path and the kernel
sweeps read as they are; run_to_level_set builds the GDRun of its one
lane; level_set_search drives one search of a scalar loss. A dead
direction (sigma_i iota_i^2 == 0) enters the search with coefficient 0
and factor 0: an exact 0 in every L(t).

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
from .spectral import padded, row_sums

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

    One int step is ``factors ** step``. A list of steps broadcasts
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


def _first(lo, hi, holds):
    """Search coroutine: the smallest t in [lo, hi] where holds(L(t)), or hi + 1.

    It yields each step and is sent L(t); holds must be false, then true.
    """
    while lo <= hi:
        mid = (lo + hi) // 2
        if holds((yield mid)):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


def _search(alpha, t_max, start, limit):
    """Search coroutine: the first step in 1..t_max with L(t) <= alpha, as (t, StopStatus).

    It yields each step whose loss it reads, the returned one included,
    and is sent L(t); L is convex. start is a step no later than the hit
    if L does not increase, else None. Then exponential search from start
    and bisection find the hit; the first test checks the start
    (L(start - 1) > alpha), and a failed check restarts from step 1.
    Otherwise bisection on the sign of L(t + 1) - L(t) finds the
    minimiser t* first: the hit, if any, lies in [1, t*], and without one
    the run is Diverged at the first t >= t* with L(t) > limit. These are
    the step and status of stepping until L(t) <= alpha (ties hit) or
    L(t) > limit.
    """

    def below(loss):
        return loss <= alpha

    if start is None:
        lo, hi = 1, t_max - 1
        while lo <= hi:
            mid = (lo + hi) // 2
            if (yield mid + 1) >= (yield mid):
                hi = mid - 1
            else:
                lo = mid + 1
        if below((yield lo)):
            return (yield from _first(1, lo, below)), StopStatus.HIT_LEVEL_SET
        t = yield from _first(lo, t_max, lambda loss: loss > limit)
        if t <= t_max:
            return t, StopStatus.DIVERGED
        yield t_max  # the final loss
        return t_max, StopStatus.MAX_STEPS_EXCEEDED
    if start > 1 and (yield start - 1) <= alpha:
        start = 1
    lo = hi = start
    while (yield hi) > alpha:
        if hi == t_max:
            return t_max, StopStatus.MAX_STEPS_EXCEEDED
        lo, hi = hi + 1, min(2 * hi - start + 1, t_max)
    # L(hi) <= alpha, so only [lo, hi - 1] is left to search.
    return (yield from _first(lo, hi - 1, below)), StopStatus.HIT_LEVEL_SET


def _lockstep(searches, losses, known):
    """Run search coroutines side by side; their results, in order.

    known[k] maps steps to the losses search k has got; a known step is
    answered at once. Each round answers the unknown steps asked with
    one call losses(lanes, steps), each lane's loss at its step.
    """
    results = [None] * len(searches)
    lanes = list(range(len(searches)))
    answers = [None] * len(searches)
    while lanes:
        asking, steps = [], []
        for lane, answer in zip(lanes, answers):
            search, seen = searches[lane], known[lane]
            try:
                t = search.send(answer)
                while t in seen:
                    t = search.send(seen[t])
            except StopIteration as done:
                results[lane] = done.value
                continue
            asking.append(lane)
            steps.append(t)
        lanes = asking
        answers = losses(lanes, steps) if lanes else []
        for lane, t, loss in zip(lanes, steps, answers):
            known[lane][t] = loss
    return results


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


def level_set_search(loss, alpha, t_max, start):
    """First step t in 1..t_max with loss(t) <= alpha, as (t, StopStatus).

    loss(t) is the excess loss after t steps, convex and non-increasing
    in t; start is a step no later than the hit (see _search).
    """
    search = _search(alpha, t_max, start, math.inf)
    (found,) = _lockstep([search], lambda lanes, steps: [loss(t) for t in steps], [{}])
    return found


def _argument_error(eta, alpha, t_max, loss0):
    """The ValueError on the arguments, else AlreadyBelowLevelSet if loss0 <= alpha, or None."""
    if not (math.isfinite(eta) and eta > 0):
        return ValueError(f"step size must be finite and positive, got {eta!r}")
    if not (math.isfinite(alpha) and alpha > 0):
        return ValueError(f"level-set target must be finite and positive, got {alpha!r}")
    if t_max < 1:
        return ValueError("t_max must be at least 1")
    if loss0 <= alpha:
        return AlreadyBelowLevelSet(
            f"initial excess loss {loss0:.3e} is already <= alpha {alpha:.3e}"
        )
    return None


def run_to_level_set(obj, theta0, eta, alpha, t_max):
    """Run GD until the excess train loss is <= alpha.

    Stops with HitLevelSet at the first step whose excess loss is <=
    alpha (ties included); flags Diverged when the loss exceeds 1e12
    times its initial value; MaxStepsExceeded at t_max otherwise. Raises
    AlreadyBelowLevelSet when theta0 already sits at or below the level
    set, and ValueError on a non-finite or non-positive eta or alpha.
    """
    iota = decompose(obj, theta0)
    lanes = level_set_lanes(obj.spectrum.eigenvalues[None], iota[None], [eta], [alpha], [t_max])
    (status,) = lanes.outcome
    if not isinstance(status, StopStatus):
        raise status
    return GDRun(
        eta=eta,
        steps=lanes.steps.item(),
        mu=lanes.mu[0],
        iota=iota,
        stop_status=status,
        objective=obj,
        final_excess=lanes.final.item(),
        alpha=float(alpha),
        half_level_ok=lanes.half_level_ok.item() if status is StopStatus.HIT_LEVEL_SET else None,
    )


@dataclass(frozen=True)
class LevelSetLanes:
    """Level-set searches of a stack of lanes, a column per field, row k lane k.

    eta and alpha list each lane's rate and target as given; iota and mu
    are its initial and final eigen-coefficients, spectral.padded to one
    width (mu is iota on a failed lane); steps its step count and final
    the excess loss the search evaluated there (0 and NaN on a failed
    lane); outcome its StopStatus, or the ValueError or
    AlreadyBelowLevelSet it fails with, for the caller to raise.
    """

    eta: list
    alpha: list
    iota: np.ndarray
    mu: np.ndarray
    steps: np.ndarray
    outcome: list
    final: np.ndarray

    @classmethod
    def of(cls, runs, starts):
        """The lanes of finished runs: runs[k] a GDRun, or the error of a lane from starts[k]."""
        ran = [isinstance(run, GDRun) for run in runs]
        width = max(map(len, starts))
        iota = padded([run.iota if ok else s for run, ok, s in zip(runs, ran, starts)], width)
        mu = padded([run.mu if ok else s for run, ok, s in zip(runs, ran, starts)], width)
        eta, alpha, steps, outcome, final = zip(*[
            (run.eta, run.alpha, run.steps, run.stop_status, run.final_excess) if ok
            else (math.nan, None, 0, run, None)
            for run, ok in zip(runs, ran)
        ])
        final = np.array([math.nan if f is None else f for f in final], dtype=float)
        return cls(list(eta), list(alpha), iota, mu, np.array(steps), list(outcome), final)

    @property
    def half_level_ok(self):
        """Whether each lane hit its level set with a final excess loss >= alpha/2."""
        hit = np.array([o is StopStatus.HIT_LEVEL_SET for o in self.outcome], dtype=bool)
        alpha = np.array([math.nan if a is None else a for a in self.alpha], dtype=float)
        return hit & (self.final >= 0.5 * alpha)


def level_set_lanes(sig, iota, etas, alphas, t_maxes):
    """run_to_level_set on many lanes, searched in lockstep, as LevelSetLanes columns.

    Lane k runs GD on the eigenvalues sig[k] from the eigen-coefficients
    iota[k] (rows of (L, width) arrays, spectral.padded from each lane's
    n) at rate etas[k] to alphas[k] within t_maxes[k] steps. Its outcome
    is its StopStatus, or its ValueError or AlreadyBelowLevelSet for the
    caller to raise. Every other lane is searched in one pass. A dead
    direction (sigma_i iota_i^2 == 0, padding included) never moves the
    loss, so the search sees it with coefficient 0 and factor 0: it adds
    an exact 0 to L(t), never 0 * inf, and at rate 0 it bounds no step.
    A lane with every |factor| <= 1 searches from its hit_lower_bound.
    One evaluation spares rounds: it gives each lane L at the first three
    steps its search asks if its tests fail (start - 1, start, start + 1,
    or 1, 2, 4), and a bound usually sits one step before the hit. mu
    comes from the lane's own iota and factors.
    """
    power = sig * iota * iota
    loss0 = (0.5 * row_sums(power)).tolist()
    outcome = [_argument_error(*args) for args in zip(etas, alphas, t_maxes, loss0)]
    steps, final = np.zeros(len(outcome), dtype=int), np.full(len(outcome), math.nan)
    mu = iota.copy()
    lanes = [k for k, error in enumerate(outcome) if error is None]
    if not lanes:
        return LevelSetLanes(list(etas), list(alphas), iota, mu, steps, outcome, final)
    sig, live_iota, power = sig[lanes], iota[lanes], power[lanes]
    factors = 1.0 - np.array(etas, dtype=float)[lanes, None] * sig
    dead = power == 0
    live_iota, live_factors = np.where(dead, 0.0, live_iota), np.where(dead, 0.0, factors)
    targets, t_caps, limits = zip(
        *[(alphas[k], int(t_maxes[k]), DIVERGENCE_FACTOR * loss0[k]) for k in lanes]
    )
    weights, rates = (0.5 * power).tolist(), np.abs(live_factors).tolist()
    starts = [
        hit_lower_bound(w, r, alpha, t_max) if max(r) <= 1.0 else None
        for w, r, alpha, t_max in zip(weights, rates, targets, t_caps)
    ]
    guesses = [
        [min(t, t_max) for t in ((s - 1, s, s + 1) if s and s > 1 else (1, 2, 4))]
        for s, t_max in zip(starts, t_caps)
    ]

    def losses(rows, steps):
        arrays = sig, live_iota, live_factors
        if len(rows) < len(sig):
            arrays = (a.take(rows, axis=0) for a in arrays)
        return _losses(*arrays, steps).tolist()

    searches = [_search(*args) for args in zip(targets, t_caps, starts, limits)]
    # Powers of |factor| > 1 may overflow to inf: that is the Diverged case.
    with np.errstate(over="ignore", invalid="ignore"):
        values = _losses(sig, live_iota, live_factors, list(zip(*guesses))).tolist()
        known = [dict(zip(ts, vs)) for ts, vs in zip(guesses, zip(*values))]
        found = _lockstep(searches, losses, known)
        mu[lanes] = _final_mu(iota[lanes], factors, [t for t, _ in found])
    for k, (t, status), seen in zip(lanes, found, known):
        steps[k], final[k], outcome[k] = t, seen[t], status
    return LevelSetLanes(list(etas), list(alphas), iota, mu, steps, outcome, final)


def iterate(obj, theta0, eta, t):
    """Apply step() t times (the slow reference path for tests)."""
    theta = np.asarray(theta0, dtype=float)
    for _ in range(t):
        theta = step(obj, theta, eta)
    return theta
