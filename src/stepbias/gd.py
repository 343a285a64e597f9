"""Gradient descent on quadratic objectives, iterative and closed form.

Along eigendirection i the iterate obeys
mu_i(t) = iota_i * (1 - eta sigma_i)^t, where iota is the initial
eigen-coefficient vector of theta0 - optimum. run_to_level_set stops as
soon as the excess train loss drops to the target alpha and reports
whether the run also stayed above alpha/2 (the half-level condition is
reported, never enforced).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .errors import AlreadyBelowLevelSet
from .quadratic import _check_dim, excess, grad

DIVERGENCE_FACTOR = 1e12


class StopStatus(enum.Enum):
    HIT_LEVEL_SET = "HitLevelSet"
    MAX_STEPS_EXCEEDED = "MaxStepsExceeded"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class GDRun:
    """Record of one gradient-descent trajectory.

    mu holds the final per-eigendirection coefficients of
    theta - optimum; iota the initial ones. loss_trace stores the excess
    train loss after each step (possibly decimated by trace_stride).
    half_level_ok is None unless the run targeted a level set, in which
    case it reports whether the final excess loss is >= alpha/2.
    """

    eta: float
    steps: int
    mu: np.ndarray
    iota: np.ndarray
    loss_trace: np.ndarray
    stop_status: StopStatus
    theta: np.ndarray
    alpha: float | None = None
    half_level_ok: bool | None = None

    @property
    def final_excess(self):
        return float(self.loss_trace[-1]) if self.loss_trace.size else None


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


def closed_form(obj, theta0, eta, t):
    """Exact GD iterate after t steps via per-direction powers."""
    if t < 0:
        raise ValueError("step count must be nonnegative")
    iota = decompose(obj, theta0)
    sig = obj.spectrum.eigenvalues
    factors = 1.0 - eta * sig
    mu = iota * factors**t
    powers = np.power.outer(factors, np.arange(1, t + 1))
    trace = 0.5 * np.sum(sig[:, None] * (iota[:, None] * powers) ** 2, axis=0)
    return GDRun(
        eta=eta,
        steps=t,
        mu=mu,
        iota=iota,
        loss_trace=trace,
        stop_status=StopStatus.MAX_STEPS_EXCEEDED,
        theta=reconstruct(obj, mu),
    )


def _level_set_run(sigma, mu0, eta, alpha, t_max, divergence_limit):
    """Iterate GD in eigen-coordinates until the excess loss reaches alpha.

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


def run_to_level_set(obj, theta0, eta, alpha, t_max, trace_stride=1):
    """Iterate GD until the excess train loss is <= alpha.

    Stops with HitLevelSet at the first step whose excess loss is <=
    alpha (ties included); flags Diverged when the loss exceeds 1e12
    times its initial value; MaxStepsExceeded otherwise. Raises
    AlreadyBelowLevelSet when theta0 already sits at or below the level
    set.
    """
    if alpha <= 0:
        raise ValueError("level-set target must be positive")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    iota = decompose(obj, theta0)
    sig = obj.spectrum.eigenvalues
    loss0 = 0.5 * float(np.sum(sig * iota * iota))
    if loss0 <= alpha:
        raise AlreadyBelowLevelSet(
            f"initial excess loss {loss0:.3e} is already <= alpha {alpha:.3e}"
        )
    steps, mu, trace, status = _level_set_run(
        sig, iota, float(eta), float(alpha), int(t_max), DIVERGENCE_FACTOR * loss0
    )
    final = float(trace[-1])
    half_ok = final >= 0.5 * alpha if status is StopStatus.HIT_LEVEL_SET else None
    if trace_stride > 1:
        decimated = trace[trace_stride - 1 :: trace_stride]
        if steps % trace_stride != 0:
            decimated = np.concatenate([decimated, [final]])
        trace = decimated
    return GDRun(
        eta=eta,
        steps=steps,
        mu=mu,
        iota=iota,
        loss_trace=trace,
        stop_status=status,
        theta=reconstruct(obj, mu),
        alpha=float(alpha),
        half_level_ok=half_ok,
    )


def iterate(obj, theta0, eta, t):
    """Apply step() t times (the slow reference path for tests)."""
    theta = np.asarray(theta0, dtype=float)
    for _ in range(t):
        theta = step(obj, theta, eta)
    return theta


def excess_loss(obj, theta):
    """Excess train loss, re-exported for callers holding a run."""
    return excess(obj, theta)
