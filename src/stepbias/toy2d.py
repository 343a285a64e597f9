"""Fully closed-form 2-D instance used as ground truth for the pipeline.

Train loss F(x, y) = 0.5 (sigma_1 x^2 + sigma_2 y^2) with optimum at the
origin; population loss R(x, y) = 0.5 (x^2 + y^2) (identity test
operator). Starting from (iota, iota), GD factorizes exactly:
(x_t, y_t) = ((1 - eta sigma_1)^t iota, (1 - eta sigma_2)^t iota).

The threshold formulas follow the companion sketch conventions verbatim
(including their alpha/(sigma iota) scaling, where the n-dimensional
analysis uses iota^2); the general forms live in regimes.RegimeRecord.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWindow, InvalidRegime
from .gd import StopStatus, level_set_search, run_to_level_set
from .quadratic import QuadraticObjective, evaluate
from .regimes import RegimeKind, rate_kind
from .spectral import diagonal_spectrum

ALIGN_SCAN = 400  # small-rate landing steps feasible_alpha tries


@dataclass(frozen=True)
class ToyInstance:
    sigma1: float
    sigma2: float
    iota: float = 1.0

    def __post_init__(self):
        if not self.sigma1 > self.sigma2 > 0:
            raise ValueError("toy instance needs sigma_1 > sigma_2 > 0")
        if self.iota == 0:
            raise ValueError("toy instance needs a nonzero initialization")

    @property
    def kappa(self):
        return self.sigma1 / self.sigma2

    def train_objective(self):
        return QuadraticObjective(
            diagonal_spectrum([self.sigma1, self.sigma2]), np.zeros(2)
        )

    def test_objective(self):
        return QuadraticObjective(
            diagonal_spectrum(np.ones(2), degenerate=True), np.zeros(2)
        )

    def theta0(self):
        return np.array([self.iota, self.iota])


def trajectory(inst, eta, t):
    """Exact GD iterate ((1-eta s1)^t iota, (1-eta s2)^t iota)."""
    if t < 0:
        raise ValueError("step count must be nonnegative")
    return (
        (1.0 - eta * inst.sigma1) ** t * inst.iota,
        (1.0 - eta * inst.sigma2) ** t * inst.iota,
    )


def _regime_kind(inst, eta, regime):
    """The requested Small or Big kind, if eta has it on the instance.

    eta is classified by regimes.rate_kind, the rule of classify_rate,
    on the two eigenvalues as floats. Raises InvalidRegime otherwise, a
    rate <= 0 included.
    """
    kind = RegimeKind(regime)
    actual = rate_kind(eta, 2.0 / (inst.sigma1 + inst.sigma2), 2.0 / inst.sigma1)
    if kind not in (RegimeKind.SMALL, RegimeKind.BIG) or actual is not kind:
        raise InvalidRegime(f"eta={eta} is {actual.value}, requested {kind.value}")
    return kind


def thresholds(inst, eta, alpha, regime):
    """Sketch-note step thresholds (t1, t2, t3) for one regime.

    t1 caps the off-direction mass (epsilon_s^2 <= sigma_2/(2 sigma_1)
    for Small, epsilon_b^2 <= 1/2 for Big); t2 and t3 bracket the steps
    at which the leading-direction loss passes through the level set.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    kind = _regime_kind(inst, eta, regime)
    a1 = abs(1.0 - eta * inst.sigma1)
    a2 = abs(1.0 - eta * inst.sigma2)
    iota = abs(inst.iota)
    if kind is RegimeKind.SMALL:
        # epsilon_s^2 = (a1/a2)^{2t} <= sigma_2 / (2 sigma_1).
        t1 = (
            1.0
            if a1 == 0.0
            else 0.5 * math.log(2 * inst.sigma1 / inst.sigma2) / math.log(a2 / a1)
        )
        lead_sigma, lead_a = inst.sigma2, a2
    else:
        # epsilon_b^2 = (a2/a1)^{2t} <= 1/2.
        t1 = 0.5 * math.log(0.5) / math.log(a2 / a1)
        lead_sigma, lead_a = inst.sigma1, a1
    t2 = 0.5 * math.log(alpha / (lead_sigma * iota)) / math.log(lead_a)
    t3 = 0.5 * math.log((4.0 / 3.0) * alpha / (lead_sigma * iota)) / math.log(lead_a)
    return t1, t2, t3


def excess_loss(inst, eta, t):
    """Exact excess train loss after t steps."""
    x, y = trajectory(inst, eta, t)
    return 0.5 * (inst.sigma1 * x * x + inst.sigma2 * y * y)


def _first_hit(inst, eta, level, name):
    """First step at which the exact loss at rate eta is <= level."""
    t, status = level_set_search(lambda t: excess_loss(inst, eta, t), level, 10**7)
    if status is not StopStatus.HIT_LEVEL_SET:
        raise InfeasibleWindow(f"{name}-rate loss never reaches the target")
    return t


def feasible_alpha(inst, eta_s, eta_b, target, margin=1.02):
    """Pick a level-set target near ``target`` on which the ratio test is safe.

    Discrete stopping lands the excess loss anywhere in (A^2 alpha,
    alpha], so an arbitrary alpha can make the small-rate run undershoot
    and lose the predicted R(theta_s)/R(theta_b) >= kappa margin. We
    align alpha just above a small-rate landing point and keep the first
    candidate whose predicted ratio clears kappa by ``margin``. Both
    regimes have every |1 - eta sigma_i| < 1, so each landing step is
    found by gd.level_set_search on the exact, non-increasing loss.
    """
    _regime_kind(inst, eta_s, RegimeKind.SMALL)
    _regime_kind(inst, eta_b, RegimeKind.BIG)
    t = _first_hit(inst, eta_s, target, "small")
    for candidate_t in range(t, t + ALIGN_SCAN):
        alpha = excess_loss(inst, eta_s, candidate_t) * (1.0 + 1e-9)
        if alpha <= 0:
            break
        tb = _first_hit(inst, eta_b, alpha, "big")
        xs, ys = trajectory(inst, eta_s, candidate_t)
        xb, yb = trajectory(inst, eta_b, tb)
        r_small = 0.5 * (xs * xs + ys * ys)
        r_big = 0.5 * (xb * xb + yb * yb)
        if r_big > 0 and r_small / r_big >= inst.kappa * margin:
            return alpha
    raise InfeasibleWindow("no aligned level-set target found in the scan range")


def ratio_check(inst, eta_s, eta_b, alpha, t_max):
    """Run both regimes to the alpha level set and compare test losses.

    Returns (measured R(theta_s)/R(theta_b), ratio >= sigma_1/sigma_2).
    The sketch claims the stronger constant (9/8) kappa; only the
    kappa multiple is asserted, the measured ratio is returned so the
    stronger constant can be observed.
    """
    for eta, kind in ((eta_s, RegimeKind.SMALL), (eta_b, RegimeKind.BIG)):
        t1, t2, _ = thresholds(inst, eta, alpha, kind)
        if t2 <= t1:
            raise InfeasibleWindow(
                f"level-set window infeasible for eta={eta}: t2={t2:.3f} <= t1={t1:.3f}"
            )
    train = inst.train_objective()
    test = inst.test_objective()
    theta0 = inst.theta0()
    runs = {}
    for name, eta in (("small", eta_s), ("big", eta_b)):
        run = run_to_level_set(train, theta0, eta, alpha, t_max)
        if run.stop_status is not StopStatus.HIT_LEVEL_SET:
            raise InfeasibleWindow(
                f"{name}-rate run stopped with {run.stop_status.value}"
            )
        runs[name] = run
    r_small = evaluate(test, runs["small"].theta)
    r_big = evaluate(test, runs["big"].theta)
    ratio = r_small / r_big
    return ratio, bool(ratio >= inst.kappa)
