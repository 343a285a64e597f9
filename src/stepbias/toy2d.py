"""Fully closed-form 2-D instance used as ground truth for the pipeline.

Train loss F(x, y) = 0.5 (sigma_1 x^2 + sigma_2 y^2) with optimum at the
origin; population loss R(x, y) = 0.5 (x^2 + y^2) (identity test
operator). Starting from (iota, iota), GD factorizes exactly:
(x_t, y_t) = ((1 - eta sigma_1)^t iota, (1 - eta sigma_2)^t iota).
Every landing step and test loss below is computed from that form.

The threshold formulas follow the companion sketch conventions verbatim
(including their alpha/(sigma iota) scaling, where the n-dimensional
analysis uses iota^2); the general forms live in records.RegimeRecord.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWindow, InvalidRegime, ZeroDenominator
from .gd import StopStatus, _argument_error, hit_lower_bound, level_set_search
from .quadratic import QuadraticObjective
from .records import RegimeKind, _log_quotient, rate_kind
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

    eta is classified by records.rate_kind on the two eigenvalues as
    floats. Raises InvalidRegime otherwise, a rate <= 0 included.
    """
    kind = RegimeKind(regime)
    actual = rate_kind(eta, 2.0 / (inst.sigma1 + inst.sigma2), 2.0 / inst.sigma1)
    if kind not in (RegimeKind.SMALL, RegimeKind.BIG) or actual is not kind:
        raise InvalidRegime(f"eta={eta} is {actual.value}, requested {kind.value}")
    return kind


def _t1(log_target, a2, a1):
    """0.5 log_target / log(a2 / a1), the step where (a2/a1)^{2t} reaches the target."""
    log_ratio = _log_quotient((a2,), (a1,))
    if log_ratio == 0.0:
        raise InfeasibleWindow(
            f"t1 is undefined: the factors {a1!r} and {a2!r} decay alike in floats"
        )
    return 0.5 * log_target / log_ratio


def thresholds(inst, eta, alpha, regime):
    """Sketch-note step thresholds (t1, t2, t3) for one regime.

    t1 caps the off-direction mass (epsilon_s^2 <= sigma_2/(2 sigma_1)
    for Small, epsilon_b^2 <= 1/2 for Big); t2 and t3 bracket the steps
    at which the leading-direction loss passes through the level set.
    Raises InfeasibleWindow where a threshold is undefined in floats: a
    leading factor |1 - eta sigma| that rounds to 0 or 1, or two factors
    whose quotient rounds to 1.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    kind = _regime_kind(inst, eta, regime)
    a1 = abs(1.0 - eta * inst.sigma1)
    a2 = abs(1.0 - eta * inst.sigma2)
    iota = abs(inst.iota)
    lead_sigma, lead_a = (inst.sigma2, a2) if kind is RegimeKind.SMALL else (inst.sigma1, a1)
    if not 0.0 < lead_a < 1.0:
        raise InfeasibleWindow(
            f"level-set window undefined for eta={eta}: the leading factor is {lead_a!r}"
        )
    if kind is RegimeKind.BIG:
        # epsilon_b^2 = (a2/a1)^{2t} <= 1/2.
        t1 = _t1(math.log(0.5), a2, a1)
    elif a1 == 0.0:
        t1 = 1.0
    else:
        # epsilon_s^2 = (a1/a2)^{2t} <= sigma_2 / (2 sigma_1).
        t1 = _t1(_log_quotient((2 * inst.sigma1,), (inst.sigma2,)), a2, a1)
    decay = math.log(lead_a)
    t2 = 0.5 * _log_quotient((alpha,), (lead_sigma, iota)) / decay
    t3 = 0.5 * _log_quotient(((4.0 / 3.0) * alpha,), (lead_sigma, iota)) / decay
    return t1, t2, t3


def excess_loss(inst, eta, t):
    """Exact excess train loss after t steps."""
    x, y = trajectory(inst, eta, t)
    return 0.5 * (inst.sigma1 * x * x + inst.sigma2 * y * y)


def _first_hit(inst, eta, level, name, t_max=10**7, start=None):
    """First step in 1..t_max at which the exact loss at rate eta is <= level.

    The search starts at start, else at gd.hit_lower_bound of the loss's two terms.
    """
    if start is None:
        sigmas = (inst.sigma1, inst.sigma2)
        weights = [0.5 * s * inst.iota**2 for s in sigmas]
        start = hit_lower_bound(weights, [abs(1.0 - eta * s) for s in sigmas], level, t_max)
    t, status = level_set_search(lambda t: excess_loss(inst, eta, t), level, t_max, start)
    if status is not StopStatus.HIT_LEVEL_SET:
        raise InfeasibleWindow(f"{name}-rate run stopped with {status.value}")
    return t


def _test_losses(inst, eta_s, eta_b, alpha, t_max, start_s=None):
    """[R(theta_s), R(theta_b)] at the landings on the alpha level set, the small one from start_s."""
    losses = []
    for eta, name, start in ((eta_s, "small", start_s), (eta_b, "big", None)):
        x, y = trajectory(inst, eta, _first_hit(inst, eta, alpha, name, t_max, start))
        losses.append(0.5 * (x * x + y * y))
    return losses


def _scan(inst, eta_s, eta_b, target, margin):
    """(alpha, R(theta_s), R(theta_b)) of the candidate feasible_alpha accepts."""
    _regime_kind(inst, eta_s, RegimeKind.SMALL)
    _regime_kind(inst, eta_b, RegimeKind.BIG)
    t = _first_hit(inst, eta_s, target, "small")
    for candidate_t in range(t, t + ALIGN_SCAN):
        alpha = excess_loss(inst, eta_s, candidate_t) * (1.0 + 1e-9)
        if alpha <= 0:
            break
        r_small, r_big = _test_losses(inst, eta_s, eta_b, alpha, 10**7, min(candidate_t, 10**7))
        if r_big > 0 and r_small / r_big >= inst.kappa * margin:
            return alpha, r_small, r_big
    raise InfeasibleWindow("no aligned level-set target found in the scan range")


def feasible_alpha(inst, eta_s, eta_b, target, margin):
    """Pick a level-set target near ``target`` on which the ratio test is safe.

    Discrete stopping lands the excess loss anywhere in (A^2 alpha,
    alpha], so an arbitrary alpha can make the small-rate run undershoot
    and lose the R(theta_s)/R(theta_b) >= kappa margin. We align alpha
    just above a small-rate landing point and keep the first candidate
    whose measured ratio, the one ratio_check reports at that alpha,
    clears kappa by ``margin``. Each landing is searched within 10^7
    steps, as ratio_check searches it; the small one from candidate_t,
    where alpha >= L(candidate_t) lands it but for a near-flat loss.
    """
    return _scan(inst, eta_s, eta_b, target, margin)[0]


def _check_window(inst, eta_s, eta_b, alpha, t_max):
    """Raise ratio_check's refusals before its searches: an empty window, then a bad argument."""
    for eta, kind in ((eta_s, RegimeKind.SMALL), (eta_b, RegimeKind.BIG)):
        t1, t2, _ = thresholds(inst, eta, alpha, kind)
        if t2 <= t1:
            raise InfeasibleWindow(
                f"level-set window infeasible for eta={eta}: t2={t2:.3f} <= t1={t1:.3f}"
            )
    error = _argument_error(eta_s, alpha, t_max, excess_loss(inst, eta_s, 0))
    if error is not None:
        raise error


def _ratio(inst, r_small, r_big):
    """(r_small / r_big, ratio >= kappa); ZeroDenominator where the ratio is not finite."""
    ratio = r_small / r_big if r_big else math.inf
    if ratio == math.inf:
        raise ZeroDenominator(f"the big-rate test loss {r_big!r} leaves no finite ratio")
    return ratio, bool(ratio >= inst.kappa)


def ratio_check(inst, eta_s, eta_b, alpha, t_max):
    """Run both regimes to the alpha level set and compare test losses.

    Returns (measured R(theta_s)/R(theta_b), ratio >= sigma_1/sigma_2);
    raises ZeroDenominator where R(theta_b) is too small for a finite ratio.
    The sketch claims the stronger constant (9/8) kappa; only the
    kappa multiple is asserted, the measured ratio is returned so the
    stronger constant can be observed.
    """
    _check_window(inst, eta_s, eta_b, alpha, t_max)
    return _ratio(inst, *_test_losses(inst, eta_s, eta_b, alpha, t_max))


def aligned_ratio_check(inst, eta_s, eta_b, target, margin):
    """(alpha, ratio, passes): feasible_alpha's alpha and ratio_check's result there at t_max 10^7.

    Each landing is searched once: the ratio is the one the scan accepted,
    and the refusals are those of feasible_alpha, then ratio_check.
    """
    alpha, r_small, r_big = _scan(inst, eta_s, eta_b, target, margin)
    _check_window(inst, eta_s, eta_b, alpha, 10**7)
    return (alpha, *_ratio(inst, r_small, r_big))
