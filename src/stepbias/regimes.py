"""Learning-rate regimes, epsilon ratios, step windows and the bound certificate.

This module holds everything quantitative about the small-rate /
big-rate dichotomy: the attenuation coefficient |1 - eta sigma|, the
regime partition at 2/(sigma_1+sigma_n) and 2/sigma_1, the technical
level-set ceiling alpha_1, the step windows (t1, t2, t3) inside which a
level-set run concentrates on its distinguished eigendirection, and the
final certificate comparing the test losses of the two regimes against
the 34 (kappa_R / kappa_F) bound.

An instance's spectral numbers are derived once, by regime_record, into
a frozen RegimeRecord of plain floats (kappa_F, kappa_R, thresholds,
rate kinds, attenuations, log gaps, both alpha_1 readings, each t1);
RegimeRecord.windows adds t2 and t3 for a target alpha. random_instances
derives one per attempt; check_assumptions and certify share one
pair_record, built from the runs' iota = V^T (theta0 - optimum).

Attenuation comparisons use magnitudes |1 - eta sigma_i| throughout:
for big rates the raw coefficient of sigma_2 can be negative and a
signed max would pick the wrong direction.
"""

import enum
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InfeasibleWindow,
    InvalidRegime,
    LevelSetMismatch,
    RegimeMismatch,
    ZeroDenominator,
)
from .gd import StopStatus, decompose
from .quadratic import evaluate
from .spectral import condition_number

BOUNDARY_RTOL = 1e-12
UNDERFLOW_GUARD = 1e-300


class RegimeKind(enum.Enum):
    SMALL = "Small"
    BIG = "Big"
    DIVERGENT = "Divergent"
    BOUNDARY = "Boundary"
    NOT_POSITIVE = "NotPositive"


def rate_kind(eta, low, high):
    """Kind of the rate eta between the thresholds low and high.

    With low = 2/(sigma_1+sigma_n) and high = 2/sigma_1 as floats: Small
    below low, Big up to high, Divergent beyond, and Boundary within
    1e-12 relative of either threshold. A rate <= 0 is NotPositive:
    gradient descent does not descend.
    """
    if eta <= 0:
        return RegimeKind.NOT_POSITIVE
    if abs(eta - low) <= BOUNDARY_RTOL * low or abs(eta - high) <= BOUNDARY_RTOL * high:
        return RegimeKind.BOUNDARY
    if eta < low:
        return RegimeKind.SMALL
    if eta < high:
        return RegimeKind.BIG
    return RegimeKind.DIVERGENT


def _mass_ratio(lead, rest):
    """Squared mass ratio off the distinguished direction, an epsilon ratio.

    sum(rest_i^2) / lead^2, as the sum of (rest_i / lead)^2: Big takes
    lead mu_1 and rest mu_2..mu_n, Small lead mu_n and rest mu_1..mu_{n-1}.
    """
    if abs(lead) < UNDERFLOW_GUARD:
        raise ZeroDenominator(
            "distinguished coefficient underflowed below 1e-300"
        )
    # A ratio past 1e154 squares to inf, as it should: no warning.
    with np.errstate(over="ignore"):
        ratio = rest / lead
        ratio *= ratio
    return float(ratio.sum())


@dataclass(frozen=True)
class StepWindow:
    """Real-valued step thresholds for a level-set run.

    t >= t1 forces the epsilon bound; the level-set condition forces
    t2 < t < t3. feasible requires t2 > t1; window_empty flags the case
    where (t2, t3) contains no integer.
    """

    t1: float
    t2: float
    t3: float

    @property
    def feasible(self):
        return self.t2 > self.t1

    @property
    def window_empty(self):
        return math.ceil(self.t2) > math.floor(self.t3)


@dataclass(frozen=True)
class RegimeRecord:
    """Spectral numbers of one (train spectrum, kappa_R, eta_s, eta_b, iota).

    Suffixes _s and _b name the Small and Big regimes. lead is the
    attenuation on the distinguished direction, gap log(lead / second
    attenuation), scale sigma iota^2 on that direction. Fields from
    lead_s on are NaN outside the theorem's domain (see regime_record);
    r_opt is R(theta_hat) in a pair_record, NaN otherwise.
    """

    eta_s: float
    eta_b: float
    kappa_F: float
    kappa_R: float
    threshold_low: float
    threshold_high: float
    kind_s: RegimeKind
    kind_b: RegimeKind
    iota_1: float
    iota_n: float
    r_opt: float
    lead_s: float = math.nan
    lead_b: float = math.nan
    gap_s: float = math.nan
    gap_b: float = math.nan
    scale_s: float = math.nan
    scale_b: float = math.nan
    t1_s: float = math.nan
    t1_b: float = math.nan
    alpha_1: float = math.nan
    alpha_1_split: float = math.nan

    @property
    def model_error_cap(self):
        """The largest R(theta_hat) / alpha that assumption A4 allows."""
        return min(0.25, self.kappa_F / (72 * self.kappa_R))

    def windows(self, alpha):
        """The (Small, Big) step windows for the level-set target alpha.

        Raises ValueError unless alpha is positive and finite, and
        InfeasibleWindow below UNDERFLOW_GUARD, where the window bounds
        and the certificate's loss bounds leave the float range, and
        wherever scale / alpha overflows. Where it underflows, the bounds
        come from logs (see _log_quotient).
        """
        if not 0 < alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if alpha < UNDERFLOW_GUARD:
            raise InfeasibleWindow(
                f"level-set target {alpha!r} is below {UNDERFLOW_GUARD}, where the step "
                "windows and loss bounds leave the float range"
            )
        return (
            _window(self.t1_s, self.scale_s, self.lead_s, alpha),
            _window(self.t1_b, self.scale_b, self.lead_b, alpha),
        )


def _log_quotient(factor, scale, alpha):
    """log(factor scale / alpha); in logs where the quotient underflows.

    Where factor scale / alpha is a normal float its log is taken, which
    keeps every window that fits in floats as it was. Below that the
    quotient has lost bits or is 0, and the logs are summed instead.
    An overflowed quotient stays inf.
    """
    quotient = factor * scale / alpha
    if quotient >= sys.float_info.min:
        return math.log(quotient)
    return math.log(factor) + math.log(scale) - math.log(alpha)


def _window(t1, scale, lead, alpha):
    decay = math.log(1.0 / lead)
    t2 = 0.5 * _log_quotient(0.5, scale, alpha) / decay
    t3 = 0.5 * _log_quotient(1.25, scale, alpha) / decay
    if t3 == math.inf:  # 1.25 scale / alpha overflowed
        raise InfeasibleWindow(
            f"step window for scale {scale!r} and alpha {alpha!r} overflows"
        )
    return StepWindow(t1=t1, t2=t2, t3=t3)


def _positive_decreasing(w):
    """Whether the list w holds at least two positive, strictly decreasing values."""
    return len(w) >= 2 and w[-1] > 0 and all(a > b for a, b in zip(w, w[1:]))


def regime_record(spectrum, kappa_R, eta_s, eta_b, iota, r_opt=math.nan):
    """Derive the RegimeRecord of an instance.

    The theorem's domain: eta_s Small, eta_b Big, train eigenvalues
    positive and strictly decreasing (n >= 2), boundary coefficients
    iota_1, iota_n whose scales sigma iota^2 do not underflow to 0, and
    attenuations that give both regimes a positive log gap in floats
    (adjacent eigenvalues can round to one attenuation). Outside it the
    attenuations, gaps, windows and alpha_1 readings are NaN.
    """
    # Plain floats throughout: the same IEEE results as numpy scalars, cheaper.
    iota = np.asarray(iota, dtype=float)
    eta_s, eta_b, kappa_R = float(eta_s), float(eta_b), float(kappa_R)
    sig = spectrum.eigenvalues.tolist()
    n, sig_1, sig_n = len(sig), sig[0], sig[-1]
    kappa_F = condition_number(spectrum.eigenvalues)
    low, high = 2.0 / (sig_1 + sig_n), 2.0 / sig_1
    kind_s, kind_b = rate_kind(eta_s, low, high), rate_kind(eta_b, low, high)
    i1, inn = float(iota[0]), float(iota[-1])
    base = (eta_s, eta_b, kappa_F, kappa_R, low, high, kind_s, kind_b, i1, inn,
            float(r_opt))
    if not (
        kind_s is RegimeKind.SMALL
        and kind_b is RegimeKind.BIG
        and _positive_decreasing(sig)
        and sig_1 * i1**2 > 0
        and sig_n * inn**2 > 0
    ):
        return RegimeRecord(*base)
    # |1 - eta sigma| on each regime's distinguished direction (lead) and
    # the largest one off it (second).
    lead_s = abs(1.0 - eta_s * sig_n)
    second_s = abs(1.0 - eta_s * sig[-2])
    lead_b = abs(1.0 - eta_b * sig_1)
    second_b = max(abs(1.0 - eta_b * sig[1]), abs(1.0 - eta_b * sig_n))
    if second_s == 0:  # eta_s sigma_{n-1} == 1: the Small gap is infinite.
        return RegimeRecord(*base)
    gap_s = math.log(lead_s / second_s)
    gap_b = math.log(lead_b / second_b)
    if not (gap_s > 0 and gap_b > 0):  # a zero gap in floats
        return RegimeRecord(*base)
    norm_sq = float((iota * iota).sum())
    small_factor = max(16 * n * kappa_R, 4 * kappa_F)
    small_tail = 1.0 / (1.0 - eta_s * sig_n)
    big_tail = 1.0 / (eta_b * sig_1 - 1.0)
    num = math.log(
        norm_sq * small_factor * max(1.0 / i1**2, 1.0 / inn**2)
        + small_tail
        + big_tail
    )
    num_big = math.log(norm_sq / i1**2 * 4 * n * kappa_R + big_tail)
    num_small = math.log(norm_sq / inn**2 * small_factor + small_tail)
    return RegimeRecord(
        *base,
        lead_s=lead_s,
        lead_b=lead_b,
        gap_s=gap_s,
        gap_b=gap_b,
        scale_s=sig_n * inn**2,
        scale_b=sig_1 * i1**2,
        t1_s=0.5 * math.log(small_factor * norm_sq / inn**2) / gap_s,
        t1_b=0.5 * math.log(4 * n * kappa_R * norm_sq / i1**2) / gap_b,
        alpha_1=0.5 * sig_n * inn**2 * math.exp(-num / min(gap_s, gap_b)),
        alpha_1_split=min(
            0.5 * sig_1 * i1**2 * math.exp(-num_big / gap_b),
            0.5 * sig_n * inn**2 * math.exp(-num_small / gap_s),
        ),
    )


def pair_record(pair, iota, eta_s, eta_b):
    """regime_record of a problem pair, with its kappa_R and R(theta_hat)."""
    kappa_R = condition_number(pair.test.spectrum.eigenvalues)
    r_opt = evaluate(pair.test, pair.train.optimum)
    return regime_record(pair.train.spectrum, kappa_R, eta_s, eta_b, iota, r_opt)


@dataclass(frozen=True)
class AssumptionVerdict:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def check_assumptions(pair, theta0, eta_s, eta_b, alpha, record=None):
    """Evaluate the four standing assumptions on a problem instance.

    A1 distinct positive eigenvalues (n >= 2), A2 rate ordering (eta_s
    Small, eta_b Big; a rate <= 0 is NotPositive), A3
    nonzero initialization on the boundary directions, A4 the level-set
    target alpha, between UNDERFLOW_GUARD and alpha_1, with small enough
    model error (below UNDERFLOW_GUARD the step windows overflow and the
    loss bounds divide by products that underflow to 0). Returns verdicts
    with the computed numbers; never raises on failure. record, the
    pair_record of (pair, decomposed theta0, eta_s, eta_b), is derived
    here unless the caller shares one.
    """
    train = pair.train
    spec, tspec = train.spectrum, pair.test.spectrum
    if record is None:
        record = pair_record(pair, decompose(train, theta0), eta_s, eta_b)
    elif (record.eta_s, record.eta_b) != (eta_s, eta_b):
        raise ValueError("record was derived for other step sizes")
    a1 = all(
        not s.degenerate and _positive_decreasing(s.eigenvalues.tolist())
        for s in (spec, tspec)
    )
    a2 = record.kind_s is RegimeKind.SMALL and record.kind_b is RegimeKind.BIG
    a3 = abs(record.iota_1) >= UNDERFLOW_GUARD and abs(record.iota_n) >= UNDERFLOW_GUARD
    ratio_cap = record.model_error_cap
    # alpha_1 is undefined without distinct eigenvalues, valid rates and
    # nonzero boundary coefficients; a NaN alpha_1 fails A4.
    a_one = record.alpha_1 if a1 and a2 and a3 else math.nan
    a4 = UNDERFLOW_GUARD <= alpha <= a_one and record.r_opt / alpha <= ratio_cap
    return [
        AssumptionVerdict(
            "A1_distinct_eigenvalues",
            a1,
            {"train_degenerate": spec.degenerate, "test_degenerate": tspec.degenerate},
        ),
        AssumptionVerdict(
            "A2_rate_ordering",
            a2,
            {
                "eta_s_kind": record.kind_s.value,
                "eta_b_kind": record.kind_b.value,
                "threshold_low": record.threshold_low,
                "threshold_high": record.threshold_high,
            },
        ),
        AssumptionVerdict(
            "A3_nonzero_initialization",
            a3,
            {"iota_1": record.iota_1, "iota_n": record.iota_n},
        ),
        AssumptionVerdict(
            "A4_level_set_target",
            bool(a4),
            {
                "alpha": float(alpha),
                "alpha_1": float(a_one),
                "model_error": float(record.r_opt),
                "model_error_ratio_cap": float(ratio_cap),
            },
        ),
    ]


@dataclass(frozen=True)
class Certificate:
    """Every evaluated quantity of the big-vs-small rate bound.

    bound_rhs is the specialized right-hand side 34 (kappa_R/kappa_F)
    R(theta_s); bound_general the 17 c_alpha (kappa_R/kappa_F) R(theta_s)
    form that does not need the model-error assumption. verdict_final is
    the measured specialized inequality (false with reason
    ModelErrorTooLarge when c_alpha is undefined). The fields are in the
    order of to_record's columns.
    """

    alpha: float
    eta_s: float
    eta_b: float
    kappa_F: float
    kappa_R: float
    r_opt: float
    epsilon_b2: float
    epsilon_s2: float
    alpha_1: float
    alpha_1_split: float
    c_alpha: float
    r_small: float
    r_big: float
    bound_general: float
    bound_rhs: float
    t_small: int
    t_big: int
    window_small: StepWindow
    window_big: StepWindow
    verdict_final: bool
    reason: str
    verdicts: dict

    def to_record(self):
        """Flatten to a key-value record for CSV emission, in field order.

        A StepWindow field becomes <field>_t1.._t3 and the verdicts dict
        one verdict_<name> column per entry.
        """
        rec = {}
        # vars() of a dataclass holds its fields in declaration order.
        for name, value in vars(self).items():
            if isinstance(value, StepWindow):
                for bound, t in vars(value).items():
                    rec[f"{name}_{bound}"] = t
            elif isinstance(value, dict):
                for check, verdict in value.items():
                    rec[f"verdict_{check}"] = verdict
            else:
                rec[name] = value
        return rec


def _test_loss(pair, mu, offset):
    """Test loss of a run with error coordinates mu, from those coordinates.

    At small level-set targets the error theta - theta_hat_* sits many
    orders of magnitude below theta itself, so evaluating the test loss
    from run.theta cancels catastrophically. Reassembling the error
    V mu + offset, with offset = theta_hat - theta_hat_*, from mu (exact
    in relative terms) avoids the O(1) subtraction.
    """
    err = pair.train.spectrum.eigenvectors @ mu
    err += offset
    return 0.5 * float(err @ pair.test.spectrum.apply(err))


def certify(pair, run_s, run_b, alpha, record=None):
    """Evaluate the big-rate benefit bound on two finished level-set runs.

    Both runs must have hit the same alpha level set of pair.train, one
    with a Small rate and one with a Big rate. The certificate stores
    the measured test losses, the epsilon ratios, the step windows, the
    intermediate per-regime loss bounds, and the final inequality
    R(theta_b) <= 34 (kappa_R/kappa_F) R(theta_s). record, the
    pair_record of (pair, run_s.iota, run_s.eta, run_b.eta), is derived
    here unless the caller shares the one it gave check_assumptions.
    """
    spec = pair.train.spectrum
    if record is None:
        record = pair_record(pair, run_s.iota, run_s.eta, run_b.eta)
    elif (record.eta_s, record.eta_b, record.iota_1) != (run_s.eta, run_b.eta, run_s.iota[0]):
        raise ValueError("record was derived for other runs")
    for run, want, got in (
        (run_s, RegimeKind.SMALL, record.kind_s),
        (run_b, RegimeKind.BIG, record.kind_b),
    ):
        if got is not want:
            raise RegimeMismatch(
                f"run with eta={run.eta} is {got.value}, expected {want.value}"
            )
        if run.stop_status is not StopStatus.HIT_LEVEL_SET:
            raise LevelSetMismatch(
                f"run with eta={run.eta} stopped with {run.stop_status.value}"
            )
        if run.alpha is None or not math.isclose(run.alpha, alpha, rel_tol=1e-12):
            raise LevelSetMismatch(
                f"run targeted alpha={run.alpha}, certificate wants {alpha}"
            )
    if not (
        np.array_equal(run_s.iota, run_b.iota)
        or np.allclose(run_s.iota, run_b.iota, rtol=1e-12, atol=0.0)
    ):
        raise LevelSetMismatch("runs started from different initializations")

    sig = spec.eigenvalues.tolist()
    tspec = pair.test.spectrum
    kappa_F, kappa_R, r_opt = record.kappa_F, record.kappa_R, record.r_opt
    varsig1, varsign = tspec.top, tspec.bottom
    mu_b, mu_s = np.asarray(run_b.mu, dtype=float), np.asarray(run_s.mu, dtype=float)
    eps_b2 = _mass_ratio(mu_b[0], mu_b[1:])
    eps_s2 = _mass_ratio(mu_s[-1], mu_s[:-1])
    offset = pair.train.optimum - pair.test.optimum
    r_big = _test_loss(pair, mu_b, offset)
    r_small = _test_loss(pair, mu_s, offset)
    if math.isnan(record.alpha_1):
        raise InvalidRegime("instance outside the theorem's domain, see regime_record")
    win_s, win_b = record.windows(alpha)

    c_alpha_den = 1.0 - math.sqrt(18.0 * (sig[-1] / varsign) * r_opt / alpha)
    if c_alpha_den > 0:
        c_alpha = (1.0 + 2.0 * (sig[0] / varsig1) * r_opt / alpha) / c_alpha_den
    else:
        c_alpha = math.inf
    ratio = kappa_R / kappa_F
    bound_general = 17.0 * c_alpha * ratio * r_small if math.isfinite(c_alpha) else math.inf
    bound_rhs = 34.0 * ratio * r_small

    n = len(sig)
    mu_b1 = float(mu_b[0])
    mu_sn = float(mu_s[-1])
    lower_arg = 18.0 * r_opt * sig[-1] / (varsign * alpha)
    r_small_floor = (
        0.3 * alpha * (varsign / sig[-1]) * (1.0 - math.sqrt(lower_arg))
        if lower_arg <= 1.0
        else -math.inf
    )
    verdicts = {
        "epsilon_b_bound": bool(eps_b2 <= 1.0 / (4 * n * kappa_R)),
        "epsilon_s_bound": bool(
            eps_s2 <= min(1.0 / (16 * n * kappa_R), 1.0 / (4 * kappa_F))
        ),
        "mu_big_window": bool(
            0.4 * alpha <= 0.5 * sig[0] * mu_b1**2 <= alpha
        ),
        "mu_small_window": bool(
            0.4 * alpha <= 0.5 * sig[-1] * mu_sn**2 <= alpha
        ),
        "r_big_upper": bool(r_big <= 5.0 * alpha * varsig1 / sig[0] + 2.0 * r_opt),
        "r_small_lower": bool(r_small >= r_small_floor),
        "half_level_small": bool(run_s.half_level_ok),
        "half_level_big": bool(run_b.half_level_ok),
        "window_small_feasible": win_s.feasible and not win_s.window_empty,
        "window_big_feasible": win_b.feasible and not win_b.window_empty,
    }
    if not math.isfinite(c_alpha):
        verdict_final = False
        reason = "ModelErrorTooLarge"
    elif r_big <= bound_rhs:
        verdict_final = True
        reason = ""
    else:
        verdict_final = False
        reason = "BoundViolated"

    return Certificate(
        alpha=float(alpha),
        eta_s=float(run_s.eta),
        eta_b=float(run_b.eta),
        kappa_F=kappa_F,
        kappa_R=kappa_R,
        r_opt=float(r_opt),
        epsilon_b2=eps_b2,
        epsilon_s2=eps_s2,
        alpha_1=record.alpha_1,
        alpha_1_split=record.alpha_1_split,
        c_alpha=c_alpha,
        r_small=float(r_small),
        r_big=float(r_big),
        bound_general=bound_general,
        bound_rhs=bound_rhs,
        window_small=win_s,
        window_big=win_b,
        t_small=int(run_s.steps),
        t_big=int(run_b.steps),
        verdicts=verdicts,
        verdict_final=verdict_final,
        reason=reason,
    )
