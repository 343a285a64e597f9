"""Each instance's regime record: its spectral numbers and step windows, as columns.

The rate kinds partition eta at 2/(sigma_1+sigma_n) and 2/sigma_1. A
block of instances is computed at once, a row per instance:
regime_records derives kappa_F, kappa_R, the thresholds, the rate kinds,
the attenuations |1 - eta sigma|, the log gaps, both readings of the
level-set ceiling alpha_1 and each t1 into a RegimeRecord of columns,
and nothing else: the rates and R(theta_hat) are CertifyBlock columns.
Rows never mix: they are spectral.padded to the block's largest n, by
the caller (the generator's draws, or a CertifyBlock's stacks in
regimes). The arithmetic runs on numpy rows, with libm's log, exp and
squares one float at a time, so no value depends on numpy's SIMD kernels;
RegimeRecord.row(k) is row k, in plain floats. _window_bounds gives the
step windows at the targets _window_refusal lets through.
Attenuation comparisons use magnitudes: for big rates the raw
coefficient of sigma_2 can be negative and a signed max would pick the
wrong direction.
"""

import dataclasses
import enum
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWindow
from .spectral import condition_numbers, row_sums

BOUNDARY_RTOL = 1e-12
UNDERFLOW_GUARD = 1e-300
# The five attenuations |1 - eta sigma| of an instance: the rate (_RATES:
# 0 eta_s, 1 eta_b) and the eigenvalue's index (n - 1) * _PICKS[0] +
# _PICKS[1]. First the leads, eta_s at sigma_n and eta_b at sigma_1; then
# eta_s at sigma_{n-1}, eta_b at sigma_2 and at sigma_n.
_PICKS = np.array([[1, 0, 1, 0, 1], [0, 0, -1, 1, 0]])[..., None]
_RATES = np.array([0, 1, 0, 1, 1])


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


def _max(a, b):
    """Python's max(a, b) on columns: b where b > a, else a."""
    return np.where(b > a, b, a)


def _libm(fn, values):
    """fn of each float of the array values, one call per float; NaN stays NaN."""
    return np.fromiter(map(fn, values.ravel().tolist()), float, values.size).reshape(values.shape)


def _square(x):
    return x**2  # libm's pow, as Python squares a float


def _positive_decreasing(sig, n):
    """Whether each spectral.padded row has n >= 2 values, each above the next and the last above 0.

    Entry n - 2 is compared with the last, at [..., -1], across the padding.
    """
    steps = (sig[:, :-1] > sig[:, 1:]) | (np.arange(sig.shape[1] - 1) >= n[:, None] - 2)
    last = sig[:, -1]
    return (n >= 2) & steps.all(axis=1) & (sig[np.arange(len(n)), n - 2] > last) & (last > 0)


def _row(block, k):
    """Row k of a dataclass of columns, as the same dataclass of plain Python values."""
    def value(v):
        if dataclasses.is_dataclass(v):
            return _row(v, k)
        if isinstance(v, dict):
            return {name: value(x) for name, x in v.items()}
        return v[k].item() if isinstance(v, np.ndarray) else v[k]

    return type(block)(**{name: value(v) for name, v in vars(block).items()})


@dataclass(frozen=True)
class StepWindow:
    """Real-valued step thresholds for a level-set run.

    t >= t1 forces the epsilon bound; the level-set condition forces
    t2 < t < t3. feasible requires t2 > t1; window_empty flags the case
    where (t2, t3) contains no integer. Each bound may be a column.
    """

    t1: float
    t2: float
    t3: float

    @property
    def feasible(self):
        return self.t2 > self.t1

    @property
    def window_empty(self):
        return np.ceil(self.t2) > np.floor(self.t3)


@dataclass(frozen=True)
class RegimeRecord:
    """Spectral numbers of (train spectrum, kappa_R, eta_s, eta_b, iota), a column per field.

    Suffixes _s and _b name the Small and Big regimes. lead is the
    attenuation on the distinguished direction, gap log(lead / second
    attenuation), scale sigma iota^2 on that direction. projection_s is
    1/2 sum_{i<n} sigma_i iota_i^2, the train loss of the start off the
    Small run's distinguished direction, and projection_b 1/2 sum_{i>1}
    sigma_i iota_i^2, off the Big run's (assumption A5). Fields from
    lead_s on are NaN outside the theorem's domain (see regime_records);
    the rates and R(theta_hat) are the block's (instances.CertifyBlock).
    row(k) is instance k's, in floats.
    """

    kappa_F: float
    kappa_R: float
    threshold_low: float
    threshold_high: float
    kind_s: RegimeKind
    kind_b: RegimeKind
    iota_1: float
    iota_n: float
    projection_s: float
    projection_b: float
    lead_s: float
    lead_b: float
    gap_s: float
    gap_b: float
    scale_s: float
    scale_b: float
    t1_s: float
    t1_b: float
    alpha_1: float
    alpha_1_split: float

    def row(self, k):
        return _row(self, k)

    @property
    def model_error_cap(self):
        """The largest R(theta_hat) / alpha that A4 allows: min(0.25, kappa_F / (72 kappa_R))."""
        with np.errstate(all="ignore"):
            cap = self.kappa_F / (72 * self.kappa_R)
        return np.where(cap < 0.25, cap, 0.25)


def _log_quotient(numerators, denominators):
    """log(prod(numerators) / prod(denominators)), from logs where floats cannot hold it.

    The log of the quotient where it is a normal float; where it or the
    denominators' product underflowed, lost bits or overflowed, the sum
    of the factors' logs, log 0 being -inf.
    """
    num, den = math.prod(numerators), math.prod(denominators)
    if 0.0 < den < math.inf and sys.float_info.min <= num / den < math.inf:
        return math.log(num / den)
    if 0.0 in numerators:
        return -math.inf
    return sum(map(math.log, numerators)) - sum(map(math.log, denominators))


def _window_refusal(alpha, scale_s, scale_b):
    """The error of one instance's step windows at alpha, or None."""
    if not 0 < alpha < math.inf:
        return ValueError("alpha must be positive and finite")
    if alpha < UNDERFLOW_GUARD:
        return InfeasibleWindow(
            f"level-set target {alpha!r} is below {UNDERFLOW_GUARD}, where the step "
            "windows and loss bounds leave the float range"
        )
    for scale in (scale_s, scale_b):
        if 1.25 * scale / alpha == math.inf:
            return InfeasibleWindow(f"step window for scale {scale!r} and alpha {alpha!r} overflows")
    return None


def _window_bounds(scale, lead, alpha):
    """The rows [t2, t3] of step windows, on columns _window_refusal lets through (NaN scale: NaN).

    t2 = log(0.5 scale / alpha) / (2 log(1 / lead)) and t3 the same at
    1.25, each log _log_quotient's.
    """
    q = np.multiply.outer((0.5, 1.25), scale) / alpha
    logs = _libm(math.log, np.where((sys.float_info.min <= q) & (q < math.inf), q, math.nan))
    for j, off in enumerate((np.isnan(logs) & ~np.isnan(q)).ravel().tolist()):
        if off:  # not a normal quotient: the logs of its factors
            (i, k), scales, alphas = divmod(j, len(scale)), scale.tolist(), alpha.tolist()
            logs[i, k] = _log_quotient(((0.5, 1.25)[i], scales[k]), (alphas[k],))
    return 0.5 * logs / _libm(math.log, 1.0 / lead)


def regime_records(n, train_eigenvalues, kappa_R, eta_s, eta_b, iota):
    """The RegimeRecord of a block, row k from instance k's numbers (rows of any n).

    The theorem's domain: eta_s Small, eta_b Big, train eigenvalues
    positive and strictly decreasing (n >= 2), boundary coefficients
    iota_1, iota_n whose squares and scales sigma iota^2 are normal
    floats (a subnormal square overflows 1 / iota^2, a subnormal scale
    has lost bits), and a positive log gap in floats for both regimes
    (adjacent eigenvalues can round to one attenuation). Outside it the
    attenuations, gaps, windows and alpha_1 readings are NaN.
    train_eigenvalues and iota are spectral.padded stacks, row k of
    length n[k]. ||iota||^2 and the projections are spectral.row_sums of
    the rows, each with the bits of its row summed alone, left to right.
    """
    sig, io, n = train_eigenvalues, iota, np.asarray(n)
    size, last = len(n), n - 1
    rows = np.arange(size)
    # Entry j of a row sits at position j before its last, which sits at -1.
    picks = last * _PICKS[0] + _PICKS[1]
    picks = np.where(picks < last, picks, -1)
    sig_at, iota_end = sig[rows, picks], io[rows, picks[:2]]  # iota_end: [iota_n, iota_1]
    kappa_F = condition_numbers(sig, n)
    norm_sq = row_sums(io * io)
    # p_i = sigma_i iota_i^2; the projections sum it over i < n (all but
    # position -1) and i > 1 (from position 1, on rows of n >= 2).
    power = sig * io * io
    power_b = np.where(n[:, None] >= 2, power[:, 1:], 0.0)
    eta = np.array([eta_s, eta_b], dtype=float)
    kappa_R = np.asarray(kappa_R, dtype=float)
    with np.errstate(all="ignore"):
        low, high = 2.0 / (sig_at[1] + sig_at[0]), 2.0 / sig_at[1]
        kind_s, kind_b = (tuple(map(rate_kind, e.tolist(), low.tolist(), high.tolist())) for e in eta)
        # on is 1 on the rows in the domain and NaN off it: a product with
        # it keeps a value or makes it NaN, which libm keeps NaN.
        on = np.array(
            [
                1.0 if s is RegimeKind.SMALL and b is RegimeKind.BIG and ok else math.nan
                for s, b, ok in zip(kind_s, kind_b, _positive_decreasing(sig, n).tolist())
            ]
        ).reshape(size)
        iota_sq = _libm(_square, iota_end * on)
        (inn_sq, i1_sq), scale = iota_sq, sig_at[:2] * iota_sq
        att = abs(1.0 - eta[_RATES] * sig_at)
        lead, second = att[:2], np.array([att[2], _max(att[3], att[4])])
        # min(iota_1^2, iota_n^2, scale_b, scale_s) >= the least normal
        # float, NaN read as Python's min reads it; eta_s sigma_{n-1} == 1
        # makes the Small gap infinite.
        tiny = sys.float_info.min
        normal = (i1_sq >= tiny) & ~((inn_sq < tiny) | (scale < tiny).any(axis=0))
        on[~normal | (second[0] == 0)] = math.nan
        gap = _libm(math.log, lead / second * on)
        on[~(gap > 0).all(axis=0)] = math.nan  # a zero gap in floats
        gap *= on
        # On the domain 1 / lead is 1 / (1 - eta_s sigma_n), 1 / (eta_b sigma_1 - 1).
        (tail_s, tail_b), factor = 1.0 / lead, _max(16 * n * kappa_R, 4 * kappa_F)
        ratio = norm_sq / iota_sq
        logs = _libm(math.log, on * np.array([
            norm_sq * factor * _max(1.0 / i1_sq, 1.0 / inn_sq) + tail_s + tail_b,
            ratio[1] * 4 * n * kappa_R + tail_b,
            ratio[0] * factor + tail_s,
            factor * norm_sq / inn_sq,
            4 * n * kappa_R * norm_sq / i1_sq,
        ]))
        # exp(-num / gap) of the displayed, Big and Small alpha_1 readings.
        readings = _libm(math.exp, -logs[:3] / np.array([np.minimum(*gap), gap[1], gap[0]]))
        half_s, half_b = 0.5 * sig_at[:2] * iota_sq
        (t1_s, t1_b), lead, scale = 0.5 * logs[3:] / gap, lead * on, scale * on
    return RegimeRecord(
        kappa_F, kappa_R, low, high, kind_s, kind_b, iota_end[1], iota_end[0],
        0.5 * row_sums(power[:, :-1]), 0.5 * row_sums(power_b), lead[0], lead[1], gap[0], gap[1],
        scale[0], scale[1], t1_s, t1_b, half_s * readings[0],
        np.minimum(half_b * readings[1], half_s * readings[2]),
    )

