"""The assumption checks A1-A5 and the big-vs-small rate bound certificate.

The certificate compares the test losses of a Small-rate and a Big-rate
run to one level set against the 34 (kappa_R / kappa_F) bound, from the
runs' regime records (see records). A block of instances
(instances.CertifyBlock) is checked and certified as columns, a row per
instance, from the block's own spectral.padded stacks: assumption_checks
gives the verdicts, certificates the certificate and each row's refusal
from the level-set search's columns (gd.LevelSetLanes), and one builder,
_block_record, gives every record from the block's stacks at a stack of
starts. Rows never mix; check_assumptions and certify are the one-row
views, which stack their one instance (CertifyBlock.of) and their two
GDRuns (LevelSetLanes.of). certify_block searches and certifies a
CertifyBlock, keeping each refused row beside its error.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CertificationFailed, InvalidRegime, LevelSetMismatch, RegimeMismatch, ZeroDenominator,
)
from .gd import LevelSetLanes, StopStatus, decompose, level_set_lanes, reconstruct
from .instances import CertifyBlock, CertifyInstance
from .quadratic import coefficients, excess_losses
from .records import (
    UNDERFLOW_GUARD, RegimeKind, StepWindow, _libm, _positive_decreasing, _row, _square,
    _window_bounds, _window_refusal, regime_records,
)
from .spectral import condition_numbers, matvec, row_sums

ASSUMPTIONS = (
    "A1_distinct_eigenvalues", "A2_rate_ordering", "A3_nonzero_initialization",
    "A4_level_set_target", "A5_initial_projection",
)


def _mass_ratios(leads, rests):
    """The epsilon ratios sum(rest_i^2) / lead^2 per row of rests, as sum((rest_i / lead)^2).

    Big takes lead mu_1 and rest mu_2..mu_n, Small lead mu_n and rest
    mu_1..mu_{n-1}. A ratio past 1e154 squares to inf, and a lead of 0
    (which certify refuses) divides by 0; neither warns.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ratio = rests / np.asarray(leads)[..., None]
        ratio *= ratio
    return row_sums(ratio)


@dataclass(frozen=True)
class AssumptionVerdict:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def assumption_checks(block, record):
    """The A1-A5 verdicts of a block, a (5, L) bool array, and the alpha_1 A4 reads.

    Row k checks instance k of the CertifyBlock at its level-set target
    with row k of record, its regime_records at the start's iota. A1
    distinct positive eigenvalues (n >= 2) and no spectrum flagged
    degenerate, A2 rate ordering (eta_s Small, eta_b Big; a
    rate <= 0 is NotPositive), A3 nonzero initialization on the boundary
    directions, A4 the target alpha between UNDERFLOW_GUARD (below it
    the windows overflow and the loss bounds divide by 0) and alpha_1,
    with small enough model error, A5 the initial projection: alpha <=
    1/2 sum_{i<n} sigma_i iota_i^2 and alpha <= 1/2 sum_{i>1} sigma_i
    iota_i^2, so that neither run starts inside the level set off its
    distinguished direction (A4 does not imply it). Without A1-A3,
    alpha_1 is NaN and fails A4.
    """
    alpha, width = block.alpha, block.eigenvalues.shape[-1]
    a1 = _positive_decreasing(block.eigenvalues.reshape(-1, width), np.repeat(block.n, 2))
    a1 = (a1 & ~block.degenerate.ravel()).reshape(-1, 2).all(axis=1)
    kinds = zip(record.kind_s, record.kind_b)
    a2 = np.array([s is RegimeKind.SMALL and b is RegimeKind.BIG for s, b in kinds], dtype=bool)
    a3 = (abs(record.iota_1) >= UNDERFLOW_GUARD) & (abs(record.iota_n) >= UNDERFLOW_GUARD)
    a_one = np.where(a1 & a2 & a3, record.alpha_1, math.nan)
    with np.errstate(all="ignore"):
        capped = record.r_opt / alpha <= record.model_error_cap
    a4 = (UNDERFLOW_GUARD <= alpha) & (alpha <= a_one) & capped
    a5 = (alpha <= record.projection_s) & (alpha <= record.projection_b)
    return np.array([a1, a2, a3, a4, a5]), a_one


def _block_record(block, iota):
    """The regime_records of a CertifyBlock at the eigen-coefficients iota, from its own stacks.

    iota stacks a start per instance, spectral.padded as the block is.
    kappa_R is each test spectrum's condition number and R(theta_hat)
    the test loss of each train optimum, from its test coefficients.
    """
    train_sig, test_sig = block.eigenvalues.swapaxes(0, 1)
    optima = block.optima
    r_opt = excess_losses(test_sig, coefficients(block.bases[:, 1], optima[:, 0], optima[:, 1]))
    kappa_R = condition_numbers(test_sig, block.n)
    return regime_records(block.n, train_sig, kappa_R, block.eta_s, block.eta_b, iota, r_opt)


def check_assumptions(pair, theta0, eta_s, eta_b, alpha):
    """assumption_checks of one instance started at theta0, as AssumptionVerdicts.

    Each verdict carries the numbers it read; never raises on failure.
    """
    iota = decompose(pair.train, theta0)
    # assumption_checks reads no t_max.
    block = CertifyBlock.of([CertifyInstance(pair, theta0, eta_s, eta_b, alpha, 0)])
    record = _block_record(block, iota[None])
    passed, a_one = assumption_checks(block, record)
    r, alpha, spectra = record.row(0), float(alpha), (pair.train.spectrum, pair.test.spectrum)
    details = (
        {"train_degenerate": spectra[0].degenerate, "test_degenerate": spectra[1].degenerate},
        {"eta_s_kind": r.kind_s.value, "eta_b_kind": r.kind_b.value,
         "threshold_low": r.threshold_low, "threshold_high": r.threshold_high},
        {"iota_1": r.iota_1, "iota_n": r.iota_n},
        {"alpha": alpha, "alpha_1": a_one.item(), "model_error": r.r_opt,
         "model_error_ratio_cap": record.model_error_cap.item()},
        {"alpha": alpha, "projection_s": r.projection_s, "projection_b": r.projection_b},
    )
    return [AssumptionVerdict(*v) for v in zip(ASSUMPTIONS, passed[:, 0].tolist(), details)]


@dataclass(frozen=True)
class Certificate:
    """Every evaluated quantity of the big-vs-small rate bound, a column per field.

    bound_rhs is the specialized right-hand side 34 (kappa_R/kappa_F)
    R(theta_s); bound_general the 17 c_alpha (kappa_R/kappa_F) R(theta_s)
    form that does not need the model-error assumption. verdict_final
    reads only two things: a finite c_alpha (else false, with reason
    ModelErrorTooLarge) and the measured r_big <= bound_rhs (else false,
    BoundViolated). It reads none of the sub-verdicts in verdicts, which
    can fail while verdict_final holds. The fields are in the order of
    to_record's columns. row(k) is instance k's, in plain values.
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

    def row(self, k):
        return _row(self, k)

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


def run_measurements(train_bases, test_bases, test_eigenvalues, offsets, mu_s, mu_b):
    """The measured inputs of certificates: (eps_b2, eps_s2, r_big, r_small).

    Each argument stacks a row per instance ((L, n, n) bases, (L, n)
    vectors; instances of n >= 2 may be spectral.padded to one n, as the
    epsilon ratios read [..., 0] and [..., -1]): offsets theta_hat -
    theta_hat_*, mu_s and mu_b the final coefficients of the runs. Every
    product is spectral's matvec and every sum a row_sums, so each result
    has the bits of its instance computed alone. A test loss is
    quadratic.excess_losses of the test eigen-coefficients of the error
    V mu + offset, a sum of nonnegative terms: at small targets
    theta - theta_hat_* sits orders of magnitude below theta, and from
    run.theta it would cancel catastrophically. Nothing raises or warns;
    certificates refuses what these numbers cannot stand for.
    """
    with np.errstate(all="ignore"):
        err = matvec(train_bases, np.array([mu_b, mu_s]))
        err += offsets
        r_big, r_small = excess_losses(test_eigenvalues, coefficients(test_bases, err, 0.0))
        eps_b2 = _mass_ratios(mu_b[..., 0], mu_b[..., 1:])
        return eps_b2, _mass_ratios(mu_s[..., -1], mu_s[..., :-1]), r_big, r_small


def _refusal(lanes, s, b, kind_s, kind_b, alpha, alpha_1, scale_s, scale_b, mu_b1, mu_sn):
    """The error certify raises on one instance, or None; a failed level-set lane is its own.

    s and b are the instance's Small and Big lanes of lanes
    (gd.LevelSetLanes), mu_b1 and mu_sn their distinguished final
    coefficients.
    """
    for k in (s, b):
        if not isinstance(lanes.outcome[k], StopStatus):
            return lanes.outcome[k]
    for k, want, got in ((s, RegimeKind.SMALL, kind_s), (b, RegimeKind.BIG, kind_b)):
        eta, status, target = lanes.eta[k], lanes.outcome[k], lanes.alpha[k]
        if got is not want:
            return RegimeMismatch(f"run with eta={eta} is {got.value}, expected {want.value}")
        if status is not StopStatus.HIT_LEVEL_SET:
            return LevelSetMismatch(f"run with eta={eta} stopped with {status.value}")
        if target is None or not math.isclose(target, alpha, rel_tol=1e-12):
            return LevelSetMismatch(f"run targeted alpha={target}, certificate wants {alpha}")
    x, y = lanes.iota[s], lanes.iota[b]
    if not (x.tobytes() == y.tobytes() or np.array_equal(x, y) or np.allclose(x, y, 1e-12, 0.0)):
        return LevelSetMismatch("runs started from different initializations")
    # No epsilon ratio divides by a distinguished coefficient below UNDERFLOW_GUARD.
    if abs(mu_b1) < UNDERFLOW_GUARD or abs(mu_sn) < UNDERFLOW_GUARD:
        return ZeroDenominator("distinguished coefficient underflowed below 1e-300")
    if math.isnan(alpha_1):
        return InvalidRegime("instance outside the theorem's domain, see regime_records")
    return _window_refusal(alpha, scale_s, scale_b)


def certificates(block, record, lanes):
    """The Certificate of a CertifyBlock, a column per field, and each row's refusal.

    Row k bounds instance k with its Small lane k and its Big lane
    len(block) + k of lanes (gd.LevelSetLanes, failed lanes included) to
    its level set; record is their regime_records at the lanes' start
    and rates. One run_measurements pass over the block's stacks measures
    every row, a failed lane at its start. The certificate stores the
    measured test losses, the epsilon ratios, the step windows, the
    per-regime loss bounds, and R(theta_b) <= 34 (kappa_R/kappa_F)
    R(theta_s). refusals[k] is None or row k's error, which voids its
    row; its step counts, half-level flags and distinguished
    coefficients are still its lanes', 0 and false on a failed lane.
    """
    alpha, n, (size, _, width) = block.alpha, block.n, block.eigenvalues.shape
    # Entry 0 of a row of n >= 2 is its first; a row of n = 1 holds its one entry at -1.
    rows, first = np.arange(size), np.where(n >= 2, 0, -1)
    (sig_1, varsig1), (sig_n, varsign) = (block.eigenvalues[rows, :, i].T for i in (first, -1))
    mu_s, mu_b = lanes.mu.reshape(2, size, width)
    ran = np.array([isinstance(o, StopStatus) for o in lanes.outcome], dtype=bool).reshape(2, size)
    mu_b1, mu_sn = np.where(ran[::-1], [mu_b[rows, first], mu_s[:, -1]], 0.0)
    columns = (alpha, record.alpha_1, record.scale_s, record.scale_b, mu_b1, mu_sn)
    refusals = [
        _refusal(lanes, k, size + k, *row)
        for k, row in enumerate(zip(record.kind_s, record.kind_b, *(c.tolist() for c in columns)))
    ]
    ok = np.array([r is None for r in refusals], dtype=bool)
    steps_s, steps_b = lanes.steps.reshape(2, size)
    half_s, half_b = lanes.half_level_ok.reshape(2, size)
    eps_b2, eps_s2, r_big, r_small = run_measurements(
        block.bases[:, 0], block.bases[:, 1], block.eigenvalues[:, 1],
        block.optima[:, 0] - block.optima[:, 1], mu_s, mu_b,
    )
    # A row of n = 1 has no mass off its direction; padded, it would read its padding.
    eps_b2, eps_s2 = np.where(n >= 2, [eps_b2, eps_s2], 0.0)
    kappa_F, kappa_R, r_opt = record.kappa_F, record.kappa_R, record.r_opt
    with np.errstate(all="ignore"):
        scale = np.where(np.tile(ok, 2), np.concatenate([record.scale_s, record.scale_b]), math.nan)
        lead = np.concatenate([record.lead_s, record.lead_b])
        t2, t3 = _window_bounds(scale, lead, np.tile(alpha, 2)).reshape(2, 2, -1)
        win_s, win_b = (StepWindow(*w) for w in zip((record.t1_s, record.t1_b), t2, t3))
        c_alpha_den = 1.0 - np.sqrt(18.0 * (sig_n / varsign) * r_opt / alpha)
        c_alpha = (1.0 + 2.0 * (sig_1 / varsig1) * r_opt / alpha) / c_alpha_den
        c_alpha = np.where(c_alpha_den > 0, c_alpha, math.inf)
        finite, ratio = np.isfinite(c_alpha), kappa_R / kappa_F
        bound_rhs = 34.0 * ratio * r_small
        lower_arg = 18.0 * r_opt * sig_n / (varsign * alpha)
        r_small_floor = 0.3 * alpha * (varsign / sig_n) * (1.0 - np.sqrt(lower_arg))
        mu_big, mu_small = 0.5 * np.array([sig_1, sig_n]) * _libm(_square, np.array([mu_b1, mu_sn]))
        verdicts = {
            "epsilon_b_bound": eps_b2 <= 1.0 / (4 * n * kappa_R),
            "epsilon_s_bound": eps_s2 <= np.minimum(1.0 / (16 * n * kappa_R), 1.0 / (4 * kappa_F)),
            "mu_big_window": (0.4 * alpha <= mu_big) & (mu_big <= alpha),
            "mu_small_window": (0.4 * alpha <= mu_small) & (mu_small <= alpha),
            "r_big_upper": r_big <= 5.0 * alpha * varsig1 / sig_1 + 2.0 * r_opt,
            "r_small_lower": r_small >= np.where(lower_arg <= 1.0, r_small_floor, -math.inf),
            "half_level_small": half_s,
            "half_level_big": half_b,
            "window_small_feasible": win_s.feasible & ~win_s.window_empty,
            "window_big_feasible": win_b.feasible & ~win_b.window_empty,
        }
    holds = r_big <= bound_rhs
    reasons = [
        "" if h else "BoundViolated" if f else "ModelErrorTooLarge"
        for f, h in zip(finite.tolist(), (holds & finite).tolist())
    ]
    cert = Certificate(
        alpha, record.eta_s, record.eta_b, kappa_F, kappa_R, r_opt, eps_b2, eps_s2,
        record.alpha_1, record.alpha_1_split, c_alpha, r_small, r_big,
        np.where(finite, 17.0 * c_alpha * ratio * r_small, math.inf), bound_rhs,
        steps_s, steps_b, win_s, win_b, finite & holds, reasons, verdicts,
    )
    return cert, refusals


def certify(pair, run_s, run_b, alpha):
    """certificates of one instance on two finished level-set runs, its refusal raised.

    Both runs must have hit the same alpha level set of pair.train, one
    with a Small rate and one with a Big rate.
    """
    # certificates reads the runs' starts from their lanes, and no t_max.
    start = reconstruct(pair.train, run_s.iota)
    block = CertifyBlock.of([CertifyInstance(pair, start, run_s.eta, run_b.eta, alpha, 0)])
    lanes = LevelSetLanes.of([run_s, run_b], [run_s.iota, run_b.iota])
    cert, (refusal,) = certificates(block, _block_record(block, run_s.iota[None]), lanes)
    if refusal is not None:
        raise refusal
    return cert.row(0)


def certify_block(block, first=0):
    """(cert, passed, refusals) of a CertifyBlock.

    certificates and assumption_checks of the block. refusals[k] is None
    or the error of instance first + k alone: CertificationFailed naming
    its failed assumptions, else its failed level-set lane, else its
    certificate's refusal. A refused row keeps its columns and verdicts;
    nothing raises. On the block's padded stacks, one matvec gives every
    gd.decompose of theta0, one level-set search every Small and Big
    lane as columns, and _block_record the record: no instance, spectrum
    or GDRun is built.
    """
    train_sig, t_max = block.eigenvalues[:, 0], block.t_max.tolist()
    iota = coefficients(block.bases[:, 0], block.theta0, block.optima[:, 0])
    lanes = level_set_lanes(
        np.concatenate([train_sig] * 2), np.concatenate([iota] * 2),
        block.eta_s.tolist() + block.eta_b.tolist(), block.alpha.tolist() * 2, t_max * 2,
    )
    record = _block_record(block, iota)
    passed, _ = assumption_checks(block, record)
    cert, refusals = certificates(block, record, lanes)
    for k, verdicts in enumerate(passed.T.tolist()):
        if not all(verdicts):
            failed = ", ".join(name for name, ok in zip(ASSUMPTIONS, verdicts) if not ok)
            refusals[k] = CertificationFailed(f"instance {first + k} fails assumptions: {failed}")
    return cert, passed, refusals
