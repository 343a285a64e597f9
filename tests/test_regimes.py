"""Rate regimes, windows, and the certification bound."""

import dataclasses
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepbias import gd, instances, regimes
from stepbias.errors import (
    CertificationFailed,
    InfeasibleWindow,
    InvalidRegime,
    LevelSetMismatch,
    RegimeMismatch,
    StepbiasError,
    ZeroDenominator,
)
from stepbias.config import validate_config
from stepbias.experiments import run_experiment, stream
from stepbias.instances import random_instance
from stepbias.quadratic import ProblemPair, QuadraticObjective
from stepbias.records import (
    RegimeKind,
    StepWindow,
    _log_quotient,
    _positive_decreasing,
    _window_bounds,
    _window_refusal,
    rate_kind,
    regime_records,
)
from stepbias.regimes import (
    _mass_ratios,
    _refusal,
    assumption_checks,
    certificates,
    certify,
    certify_block,
    check_assumptions,
    run_measurements,
)
from stepbias.spectral import condition_numbers, diagonal_spectrum, matvec, padded

from reference import (
    WrongRegime,
    alpha_one,
    attenuation,
    epsilon_ratio,
    leading_attenuation,
    log_gaps,
    objective_loss,
    random_instance_numbers,
    risk,
    run_error,
    second_attenuation,
    step_window,
)

SPEC = diagonal_spectrum([1.0, 0.9, 0.3, 0.2])
# The rate thresholds 2/(sigma_1+sigma_n) and 2/sigma_1 of SPEC.
LOW, HIGH = 2.0 / (SPEC.top + SPEC.bottom), 2.0 / SPEC.top


def kappa(spectrum):
    """The condition number of one spectrum: row 0 of condition_numbers on it alone."""
    return condition_numbers(spectrum.eigenvalues[None], [spectrum.n]).item()


def pair_record(pair, iota, eta_s, eta_b):
    """The record of one pair at iota: row 0 of regime_records on it alone, with R(theta_hat)."""
    return regime_records(
        [pair.n], pair.train.spectrum.eigenvalues[None], [kappa(pair.test.spectrum)], [eta_s],
        [eta_b], np.asarray(iota, dtype=float)[None], [objective_loss(pair.test, pair.train.optimum)],
    ).row(0)


def one_record(spectrum, kappa_R, eta_s, eta_b, iota):
    """The record of one instance without R(theta_hat): row 0 of regime_records on it alone."""
    iota = np.asarray(iota, dtype=float)
    return regime_records(
        [spectrum.n], spectrum.eigenvalues[None], [kappa_R], [eta_s], [eta_b], iota[None],
        [math.nan],
    ).row(0)


def windows(record, alpha):
    """The (Small, Big) step windows of a one-row record at alpha, as certificates computes them.

    Raises the _window_refusal error on which certificates refuses the row.
    """
    refusal = _window_refusal(alpha, record.scale_s, record.scale_b)
    if refusal is not None:
        raise refusal
    scale, lead = np.array([record.scale_s, record.scale_b]), np.array([record.lead_s, record.lead_b])
    (t2_s, t2_b), (t3_s, t3_b) = _window_bounds(scale, lead, np.full(2, alpha, float)).tolist()
    return StepWindow(record.t1_s, t2_s, t3_s), StepWindow(record.t1_b, t2_b, t3_b)


def test_attenuation_formula():
    assert attenuation(0.5, 2.0) == 0.0
    assert attenuation(1.0, 3.0) == 2.0
    with pytest.raises(ValueError):
        attenuation(-1.0, 1.0)


def test_rate_kind_partition():
    assert (LOW, HIGH) == (2.0 / 1.2, 2.0)
    assert rate_kind(0.5 * LOW, LOW, HIGH) is RegimeKind.SMALL
    assert rate_kind(0.5 * (LOW + HIGH), LOW, HIGH) is RegimeKind.BIG
    assert rate_kind(2.5, LOW, HIGH) is RegimeKind.DIVERGENT
    assert rate_kind(LOW, LOW, HIGH) is RegimeKind.BOUNDARY
    assert rate_kind(HIGH, LOW, HIGH) is RegimeKind.BOUNDARY
    assert rate_kind(0.0, LOW, HIGH) is RegimeKind.NOT_POSITIVE
    assert rate_kind(-1.0, LOW, HIGH) is RegimeKind.NOT_POSITIVE


def test_boundary_tolerance():
    assert rate_kind(HIGH * (1 + 5e-13), LOW, HIGH) is RegimeKind.BOUNDARY
    assert rate_kind(HIGH * (1 - 5e-13), LOW, HIGH) is RegimeKind.BOUNDARY
    assert rate_kind(HIGH * (1 - 1e-10), LOW, HIGH) is RegimeKind.BIG
    assert rate_kind(HIGH * (1 + 1e-10), LOW, HIGH) is RegimeKind.DIVERGENT


@pytest.mark.parametrize("sigma_1", [1e-3, 1e3])
def test_boundary_band_is_relative_to_each_threshold_at_any_scale(sigma_1):
    """On SPEC scaled by sigma_1 the band is still 1e-12 of each threshold.

    The mutant eta <= low for eta < low (records.rate_kind) is equivalent:
    a rate equal to low is within the band, so Boundary is returned first.
    """
    low, high = 2.0 / (sigma_1 * (SPEC.top + SPEC.bottom)), 2.0 / (sigma_1 * SPEC.top)
    for threshold, below, above in (
        (low, RegimeKind.SMALL, RegimeKind.BIG), (high, RegimeKind.BIG, RegimeKind.DIVERGENT),
    ):
        for inside in (1 - 5e-13, 1.0, 1 + 5e-13):
            assert rate_kind(threshold * inside, low, high) is RegimeKind.BOUNDARY
        assert rate_kind(threshold * (1 - 1e-10), low, high) is below
        assert rate_kind(threshold * (1 + 1e-10), low, high) is above


def test_leading_and_second_attenuation():
    eta_s = 0.8  # Small: leading direction is sigma_n
    assert leading_attenuation(eta_s, SPEC, RegimeKind.SMALL) == pytest.approx(
        abs(1 - 0.8 * 0.2)
    )
    assert second_attenuation(eta_s, SPEC, RegimeKind.SMALL) == pytest.approx(
        abs(1 - 0.8 * 0.3)
    )
    eta_b = 1.9  # Big: leading direction is sigma_1
    assert leading_attenuation(eta_b, SPEC, RegimeKind.BIG) == pytest.approx(
        abs(1 - 1.9 * 1.0)
    )
    assert second_attenuation(eta_b, SPEC, RegimeKind.BIG) == pytest.approx(
        max(abs(1 - 1.9 * 0.9), abs(1 - 1.9 * 0.2))
    )
    with pytest.raises(WrongRegime):
        leading_attenuation(3.0, SPEC, RegimeKind.DIVERGENT)
    with pytest.raises(WrongRegime):
        second_attenuation(3.0, SPEC, RegimeKind.DIVERGENT)


def test_second_attenuation_strictly_below_leading():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vals = np.sort(rng.uniform(0.1, 1.0, size=5))[::-1]
        vals[0] = 1.0
        spec = diagonal_spectrum(vals)
        low, high = 2.0 / (vals[0] + vals[-1]), 2.0 / vals[0]
        eta_s = float(rng.uniform(0.05, 0.999)) * low
        eta_b = low + float(rng.uniform(0.001, 0.999)) * (high - low)
        assert second_attenuation(eta_s, spec, RegimeKind.SMALL) < leading_attenuation(
            eta_s, spec, RegimeKind.SMALL
        )
        assert second_attenuation(eta_b, spec, RegimeKind.BIG) < leading_attenuation(
            eta_b, spec, RegimeKind.BIG
        )


def _fake_run(mu):
    return gd.GDRun(
        eta=0.1,
        steps=1,
        mu=np.asarray(mu, dtype=float),
        iota=np.asarray(mu, dtype=float),
        stop_status=gd.StopStatus.HIT_LEVEL_SET,
        objective=None,
        final_excess=1.0,
    )


def test_epsilon_ratio():
    run = _fake_run([2.0, 1.0, 0.5])
    assert epsilon_ratio(run, RegimeKind.BIG) == pytest.approx((1.0 + 0.25) / 4.0)
    assert epsilon_ratio(run, RegimeKind.SMALL) == pytest.approx((4.0 + 1.0) / 0.25)
    with pytest.raises(ZeroDenominator):
        epsilon_ratio(_fake_run([0.0, 1.0]), RegimeKind.BIG)
    tiny = dataclasses.replace(run, mu=np.array([1e-301, 1.0, 1e-301]), alpha=1e-3)

    def refusal(run_s, run_b):
        lanes = gd.LevelSetLanes.of([run_s, run_b], [run_s.iota, run_b.iota])
        args = (RegimeKind.SMALL, RegimeKind.BIG, 1e-3, 1.0, 1.0, 1.0, run_b.mu[0], run_s.mu[-1])
        return _refusal(lanes, 0, 1, *args)

    assert isinstance(refusal(tiny, run), LevelSetMismatch)  # run has no target
    assert isinstance(refusal(tiny, tiny), ZeroDenominator)
    with pytest.raises(WrongRegime):
        epsilon_ratio(run, RegimeKind.DIVERGENT)


def test_alpha_one_displayed_oracle():
    """Recompute the displayed ceiling with independent scalar arithmetic."""
    iota = np.array([0.5, -0.4, 0.3, 0.6])
    eta_s, eta_b = 0.7, 1.9
    kappa_r = 2.0
    sig = SPEC.eigenvalues
    n = 4
    kappa_f = sig[0] / sig[-1]
    a_s_lead = abs(1 - eta_s * sig[-1])
    a_s_second = abs(1 - eta_s * sig[-2])
    a_b_lead = abs(1 - eta_b * sig[0])
    a_b_second = max(abs(1 - eta_b * sig[1]), abs(1 - eta_b * sig[-1]))
    num = math.log(
        float(iota @ iota)
        * max(16 * n * kappa_r, 4 * kappa_f)
        * max(iota[0] ** -2, iota[-1] ** -2)
        + 1 / (1 - eta_s * sig[-1])
        + 1 / (eta_b * sig[0] - 1)
    )
    den = min(math.log(a_s_lead / a_s_second), math.log(a_b_lead / a_b_second))
    want = 0.5 * sig[-1] * iota[-1] ** 2 * math.exp(-num / den)
    got = one_record(SPEC, kappa_r, eta_s, eta_b, iota).alpha_1
    assert got == pytest.approx(want, rel=1e-12)


def test_alpha_one_split_orders_the_windows():
    """At the split-reading ceiling both step windows stay feasible."""
    for seed in range(30):
        inst = random_instance(stream(seed, "window-check"))
        spec = inst.pair.train.spectrum
        iota = spec.eigenvectors.T @ (inst.theta0 - inst.pair.train.optimum)
        kappa_r = inst.pair.test.spectrum.top / inst.pair.test.spectrum.bottom
        rec = one_record(spec, kappa_r, inst.eta_s, inst.eta_b, iota)
        for win in windows(rec, rec.alpha_1_split):
            assert win.feasible


def _draws(count=200):
    """(seed, n, model-error fraction) of the record tests: n = 4..8, 0 and 0.1."""
    return [(seed, 4 + seed % 5, (0.0, 0.1)[seed // 5 % 2]) for seed in range(count)]


def test_alpha_one_readings_match_per_reading_evaluation():
    """Both readings of one record equal each reading evaluated on its own."""
    distinct = 0
    for seed in range(30):
        inst = _generated(seed)
        spec = inst.pair.train.spectrum
        iota = spec.eigenvectors.T @ (inst.theta0 - inst.pair.train.optimum)
        kappa_r = kappa(inst.pair.test.spectrum)
        args = (spec, iota, inst.eta_s, inst.eta_b, kappa_r)
        rec = pair_record(inst.pair, iota, inst.eta_s, inst.eta_b)
        assert rec.alpha_1 == alpha_one(*args, "displayed")
        assert rec.alpha_1_split == alpha_one(*args, "split")
        distinct += rec.alpha_1 != rec.alpha_1_split
    assert distinct > 0


def test_record_matches_the_per_function_oracles():
    for seed, n, fraction in _draws():
        inst = _generated(seed, n=n, model_error_fraction=fraction)
        spec, tspec = inst.pair.train.spectrum, inst.pair.test.spectrum
        iota = gd.decompose(inst.pair.train, inst.theta0)
        kappa_r = kappa(tspec)
        rec = pair_record(inst.pair, iota, inst.eta_s, inst.eta_b)
        assert rec.kappa_F == kappa(spec)
        assert rec.kappa_R == kappa_r
        assert (rec.gap_s, rec.gap_b) == log_gaps(spec, inst.eta_s, inst.eta_b)
        args = (spec, iota, inst.eta_s, inst.eta_b, kappa_r)
        assert rec.alpha_1 == alpha_one(*args, "displayed")
        assert rec.alpha_1_split == alpha_one(*args, "split")
        assert windows(rec, inst.alpha) == (
            step_window(spec, iota, inst.eta_s, inst.alpha, kappa_r, RegimeKind.SMALL),
            step_window(spec, iota, inst.eta_b, inst.alpha, kappa_r, RegimeKind.BIG),
        )


def test_certificates_of_a_block_equal_certify_row_by_row():
    """One certificates pass over 200 pairs of n = 4..8: each row is its pair's certify.

    The assumption checks of the block are each pair's check_assumptions too.
    """
    block = [_generated(seed, n=n, model_error_fraction=fraction) for seed, n, fraction in _draws()]
    runs = [_runs_for(inst) for inst in block]
    stacked = instances.CertifyBlock.of(block)
    small, big = zip(*runs)
    lanes = gd.LevelSetLanes.of([*small, *big], [r.iota for r in small] * 2)
    record = regimes._block_record(stacked, lanes.iota[: len(block)])
    cert, refusals = certificates(stacked, record, lanes)
    passed, _ = assumption_checks(stacked, record)
    assert refusals == [None] * len(block)
    for k, (inst, (run_s, run_b)) in enumerate(zip(block, runs)):
        assert repr(cert.row(k)) == repr(certify(inst.pair, run_s, run_b, inst.alpha)), k
        verdicts = check_assumptions(inst.pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha)
        assert passed[:, k].tolist() == [v.passed for v in verdicts], k


def test_random_instance_matches_the_oracle_path():
    for seed, n, fraction in _draws():
        rng, ref_rng = stream(seed, "oracle-path"), stream(seed, "oracle-path")
        inst = _generated_from(rng, n=n, model_error_fraction=fraction)
        alpha, t_max, theta0, opt_test = random_instance_numbers(ref_rng, n, fraction)
        assert inst.alpha == alpha and inst.t_max == t_max
        assert np.array_equal(inst.theta0, theta0)
        assert np.array_equal(inst.pair.test.optimum, opt_test)
        assert rng.uniform() == ref_rng.uniform()


def test_record_outside_the_domain_has_no_readings():
    iota = np.array([0.5, -0.4, 0.3, 0.6])
    inside = one_record(SPEC, 2.0, 0.7, 1.9, iota)
    assert all(math.isfinite(v) for v in (inside.alpha_1, inside.t1_s, inside.gap_b))
    outside = {
        "eta_s not Small": one_record(SPEC, 2.0, 1.9, 1.9, iota),
        "eta_b Divergent": one_record(SPEC, 2.0, 0.7, 3.0, iota),
        "zero iota_1": one_record(SPEC, 2.0, 0.7, 1.9, np.array([0.0, 1, 1, 1])),
        "iota_n squared underflows": one_record(
            SPEC, 2.0, 0.7, 1.9, np.array([1, 1, 1, 1e-200])
        ),
        # iota_n^2 is the least subnormal, and sigma_n iota_n^2 rounds to 0.
        "scale underflows": one_record(SPEC, 2.0, 0.7, 1.9, np.array([1, 1, 1, 3e-162])),
        "one eigenvalue": one_record(diagonal_spectrum([2.0]), 2.0, 0.3, 0.8, [1.0]),
        "repeated eigenvalue": one_record(
            diagonal_spectrum([1.0, 0.5, 0.5, 0.2]), 2.0, 0.7, 1.9, iota
        ),
        # eta_s sigma_{n-1} == 1 exactly: the second Small attenuation is 0.
        "zero second attenuation": one_record(
            diagonal_spectrum([1.0, 0.9, 0.8, 0.2]), 2.0, 1.25, 1.9, iota
        ),
    }
    for name, rec in outside.items():
        numbers = (rec.alpha_1, rec.alpha_1_split, rec.gap_s, rec.t1_b)
        numbers += dataclasses.astuple(windows(rec, 1e-9)[1])
        assert all(math.isnan(v) for v in numbers), name
    assert outside["eta_s not Small"].kind_s is RegimeKind.BIG


def test_certify_refuses_an_instance_outside_the_domain():
    # eta_s sigma_{n-1} == 1: both runs hit, yet the Small gap is infinite.
    spec = diagonal_spectrum([1.0, 0.9, 0.8, 0.2])
    pair = ProblemPair(
        QuadraticObjective(spec, np.zeros(4)),
        QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, 0.5]), np.zeros(4)),
    )
    theta0 = np.array([0.5, -0.4, 0.3, 0.6])
    runs = [gd.run_to_level_set(pair.train, theta0, eta, 1e-6, 1000) for eta in (1.25, 1.9)]
    with pytest.raises(InvalidRegime):
        certify(pair, *runs, 1e-6)
    verdicts = check_assumptions(pair, theta0, 1.25, 1.9, 1e-6)
    assert [v.passed for v in verdicts] == [True, True, True, False, True]


def test_step_window_shape():
    iota = np.array([0.5, -0.4, 0.3, 0.6])
    rec = one_record(SPEC, 2.0, 0.7, 1.9, iota)
    win, _ = windows(rec, 1e-10)
    assert win.t1 > 0 and win.t2 < win.t3
    assert win.feasible == (win.t2 > win.t1)
    # A window whose crossing starts at t1 is not feasible: t2 > t1 is strict.
    assert not StepWindow(win.t2, win.t2, win.t3).feasible
    assert win.t1 == rec.t1_s
    for alpha in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            windows(rec, alpha)
    big = windows(one_record(SPEC, 2.0, 0.7, 3.0, iota), 1e-10)[1]
    assert not big.feasible and math.isnan(big.t2)


def test_windows_refuse_targets_whose_bounds_leave_the_float_range():
    # log(0.5 scale / alpha) overflows there: t2 = t3 = inf, and
    # window_empty would raise OverflowError on them.
    inst = _generated(model_error_fraction=0.0)
    rec = pair_record(inst.pair, gd.decompose(inst.pair.train, inst.theta0), inst.eta_s, inst.eta_b)
    for alpha in (1e-310, 5e-324):
        with pytest.raises(InfeasibleWindow):
            windows(rec, alpha)
    assert all(win.t3 < math.inf for win in windows(rec, 1e-300))
    # Above the guard, a large boundary coefficient can still overflow scale / alpha.
    large = one_record(SPEC, 2.0, 0.7, 1.9, np.array([1e5, 1.0, 1.0, 1e5]))
    with pytest.raises(InfeasibleWindow):
        windows(large, 1e-299)


def test_a_zero_float_gap_is_outside_the_domain():
    """Adjacent eigenvalues whose attenuations round to one float: NaN, A4 fails."""
    # 1 - eta_s sigma_n and 1 - eta_s sigma_{n-1} are one float: Small gap 0.
    small = diagonal_spectrum([1.0, 0.5, 1e-3, np.nextafter(1e-3, 0.0)])
    pair = ProblemPair(
        QuadraticObjective(small, np.zeros(4)),
        QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, 0.5]), np.zeros(4)),
    )
    verdicts = check_assumptions(pair, np.ones(4), 1.0, 1.9995, 1e-6)
    assert [v.passed for v in verdicts] == [True, True, True, False, True]
    assert math.isnan(verdicts[3].details["alpha_1"])
    # |1 - eta_b sigma_1| and |1 - eta_b sigma_2| are one float: Big gap 0.
    s1 = 1.761975919418575
    big = diagonal_spectrum([s1, np.nextafter(s1, 0.0), 0.3 * s1, 0.2 * s1])
    records = {
        "Small": one_record(small, 2.0, 1.0, 1.9995, np.ones(4)),
        "Big": one_record(big, 2.0, 0.7 / s1, 0.9585242630026088, [0.5, 1, 1, 1]),
    }
    for name, rec in records.items():
        assert (rec.kind_s, rec.kind_b) == (RegimeKind.SMALL, RegimeKind.BIG), name
        numbers = (rec.gap_s, rec.gap_b, rec.t1_s, rec.t1_b, rec.alpha_1, rec.alpha_1_split)
        assert all(math.isnan(v) for v in numbers), name


@pytest.mark.parametrize(
    "iota",
    [
        [0.5, 1, 1, 1e-160],  # iota_n^2 is subnormal: 1 / iota_n^2 was inf
        [0.5, 1, 1, 1.6e-154],  # iota_n^2 is normal, sigma_n iota_n^2 subnormal
        [1e-160, 1, 1, 0.5],  # the same on the Big side
    ],
)
def test_a_subnormal_boundary_scale_is_outside_the_domain(iota):
    """No inf t1, no alpha_1 of 0 and no negative windows: NaN fields, and A4 fails."""
    pair = ProblemPair(
        QuadraticObjective(SPEC, np.zeros(4)),
        QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, 0.5]), np.zeros(4)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec = one_record(SPEC, 2.0, 0.7, 1.9, iota)
        numbers = (rec.t1_s, rec.t1_b, rec.alpha_1, rec.alpha_1_split, rec.scale_s)
        numbers += dataclasses.astuple(windows(rec, 1e-9)[0])
        assert all(math.isnan(v) for v in numbers)
        verdicts = check_assumptions(pair, np.array(iota), 0.7, 1.9, 1e-9)
    assert [v.passed for v in verdicts] == [True, True, True, False, True]
    assert math.isnan(verdicts[3].details["alpha_1"])


def test_log_quotient_takes_logs_only_where_floats_cannot_hold_the_quotient():
    """The one log-quotient rule of the step windows and of toy2d's thresholds."""
    # A normal quotient: the log of its float, products taken in order.
    assert _log_quotient((0.5, 0.3), (7.0,)) == math.log(0.5 * 0.3 / 7.0)
    assert _log_quotient((1e-9,), (0.2, 0.7)) == math.log(1e-9 / (0.2 * 0.7))
    # Underflowed, overflowed, or over a product that underflowed: sums of logs.
    logs = math.log(0.5) + math.log(1e-300) - math.log(1e10)
    assert _log_quotient((0.5, 1e-300), (1e10,)) == logs
    assert _log_quotient((1e300,), (1e-10,)) == math.log(1e300) - math.log(1e-10)
    assert _log_quotient((1.0,), (1e-200, 1e-200)) == -(math.log(1e-200) + math.log(1e-200))
    assert _log_quotient((0.0,), (3.0,)) == -math.inf


def test_windows_take_logs_where_the_quotient_underflows():
    # scale_s = 0.2 * 1e-300 is normal, 0.5 scale_s / 1e10 is subnormal.
    rec = one_record(SPEC, 2.0, 0.7, 1.9, [0.5, 1, 1, 1e-150])
    win_s, win_b = windows(rec, 1e10)
    decay = math.log(1.0 / rec.lead_s)
    log_ratio = math.log(rec.scale_s) - math.log(1e10)
    assert win_s.t2 == pytest.approx(0.5 * (math.log(0.5) + log_ratio) / decay, rel=1e-15)
    assert win_s.t3 == pytest.approx(0.5 * (math.log(1.25) + log_ratio) / decay, rel=1e-15)
    assert win_s.t2 < win_s.t3 < 0 and not win_s.feasible
    # Where the quotient is a normal float the window is the quotient's.
    assert win_b.t2 == 0.5 * math.log(0.5 * rec.scale_b / 1e10) / math.log(1.0 / rec.lead_b)
    # Across the switch the bounds move continuously.
    tiny = one_record(SPEC, 2.0, 0.7, 1.9, [0.5, 1, 1, 1e-100])
    edge = 0.5 * tiny.scale_s / sys.float_info.min
    above, below = windows(tiny, edge)[0], windows(tiny, np.nextafter(edge, math.inf))[0]
    assert below.t2 == pytest.approx(above.t2, rel=1e-13)
    for alpha in (1e-300, 1e-3, 1.0, 1e300, sys.float_info.max):
        for win in windows(tiny, alpha) + windows(rec, alpha):
            assert not (math.isnan(win.t2) or math.isnan(win.t3))
            assert win.window_empty in (True, False)


def test_mass_ratio_overflow_is_silent():
    """A tiny distinguished coefficient gives an infinite ratio, not a RuntimeWarning."""
    pair = ProblemPair(
        QuadraticObjective(diagonal_spectrum([1.0, 0.6, 0.3, 0.2]), np.zeros(4)),
        QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, 0.5]), np.zeros(4)),
    )
    theta0 = np.array([1e-200, 0.4, 0.3, 0.6])
    runs = [gd.run_to_level_set(pair.train, theta0, eta, 1e-6, 10**6) for eta in (1 / 1.2, 1.9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _mass_ratios(1e-299, np.array([1e10, 1.0])) == math.inf
        with pytest.raises(InvalidRegime):
            certify(pair, *runs, 1e-6)


def test_complexity_bounds_shrink_with_gap():
    iota = np.array([0.5, -0.4, 0.3, 0.6])
    wide = one_record(diagonal_spectrum([1.0, 0.9, 0.3, 0.2]), 2.0, 0.7, 1.9, iota)
    narrow = one_record(diagonal_spectrum([1.0, 0.9, 0.21, 0.2]), 2.0, 0.7, 1.9, iota)
    assert 0 < narrow.gap_s < wide.gap_s
    assert narrow.t1_s > wide.t1_s


def _generated(seed=0, **kw):
    return random_instance(stream(seed, "regimes-test"), **kw)


def _generated_from(rng, n=5, **kw):
    return random_instance(rng, n=n, **kw)


def test_random_instance_retry_redraws_from_the_same_stream(failing_attempts):
    # One rejected attempt (both alpha_1 readings of its record)
    # consumes exactly one attempt's draws, then the next attempt
    # proceeds as a fresh call.
    ref_rng = stream(3, "retry")
    instances._draw(ref_rng, 5)
    want = _generated_from(ref_rng)
    calls = failing_attempts({1})
    got = _generated_from(stream(3, "retry"))
    assert len(calls) == 2
    assert got.alpha == want.alpha and got.t_max == want.t_max
    assert np.array_equal(got.theta0, want.theta0)
    assert np.array_equal(got.pair.test.optimum, want.pair.test.optimum)
    assert np.array_equal(got.pair.train.spectrum.matrix(), want.pair.train.spectrum.matrix())


def test_random_instance_gives_up_after_max_draws(failing_attempts):
    calls = failing_attempts(range(1, instances.MAX_DRAWS + 1))
    with pytest.raises(InfeasibleWindow):
        _generated_from(stream(3, "retry"))
    assert len(calls) == instances.MAX_DRAWS


def test_check_assumptions_pass_on_generated_instance():
    inst = _generated()
    verdicts = check_assumptions(inst.pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha)
    assert [v.name for v in verdicts] == [
        "A1_distinct_eigenvalues",
        "A2_rate_ordering",
        "A3_nonzero_initialization",
        "A4_level_set_target",
        "A5_initial_projection",
    ]
    assert all(v.passed for v in verdicts)


def test_check_assumptions_detects_violations():
    inst = _generated()
    by_name = lambda vs: {v.name: v.passed for v in vs}

    # A1: degenerate train spectrum.
    spec = inst.pair.train.spectrum
    degenerate = diagonal_spectrum(np.ones(spec.n), degenerate=True)
    pair = ProblemPair(
        QuadraticObjective(degenerate, inst.pair.train.optimum), inst.pair.test
    )
    v = by_name(check_assumptions(pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha))
    assert not v["A1_distinct_eigenvalues"]

    # A2: both rates Small.
    v = by_name(
        check_assumptions(inst.pair, inst.theta0, inst.eta_s, inst.eta_s * 1.01, inst.alpha)
    )
    assert not v["A2_rate_ordering"]

    # A3: exactly zero mass on the top eigendirection (diagonal pair, so
    # the eigenbasis is the exact identity and the coefficient is 0.0).
    train = QuadraticObjective(diagonal_spectrum([1.0, 0.6, 0.3, 0.2]), np.zeros(4))
    test = QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, 0.5]), np.zeros(4))
    diag_pair = ProblemPair(train, test)
    theta0 = np.array([0.0, 0.5, 0.5, 0.5])
    v = by_name(check_assumptions(diag_pair, theta0, 0.7, 1.9, 1e-10))
    assert not v["A3_nonzero_initialization"]

    # A4: target above the ceiling.
    v = by_name(check_assumptions(inst.pair, inst.theta0, inst.eta_s, inst.eta_b, 1e6))
    assert not v["A4_level_set_target"]


# The pair of the initial-projection probe: A1-A4 hold, yet theta0's
# projection off the Small run's distinguished direction (sigma_1 iota_1^2
# / 2 = 2.55e-6) already lies inside the level set alpha = 3e-5.
PROJECTION_PAIR = ProblemPair(
    QuadraticObjective(diagonal_spectrum([1.0, 0.6539088785463802]), np.zeros(2)),
    QuadraticObjective(diagonal_spectrum([1.0, 0.5]), np.zeros(2)),
)
PROJECTION_ARGS = (
    np.array([-0.0022587252701268944, 4.057105251940958]),
    0.9228364331862055,
    1.5780795515150112,
    3e-5,
)


def test_check_assumptions_fails_a5_where_a1_to_a4_hold():
    theta0, eta_s, eta_b, alpha = PROJECTION_ARGS
    verdicts = check_assumptions(PROJECTION_PAIR, *PROJECTION_ARGS)
    assert [v.passed for v in verdicts] == [True, True, True, True, False]
    a4, a5 = verdicts[3].details, verdicts[4].details
    assert a4["alpha_1"] > alpha  # A4's ceiling does not imply A5
    # theta0 is iota on the identity basis.
    assert a5["projection_s"] == 0.5 * (1.0 * theta0[0] * theta0[0])
    assert a5["projection_s"] < alpha < a5["projection_b"]
    assert a5["projection_b"] == 0.5 * (0.6539088785463802 * theta0[1] * theta0[1])
    # A5 holds up to the smaller projection, a tie included.
    edge = a5["projection_s"]
    for target, want in ((edge, True), (np.nextafter(edge, math.inf), False)):
        assert check_assumptions(PROJECTION_PAIR, theta0, eta_s, eta_b, target)[4].passed == want
    # The i > 1 sum fails A5 alone once the two coefficients swap.
    swapped = check_assumptions(PROJECTION_PAIR, theta0[::-1], eta_s, eta_b, alpha)[4]
    assert swapped.details["projection_b"] < alpha < swapped.details["projection_s"]
    assert not swapped.passed


def test_verdict_final_reads_neither_a5_nor_the_sub_verdicts():
    """certify still holds on the A5 pair; quadratic_certify refuses it."""
    theta0, eta_s, eta_b, alpha = PROJECTION_ARGS
    runs = [gd.run_to_level_set(PROJECTION_PAIR.train, theta0, eta, alpha, 10**6)
            for eta in (eta_s, eta_b)]
    cert = certify(PROJECTION_PAIR, *runs, alpha)
    assert cert.verdict_final and math.isfinite(cert.c_alpha) and cert.r_big <= cert.bound_rhs
    assert not all(cert.verdicts.values())
    inst = instances.CertifyInstance(PROJECTION_PAIR, theta0, eta_s, eta_b, alpha, 10**6)
    _, passed, (refusal,) = certify_block(instances.CertifyBlock.of([inst]))
    assert passed[:, 0].tolist() == [True, True, True, True, False]
    with pytest.raises(CertificationFailed, match="^instance 0 fails assumptions: A5_initial_projection$"):
        raise refusal


def test_check_assumptions_on_singular_spectra_returns_verdicts():
    # Non-positive bottom eigenvalues give infinite condition numbers,
    # not a division by zero or a negative ratio.
    theta0 = np.array([0.5, 0.5, 0.5, 0.5])
    for bottom in (0.0, -1e-3):
        train = QuadraticObjective(diagonal_spectrum([1.0, 0.6, 0.3, bottom]), np.zeros(4))
        test = QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, bottom]), np.zeros(4))
        verdicts = check_assumptions(ProblemPair(train, test), theta0, 0.7, 1.9, 1e-10)
        passed = {v.name: v.passed for v in verdicts}
        assert len(verdicts) == 5
        assert not passed["A1_distinct_eigenvalues"]
        assert not passed["A4_level_set_target"]


def test_positive_decreasing_reads_each_padded_row_as_its_own():
    """A1's predicate on a mixed spectral.padded stack is each row's own rule.

    Rows of n = 1..9, drawn from few values so that ties fall at every
    position, the one between entry n - 2 and the last entry across the
    padding included, and last entries of 0 or below.
    """
    rng = np.random.default_rng(0)
    rows = []
    for n in rng.integers(1, 10, size=2000).tolist():
        row = np.sort(rng.integers(-1, 6, size=n))[::-1].astype(float)
        rows.append(rng.permutation(row) if rng.random() < 0.1 else row)
    n = np.array([len(row) for row in rows])
    got = _positive_decreasing(padded(rows, 9), n).tolist()
    want = [
        len(row) >= 2 and all(a > b for a, b in zip(row, row[1:])) and row[-1] > 0
        for row in map(np.ndarray.tolist, rows)
    ]
    assert got == want
    assert 0 < sum(want) < len(want)


def _runs_for(inst):
    run_s = gd.run_to_level_set(
        inst.pair.train, inst.theta0, inst.eta_s, inst.alpha, inst.t_max
    )
    run_b = gd.run_to_level_set(
        inst.pair.train, inst.theta0, inst.eta_b, inst.alpha, inst.t_max
    )
    return run_s, run_b


def test_certify_happy_path():
    inst = _generated(seed=1, model_error_fraction=0.0)
    run_s, run_b = _runs_for(inst)
    cert = certify(inst.pair, run_s, run_b, inst.alpha)
    assert cert.verdict_final and cert.reason == ""
    assert all(cert.verdicts.values())
    assert cert.r_big <= cert.bound_rhs
    assert cert.bound_general <= cert.bound_rhs  # c_alpha = 1 at zero model error
    assert cert.c_alpha == pytest.approx(1.0)
    rec = cert.to_record()
    assert rec["verdict_final"] is True
    assert rec["verdict_epsilon_b_bound"] is True


CERTIFICATE_COLUMNS = (
    "instance,alpha,eta_s,eta_b,kappa_F,kappa_R,r_opt,epsilon_b2,epsilon_s2,"
    "alpha_1,alpha_1_split,c_alpha,r_small,r_big,bound_general,bound_rhs,"
    "t_small,t_big,window_small_t1,window_small_t2,window_small_t3,"
    "window_big_t1,window_big_t2,window_big_t3,verdict_final,reason,"
    "verdict_epsilon_b_bound,verdict_epsilon_s_bound,verdict_mu_big_window,"
    "verdict_mu_small_window,verdict_r_big_upper,verdict_r_small_lower,"
    "verdict_half_level_small,verdict_half_level_big,"
    "verdict_window_small_feasible,verdict_window_big_feasible"
).split(",")


def test_certificate_columns_are_pinned(tmp_path):
    # to_record follows the Certificate's field order: reordering the
    # fields must not move a column of certificates.csv unnoticed.
    run_experiment(
        validate_config({"experiment": "quadratic_certify", "output_dir": str(tmp_path)})
    )
    header = (tmp_path / "certificates.csv").read_text().split("\n", 1)[0]
    assert header.split(",") == CERTIFICATE_COLUMNS
    assert len(CERTIFICATE_COLUMNS) == 36


def test_certify_with_model_error():
    inst = _generated(seed=2, model_error_fraction=0.1)
    run_s, run_b = _runs_for(inst)
    cert = certify(inst.pair, run_s, run_b, inst.alpha)
    assert cert.r_opt > 0
    assert cert.verdict_final
    assert cert.c_alpha > 1.0


def test_certify_model_error_too_large():
    inst = _generated(seed=3, model_error_fraction=0.0)
    # Push the test optimum far away: c_alpha's denominator goes negative.
    far = QuadraticObjective(
        inst.pair.test.spectrum,
        inst.pair.test.optimum + 10.0 * np.ones(inst.pair.n),
    )
    pair = ProblemPair(inst.pair.train, far)
    run_s, run_b = _runs_for(inst)
    cert = certify(pair, run_s, run_b, inst.alpha)
    assert not cert.verdict_final
    assert cert.reason == "ModelErrorTooLarge"
    assert math.isinf(cert.c_alpha)


def test_certify_rejects_mismatched_runs():
    inst = _generated(seed=4)
    run_s, run_b = _runs_for(inst)
    with pytest.raises(RegimeMismatch):
        certify(inst.pair, run_b, run_b, inst.alpha)
    with pytest.raises(LevelSetMismatch):
        certify(inst.pair, run_s, run_b, inst.alpha * 2.0)
    unfinished = gd.run_to_level_set(
        inst.pair.train, inst.theta0, inst.eta_s, inst.alpha * 1e-6, 2
    )
    with pytest.raises(LevelSetMismatch):
        certify(inst.pair, unfinished, run_b, inst.alpha)


def test_a4_holds_up_to_alpha_1_itself():
    """A4 reads alpha <= alpha_1: it holds at alpha_1 and fails at the next float above."""
    inst = _generated(model_error_fraction=0.0)
    rec = pair_record(inst.pair, gd.decompose(inst.pair.train, inst.theta0), inst.eta_s, inst.eta_b)
    for alpha, want in ((rec.alpha_1, True), (math.nextafter(rec.alpha_1, math.inf), False)):
        a4 = check_assumptions(inst.pair, inst.theta0, inst.eta_s, inst.eta_b, alpha)[3]
        assert (a4.passed, a4.details["alpha_1"]) == (want, rec.alpha_1)


def test_check_assumptions_fails_a4_on_bad_alpha():
    inst = _generated()
    for alpha in (0.0, -1.0, math.nan, math.inf, 5e-324, 1e-310, 0.99e-300):
        verdicts = check_assumptions(inst.pair, inst.theta0, inst.eta_s, inst.eta_b, alpha)
        # A5 reads alpha <= both projections: true for alpha <= 0.
        want = [True, True, True, False, alpha < math.inf]
        assert [v.passed for v in verdicts] == want, alpha


def test_certify_refuses_a_target_below_the_underflow_guard():
    # Below 1e-300 the windows' log(scale / alpha) overflows and
    # 18 r_opt sigma_n / (varsigma_n alpha) can divide by 0; both used to
    # escape as OverflowError or ZeroDivisionError.
    inst = _generated(model_error_fraction=0.0)
    for alpha in (1e-310, 5e-324):
        run_s = gd.run_to_level_set(inst.pair.train, inst.theta0, inst.eta_s, alpha, 10**6)
        run_b = gd.run_to_level_set(inst.pair.train, inst.theta0, inst.eta_b, alpha, 10**6)
        with pytest.raises(InfeasibleWindow):
            certify(inst.pair, run_s, run_b, alpha)


# About 2 ms per certified draw; three in four draws pass A1-A4.
@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    model_error_fraction=st.floats(0.0, 1.0, exclude_max=True),
    alpha_fraction=st.floats(0.0, 1.0, exclude_min=True),
)
def test_theorem_holds_wherever_its_assumptions_do(seed, model_error_fraction, alpha_fraction):
    """Every sub-verdict and the final bound hold on each pair that passes A1-A5.

    alpha is drawn in (0, alpha_1]; a draw that fails an assumption
    (mostly A4's model-error cap, or a target that underflows) checks
    nothing.
    """
    inst = _generated_from(np.random.default_rng(seed), n=None,
                           model_error_fraction=model_error_fraction)
    pair = inst.pair
    record = pair_record(pair, gd.decompose(pair.train, inst.theta0), inst.eta_s, inst.eta_b)
    alpha = alpha_fraction * record.alpha_1
    verdicts = check_assumptions(pair, inst.theta0, inst.eta_s, inst.eta_b, alpha)
    if not all(v.passed for v in verdicts):
        return
    win_s, win_b = windows(record, alpha)
    t_max = int(10 + 4 * max(win_s.t3, win_b.t3))
    run_s = gd.run_to_level_set(pair.train, inst.theta0, inst.eta_s, alpha, t_max)
    run_b = gd.run_to_level_set(pair.train, inst.theta0, inst.eta_b, alpha, t_max)
    cert = certify(pair, run_s, run_b, alpha)
    assert all(cert.verdicts.values()), cert.verdicts
    assert cert.verdict_final, cert.reason


_RATE_FRACTION = st.floats(0.05, 0.95)
_NEAR_1E_300 = st.floats(1e-301, 1e-299)
_COEFFICIENT = st.one_of(
    st.floats(0.1, 10.0),
    st.floats(-10.0, -0.1),
    st.floats(-1e3, 1e3),
    _NEAR_1E_300,
    _NEAR_1E_300.map(lambda x: -x),
)


@st.composite
def _decreasing_spectra(draw, n):
    """n finite, positive, strictly decreasing floats.

    Their spread is within 1e3 at a scale from 1e-297 to 1e300, or
    across the float range; half end on a pair of adjacent floats.
    """
    if draw(st.booleans()):
        scale = draw(st.sampled_from([1e-297, 1e-150, 1.0, 1e150, 1e300]))
        element = st.floats(1e-3, 1.0).map(lambda x: x * scale)
    else:
        element = st.floats(1e-300, 1e300)
    values = sorted(draw(st.lists(element, min_size=n, max_size=n, unique=True)), reverse=True)
    if draw(st.booleans()):
        values[-1] = math.nextafter(values[-2], 0.0)
    return values


@st.composite
def _regime_inputs(draw):
    """(train eigenvalues, test eigenvalues, iota, test optimum, eta_s, eta_b, kappa_R, alpha).

    The rates are mostly Small and Big, sometimes a threshold or 0.
    alpha is positive and finite, or a negative fraction: that fraction
    of the record's alpha_1.
    """
    n = draw(st.integers(2, 6))
    sig = draw(_decreasing_spectra(n))
    low, high = 2.0 / (sig[0] + sig[-1]), 2.0 / sig[0]
    edge = st.sampled_from([low, high, 0.0])
    small = _RATE_FRACTION.map(lambda u: u * low)
    big = _RATE_FRACTION.map(lambda u: low + u * (high - low))
    return (
        sig,
        draw(_decreasing_spectra(n)),
        draw(st.lists(_COEFFICIENT, min_size=n, max_size=n)),
        draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)),
        draw(st.one_of(small, small, edge)),
        draw(st.one_of(big, big, edge)),
        draw(st.floats(1.0, 1e10)),
        draw(st.one_of(st.floats(5e-324, 1e300), _RATE_FRACTION.map(lambda u: -u))),
    )


@settings(max_examples=200, deadline=None)
@given(inputs=_regime_inputs())
def test_the_regime_numbers_return_or_raise_a_library_error(inputs):
    """regime_records, _window_refusal, _window_bounds and check_assumptions never escape otherwise.

    No other exception and no warning (warnings are errors here), on
    spectra with adjacent-float bottom pairs and coefficients near 1e-300.
    """
    sig, test_sig, iota, test_optimum, eta_s, eta_b, kappa_R, alpha = inputs
    train = diagonal_spectrum(sig)
    pair = ProblemPair(
        QuadraticObjective(train, np.zeros(len(sig))),
        QuadraticObjective(diagonal_spectrum(test_sig), np.array(test_optimum)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = one_record(train, kappa_R, eta_s, eta_b, iota)
        if alpha < 0:
            finite = 0 < record.alpha_1 < math.inf
            alpha = max(-alpha * record.alpha_1, 5e-324) if finite else 1e-6
        try:
            windows(record, alpha)
        except StepbiasError:
            pass
        try:
            check_assumptions(pair, np.array(iota), eta_s, eta_b, alpha)
        except StepbiasError:
            pass


def test_check_assumptions_on_a_one_dimensional_pair_returns_verdicts():
    train = QuadraticObjective(diagonal_spectrum([2.0]), np.zeros(1))
    test = QuadraticObjective(diagonal_spectrum([1.0]), np.zeros(1))
    verdicts = check_assumptions(ProblemPair(train, test), np.ones(1), 0.3, 0.8, 1e-3)
    passed = {v.name: v.passed for v in verdicts}
    assert len(verdicts) == 5
    assert not passed["A1_distinct_eigenvalues"]
    assert not passed["A4_level_set_target"]


def test_check_assumptions_on_non_positive_rates_fails_a2():
    train = QuadraticObjective(diagonal_spectrum([1.0, 0.6, 0.3, 0.2]), np.zeros(4))
    test = QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, 0.5]), np.zeros(4))
    pair = ProblemPair(train, test)
    theta0 = np.array([0.5, 0.5, 0.5, 0.5])
    for eta_s, eta_b in ((0.0, 1.9), (-1.0, 1.9), (0.7, 0.0)):
        verdicts = check_assumptions(pair, theta0, eta_s, eta_b, 1e-10)
        assert [v.passed for v in verdicts] == [True, False, True, False, True], (eta_s, eta_b)
        kinds = verdicts[1].details
        assert "NotPositive" in (kinds["eta_s_kind"], kinds["eta_b_kind"])


def test_certify_ratios_and_test_losses_match_the_references():
    """Bitwise, on generated pairs with and without model error."""
    for seed, n, fraction in _draws(60):
        inst = _generated(seed, n=n, model_error_fraction=fraction)
        run_s, run_b = _runs_for(inst)
        cert = certify(inst.pair, run_s, run_b, inst.alpha)
        assert cert.epsilon_b2 == epsilon_ratio(run_b, RegimeKind.BIG)
        assert cert.epsilon_s2 == epsilon_ratio(run_s, RegimeKind.SMALL)
        assert cert.r_big == risk(inst.pair, run_b)
        assert cert.r_small == risk(inst.pair, run_s)
    rng = np.random.default_rng(5)
    for _ in range(200):
        mu = rng.normal(size=int(rng.integers(2, 12))) * 10.0 ** rng.integers(-5, 5)
        assert _mass_ratios(mu[0], mu[1:]) == epsilon_ratio(_fake_run(mu), RegimeKind.BIG)
        assert _mass_ratios(mu[-1], mu[:-1]) == epsilon_ratio(_fake_run(mu), RegimeKind.SMALL)


def _within_the_test_loss_bound(got, eigenvalues, basis, err):
    """|got - R| <= 4 gamma_{n+1} 1/2 sum_i sigma_i a_i^2, a_i = sum_j |W_ji err_j|.

    R = 1/2 sum_i sigma_i (w_i . err)^2 is exact, in rationals, on the
    float err, eigenbasis W and eigenvalues sigma; gamma_k = k u / (1 - k u).
    Every term of the computed sum is nonnegative, so its rounding stays
    within a few gamma_n of the terms (Higham, Accuracy and Stability of
    Numerical Algorithms, section 3.1).
    """
    u = Fraction(1, 2**53)
    n = len(err)
    gamma = (n + 1) * u / (1 - (n + 1) * u)
    err = [Fraction(e) for e in err.tolist()]
    columns = [[Fraction(w) for w in col] for col in basis.T.tolist()]
    sigma = [Fraction(s) for s in eigenvalues.tolist()]
    coeffs = [sum(w * e for w, e in zip(col, err)) for col in columns]
    mags = [sum(abs(w * e) for w, e in zip(col, err)) for col in columns]
    exact = sum(s * c * c for s, c in zip(sigma, coeffs)) / 2
    scale = sum(s * a * a for s, a in zip(sigma, mags)) / 2
    return abs(Fraction(got) - exact) <= 4 * gamma * scale


def test_certify_test_losses_are_within_the_rounding_bound_of_the_exact_loss():
    """r_big and r_small against the exact R of their float errors, with and without model error."""
    for seed, n, fraction in _draws(60):
        inst = _generated(seed, n=n, model_error_fraction=fraction)
        run_s, run_b = _runs_for(inst)
        cert = certify(inst.pair, run_s, run_b, inst.alpha)
        test = inst.pair.test.spectrum
        for got, run in ((cert.r_big, run_b), (cert.r_small, run_s)):
            err = run_error(inst.pair, run)
            assert _within_the_test_loss_bound(got, test.eigenvalues, test.eigenvectors, err)
    # Stacks of n = 1..12 (numpy sums a row with eight accumulators from
    # n = 8), whose errors cancel across scales 2^-20..2^20.
    rng = np.random.default_rng(6)
    for n in range(1, 13):
        train, test = rng.normal(size=(2, 5, n, n))
        sigma = rng.uniform(0.1, 1.0, size=(5, n))
        offsets, mu_s, mu_b = rng.normal(size=(3, 5, n)) * np.exp2(rng.integers(-20, 21, (3, 5, n)))
        _, _, r_big, r_small = run_measurements(train, test, sigma, offsets, mu_s, mu_b)
        err_b, err_s = matvec(train, np.array([mu_b, mu_s])) + offsets
        for k in range(5):
            assert _within_the_test_loss_bound(r_big[k], sigma[k], test[k], err_b[k])
            assert _within_the_test_loss_bound(r_small[k], sigma[k], test[k], err_s[k])
