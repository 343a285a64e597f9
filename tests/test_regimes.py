"""Rate regimes, windows, and the certification bound."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepbias import gd, instances
from stepbias.errors import (
    DegenerateSpectrum,
    InfeasibleWindow,
    InvalidRegime,
    LevelSetMismatch,
    RegimeMismatch,
    ZeroDenominator,
)
from stepbias.config import validate_config
from stepbias.experiments import run_experiment, stream
from stepbias.instances import random_instance
from stepbias.quadratic import ProblemPair, QuadraticObjective
from stepbias.regimes import (
    RegimeKind,
    StepWindow,
    _mass_ratio,
    certify,
    check_assumptions,
    pair_record,
    rate_kind,
    regime_record,
)
from stepbias.spectral import Spectrum, condition_number, diagonal_spectrum

SPEC = diagonal_spectrum([1.0, 0.9, 0.3, 0.2])
# The rate thresholds 2/(sigma_1+sigma_n) and 2/sigma_1 of SPEC.
LOW, HIGH = 2.0 / (SPEC.top + SPEC.bottom), 2.0 / SPEC.top


class WrongRegime(Exception):
    """An oracle was asked for a quantity its regime does not define."""


# regime_record and certify take these numbers inline; the per-quantity
# functions they replaced are kept here as the bitwise oracles.


def attenuation(eta, sigma):
    """Oracle: per-step multiplier |1 - eta sigma| on an eigendirection."""
    if eta <= 0 or sigma <= 0:
        raise ValueError("eta and sigma must be positive")
    return abs(1.0 - eta * sigma)


def leading_attenuation(eta, spectrum, kind):
    """Oracle: |1 - eta sigma| on the regime's distinguished direction."""
    if kind is RegimeKind.SMALL:
        return attenuation(eta, spectrum.bottom)
    if kind is RegimeKind.BIG:
        return attenuation(eta, spectrum.top)
    raise WrongRegime(f"no distinguished direction for {kind.value} regime")


def second_attenuation(eta, spectrum, kind):
    """Oracle: second-biggest attenuation coefficient for a Small or Big rate.

    Small: |1 - eta sigma_{n-1}|. Big: max(|1 - eta sigma_2|,
    |1 - eta sigma_n|).
    """
    if spectrum.n < 2:
        raise WrongRegime("second attenuation needs at least two eigenvalues")
    sig = spectrum.eigenvalues
    if kind is RegimeKind.SMALL:
        return attenuation(eta, sig[-2])
    if kind is RegimeKind.BIG:
        return max(attenuation(eta, sig[1]), attenuation(eta, sig[-1]))
    raise WrongRegime(f"second attenuation undefined for {kind.value} regime")


def epsilon_ratio(run, kind):
    """Oracle: squared mass ratio off the distinguished direction.

    Big: sum_{i>1} mu_i^2 / mu_1^2. Small: sum_{i<n} mu_i^2 / mu_n^2.
    """
    mu = np.asarray(run.mu, dtype=float)
    if kind is RegimeKind.BIG:
        lead, rest = mu[0], mu[1:]
    elif kind is RegimeKind.SMALL:
        lead, rest = mu[-1], mu[:-1]
    else:
        raise WrongRegime(f"epsilon ratio undefined for {kind.value} regime")
    if abs(lead) < 1e-300:
        raise ZeroDenominator("distinguished coefficient underflowed below 1e-300")
    return float(np.sum((rest / lead) ** 2))


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
    with pytest.raises(ZeroDenominator):
        _mass_ratio(0.0, np.ones(1))
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
    got = regime_record(SPEC, kappa_r, eta_s, eta_b, iota).alpha_1
    assert got == pytest.approx(want, rel=1e-12)


def test_alpha_one_split_orders_the_windows():
    """At the split-reading ceiling both step windows stay feasible."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrum)
        for seed in range(30):
            inst = random_instance(stream(seed, "window-check"))
            spec = inst.pair.train.spectrum
            iota = spec.eigenvectors.T @ (inst.theta0 - inst.pair.train.optimum)
            kappa_r = inst.pair.test.spectrum.top / inst.pair.test.spectrum.bottom
            rec = regime_record(spec, kappa_r, inst.eta_s, inst.eta_b, iota)
            for win in rec.windows(rec.alpha_1_split):
                assert win.feasible


# The per-function derivations that regime_record replaced, kept as
# bitwise oracles: each call derives its numbers again from the spectrum.


def _alpha_one_reference(spectrum, iota, eta_s, eta_b, kappa_R, reading):
    """Oracle: one reading per call, each from its own intermediates."""
    i1, inn = float(iota[0]), float(iota[-1])
    sig = spectrum.eigenvalues
    n = spectrum.n
    kappa_F = condition_number(spectrum.eigenvalues)
    norm_sq = float(np.sum(iota * iota))
    den_small, den_big = _log_gaps_reference(spectrum, eta_s, eta_b)
    small_tail = 1.0 / (1.0 - eta_s * sig[-1])
    big_tail = 1.0 / (eta_b * sig[0] - 1.0)
    if reading == "displayed":
        num = math.log(
            norm_sq
            * max(16 * n * kappa_R, 4 * kappa_F)
            * max(1.0 / i1**2, 1.0 / inn**2)
            + small_tail
            + big_tail
        )
        return 0.5 * sig[-1] * inn**2 * math.exp(-num / min(den_small, den_big))
    num_big = math.log(norm_sq / i1**2 * 4 * n * kappa_R + big_tail)
    num_small = math.log(
        norm_sq / inn**2 * max(16 * n * kappa_R, 4 * kappa_F) + small_tail
    )
    return min(
        0.5 * sig[0] * i1**2 * math.exp(-num_big / den_big),
        0.5 * sig[-1] * inn**2 * math.exp(-num_small / den_small),
    )


def _log_gaps_reference(spectrum, eta_s, eta_b):
    """Oracle: the (Small, Big) log-gap denominators of t1."""
    small = math.log(
        leading_attenuation(eta_s, spectrum, RegimeKind.SMALL)
        / second_attenuation(eta_s, spectrum, RegimeKind.SMALL)
    )
    big = math.log(
        leading_attenuation(eta_b, spectrum, RegimeKind.BIG)
        / second_attenuation(eta_b, spectrum, RegimeKind.BIG)
    )
    return small, big


def _step_window_reference(spectrum, iota, eta, alpha, kappa_R, kind):
    """Oracle: (t1, t2, t3) of one regime, derived from scratch."""
    i1, inn = float(iota[0]), float(iota[-1])
    sig = spectrum.eigenvalues
    n = spectrum.n
    kappa_F = condition_number(spectrum.eigenvalues)
    norm_sq = float(np.sum(iota * iota))
    lead = leading_attenuation(eta, spectrum, kind)
    gap = math.log(lead / second_attenuation(eta, spectrum, kind))
    if kind is RegimeKind.BIG:
        t1 = 0.5 * math.log(4 * n * kappa_R * norm_sq / i1**2) / gap
        scale = sig[0] * i1**2
    else:
        t1 = (
            0.5
            * math.log(max(16 * n * kappa_R, 4 * kappa_F) * norm_sq / inn**2)
            / gap
        )
        scale = sig[-1] * inn**2
    decay = math.log(1.0 / lead)
    t2 = 0.5 * math.log(0.5 * scale / alpha) / decay
    t3 = 0.5 * math.log(1.25 * scale / alpha) / decay
    return StepWindow(t1=t1, t2=t2, t3=t3)


def _random_instance_reference(rng, n, model_error_fraction):
    """Oracle: random_instance with every number derived per call."""
    for _ in range(instances.MAX_DRAWS):
        train_vals, train_angles, test_vals, test_angles, opt_train, iota = (
            instances._draw(rng, n)
        )
        train_basis, test_basis = instances.givens_bases([(n, train_angles), (n, test_angles)])
        train_spec = Spectrum(train_vals, train_basis)
        test_spec = Spectrum(test_vals, test_basis)
        sig1, sign = train_spec.eigenvalues[0], train_spec.eigenvalues[-1]
        eta_s = 1.0 / (sig1 + sign)
        eta_b = 1.9 / sig1
        kappa_R = test_spec.top / test_spec.bottom
        kappa_F = sig1 / sign
        args = (train_spec, iota, eta_s, eta_b, kappa_R)
        alpha = 0.5 * min(
            _alpha_one_reference(*args, "displayed"),
            _alpha_one_reference(*args, "split"),
        )
        if alpha >= 1e-280:
            break
    theta0 = opt_train + train_spec.eigenvectors @ iota
    fraction = model_error_fraction
    if fraction is None:
        fraction = 0.1 if rng.uniform() < 0.5 else 0.0
    opt_test = opt_train.copy()
    if fraction > 0:
        cap = min(0.25, kappa_F / (72.0 * kappa_R))
        direction = rng.normal(size=n)
        quad = 0.5 * float(direction @ test_spec.apply(direction))
        opt_test = opt_train + math.sqrt(fraction * cap * alpha / quad) * direction
    small, big = RegimeKind.SMALL, RegimeKind.BIG
    win_s = _step_window_reference(train_spec, iota, eta_s, alpha, kappa_R, small)
    win_b = _step_window_reference(train_spec, iota, eta_b, alpha, kappa_R, big)
    return alpha, int(10 + 4 * max(win_s.t3, win_b.t3)), theta0, opt_test


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
        kappa_r = condition_number(inst.pair.test.spectrum.eigenvalues)
        args = (spec, iota, inst.eta_s, inst.eta_b, kappa_r)
        rec = pair_record(inst.pair, iota, inst.eta_s, inst.eta_b)
        assert rec.alpha_1 == _alpha_one_reference(*args, "displayed")
        assert rec.alpha_1_split == _alpha_one_reference(*args, "split")
        distinct += rec.alpha_1 != rec.alpha_1_split
    assert distinct > 0


def test_record_matches_the_per_function_oracles():
    for seed, n, fraction in _draws():
        inst = _generated(seed, n=n, model_error_fraction=fraction)
        spec, tspec = inst.pair.train.spectrum, inst.pair.test.spectrum
        iota = gd.decompose(inst.pair.train, inst.theta0)
        kappa_r = condition_number(tspec.eigenvalues)
        rec = pair_record(inst.pair, iota, inst.eta_s, inst.eta_b)
        assert rec.kappa_F == condition_number(spec.eigenvalues)
        assert rec.kappa_R == kappa_r
        assert (rec.gap_s, rec.gap_b) == _log_gaps_reference(spec, inst.eta_s, inst.eta_b)
        args = (spec, iota, inst.eta_s, inst.eta_b, kappa_r)
        assert rec.alpha_1 == _alpha_one_reference(*args, "displayed")
        assert rec.alpha_1_split == _alpha_one_reference(*args, "split")
        assert rec.windows(inst.alpha) == (
            _step_window_reference(spec, iota, inst.eta_s, inst.alpha, kappa_r, RegimeKind.SMALL),
            _step_window_reference(spec, iota, inst.eta_b, inst.alpha, kappa_r, RegimeKind.BIG),
        )


def test_certify_with_a_shared_record_equals_certify_without():
    for seed, n, fraction in _draws():
        inst = _generated(seed, n=n, model_error_fraction=fraction)
        iota = gd.decompose(inst.pair.train, inst.theta0)
        rec = pair_record(inst.pair, iota, inst.eta_s, inst.eta_b)
        args = (inst.pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha)
        assert check_assumptions(*args, record=rec) == check_assumptions(*args)
        run_s, run_b = _runs_for(inst)
        shared = certify(inst.pair, run_s, run_b, inst.alpha, record=rec)
        own = certify(inst.pair, run_s, run_b, inst.alpha)
        for f in dataclasses.fields(shared):
            assert getattr(shared, f.name) == getattr(own, f.name), f.name


def test_shared_record_must_match_the_runs():
    inst = _generated(seed=5)
    run_s, run_b = _runs_for(inst)
    other = _generated(seed=6)
    rec = pair_record(
        other.pair, gd.decompose(other.pair.train, other.theta0), other.eta_s, other.eta_b
    )
    with pytest.raises(ValueError):
        certify(inst.pair, run_s, run_b, inst.alpha, record=rec)
    with pytest.raises(ValueError):
        check_assumptions(
            inst.pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha, record=rec
        )


def test_random_instance_matches_the_oracle_path():
    for seed, n, fraction in _draws():
        rng, ref_rng = stream(seed, "oracle-path"), stream(seed, "oracle-path")
        inst = _generated_from(rng, n=n, model_error_fraction=fraction)
        alpha, t_max, theta0, opt_test = _random_instance_reference(ref_rng, n, fraction)
        assert inst.alpha == alpha and inst.t_max == t_max
        assert np.array_equal(inst.theta0, theta0)
        assert np.array_equal(inst.pair.test.optimum, opt_test)
        assert rng.uniform() == ref_rng.uniform()


def test_record_outside_the_domain_has_no_readings():
    iota = np.array([0.5, -0.4, 0.3, 0.6])
    inside = regime_record(SPEC, 2.0, 0.7, 1.9, iota)
    assert all(math.isfinite(v) for v in (inside.alpha_1, inside.t1_s, inside.gap_b))
    outside = {
        "eta_s not Small": regime_record(SPEC, 2.0, 1.9, 1.9, iota),
        "eta_b Divergent": regime_record(SPEC, 2.0, 0.7, 3.0, iota),
        "zero iota_1": regime_record(SPEC, 2.0, 0.7, 1.9, np.array([0.0, 1, 1, 1])),
        "iota_n squared underflows": regime_record(
            SPEC, 2.0, 0.7, 1.9, np.array([1, 1, 1, 1e-200])
        ),
        # iota_n^2 is the least subnormal, and sigma_n iota_n^2 rounds to 0.
        "scale underflows": regime_record(SPEC, 2.0, 0.7, 1.9, np.array([1, 1, 1, 3e-162])),
        "one eigenvalue": regime_record(diagonal_spectrum([2.0]), 2.0, 0.3, 0.8, [1.0]),
        "repeated eigenvalue": regime_record(
            diagonal_spectrum([1.0, 0.5, 0.5, 0.2]), 2.0, 0.7, 1.9, iota
        ),
        # eta_s sigma_{n-1} == 1 exactly: the second Small attenuation is 0.
        "zero second attenuation": regime_record(
            diagonal_spectrum([1.0, 0.9, 0.8, 0.2]), 2.0, 1.25, 1.9, iota
        ),
    }
    for name, rec in outside.items():
        numbers = (rec.alpha_1, rec.alpha_1_split, rec.gap_s, rec.t1_b)
        numbers += dataclasses.astuple(rec.windows(1e-9)[1])
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
    assert [v.passed for v in verdicts] == [True, True, True, False]


def test_step_window_shape():
    iota = np.array([0.5, -0.4, 0.3, 0.6])
    rec = regime_record(SPEC, 2.0, 0.7, 1.9, iota)
    win, _ = rec.windows(1e-10)
    assert win.t1 > 0 and win.t2 < win.t3
    assert win.feasible == (win.t2 > win.t1)
    assert win.t1 == rec.t1_s
    for alpha in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            rec.windows(alpha)
    big = regime_record(SPEC, 2.0, 0.7, 3.0, iota).windows(1e-10)[1]
    assert not big.feasible and math.isnan(big.t2)


def test_windows_refuse_targets_whose_bounds_leave_the_float_range():
    # log(0.5 scale / alpha) overflows there: t2 = t3 = inf, and
    # window_empty would raise OverflowError on them.
    inst = _generated(model_error_fraction=0.0)
    rec = pair_record(inst.pair, gd.decompose(inst.pair.train, inst.theta0), inst.eta_s, inst.eta_b)
    for alpha in (1e-310, 5e-324):
        with pytest.raises(InfeasibleWindow):
            rec.windows(alpha)
    assert all(win.t3 < math.inf for win in rec.windows(1e-300))
    # Above the guard, a large boundary coefficient can still overflow scale / alpha.
    large = regime_record(SPEC, 2.0, 0.7, 1.9, np.array([1e5, 1.0, 1.0, 1e5]))
    with pytest.raises(InfeasibleWindow):
        large.windows(1e-299)


def test_a_zero_float_gap_is_outside_the_domain():
    """Adjacent eigenvalues whose attenuations round to one float: NaN, A4 fails."""
    # 1 - eta_s sigma_n and 1 - eta_s sigma_{n-1} are one float: Small gap 0.
    small = diagonal_spectrum([1.0, 0.5, 1e-3, np.nextafter(1e-3, 0.0)])
    pair = ProblemPair(
        QuadraticObjective(small, np.zeros(4)),
        QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, 0.5]), np.zeros(4)),
    )
    verdicts = check_assumptions(pair, np.ones(4), 1.0, 1.9995, 1e-6)
    assert [v.passed for v in verdicts] == [True, True, True, False]
    assert math.isnan(verdicts[3].details["alpha_1"])
    # |1 - eta_b sigma_1| and |1 - eta_b sigma_2| are one float: Big gap 0.
    s1 = 1.761975919418575
    big = diagonal_spectrum([s1, np.nextafter(s1, 0.0), 0.3 * s1, 0.2 * s1])
    records = {
        "Small": regime_record(small, 2.0, 1.0, 1.9995, np.ones(4)),
        "Big": regime_record(big, 2.0, 0.7 / s1, 0.9585242630026088, [0.5, 1, 1, 1]),
    }
    for name, rec in records.items():
        assert (rec.kind_s, rec.kind_b) == (RegimeKind.SMALL, RegimeKind.BIG), name
        numbers = (rec.gap_s, rec.gap_b, rec.t1_s, rec.t1_b, rec.alpha_1, rec.alpha_1_split)
        assert all(math.isnan(v) for v in numbers), name


def test_windows_take_logs_where_the_quotient_underflows():
    # scale_s = 0.2 * 1e-320 is subnormal: 0.5 scale_s / 1e10 underflows to 0.
    rec = regime_record(SPEC, 2.0, 0.7, 1.9, [0.5, 1, 1, 1e-160])
    win_s, win_b = rec.windows(1e10)
    decay = math.log(1.0 / rec.lead_s)
    log_ratio = math.log(rec.scale_s) - math.log(1e10)
    assert win_s.t2 == pytest.approx(0.5 * (math.log(0.5) + log_ratio) / decay, rel=1e-15)
    assert win_s.t3 == pytest.approx(0.5 * (math.log(1.25) + log_ratio) / decay, rel=1e-15)
    assert win_s.t2 < win_s.t3 < 0 and not win_s.feasible
    # Where the quotient is a normal float the window is the quotient's.
    assert win_b.t2 == 0.5 * math.log(0.5 * rec.scale_b / 1e10) / math.log(1.0 / rec.lead_b)
    # Across the switch the bounds move continuously.
    tiny = regime_record(SPEC, 2.0, 0.7, 1.9, [0.5, 1, 1, 1e-100])
    edge = 0.5 * tiny.scale_s / sys.float_info.min
    above, below = tiny.windows(edge)[0], tiny.windows(np.nextafter(edge, math.inf))[0]
    assert below.t2 == pytest.approx(above.t2, rel=1e-13)
    for alpha in (1e-300, 1e-3, 1.0, 1e300, sys.float_info.max):
        for win in tiny.windows(alpha) + rec.windows(alpha):
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
        assert _mass_ratio(1e-299, np.array([1e10, 1.0])) == math.inf
        with pytest.raises(InvalidRegime):
            certify(pair, *runs, 1e-6)


def test_complexity_bounds_shrink_with_gap():
    iota = np.array([0.5, -0.4, 0.3, 0.6])
    wide = regime_record(diagonal_spectrum([1.0, 0.9, 0.3, 0.2]), 2.0, 0.7, 1.9, iota)
    narrow = regime_record(diagonal_spectrum([1.0, 0.9, 0.21, 0.2]), 2.0, 0.7, 1.9, iota)
    assert 0 < narrow.gap_s < wide.gap_s
    assert narrow.t1_s > wide.t1_s


def _generated(seed=0, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrum)
        return random_instance(stream(seed, "regimes-test"), **kw)


def _generated_from(rng, n=5, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrum)
        return random_instance(rng, n=n, **kw)


def _alpha_one_failing(monkeypatch, failures):
    """Make the first ``failures`` alpha_1 evaluations underflow; count them.

    random_instance reads both alpha_1 readings from one record per attempt.
    """
    real = instances.regime_record
    calls = []

    def fake(*args, **kwargs):
        calls.append(1)
        rec = real(*args, **kwargs)
        if len(calls) <= failures:
            rec = dataclasses.replace(rec, alpha_1=0.0, alpha_1_split=0.0)
        return rec

    monkeypatch.setattr(instances, "regime_record", fake)
    return calls


def test_random_instance_retry_redraws_from_the_same_stream(monkeypatch):
    # One rejected attempt (one alpha_1 evaluation, both readings)
    # consumes exactly one attempt's draws, then the next attempt
    # proceeds as a fresh call.
    ref_rng = stream(3, "retry")
    instances._draw(ref_rng, 5)
    want = _generated_from(ref_rng)
    calls = _alpha_one_failing(monkeypatch, 1)
    got = _generated_from(stream(3, "retry"))
    assert len(calls) == 2
    assert got.alpha == want.alpha and got.t_max == want.t_max
    assert np.array_equal(got.theta0, want.theta0)
    assert np.array_equal(got.pair.test.optimum, want.pair.test.optimum)
    assert np.array_equal(got.pair.train.spectrum.matrix(), want.pair.train.spectrum.matrix())


def test_random_instance_gives_up_after_max_draws(monkeypatch):
    calls = _alpha_one_failing(monkeypatch, math.inf)
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


def test_check_assumptions_on_singular_spectra_returns_verdicts():
    # Non-positive bottom eigenvalues give infinite condition numbers,
    # not a division by zero or a negative ratio.
    theta0 = np.array([0.5, 0.5, 0.5, 0.5])
    for bottom in (0.0, -1e-3):
        train = QuadraticObjective(diagonal_spectrum([1.0, 0.6, 0.3, bottom]), np.zeros(4))
        test = QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, bottom]), np.zeros(4))
        verdicts = check_assumptions(ProblemPair(train, test), theta0, 0.7, 1.9, 1e-10)
        passed = {v.name: v.passed for v in verdicts}
        assert len(verdicts) == 4
        assert not passed["A1_distinct_eigenvalues"]
        assert not passed["A4_level_set_target"]


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


def test_check_assumptions_fails_a4_on_bad_alpha():
    inst = _generated()
    for alpha in (0.0, -1.0, math.nan, math.inf, 5e-324, 1e-310, 0.99e-300):
        verdicts = check_assumptions(inst.pair, inst.theta0, inst.eta_s, inst.eta_b, alpha)
        assert [v.passed for v in verdicts] == [True, True, True, False], alpha


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
    """Every sub-verdict and the final bound hold on each pair that passes A1-A4.

    alpha is drawn in (0, alpha_1]; a draw that fails an assumption
    (mostly A4's model-error cap, or a target that underflows) checks
    nothing.
    """
    inst = _generated_from(np.random.default_rng(seed), n=None,
                           model_error_fraction=model_error_fraction)
    pair = inst.pair
    record = pair_record(pair, gd.decompose(pair.train, inst.theta0), inst.eta_s, inst.eta_b)
    alpha = alpha_fraction * record.alpha_1
    verdicts = check_assumptions(pair, inst.theta0, inst.eta_s, inst.eta_b, alpha, record=record)
    if not all(v.passed for v in verdicts):
        return
    win_s, win_b = record.windows(alpha)
    t_max = int(10 + 4 * max(win_s.t3, win_b.t3))
    run_s = gd.run_to_level_set(pair.train, inst.theta0, inst.eta_s, alpha, t_max)
    run_b = gd.run_to_level_set(pair.train, inst.theta0, inst.eta_b, alpha, t_max)
    cert = certify(pair, run_s, run_b, alpha, record=record)
    assert all(cert.verdicts.values()), cert.verdicts
    assert cert.verdict_final, cert.reason


def test_check_assumptions_on_a_one_dimensional_pair_returns_verdicts():
    train = QuadraticObjective(diagonal_spectrum([2.0]), np.zeros(1))
    test = QuadraticObjective(diagonal_spectrum([1.0]), np.zeros(1))
    verdicts = check_assumptions(ProblemPair(train, test), np.ones(1), 0.3, 0.8, 1e-3)
    passed = {v.name: v.passed for v in verdicts}
    assert len(verdicts) == 4
    assert not passed["A1_distinct_eigenvalues"]
    assert not passed["A4_level_set_target"]


def test_check_assumptions_on_non_positive_rates_fails_a2():
    train = QuadraticObjective(diagonal_spectrum([1.0, 0.6, 0.3, 0.2]), np.zeros(4))
    test = QuadraticObjective(diagonal_spectrum([1.0, 0.8, 0.7, 0.5]), np.zeros(4))
    pair = ProblemPair(train, test)
    theta0 = np.array([0.5, 0.5, 0.5, 0.5])
    for eta_s, eta_b in ((0.0, 1.9), (-1.0, 1.9), (0.7, 0.0)):
        verdicts = check_assumptions(pair, theta0, eta_s, eta_b, 1e-10)
        assert [v.passed for v in verdicts] == [True, False, True, False], (eta_s, eta_b)
        kinds = verdicts[1].details
        assert "NotPositive" in (kinds["eta_s_kind"], kinds["eta_b_kind"])


def _test_loss_reference(pair, run):
    """Oracle: R(theta) of a run from V mu + (theta_hat - theta_hat_*)."""
    offset = pair.train.optimum - pair.test.optimum
    err = pair.train.spectrum.eigenvectors @ run.mu + offset
    return 0.5 * float(err @ pair.test.spectrum.apply(err))


def test_certify_ratios_and_test_losses_match_the_references():
    """Bitwise, on generated pairs with and without model error."""
    for seed, n, fraction in _draws(60):
        inst = _generated(seed, n=n, model_error_fraction=fraction)
        run_s, run_b = _runs_for(inst)
        cert = certify(inst.pair, run_s, run_b, inst.alpha)
        assert cert.epsilon_b2 == epsilon_ratio(run_b, RegimeKind.BIG)
        assert cert.epsilon_s2 == epsilon_ratio(run_s, RegimeKind.SMALL)
        assert cert.r_big == _test_loss_reference(inst.pair, run_b)
        assert cert.r_small == _test_loss_reference(inst.pair, run_s)
    rng = np.random.default_rng(5)
    for _ in range(200):
        mu = rng.normal(size=int(rng.integers(2, 12))) * 10.0 ** rng.integers(-5, 5)
        assert _mass_ratio(mu[0], mu[1:]) == epsilon_ratio(_fake_run(mu), RegimeKind.BIG)
        assert _mass_ratio(mu[-1], mu[:-1]) == epsilon_ratio(_fake_run(mu), RegimeKind.SMALL)
