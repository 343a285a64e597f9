"""The closed-form 2-D instance against the generic GD machinery."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stepbias import toy2d
from stepbias.config import TAU, validate_config
from stepbias.errors import AlreadyBelowLevelSet, InfeasibleWindow, InvalidRegime, ZeroDenominator
from stepbias.experiments import run_experiment
from stepbias.gd import (
    StopStatus, decompose, iterate, level_set_lanes, level_set_search, reconstruct,
)
from stepbias.records import RegimeKind, rate_kind
from stepbias.spectral import diagonal_spectrum

from reference import objective_loss


def test_instance_validation():
    with pytest.raises(ValueError):
        toy2d.ToyInstance(0.2, 1.0)
    with pytest.raises(ValueError):
        toy2d.ToyInstance(1.0, 0.2, iota=0.0)
    inst = toy2d.ToyInstance(1.0, 0.2)
    assert inst.kappa == 5.0


def test_trajectory_matches_generic_gd():
    inst = toy2d.ToyInstance(1.0, 0.2, iota=0.7)
    train = inst.train_objective()
    for eta in (0.3, 1.0, 1.9):
        for t in (0, 1, 5, 20):
            x, y = toy2d.trajectory(inst, eta, t)
            theta = iterate(train, inst.theta0(), eta, t)
            assert np.allclose([x, y], theta, rtol=1e-12, atol=1e-300)
    with pytest.raises(ValueError):
        toy2d.trajectory(inst, 0.3, -1)


def test_excess_loss_matches_objectives():
    inst = toy2d.ToyInstance(1.0, 0.2)
    train = inst.train_objective()
    test = inst.test_objective()
    theta = iterate(train, inst.theta0(), 0.5, 7)
    want = objective_loss(train, theta)
    assert toy2d.excess_loss(inst, 0.5, 7) == pytest.approx(want, rel=1e-12)
    x, y = toy2d.trajectory(inst, 0.5, 7)
    assert objective_loss(test, np.array([x, y])) == pytest.approx(0.5 * (x * x + y * y))


def test_thresholds_ordering_and_regime_gate():
    # The loss passes (4/3) alpha before alpha, so the crossing bracket
    # is [t3, t2] with t3 < t2.
    inst = toy2d.ToyInstance(1.0, 0.2)
    t1, t2, t3 = toy2d.thresholds(inst, 0.5, 1e-8, RegimeKind.SMALL)
    assert 0 < t1 < t3 < t2
    t1, t2, t3 = toy2d.thresholds(inst, 1.9, 1e-8, RegimeKind.BIG)
    assert 0 < t1 < t3 < t2
    with pytest.raises(InvalidRegime):
        toy2d.thresholds(inst, 1.9, 1e-8, RegimeKind.SMALL)
    with pytest.raises(InvalidRegime):
        toy2d.thresholds(inst, 0.5, 1e-8, RegimeKind.DIVERGENT)
    with pytest.raises(ValueError):
        toy2d.thresholds(inst, 0.5, -1.0, RegimeKind.SMALL)


def test_thresholds_keep_the_float_quotient_where_it_is_normal():
    inst = toy2d.ToyInstance(1.0, 0.2, iota=0.7)
    eta, alpha = 1.9, 1e-8
    a1, a2 = abs(1.0 - eta), abs(1.0 - eta * 0.2)
    assert toy2d.thresholds(inst, eta, alpha, RegimeKind.BIG) == (
        0.5 * math.log(0.5) / math.log(a2 / a1),
        0.5 * math.log(alpha / (1.0 * 0.7)) / math.log(a1),
        0.5 * math.log((4.0 / 3.0) * alpha / (1.0 * 0.7)) / math.log(a1),
    )


@pytest.mark.parametrize("sigma1", [4.0, 0.25])
def test_small_rate_t1_caps_the_mass_ratio_at_any_scale(sigma1):
    """At the Small t1, epsilon_s^2 = (a1/a2)^(2 t1) is sigma_2 / (2 sigma_1), at sigma_1 != 1."""
    inst = toy2d.ToyInstance(sigma1, 0.2 * sigma1)
    eta = 0.75 / sigma1
    t1, _, _ = toy2d.thresholds(inst, eta, 1e-8, RegimeKind.SMALL)
    a1, a2 = abs(1.0 - eta * inst.sigma1), abs(1.0 - eta * inst.sigma2)
    assert (a1 / a2) ** (2 * t1) == pytest.approx(inst.sigma2 / (2 * inst.sigma1), rel=1e-12)


def test_thresholds_refuse_a_factor_that_rounds_to_one():
    """A zero log is InfeasibleWindow (exit 2), not ZeroDivisionError."""
    # eta sigma_2 is below half an ulp of 1: the leading Small factor is 1.
    inst = toy2d.ToyInstance(1.0, 1e-300)
    with pytest.raises(InfeasibleWindow, match="leading factor is 1.0"):
        toy2d.thresholds(inst, 1.0, 1e-300, RegimeKind.SMALL)
    # Adjacent eigenvalues at a tiny rate: both factors round alike, so
    # log(a2 / a1) is 0.
    inst = toy2d.ToyInstance(math.nextafter(1.0, 2.0), 1.0)
    with pytest.raises(InfeasibleWindow, match="t1 is undefined"):
        toy2d.thresholds(inst, 1e-10, 1e-8, RegimeKind.SMALL)


def test_thresholds_take_logs_where_the_quotient_underflows():
    # alpha / sigma_1 underflows to 0; its log is log(alpha) - log(sigma_1).
    inst = toy2d.ToyInstance(10.0, 0.2)
    eta = 2.0 * TAU / 10.0
    lead = abs(1.0 - eta * 10.0)
    _, t2, t3 = toy2d.thresholds(inst, eta, 5e-324, RegimeKind.BIG)
    want = 0.5 * (math.log(5e-324) - math.log(10.0)) / math.log(lead)
    assert t2 == pytest.approx(want, rel=1e-12) and t3 == pytest.approx(want, rel=1e-12)
    # eta = 1/sigma_2 kills the off direction of a Big run: a2/a1 is 0,
    # its log -inf, and t1 is 0.
    t1, t2, t3 = toy2d.thresholds(toy2d.ToyInstance(1.0, 0.6), 1.0 / 0.6, 1e-8, RegimeKind.BIG)
    assert t1 == 0.0 and 0.0 < t3 < t2 < math.inf


def test_small_t1_handles_exact_kill():
    # eta = 1/sigma_1 zeroes the top direction in one step.
    inst = toy2d.ToyInstance(1.0, 0.2)
    t1, _, _ = toy2d.thresholds(inst, 1.0, 1e-8, RegimeKind.SMALL)
    assert t1 == 1.0


def test_feasible_alpha_then_ratio_check():
    inst = toy2d.ToyInstance(1.0, 0.2)
    alpha = toy2d.feasible_alpha(inst, 1.0, 1.95, target=1e-8, margin=1.01)
    assert 0 < alpha < 1e-6
    ratio, ok = toy2d.ratio_check(inst, 1.0, 1.95, alpha, 10**6)
    assert ok and ratio >= inst.kappa


def _feasible_alpha_by_scan(inst, eta_s, eta_b, target, margin, scan=400):
    """Oracle: feasible_alpha with both landing steps found by linear scans."""

    def first_hit(eta, level):
        t = 1
        while toy2d.excess_loss(inst, eta, t) > level:
            t += 1
        return t

    t = first_hit(eta_s, target)
    for candidate_t in range(t, t + scan):
        alpha = toy2d.excess_loss(inst, eta_s, candidate_t) * (1.0 + 1e-9)
        tb = first_hit(eta_b, alpha)
        xs, ys = toy2d.trajectory(inst, eta_s, candidate_t)
        xb, yb = toy2d.trajectory(inst, eta_b, tb)
        if (xs * xs + ys * ys) / (xb * xb + yb * yb) >= inst.kappa * margin:
            return alpha
    return None


@pytest.mark.parametrize(
    "sigma2, eta_b, target, margin",
    [
        (0.2, 1.95, 1e-8, 1.01),
        (0.5, 1.9, 1e-6, 1.0 + 1e-9),
        (0.1, 1.99, 1e-10, 1.05),
        (0.2, 1.7, 1e-4, 1.0),
    ],
)
def test_feasible_alpha_matches_linear_scan(sigma2, eta_b, target, margin):
    inst = toy2d.ToyInstance(1.0, sigma2)
    want = _feasible_alpha_by_scan(inst, 1.0, eta_b, target, margin)
    if want is None:
        with pytest.raises(InfeasibleWindow):
            toy2d.feasible_alpha(inst, 1.0, eta_b, target, margin)
    else:
        assert toy2d.feasible_alpha(inst, 1.0, eta_b, target, margin) == want


def test_ratio_check_infeasible_for_large_alpha():
    inst = toy2d.ToyInstance(1.0, 0.2)
    with pytest.raises(InfeasibleWindow):
        toy2d.ratio_check(inst, 1.0, 1.95, 0.4, 10**6)


def test_ratio_check_refuses_a_run_that_stops_short_small_rate_first():
    inst = toy2d.ToyInstance(1.0, 0.2)
    alpha = toy2d.feasible_alpha(inst, 1.0, 1.9, target=1e-8, margin=1.01)
    with pytest.raises(InfeasibleWindow, match="^small-rate run stopped with MaxStepsExceeded$"):
        toy2d.ratio_check(inst, 1.0, 1.9, alpha, 10)
    with pytest.raises(InfeasibleWindow, match="^big-rate run stopped with MaxStepsExceeded$"):
        toy2d.ratio_check(inst, 1.0, 1.9, alpha, 50)
    with pytest.raises(ValueError, match="t_max must be at least 1"):
        toy2d.ratio_check(inst, 1.0, 1.9, alpha, 0)
    with pytest.raises(ValueError, match="level-set target must be finite and positive"):
        toy2d.ratio_check(inst, 1.0, 1.9, math.nan, 10**6)
    # A small iota starts below a target the window gate lets through.
    small_start = toy2d.ToyInstance(1.0, 0.2, iota=0.01)
    with pytest.raises(AlreadyBelowLevelSet, match=r"^initial excess loss 6\.000e-05 is already <= alpha 1\.000e-04$"):
        toy2d.ratio_check(small_start, 1.0, 1.95, 1e-4, 10**6)


def test_feasible_alpha_refuses_a_small_rate_search_that_stops_short():
    # At sigma_2 = 1e-6 the small-rate loss needs about 1.6e7 steps to reach 1e-20.
    inst = toy2d.ToyInstance(1.0, 1e-6)
    with pytest.raises(InfeasibleWindow, match="^small-rate run stopped with MaxStepsExceeded$"):
        toy2d.feasible_alpha(inst, 1.0, 2.0 - 1e-6, target=1e-20, margin=1.02)


def test_ratio_check_refuses_a_big_rate_test_loss_that_underflows():
    # At alpha 5e-324 the big-rate iterate's test loss is 0 in floats.
    inst = toy2d.ToyInstance(1.0, 0.5)
    with pytest.raises(ZeroDenominator, match="leaves no finite ratio"):
        toy2d.ratio_check(inst, 1.0, 1.5, 5e-324, 10**7)


# The toy2d_grid benchmark instances: (sigma1, sigma2, eta_big in 1/sigma1 units).
TOY2D_GRID = [
    (sigma1, sigma1 / kappa, eta_big)
    for kappa in (2.0, 5.0, 10.0)
    for sigma1 in (1.0, 10.0)
    for eta_big in (2.0 * TAU, 1.9)
]


def test_first_hit_from_the_lower_bound_is_the_hit_from_step_1(monkeypatch):
    """feasible_alpha's landing searches start at gd.hit_lower_bound.

    At both rates of each toy2d_grid instance (the small rate at the
    target, the big rate at the aligned alpha) the step is the one the
    search from step 1 finds, after at most 3 loss evaluations.
    """
    real = toy2d.excess_loss
    evaluated = []

    def counting(inst, eta, t):
        evaluated.append(t)
        return real(inst, eta, t)

    for sigma1, sigma2, eta_big in TOY2D_GRID:
        inst = toy2d.ToyInstance(sigma1, sigma2)
        eta_s, eta_b = 1.0 / sigma1, eta_big / sigma1
        alpha = toy2d.feasible_alpha(inst, eta_s, eta_b, target=1e-8, margin=1.0 + 1e-9)
        for eta, level in ((eta_s, 1e-8), (eta_b, alpha)):
            want = level_set_search(lambda t: real(inst, eta, t), level, 10**7, start=1)
            evaluated.clear()
            with monkeypatch.context() as m:
                m.setattr(toy2d, "excess_loss", counting)
                got = toy2d._first_hit(inst, eta, level, "landing")
            assert (got, StopStatus.HIT_LEVEL_SET) == want
            assert len(evaluated) <= 3


def test_feasible_alpha_validates_regimes():
    inst = toy2d.ToyInstance(1.0, 0.2)
    with pytest.raises(InvalidRegime):
        toy2d.feasible_alpha(inst, 1.95, 1.95, target=1e-8, margin=1.02)


def classify_rate(eta, spectrum):
    """The kind of eta on a spectrum: rate_kind at its thresholds 2/(sigma_1+sigma_n), 2/sigma_1."""
    return rate_kind(eta, 2.0 / (spectrum.top + spectrum.bottom), 2.0 / spectrum.top)


@pytest.mark.parametrize("sigma1, sigma2", [(1.0, 0.2), (10, 10 / 3), (3.0, 2.999)])
def test_regime_gate_classifies_like_classify_rate(sigma1, sigma2):
    """The gate's float rule gives classify_rate's kind on the instance's spectrum."""
    inst = toy2d.ToyInstance(sigma1, sigma2)
    spec = diagonal_spectrum([sigma1, sigma2])
    low, high = 2.0 / (sigma1 + sigma2), 2.0 / sigma1
    etas = [0.5 * low, low * (1 - 1e-10), low * (1 - 5e-13), low, low * (1 + 5e-13),
            0.5 * (low + high), high * (1 - 5e-13), high, high * (1 + 1e-10), 3.0 * high]
    for eta in etas:
        want = classify_rate(eta, spec)
        for kind in (RegimeKind.SMALL, RegimeKind.BIG):
            if want is kind:
                assert toy2d.thresholds(inst, eta, 1e-8, kind) is not None
            else:
                with pytest.raises(InvalidRegime):
                    toy2d.thresholds(inst, eta, 1e-8, kind)
    # A rate <= 0 is NotPositive, refused like any other wrong kind.
    for eta in (0.0, -0.5):
        with pytest.raises(InvalidRegime, match="NotPositive"):
            toy2d.thresholds(inst, eta, 1e-8, RegimeKind.SMALL)


def _toy2d_instances():
    """(instance, eta_s, eta_b, alpha) of each toy2d_grid instance, alpha as the CLI picks it."""
    for sigma1, sigma2, eta_big in TOY2D_GRID:
        inst = toy2d.ToyInstance(sigma1, sigma2)
        eta_s, eta_b = 1.0 / sigma1, eta_big / sigma1
        alpha = toy2d.feasible_alpha(inst, eta_s, eta_b, target=1e-8, margin=1.0 + 1e-9)
        yield inst, eta_s, eta_b, alpha


def test_ratio_check_agrees_with_the_generic_pipeline():
    """A two-lane gd.level_set_lanes on the toy's objectives lands where ratio_check does.

    Its test losses, evaluated at the reconstructed iterates, give
    ratio_check's ratio to 1e-15 relative.
    """
    for inst, eta_s, eta_b, alpha in _toy2d_instances():
        train = inst.train_objective()
        start = decompose(train, inst.theta0())
        sig, iota = (np.tile(v, (2, 1)) for v in (train.spectrum.eigenvalues, start))
        lanes = level_set_lanes(sig, iota, [eta_s, eta_b], [alpha] * 2, [10**7] * 2)
        for status, steps, eta in zip(lanes.outcome, lanes.steps.tolist(), (eta_s, eta_b)):
            assert status is StopStatus.HIT_LEVEL_SET
            assert steps == toy2d._first_hit(inst, eta, alpha, "landing", 10**7)
        test = inst.test_objective()
        r_small, r_big = (objective_loss(test, reconstruct(train, mu)) for mu in lanes.mu)
        ratio, _ = toy2d.ratio_check(inst, eta_s, eta_b, alpha, 10**7)
        assert ratio == pytest.approx(r_small / r_big, rel=1e-15, abs=0.0)


def test_ratio_check_reports_the_ratio_feasible_alpha_accepted(monkeypatch):
    cases = [(inst, eta_s, eta_b) for inst, eta_s, eta_b, _ in _toy2d_instances()]
    # The toy2d_grid instances accept their first candidate; these two scan on.
    cases += [(toy2d.ToyInstance(1.0, 0.05), eta_s, 1.91) for eta_s in (1.0, 0.2)]
    real = toy2d._test_losses
    scanned, lengths = [], []

    def recording(*args):
        scanned.append(real(*args))
        return scanned[-1]

    monkeypatch.setattr(toy2d, "_test_losses", recording)
    for inst, eta_s, eta_b in cases:
        scanned.clear()
        alpha = toy2d.feasible_alpha(inst, eta_s, eta_b, target=1e-8, margin=1.0 + 1e-9)
        r_small, r_big = scanned[-1]
        assert toy2d.ratio_check(inst, eta_s, eta_b, alpha, 10**7) == (r_small / r_big, True)
        lengths.append(len(scanned) - 1)  # ratio_check's own call is not the scan's
    assert lengths == [1] * len(TOY2D_GRID) + [76, 301]



def _run_toy2d(tmp_path, label, **raw):
    """toy2d_ratio.csv of one toy2d config, run in process."""
    cfg = validate_config(dict(raw, experiment="toy2d", output_dir=str(tmp_path / label)))
    run_experiment(cfg)
    return (tmp_path / label / "toy2d_ratio.csv").read_bytes()


def test_a_default_run_searches_each_landing_once(tmp_path, monkeypatch):
    """One search for the scan's start and one per landing; none again for the ratio."""
    real = toy2d._first_hit
    hits = []

    def counting(*args, **kwargs):
        hits.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(toy2d, "_first_hit", counting)
    row = _run_toy2d(tmp_path, "default").decode().splitlines()[1].split(",")
    assert len(hits) == 3
    hits.clear()
    _run_toy2d(tmp_path, "alpha", alpha=float(row[5]))
    assert len(hits) == 2


_SCANNING = [{"sigma2": 0.05, "eta_small": eta_s, "eta_big": 1.91} for eta_s in (1.0, 0.2)]


@pytest.mark.parametrize(
    "raw",
    [{"sigma1": s1, "sigma2": s2, "eta_big": eta_big} for s1, s2, eta_big in TOY2D_GRID]
    + _SCANNING,
)
def test_a_default_run_writes_the_row_of_a_run_at_its_alpha(tmp_path, raw):
    """The ratio the scan accepted is the one ratio_check reports at the written alpha."""
    default = _run_toy2d(tmp_path, "default", **raw)
    alpha = float(default.decode().splitlines()[1].split(",")[5])
    assert _run_toy2d(tmp_path, "alpha", alpha=alpha, **raw) == default


# The AVX-512 features of numpy's runtime dispatch, read as CI reads them.
_CORE = getattr(np, "_core", None) or np.core
_AVX512 = [
    f for f in _CORE._multiarray_umath.__cpu_dispatch__ if f.startswith("AVX512") or f == "X86_V4"
]


def _toy2d_ratio_csv(tmp_path, label, disabled):
    """toy2d_ratio.csv of the default toy2d config, run in a child process."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(Path(toy2d.__file__).resolve().parents[1])
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    out = tmp_path / label
    code = (
        "import sys; from stepbias.cli import main; "
        f"sys.exit(main(['run', '--config', sys.argv[1], '--output-dir', {str(out)!r}]))"
    )
    config = tmp_path / "toy2d.json"
    config.write_text('{"experiment": "toy2d"}')
    done = subprocess.run([sys.executable, "-c", code, str(config)], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    return (out / "toy2d_ratio.csv").read_bytes()


@pytest.mark.skipif(
    "NPY_DISABLE_CPU_FEATURES" not in os.environ
    and not any(_CORE._multiarray_umath.__cpu_features__.get(f) for f in _AVX512),
    reason="this CPU runs none of numpy's AVX-512 kernels: both dispatch paths are one",
)
def test_toy2d_outputs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    """The closed-form toy writes the same bytes with and without numpy's AVX-512 kernels."""
    assert _toy2d_ratio_csv(tmp_path, "default", []) == _toy2d_ratio_csv(
        tmp_path, "no-avx512", _AVX512
    )
