"""The closed-form 2-D instance against the generic GD machinery."""

import numpy as np
import pytest

from stepbias import toy2d
from stepbias.errors import InfeasibleWindow, InvalidRegime
from stepbias.gd import iterate
from stepbias.quadratic import evaluate
from stepbias.regimes import RegimeKind, rate_kind
from stepbias.spectral import diagonal_spectrum


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
    want = evaluate(train, theta) - train.min_value
    assert toy2d.excess_loss(inst, 0.5, 7) == pytest.approx(want, rel=1e-12)
    x, y = toy2d.trajectory(inst, 0.5, 7)
    assert evaluate(test, np.array([x, y])) == pytest.approx(0.5 * (x * x + y * y))


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


def test_feasible_alpha_validates_regimes():
    inst = toy2d.ToyInstance(1.0, 0.2)
    with pytest.raises(InvalidRegime):
        toy2d.feasible_alpha(inst, 1.95, 1.95, target=1e-8)


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
