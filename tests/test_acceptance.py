"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced; without -s pytest shows them for failing criteria.
"""

import csv
import time

import numpy as np
import pytest

from stepbias import gd, kernels, toy2d
from stepbias.config import TAU, validate_config
from stepbias.experiments import run_experiment, stream
from stepbias.filters import (
    cut_off,
    gd_filter,
    iterated_tikhonov,
    residual,
    residual_argmax,
    tikhonov,
)
from stepbias.instances import random_instance
from stepbias.regimes import certify, check_assumptions
from stepbias.spectral import diagonal_spectrum


def report(number, label, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def random_objective(rng, n):
    from stepbias.quadratic import QuadraticObjective
    from stepbias.spectral import eig_sym

    A = rng.normal(size=(n, n))
    spec = eig_sym(A @ A.T + 0.1 * np.eye(n))
    return QuadraticObjective(spec, rng.normal(size=n))


def test_criterion_1_closed_form_vs_iterative():
    """1000 random instances, n <= 20, t <= 200, coordinate match to 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        obj = random_objective(rng, n)
        theta0 = rng.normal(size=n)
        eta = float(rng.uniform(0.05, 1.95)) / obj.spectrum.top
        t = int(rng.integers(1, 201))
        run = gd.closed_form(obj, theta0, eta, t)
        theta_iter = gd.iterate(obj, theta0, eta, t)
        scale = np.maximum(np.abs(run.theta), np.abs(theta_iter))
        dev = np.abs(run.theta - theta_iter) / np.maximum(scale, 1e-12)
        worst = max(worst, float(np.max(dev)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(
        1,
        f"closed-form vs iterative GD (worst rel dev {worst:.2e}, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_certificate_suite():
    """100 random problem pairs: assumptions, windows, and the 34x bound."""
    t0 = time.perf_counter()
    failures = []
    for i in range(100):
        inst = random_instance(stream(0, f"acceptance-{i}"))
        verdicts = check_assumptions(
            inst.pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha
        )
        if not all(v.passed for v in verdicts):
            failures.append((i, "assumptions"))
            continue
        run_s = gd.run_to_level_set(
            inst.pair.train, inst.theta0, inst.eta_s, inst.alpha, inst.t_max
        )
        run_b = gd.run_to_level_set(
            inst.pair.train, inst.theta0, inst.eta_b, inst.alpha, inst.t_max
        )
        cert = certify(inst.pair, run_s, run_b, inst.alpha)
        bad = [name for name, passed in cert.verdicts.items() if not passed]
        if bad or not cert.verdict_final:
            failures.append((i, cert.reason or ",".join(bad)))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(
        2,
        f"certificate suite 100/100 ({len(failures)} failures, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_3_toy_ratio_sweep():
    """Test-loss ratio beats kappa for kappa in {2, 5, 10} and increases."""
    t0 = time.perf_counter()
    ratios = []
    ok = True
    for kappa in (2.0, 5.0, 10.0):
        inst = toy2d.ToyInstance(1.0, 1.0 / kappa)
        alpha = toy2d.feasible_alpha(inst, 1.0, 1.95, target=1e-8, margin=1.01)
        ratio, passed = toy2d.ratio_check(inst, 1.0, 1.95, alpha, 10**7)
        ratios.append(ratio)
        ok = ok and passed
    elapsed = time.perf_counter() - t0
    increasing = ratios[0] < ratios[1] < ratios[2]
    ok = ok and increasing and elapsed < 5.0
    report(
        3,
        "toy ratio sweep (ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + f", {elapsed:.1f}s)",
        ok,
    )


def test_criterion_4_filter_oracle():
    """Residual profiles match their closed forms to 1e-12."""
    sigmas = np.linspace(0.01, 1.0, 100)
    lam = 0.25
    worst = 0.0
    for s in sigmas:
        checks = (
            (cut_off(lam), 1.0 if s < lam else 0.0),
            (gd_filter(1.0, 4), abs(1.0 - s) ** 4),
            (gd_filter(2.0, 4), abs(1.0 - 2.0 * s) ** 4),
            (tikhonov(lam), lam / (s + lam)),
            (iterated_tikhonov(0.8, 5), (1.0 + 0.8 * s) ** -5),
        )
        for f, want in checks:
            worst = max(worst, abs(residual(f, float(s)) - want))
    tiko = tikhonov(lam)
    monotone = all(
        residual(tiko, float(b)) < residual(tiko, float(a))
        for a, b in zip(sigmas[:-1], sigmas[1:])
    )
    spec = diagonal_spectrum([1.0, 0.9, 0.3, 0.2])
    argmax_top = residual_argmax(gd_filter(2.0, 4), spec) == 0
    ok = worst <= 1e-12 and monotone and argmax_top
    report(4, f"spectral filter oracle (worst abs dev {worst:.1e})", ok)


def test_criterion_5_dual_primal_equivalence():
    """Dual GD matches its eigen-coordinate quadratic; HilbertNorm converges."""
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        data = kernels.two_cluster_dataset(20, rng)
        prob = kernels.kernel_problem(data, 0.5, 1e-6)
        dual = kernels.dual_objective(prob, kernels.GDMode.TRAIN_LOSS)
        eta = 1.0 / dual.spectrum.top
        alpha0 = rng.normal(size=20) * 0.1
        state = kernels.run_gd_alpha(prob, alpha0, eta, kernels.GDMode.TRAIN_LOSS, 100)
        got = kernels.to_eigen_coords(prob, state.alpha)
        want = gd.iterate(dual, kernels.to_eigen_coords(prob, alpha0), eta, 100)
        scale = np.maximum(np.abs(want), 1e-12)
        worst = max(worst, float(np.max(np.abs(got - want) / scale)))

    # HilbertNorm-mode convergence at eta = 1/(n sigma_1).
    rng = np.random.default_rng(0)
    data = kernels.two_cluster_dataset(20, rng)
    prob = kernels.kernel_problem(data, 0.1, 1e-6)
    astar = kernels.ridge_alpha(prob.K, prob.y, prob.lam)
    eta = 1.0 / (prob.n * prob.spectrum_of_Kn.top)
    state = kernels.DualState(np.zeros(20), kernels.GDMode.HILBERT_NORM)
    hit = None
    for t in range(1, 10_001):
        state = kernels.gd_alpha(prob, state, eta)
        if kernels.hilbert_distance2(prob, state.alpha, astar) < 1e-12:
            hit = t
            break
    ok = worst <= 1e-8 and hit is not None
    report(
        5,
        f"dual/primal equivalence (worst rel dev {worst:.1e}, "
        f"HilbertNorm hit 1e-6 at t={hit})",
        ok,
    )


def test_criterion_6_margin_lemma():
    """Hilbert balls of radius delta/2 around the reference keep error 0."""
    delta = 0.5
    rng = np.random.default_rng(11)
    train = kernels.two_cluster_dataset(200, rng)
    test = kernels.two_cluster_dataset(1000, np.random.default_rng(12))
    prob = kernels.kernel_problem(train, 0.5, 1e-6)
    astar = kernels.ridge_alpha(prob.K, prob.y, prob.lam)
    assert kernels.binary_error(prob, astar, test) == 0.0
    errors = []
    for _ in range(20):
        v = rng.normal(size=prob.n)
        norm = np.sqrt(float(v @ prob.K @ v))
        v *= (delta / 2.0) * 0.999 / norm
        perturbed = astar + v
        assert kernels.margin_certificate(prob, perturbed, astar, delta)
        errors.append(kernels.binary_error(prob, perturbed, test))
    ok = all(e == 0.0 for e in errors)
    report(6, f"margin lemma (max error {max(errors):.3f} over 20 balls)", ok)


def test_criterion_7_eta_sweep_trend(tmp_path):
    """Largest step size maximizes top-direction mass, minimizes Hilbert norm."""
    cfg = validate_config(
        {"experiment": "eta_sweep", "output_dir": str(tmp_path / "sweep")}
    )
    run_experiment(cfg)
    with open(tmp_path / "sweep" / "eta_sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["stop_status"] == "HitLevelSet" for r in rows)
    etas = [float(r["eta_mult"]) for r in rows]
    proj = [float(r["proj_e1"]) for r in rows]
    norms = [float(r["hilbert_norm"]) for r in rows]
    accs = [float(r["accuracy"]) for r in rows]
    assert etas[-1] == pytest.approx(TAU * 2.0)
    big = len(etas) - 1
    small = etas.index(1.0)
    ok = (
        int(np.argmax(proj)) == big
        and int(np.argmin(norms)) == big
        and accs[big] >= accs[small]
    )
    report(
        7,
        f"step-size sweep trend (proj argmax {np.argmax(proj)}, "
        f"norm argmin {np.argmin(norms)}, acc big {accs[big]:.3f} "
        f">= small {accs[small]:.3f})",
        ok,
    )


def test_criterion_8_determinism(tmp_path):
    """Same config and seed give byte-identical outputs."""
    outputs = []
    for name in ("a", "b"):
        cfg = validate_config(
            {"experiment": "eta_sweep", "seed": 5, "n": 60, "n_test": 100,
             "output_dir": str(tmp_path / name)}
        )
        run_experiment(cfg)
        outputs.append(
            {
                p.name: p.read_bytes()
                for p in sorted((tmp_path / name).iterdir())
                if p.suffix in (".csv", ".svg")
            }
        )
    ok = outputs[0] == outputs[1] and len(outputs[0]) >= 2
    report(8, f"determinism across reruns ({len(outputs[0])} files compared)", ok)
