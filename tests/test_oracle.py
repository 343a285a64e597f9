"""Records, step windows, certificates, kernel eigenvalues and sweep norms against 50-digit mpmath.

Every input (eigenvalues, iota, step sizes, alpha, kernel matrices) is
taken exactly as the float code sees it, so the only difference is the
rounding of the float arithmetic.
"""

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from stepbias import experiments, gd, regimes
from stepbias.config import validate_config
from stepbias.kernels import gaussian_kernel_matrix, two_cluster_dataset
from stepbias.spectral import DEGENERACY_RTOL, EPS, _check_degenerate, eig_sym, eigvals_sym
from stepbias.experiments import run_experiment, stream
from stepbias.gd import StopStatus
from stepbias.instances import CertifyBlock, CertifyInstance, random_instance, random_instances
from stepbias.quadratic import ProblemPair, QuadraticObjective
from stepbias.regimes import certify, certify_block
from stepbias.spectral import diagonal_spectrum

# Relative tolerances. Over these 30 instances the largest errors are
# 7.0e-14 on both alpha_1 readings (exp(-num / gap) multiplies the
# rounding of num / gap by its size, up to a few hundred), 1.5e-15 on
# t1..t3 and 1.0e-16 on the condition numbers.
ALPHA_RTOL = 1e-12
RTOL = 1e-14


def _mp_record(sig, iota, eta_s, eta_b, kappa_R, alpha):
    """The record's numbers and both windows at 50 digits."""
    mp = mpmath.mp
    sig = [mp.mpf(float(s)) for s in sig]
    iota = [mp.mpf(float(v)) for v in iota]
    eta_s, eta_b, kappa_R, alpha = (
        mp.mpf(float(v)) for v in (eta_s, eta_b, kappa_R, alpha)
    )
    n = len(sig)
    i1, inn = iota[0], iota[-1]
    kappa_F = sig[0] / sig[-1]
    lead_s, second_s = abs(1 - eta_s * sig[-1]), abs(1 - eta_s * sig[-2])
    lead_b = abs(1 - eta_b * sig[0])
    second_b = max(abs(1 - eta_b * sig[1]), abs(1 - eta_b * sig[-1]))
    gap_s, gap_b = mp.log(lead_s / second_s), mp.log(lead_b / second_b)
    norm_sq = mp.fsum(v * v for v in iota)
    factor = max(16 * n * kappa_R, 4 * kappa_F)
    small_tail = 1 / (1 - eta_s * sig[-1])
    big_tail = 1 / (eta_b * sig[0] - 1)
    num = mp.log(norm_sq * factor * max(1 / i1**2, 1 / inn**2) + small_tail + big_tail)
    num_big = mp.log(norm_sq / i1**2 * 4 * n * kappa_R + big_tail)
    num_small = mp.log(norm_sq / inn**2 * factor + small_tail)
    scale_s, scale_b = sig[-1] * inn**2, sig[0] * i1**2

    def t23(scale, lead):
        decay = mp.log(1 / lead)
        return (
            mp.log(scale / (2 * alpha)) / (2 * decay),
            mp.log(mp.mpf(5) / 4 * scale / alpha) / (2 * decay),
        )

    return {
        "kappa_F": kappa_F,
        "alpha_1": scale_s / 2 * mp.exp(-num / min(gap_s, gap_b)),
        "alpha_1_split": min(
            scale_b / 2 * mp.exp(-num_big / gap_b),
            scale_s / 2 * mp.exp(-num_small / gap_s),
        ),
        "small": (
            mp.log(factor * norm_sq / inn**2) / (2 * gap_s),
            *t23(scale_s, lead_s),
        ),
        "big": (
            mp.log(4 * n * kappa_R * norm_sq / i1**2) / (2 * gap_b),
            *t23(scale_b, lead_b),
        ),
    }


def _rel(got, want):
    return float(abs(mpmath.mpf(got) - want) / abs(want))


@pytest.mark.parametrize("seed", range(30))
def test_record_agrees_with_50_digit_evaluation(seed):
    inst = random_instance(stream(seed, "mp-oracle"), n=4 + seed % 5)
    spec, tspec = inst.pair.train.spectrum, inst.pair.test.spectrum
    iota = gd.decompose(inst.pair.train, inst.theta0)
    rec = CertifyBlock.of([inst]).record.row(0)
    runs = [
        gd.run_to_level_set(inst.pair.train, inst.theta0, eta, inst.alpha, inst.t_max)
        for eta in (inst.eta_s, inst.eta_b)
    ]
    # The step windows as certificates.csv reports them.
    cert = certify(inst.pair, *runs, inst.alpha)
    with mpmath.workdps(50):
        kappa_R = mpmath.mpf(tspec.top) / mpmath.mpf(tspec.bottom)
        want = _mp_record(
            spec.eigenvalues, iota, inst.eta_s, inst.eta_b, rec.kappa_R, inst.alpha
        )
        readings = {
            "alpha_1": _rel(rec.alpha_1, want["alpha_1"]),
            "alpha_1_split": _rel(rec.alpha_1_split, want["alpha_1_split"]),
        }
        others = {
            "kappa_R": _rel(rec.kappa_R, kappa_R),
            "kappa_F": _rel(rec.kappa_F, want["kappa_F"]),
        }
        for name, win in zip(("small", "big"), (cert.window_small, cert.window_big)):
            for t, got, exact in zip(("t1", "t2", "t3"), (win.t1, win.t2, win.t3), want[name]):
                others[f"{name}_{t}"] = _rel(got, exact)
    assert max(readings.values()) <= ALPHA_RTOL, readings
    assert max(others.values()) <= RTOL, others


# Relative tolerance on the certificate columns. A column takes about a
# dozen roundings, more where c_alpha's denominator 1 - sqrt(x) cancels
# as x nears 1; over these rows the largest error is 7.7e-16.
CERT_RTOL = 1e-13


def _diagonal_instance(train, test, iota, test_optimum, eta_s, eta_b, alpha, t_max):
    """A CertifyInstance on identity bases from the train optimum 0: theta0 is iota."""
    pair = ProblemPair(
        QuadraticObjective(diagonal_spectrum(train), np.zeros(len(train))),
        QuadraticObjective(diagonal_spectrum(test), np.array(test_optimum, dtype=float)),
    )
    return CertifyInstance(pair, np.array(iota, dtype=float), eta_s, eta_b, alpha, t_max)


def _decisive_instances():
    """Two refused rows on which a loosened bound changes a verdict.

    kappa_F = 100 > 4 n kappa_R = 8.08: the Small run stops at step 1
    with eps_s2 = 0.01 in (1 / (4 kappa_F), 1 / (16 n kappa_R)]. Then a
    test optimum at theta0 and a target above the initial loss: both
    lanes are refused and measured at iota, so r_small = 0 lies below
    the r_small_lower floor at lower_arg = 0.5 (at lower_arg / sig_n^2
    = 12.5 there would be no floor), and eps_b2 = 3 lies in
    (1 / (4 n kappa_R), 4 n kappa_R].
    """
    train, test, iota = [1.0, 0.5, 0.3, 0.2], [1.0, 0.8, 0.7, 0.5], [1.0] * 4
    r_opt = 0.5 * sum(v * i * i for v, i in zip(test, iota))
    return [
        _diagonal_instance([1.0, 0.01], [1.0, 0.99], [10.0, 1.0], [0.0] * 2, 1 / 1.01, 1.9, 1e-3, 1),
        _diagonal_instance(train, test, iota, iota, 0.7, 1.9, 36 * r_opt * 0.2 / 0.5, 10**6),
    ]


def _theorem_instances(count=40):
    """Instances of the theorem property's form at fixed draws: alpha a fraction of alpha_1."""
    rng = np.random.default_rng(2202)
    block = [
        random_instance(np.random.default_rng(int(rng.integers(2**32))), n=None,
                        model_error_fraction=float(rng.uniform()))
        for _ in range(count)
    ]
    record = CertifyBlock.of(block).record
    return [
        dataclasses.replace(inst, alpha=float(rng.uniform(0.0, 1.0)) * a_one, t_max=10**6)
        for inst, a_one in zip(block, record.alpha_1.tolist())
    ]


def _mp_certificate(row, pair, mu_b1, mu_sn):
    """The certificate columns and the two sides of each bound verdict of one row, at 50 digits."""
    mpf = mpmath.mpf
    sig, var = pair.train.spectrum.eigenvalues, pair.test.spectrum.eigenvalues
    sig_1, sig_n, varsig1, varsign = (mpf(float(v)) for v in (sig[0], sig[-1], var[0], var[-1]))
    n = len(sig)
    alpha, kappa_F, kappa_R, r_opt, eps_b2, eps_s2, r_big, r_small = (
        mpf(getattr(row, name)) for name in
        ("alpha", "kappa_F", "kappa_R", "r_opt", "epsilon_b2", "epsilon_s2", "r_big", "r_small")
    )
    den = 1 - mpmath.sqrt(18 * sig_n * r_opt / (varsign * alpha))
    c_alpha = (1 + 2 * sig_1 * r_opt / (varsig1 * alpha)) / den if den > 0 else mpmath.inf
    lower_arg = 18 * r_opt * sig_n / (varsign * alpha)
    mu_big, mu_small = sig_1 * mpf(mu_b1) ** 2 / 2, sig_n * mpf(mu_sn) ** 2 / 2
    floor = (
        3 * alpha * varsign * (1 - mpmath.sqrt(lower_arg)) / (10 * sig_n)
        if lower_arg <= 1 else -mpmath.inf
    )
    columns = {
        "c_alpha": c_alpha,
        "bound_rhs": 34 * kappa_R * r_small / kappa_F,
        "bound_general": 17 * c_alpha * kappa_R * r_small / kappa_F if den > 0 else mpmath.inf,
    }
    # Each verdict as (a, b), for a <= b.
    sides = {
        "epsilon_b_bound": [(eps_b2, 1 / (4 * n * kappa_R))],
        "epsilon_s_bound": [(eps_s2, min(1 / (16 * n * kappa_R), 1 / (4 * kappa_F)))],
        "mu_big_window": [(2 * alpha / 5, mu_big), (mu_big, alpha)],
        "mu_small_window": [(2 * alpha / 5, mu_small), (mu_small, alpha)],
        "r_big_upper": [(r_big, 5 * alpha * varsig1 / sig_1 + 2 * r_opt)],
        "r_small_lower": [(floor, r_small)],
    }
    return columns, sides


def _decided(pairs):
    """Whether a <= b for each (a, b) of pairs; None if an a is within CERT_RTOL of its b."""
    verdict = True
    for a, b in pairs:
        if mpmath.isfinite(a - b) and abs(a - b) <= CERT_RTOL * max(abs(a), abs(b)):
            return None
        verdict = verdict and a <= b
    return verdict


def test_certificate_columns_agree_with_50_digit_evaluation(monkeypatch):
    """Every certificate column and bound verdict of certify_block, refused rows included.

    On the default config's block, the theorem property's instances and
    the two decisive rows: c_alpha (inf where its denominator is not
    positive), bound_rhs and bound_general within CERT_RTOL, and each
    bound verdict equal to its 50-digit comparison wherever the two
    sides are further apart than CERT_RTOL. The inputs are the measured
    columns, the spectra and the final coefficients of the program's own
    lanes, refused rows' too; a lane that could not run has coefficient 0.
    """
    cfg = validate_config({"experiment": "quadratic_certify", "output_dir": "unused"})
    block = list(random_instances([stream(cfg.seed, f"certify-{i}") for i in range(cfg.instances)]))
    block += _theorem_instances() + _decisive_instances()
    real, lanes = regimes.level_set_lanes, []

    def recorded(*args):
        lanes.append(real(*args))
        return lanes[-1]

    monkeypatch.setattr(regimes, "level_set_lanes", recorded)
    cert, _, refusals = certify_block(CertifyBlock.of(block))
    (lanes,) = lanes

    def final(k, i):
        """Entry i of lane k's final coefficients (every n >= 2), or 0 if it could not run."""
        return lanes.mu[k][i] if isinstance(lanes.outcome[k], StopStatus) else 0.0

    seen = {name: set() for name in ("epsilon_b_bound", "epsilon_s_bound", "r_small_lower")}
    with mpmath.workdps(50):
        for k, inst in enumerate(block):
            row = cert.row(k)
            mu = (final(len(block) + k, 0), final(k, -1))
            columns, sides = _mp_certificate(row, inst.pair, *mu)
            for name, want in columns.items():
                got = getattr(row, name)
                if mpmath.isinf(want):
                    assert got == math.inf, (k, name)
                else:
                    assert abs(mpmath.mpf(got) - want) <= CERT_RTOL * abs(want), (k, name, got)
            for name, pairs in sides.items():
                verdict = _decided(pairs)
                if verdict is not None:
                    assert row.verdicts[name] == verdict, (k, name)
                    seen.get(name, set()).add(verdict)
    assert sum(r is not None for r in refusals) >= 5
    assert all(s == {True, False} for s in seen.values()), seen


# Absolute tolerance on each eigenvalue of K/n: n eps sigma_1, the size
# of LAPACK's backward-error bound. On these three problems the largest
# error is 1.4 eps sigma_1 for eigh and 1.7 eps sigma_1 for eigvalsh. The
# exact bottom eigenvalues are 2.1e-7, 1.4e-13 and -9.3e-19 (the rounded
# kernel matrix at scale 2 is not positive semidefinite), so below about
# eps sigma_1 the computed ones are right in absolute terms only.
@pytest.mark.parametrize("scale, seed", [(0.3, 0), (1.0, 0), (2.0, 1)])
def test_small_kernel_eigenvalues_agree_with_50_digit_eigsy(scale, seed):
    n = 30
    A = gaussian_kernel_matrix(two_cluster_dataset(n, np.random.default_rng(seed)).points, scale) / n
    spec = eig_sym(A)
    values = eigvals_sym(A)
    with mpmath.workdps(50):
        exact = sorted(mpmath.eigsy(mpmath.matrix(A.tolist()), eigvals_only=True), reverse=True)
        gaps = [exact[i] - exact[i + 1] for i in range(n - 1)]
        exact_degenerate = any(g <= DEGENERACY_RTOL * abs(exact[0]) for g in gaps)
        atol = n * EPS * float(exact[0])
        for got in (spec.eigenvalues, values):
            errors = [float(abs(mpmath.mpf(float(g)) - e)) for g, e in zip(got, exact)]
            assert max(errors) <= atol, errors
    assert spec.degenerate == _check_degenerate(values) == exact_degenerate


@pytest.mark.parametrize("lam", [1e155, 1e160, 1e200])
def test_sweep_hilbert_norms_agree_with_50_digit_evaluation(lam, tmp_path):
    """Every eta_sweep row's hilbert_norm within 2 ulps of ||mu|| at 50 digits.

    At these lam every mu sits near 1e-156 to 1e-201, where squaring a
    coefficient on its own loses digits or underflows.
    """
    raw = {"experiment": "eta_sweep", "n": 20, "lam": lam, "output_dir": str(tmp_path)}
    cfg = validate_config(raw)
    run_experiment(cfg)
    with open(tmp_path / "eta_sweep.csv") as fh:
        rows = [line.split(",") for line in fh.readlines()[1:]]
    norms = [float(row[5]) for row in rows]
    # mu of each run from the level_set_lanes search that _level_runs makes.
    sweep = experiments._sweep_problem(cfg)
    obj = sweep.obj
    grid = [float(e) for e in cfg.eta_grid]
    alpha = experiments._level_target(0.05, sweep.excess0)
    lanes = gd.level_set_lanes(
        np.tile(obj.spectrum.eigenvalues, (len(grid), 1)),
        np.tile(gd.decompose(obj, np.zeros(obj.n)), (len(grid), 1)),
        [e / obj.spectrum.top for e in grid], [alpha] * len(grid),
        [experiments.T_MAX_SWEEP] * len(grid),
    )
    assert all(outcome is StopStatus.HIT_LEVEL_SET for outcome in lanes.outcome)
    assert [int(row[2]) for row in rows] == lanes.steps.tolist()
    assert len(norms) == len(lanes.mu) == len(grid)
    for got, mu in zip(norms, lanes.mu):
        with mpmath.workdps(50):
            want = mpmath.sqrt(mpmath.fsum(mpmath.mpf(m) ** 2 for m in mu.tolist()))
            assert math.isfinite(got)
            assert abs(mpmath.mpf(got) - want) <= 2 * math.ulp(float(want))
