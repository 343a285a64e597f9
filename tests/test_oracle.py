"""The regime record, step windows, kernel eigenvalues and sweep norms against 50-digit mpmath.

Every input (eigenvalues, iota, step sizes, alpha, kernel matrices) is
taken exactly as the float code sees it, so the only difference is the
rounding of the float arithmetic.
"""

import math

import mpmath
import numpy as np
import pytest

from stepbias import experiments, gd
from stepbias.config import validate_config
from stepbias.kernels import gaussian_kernel_matrix, two_cluster_dataset
from stepbias.spectral import DEGENERACY_RTOL, EPS, _check_degenerate, eig_sym, eigvals_sym
from stepbias.experiments import run_experiment, stream
from stepbias.instances import random_instance
from stepbias.records import pair_records
from stepbias.regimes import certify

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
    rec = pair_records([inst.pair], [iota], [inst.eta_s], [inst.eta_b]).row(0)
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
        norms = [float(line.split(",")[5]) for line in fh.readlines()[1:]]
    sweep = experiments._sweep_problem(cfg)
    grid = [float(e) for e in cfg.eta_grid]
    alpha = experiments._level_target(0.05, sweep.excess0)
    runs = experiments._level_runs(sweep, grid, [alpha] * len(grid))
    assert len(norms) == len(runs) == len(grid)
    for got, (run, *_) in zip(norms, runs):
        with mpmath.workdps(50):
            want = mpmath.sqrt(mpmath.fsum(mpmath.mpf(m) ** 2 for m in run.mu.tolist()))
            assert math.isfinite(got)
            assert abs(mpmath.mpf(got) - want) <= 2 * math.ulp(float(want))
