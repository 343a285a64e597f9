"""The independent references the tests compare the program with, each written once.

A reference computes what the program computes by another route: it steps
where the program searches, searches one lane where the program runs lanes
in lockstep, and derives each record number on its own. To give the
program's bits it rounds as the program does, by two conventions written
once here: row_sum adds each row left to right from +0.0, as
spectral.row_sums does (matvec and excess are built on it), and power
raises factors to an int step by numpy's ``**``, whose fast paths at steps
1 and 2 gd._powers mirrors. tests/test_row_sums.py and
test_certify_block.py pin each to the program's bits, so changing a
convention is one edit of its helper and of those pins.
"""

import functools
import math
import operator

import numpy as np

from stepbias import gd, instances
from stepbias.errors import AlreadyBelowLevelSet, ZeroDenominator
from stepbias.gd import DIVERGENCE_FACTOR, GDRun, StopStatus
from stepbias.records import RegimeKind, StepWindow
from stepbias.regimes import certify, check_assumptions
from stepbias.spectral import Spectrum


def row_sum(x):
    """Sums over the last axis, each row added left to right from +0.0 in Python floats."""
    x = np.asarray(x, dtype=float)
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1]).tolist()
    sums = [functools.reduce(operator.add, row, 0.0) for row in rows]
    return np.array(sums).reshape(x.shape[:-1])[()]


def power(factors, t):
    """factors ** t for an int step t, by numpy's ``**``."""
    return np.asarray(factors, dtype=float) ** int(t)


def matvec(a, v):
    """a v over stacks, each entry the row_sum of a row's products."""
    return row_sum(a * v[..., None, :])


def excess(sig, coeffs):
    """1/2 sum_i sig_i c_i^2 of the eigen-coefficients c (the last axis), by row_sum."""
    return 0.5 * row_sum(sig * coeffs * coeffs)


def objective_loss(obj, theta):
    """The excess loss of a quadratic objective at theta: excess of V^T (theta - optimum)."""
    spec, d = obj.spectrum, np.asarray(theta, dtype=float) - obj.optimum
    return float(excess(spec.eigenvalues, matvec(spec.eigenvectors.T, d)))


def stepping_run(sigma, mu0, eta, alpha, t_max, divergence_limit=None):
    """Iterate GD in eigen-coordinates until the excess loss reaches alpha.

    mu0 holds the initial eigen-coefficients of theta0 - optimum. The
    per-step update multiplies coefficient i by (1 - eta * sigma_i).
    divergence_limit defaults to run_to_level_set's, DIVERGENCE_FACTOR
    times the initial excess loss. Returns (steps, final mu, per-step
    loss trace, status).
    """
    if divergence_limit is None:
        divergence_limit = DIVERGENCE_FACTOR * excess(sigma, mu0)
    mu = mu0.copy()
    factors = 1.0 - eta * sigma
    trace = np.empty(t_max)
    for t in range(1, t_max + 1):
        mu = mu * factors
        loss = excess(sigma, mu)
        trace[t - 1] = loss
        if loss <= alpha:
            return t, mu, trace[:t], StopStatus.HIT_LEVEL_SET
        if loss > divergence_limit:
            return t, mu, trace[:t], StopStatus.DIVERGED
    return t_max, mu, trace[:t_max], StopStatus.MAX_STEPS_EXCEEDED


def tie_alpha(t):
    """L(t) of the dyadic problem sigma (1, 1/2), iota (1, 1), eta 1/2: exact in floats."""
    return 0.5 * (0.5 ** (2 * t) + 0.5 * 0.75 ** (2 * t))


# The one-lane search as gd.run_to_level_set ran it before every lane
# went through gd.level_set_lanes: each search a coroutine told whether
# its test holds, driven alone, on one 1-D lane whose dead directions
# (sigma_i iota_i^2 == 0) have coefficient and factor 0.


def _first_true(lo, hi):
    """Search coroutine: the smallest t in [lo, hi] whose test holds, or hi + 1."""
    while lo <= hi:
        mid = (lo + hi) // 2
        if (yield mid):
            hi = mid - 1
        else:
            lo = mid + 1
    return lo


def _descent(t_max, start):
    """Search coroutine: exponential search from start, then bisection, for loss <= alpha."""
    if start > 1 and (yield start - 1):
        start = 1
    lo = hi = start
    while not (yield hi):
        if hi == t_max:
            return t_max, StopStatus.MAX_STEPS_EXCEEDED
        lo, hi = hi + 1, min(2 * hi - start + 1, t_max)
    return (yield from _first_true(lo, hi - 1)), StopStatus.HIT_LEVEL_SET


def _solo(search, test):
    try:
        t = next(search)
        while True:
            t = search.send(test(t))
    except StopIteration as done:
        return done.value


def _search(loss, alpha, t_max, nonincreasing, limit, start):
    def below(t):
        return loss(t) <= alpha

    if nonincreasing:
        return _solo(_descent(t_max, start), below)
    bottom = _solo(_first_true(1, t_max - 1), lambda t: loss(t + 1) >= loss(t))
    if below(bottom):
        return _solo(_first_true(1, bottom), below), StopStatus.HIT_LEVEL_SET
    t = _solo(_first_true(bottom, t_max), lambda t: loss(t) > limit)
    if t <= t_max:
        return t, StopStatus.DIVERGED
    return t_max, StopStatus.MAX_STEPS_EXCEEDED


def search_run(obj, theta0, eta, alpha, t_max):
    """The GDRun of gd.run_to_level_set by the one-lane search, or the error it raises."""
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"step size must be finite and positive, got {eta!r}")
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"level-set target must be finite and positive, got {alpha!r}")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    iota = gd.decompose(obj, theta0)
    sig = obj.spectrum.eigenvalues
    weights = sig * iota * iota
    loss0 = float(excess(sig, iota))
    if loss0 <= alpha:
        raise AlreadyBelowLevelSet(
            f"initial excess loss {loss0:.3e} is already <= alpha {alpha:.3e}"
        )
    factors = 1.0 - eta * sig
    dead = weights == 0
    iota_z, fac_z = np.where(dead, 0.0, iota), np.where(dead, 0.0, factors)
    evaluated = {}

    def loss(t):
        evaluated[t] = value = float(excess(sig, iota_z * power(fac_z, t)))
        return value

    rates = np.abs(fac_z)
    nonincreasing = bool(rates.max() <= 1.0)
    start = 1
    if nonincreasing:
        start = gd.hit_lower_bound((0.5 * weights).tolist(), rates.tolist(), alpha, int(t_max))
    with np.errstate(over="ignore", invalid="ignore"):
        steps, status = _search(
            loss, float(alpha), int(t_max), nonincreasing, DIVERGENCE_FACTOR * loss0, start
        )
        final = evaluated[steps] if steps in evaluated else loss(steps)
        mu = iota * power(factors, steps)
        mu[iota == 0] = 0.0
    return GDRun(
        eta=eta,
        steps=steps,
        mu=mu,
        iota=iota,
        stop_status=status,
        objective=obj,
        final_excess=final,
        alpha=float(alpha),
        half_level_ok=final >= 0.5 * alpha if status is StopStatus.HIT_LEVEL_SET else None,
    )


def certified_alone(inst):
    """The certificate record of inst, certified on its own on search_run runs."""
    verdicts = check_assumptions(inst.pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha)
    assert all(v.passed for v in verdicts)
    run_s, run_b = (
        search_run(inst.pair.train, inst.theta0, eta, inst.alpha, inst.t_max)
        for eta in (inst.eta_s, inst.eta_b)
    )
    return certify(inst.pair, run_s, run_b, inst.alpha).to_record()


# The per-quantity derivations that records.regime_records and
# regimes.certify replaced: each call derives its numbers again from the
# spectrum.


class WrongRegime(Exception):
    """A reference was asked for a quantity its regime does not define."""


def attenuation(eta, sigma):
    """Per-step multiplier |1 - eta sigma| on an eigendirection."""
    if eta <= 0 or sigma <= 0:
        raise ValueError("eta and sigma must be positive")
    return abs(1.0 - eta * sigma)


def leading_attenuation(eta, spectrum, kind):
    """|1 - eta sigma| on the regime's distinguished direction."""
    if kind is RegimeKind.SMALL:
        return attenuation(eta, spectrum.bottom)
    if kind is RegimeKind.BIG:
        return attenuation(eta, spectrum.top)
    raise WrongRegime(f"no distinguished direction for {kind.value} regime")


def second_attenuation(eta, spectrum, kind):
    """Second-biggest attenuation coefficient for a Small or Big rate.

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
    """Squared mass ratio off the distinguished direction.

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
    return float(row_sum((rest / lead) ** 2))


def alpha_one(spectrum, iota, eta_s, eta_b, kappa_R, reading):
    """The alpha_1 ceiling of one reading per call, each from its own intermediates."""
    i1, inn = float(iota[0]), float(iota[-1])
    sig = spectrum.eigenvalues
    n = spectrum.n
    kappa_F = spectrum.top / spectrum.bottom
    norm_sq = float(row_sum(iota * iota))
    den_small, den_big = log_gaps(spectrum, eta_s, eta_b)
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


def log_gaps(spectrum, eta_s, eta_b):
    """The (Small, Big) log-gap denominators of t1."""
    small = math.log(
        leading_attenuation(eta_s, spectrum, RegimeKind.SMALL)
        / second_attenuation(eta_s, spectrum, RegimeKind.SMALL)
    )
    big = math.log(
        leading_attenuation(eta_b, spectrum, RegimeKind.BIG)
        / second_attenuation(eta_b, spectrum, RegimeKind.BIG)
    )
    return small, big


def step_window(spectrum, iota, eta, alpha, kappa_R, kind):
    """(t1, t2, t3) of one regime, each derived again from the spectrum."""
    i1, inn = float(iota[0]), float(iota[-1])
    sig = spectrum.eigenvalues
    n = spectrum.n
    kappa_F = spectrum.top / spectrum.bottom
    norm_sq = float(row_sum(iota * iota))
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


def random_instance_numbers(rng, n, model_error_fraction):
    """(alpha, t_max, theta0, test optimum) of random_instance, every number derived per call."""
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
        alpha = 0.5 * min(alpha_one(*args, "displayed"), alpha_one(*args, "split"))
        if alpha >= 1e-280:
            break
    theta0 = opt_train + matvec(train_spec.eigenvectors, iota)
    fraction = model_error_fraction
    if fraction is None:
        fraction = 0.1 if rng.uniform() < 0.5 else 0.0
    opt_test = opt_train.copy()
    if fraction > 0:
        cap = min(0.25, kappa_F / (72.0 * kappa_R))
        direction = rng.normal(size=n)
        quad = float(excess(test_spec.eigenvalues, matvec(test_spec.eigenvectors.T, direction)))
        opt_test = opt_train + math.sqrt(fraction * cap * alpha / quad) * direction
    small, big = RegimeKind.SMALL, RegimeKind.BIG
    win_s = step_window(train_spec, iota, eta_s, alpha, kappa_R, small)
    win_b = step_window(train_spec, iota, eta_b, alpha, kappa_R, big)
    return alpha, int(10 + 4 * max(win_s.t3, win_b.t3)), theta0, opt_test


def run_error(pair, run):
    """theta - theta_hat_* of a run, as V mu + (theta_hat - theta_hat_*)."""
    offset = pair.train.optimum - pair.test.optimum
    return matvec(pair.train.spectrum.eigenvectors, run.mu) + offset


def risk(pair, run):
    """R(theta) of a run: the test loss 1/2 sum_i sigma_i (w_i . err)^2 of its error."""
    test = pair.test.spectrum
    return float(excess(test.eigenvalues, matvec(test.eigenvectors.T, run_error(pair, run))))
