"""Randomized problem-pair generator for certification runs.

Instances are sampled so the standing assumptions hold by construction:
spectra with comfortable gaps around sigma_1, sigma_{n-1} and sigma_n
(keeping the log-gap denominators of the step windows away from 0, and
with them the level-set target alpha away from underflow), random
orthogonal bases composed from Givens rotations (built one row at a
time on plain floats), and a model error either zero or scaled to a
small fraction of its allowed cap.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWindow
from .quadratic import ProblemPair, QuadraticObjective
from .regimes import regime_record
from .spectral import Spectrum

MAX_DRAWS = 100


@dataclass(frozen=True)
class CertifyInstance:
    pair: ProblemPair
    theta0: np.ndarray
    eta_s: float
    eta_b: float
    alpha: float
    t_max: int


def random_orthogonal(rng, n):
    """Orthogonal matrix built by composing random Givens rotations.

    The n(n-1)/2 angles come from one rng.uniform call (the same values
    and generator state as one call per rotation). Rotation (p, r)
    replaces columns p and r by c col_p - s col_r and s col_p + c col_r,
    which mixes entries p and r of each row and nothing else, so each
    row is built on its own as a list of floats, with the same IEEE
    operations as the column update. Row k starts as e_k, so in a sweep
    p < k the rotations (p, r) with r < k only mix zeros and are
    skipped. The zeros they would have signed are later replaced by
    c x - s y with s y nonzero, where the sign of x cannot show (unless
    a drawn angle is exactly 0, so s is).
    """
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n * (n - 1) // 2).tolist()
    cos = [math.cos(a) for a in angles]
    sin = [math.sin(a) for a in angles]
    # offset[p] + r is the draw index of rotation (p, r).
    offset = []
    drawn = 0
    for p in range(n - 1):
        offset.append(drawn - p - 1)
        drawn += n - 1 - p
    rows = []
    for k in range(n):
        row = [0.0] * n
        row[k] = 1.0
        for p in range(n - 1):
            o = offset[p]
            xp = row[p]
            for r in range(k if k > p else p + 1, n):
                c = cos[o + r]
                s = sin[o + r]
                xr = row[r]
                row[r] = s * xp + c * xr
                xp = c * xp - s * xr
            row[p] = xp
        rows.append(row)
    return np.array(rows)


def _spaced_descending(rng, count, low, high, min_gap=1e-3):
    """count draws from [low, high], descending, redrawn until gaps >= min_gap."""
    while True:
        vals = np.sort(rng.uniform(low, high, size=count)).tolist()[::-1]
        if count < 2 or min(a - b for a, b in zip(vals, vals[1:])) >= min_gap:
            return vals


def _train_eigenvalues(rng, n):
    sig_n = rng.uniform(0.10, 0.15)
    sig_n1 = rng.uniform(0.30, 0.40)
    sig_2 = rng.uniform(0.55, 0.70)
    middles = _spaced_descending(rng, n - 4, 0.42, 0.52)
    return np.array([1.0, sig_2, *middles, sig_n1, sig_n])


def _test_spectrum(rng, n):
    kappa_R = rng.uniform(1.2, 3.0)
    bottom = 1.0 / kappa_R
    interior = _spaced_descending(rng, n - 2, bottom + 0.02, 0.98)
    return Spectrum(np.array([1.0, *interior, bottom]), random_orthogonal(rng, n))


def _draw(rng, n):
    """Spectra, train optimum and initial eigen-coefficients of one attempt."""
    train_spec = Spectrum(_train_eigenvalues(rng, n), random_orthogonal(rng, n))
    test_spec = _test_spectrum(rng, n)
    opt_train = rng.normal(size=n)
    while True:
        iota = rng.uniform(-1.0, 1.0, size=n)
        if abs(iota[0]) >= 1e-3 and abs(iota[-1]) >= 1e-3:
            return train_spec, test_spec, opt_train, iota


def random_instance(rng, n=None, model_error_fraction=None):
    """Sample a CertifyInstance satisfying the certification assumptions.

    model_error_fraction positions R(theta_hat) at that fraction of its
    allowed cap (None draws 0 or 0.1 at random). alpha is set to half
    the smaller alpha_1 reading, which orders every step window. An
    extremely unbalanced draw (alpha < 1e-280) is redrawn from the same
    stream, at most MAX_DRAWS times in all; then InfeasibleWindow.
    """
    rng = np.random.default_rng(rng)
    if n is None:
        n = int(rng.integers(4, 9))
    if n < 4:
        raise ValueError("generator needs n >= 4")
    for _ in range(MAX_DRAWS):
        train_spec, test_spec, opt_train, iota = _draw(rng, n)
        sig1, sign = train_spec.eigenvalues[0], train_spec.eigenvalues[-1]
        eta_s = 1.0 / (sig1 + sign)
        eta_b = 1.9 / sig1
        record = regime_record(
            train_spec, test_spec.top / test_spec.bottom, eta_s, eta_b, iota
        )
        alpha = 0.5 * min(record.alpha_1, record.alpha_1_split)
        if alpha >= 1e-280:
            break
    else:
        raise InfeasibleWindow(
            f"no draw in {MAX_DRAWS} gave a level-set target alpha >= 1e-280"
        )
    theta0 = opt_train + train_spec.eigenvectors @ iota

    fraction = model_error_fraction
    if fraction is None:
        fraction = 0.1 if rng.uniform() < 0.5 else 0.0
    if fraction > 0:
        direction = rng.normal(size=n)
        quad = 0.5 * float(direction @ test_spec.apply(direction))
        scale = math.sqrt(fraction * record.model_error_cap * alpha / quad)
        opt_test = opt_train + scale * direction
    else:
        opt_test = opt_train.copy()

    pair = ProblemPair(
        train=QuadraticObjective(train_spec, opt_train),
        test=QuadraticObjective(test_spec, opt_test),
    )
    win_s, win_b = record.windows(alpha)
    t_max = int(10 + 4 * max(win_s.t3, win_b.t3))
    return CertifyInstance(
        pair=pair,
        theta0=theta0,
        eta_s=eta_s,
        eta_b=eta_b,
        alpha=alpha,
        t_max=t_max,
    )
