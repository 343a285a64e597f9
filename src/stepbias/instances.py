"""Randomized problem-pair generator for certification runs.

Instances are sampled so the standing assumptions hold by construction:
spectra with comfortable gaps around sigma_1, sigma_{n-1} and sigma_n
(keeping the log-gap denominators of the step windows away from 0, and
with them the level-set target alpha away from underflow), random
orthogonal bases composed from Givens rotations, and a model error
either zero or scaled to a small fraction of its allowed cap.

Instances are generated in blocks (random_instances, one stream each):
every draw of every stream comes first, in stream order, and then the
bases of the whole block are built by one vectorized Givens pass.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWindow
from .quadratic import ProblemPair, QuadraticObjective
from .regimes import RegimeRecord, regime_record
from .spectral import Spectrum, diagonal_spectrum

MAX_DRAWS = 100


@dataclass(frozen=True)
class CertifyInstance:
    pair: ProblemPair
    theta0: np.ndarray
    eta_s: float
    eta_b: float
    alpha: float
    t_max: int


def givens_angles(rng, n):
    """The n(n-1)/2 rotation angles of one random basis, in one rng.uniform call.

    One call gives the same values and generator state as one call per
    rotation.
    """
    return rng.uniform(0.0, 2.0 * math.pi, size=n * (n - 1) // 2).tolist()


def givens_bases(drawn):
    """Orthogonal bases, one per (n, angles) pair of drawn, from one Givens pass.

    angles holds the angles of rotations (p, r), p < r, in the order
    p = 0, 1, ... then r = p + 1, ... (see givens_angles). Starting from
    the identity, rotation (p, r) with c, s = cos, sin of its angle sets

        col_r <- s col_p + c col_r,    col_p <- c col_p - s col_r (old).

    The pass applies each rotation to every basis at once, each padded to
    the block's largest n with identity rotations (c = 1, s = 0). Those
    leave a basis's own entries bitwise as they were: col_p becomes
    col_p - 0 * col_r, and col_r of a padding column is +0 on the basis's
    rows. Numpy's elementwise products and sums are the IEEE operations
    of the same loop on floats, so each basis has the bits, zero signs
    included, of its own rotation loop. c and s come from math, one angle
    at a time, not from numpy's vectorized transcendentals, whose results
    may differ in the last bit. Returns C-contiguous (n, n) arrays.
    """
    if not drawn:
        return []
    size = max(n for n, _ in drawn)
    # where[n][j] is the position, among the padded rotations, of
    # rotation j of an n x n basis.
    where = {}
    for n, _ in drawn:
        if n not in where:
            where[n] = [
                p * size - p * (p + 1) // 2 + r - p - 1
                for p in range(n - 1)
                for r in range(p + 1, n)
            ]
    basis_of = [k for k, (n, _) in enumerate(drawn) for _ in where[n]]
    rotation = [j for n, _ in drawn for j in where[n]]
    angles = [a for _, angles in drawn for a in angles]
    count = size * (size - 1) // 2
    cos = np.ones((count, len(drawn)))
    sin = np.zeros((count, len(drawn)))
    cos[rotation, basis_of] = [math.cos(a) for a in angles]
    sin[rotation, basis_of] = [math.sin(a) for a in angles]
    cos, sin = cos[:, :, None], sin[:, :, None]
    # cols[p, k] is column p of basis k.
    cols = np.zeros((size, len(drawn), size))
    cols[range(size), :, range(size)] = 1.0
    j = 0
    for p in range(size - 1):
        col_p = cols[p]
        for r in range(p + 1, size):
            c, s = cos[j], sin[j]
            col_r = cols[r]
            s_col_r = s * col_r
            col_r *= c
            col_r += s * col_p
            col_p *= c
            col_p -= s_col_r
            j += 1
    bases = cols.transpose(1, 2, 0)
    return [bases[k, :n, :n].copy() for k, (n, _) in enumerate(drawn)]


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


def _test_eigenvalues(rng, n):
    kappa_R = rng.uniform(1.2, 3.0)
    bottom = 1.0 / kappa_R
    interior = _spaced_descending(rng, n - 2, bottom + 0.02, 0.98)
    return np.array([1.0, *interior, bottom])


def _draw(rng, n):
    """Every draw of one attempt, in stream order.

    Returns the train eigenvalues and basis angles, the test eigenvalues
    and basis angles, the train optimum and the initial eigen-coefficients.
    """
    train_eigenvalues = _train_eigenvalues(rng, n)
    train_angles = givens_angles(rng, n)
    test_eigenvalues = _test_eigenvalues(rng, n)
    test_angles = givens_angles(rng, n)
    opt_train = rng.normal(size=n)
    while True:
        iota = rng.uniform(-1.0, 1.0, size=n)
        if abs(iota[0]) >= 1e-3 and abs(iota[-1]) >= 1e-3:
            return (
                train_eigenvalues, train_angles, test_eigenvalues, test_angles,
                opt_train, iota,
            )


@dataclass(frozen=True)
class _Draws:
    """The draws of one instance and what is read from them before its bases exist."""

    n: int
    train_eigenvalues: np.ndarray
    train_angles: list
    test_eigenvalues: np.ndarray
    test_angles: list
    opt_train: np.ndarray
    iota: np.ndarray
    eta_s: float
    eta_b: float
    record: RegimeRecord
    alpha: float
    fraction: float
    direction: np.ndarray | None


def _draw_instance(rng, n, model_error_fraction):
    """Every draw of one stream, retries included, in stream order."""
    rng = np.random.default_rng(rng)
    if n is None:
        n = int(rng.integers(4, 9))
    if n < 4:
        raise ValueError("generator needs n >= 4")
    for _ in range(MAX_DRAWS):
        drawn = _draw(rng, n)
        train_eigenvalues, _, test_eigenvalues, _, _, iota = drawn
        sig1, sign = train_eigenvalues[0], train_eigenvalues[-1]
        eta_s = 1.0 / (sig1 + sign)
        eta_b = 1.9 / sig1
        # The record reads the train eigenvalues only, so the diagonal
        # spectrum stands in for the basis, which is built later.
        record = regime_record(
            diagonal_spectrum(train_eigenvalues),
            test_eigenvalues[0] / test_eigenvalues[-1],
            eta_s,
            eta_b,
            iota,
        )
        alpha = 0.5 * min(record.alpha_1, record.alpha_1_split)
        if alpha >= 1e-280:
            break
    else:
        raise InfeasibleWindow(
            f"no draw in {MAX_DRAWS} gave a level-set target alpha >= 1e-280"
        )
    fraction = model_error_fraction
    if fraction is None:
        fraction = 0.1 if rng.uniform() < 0.5 else 0.0
    direction = rng.normal(size=n) if fraction > 0 else None
    return _Draws(n, *drawn, eta_s, eta_b, record, alpha, fraction, direction)


def _instance(d, train_basis, test_basis):
    """The CertifyInstance of the draws d on their bases."""
    train_spec = Spectrum(d.train_eigenvalues, train_basis)
    test_spec = Spectrum(d.test_eigenvalues, test_basis)
    theta0 = d.opt_train + train_basis @ d.iota
    if d.fraction > 0:
        quad = 0.5 * float(d.direction @ test_spec.apply(d.direction))
        scale = math.sqrt(d.fraction * d.record.model_error_cap * d.alpha / quad)
        opt_test = d.opt_train + scale * d.direction
    else:
        opt_test = d.opt_train.copy()
    pair = ProblemPair(
        train=QuadraticObjective(train_spec, d.opt_train),
        test=QuadraticObjective(test_spec, opt_test),
    )
    win_s, win_b = d.record.windows(d.alpha)
    return CertifyInstance(
        pair=pair,
        theta0=theta0,
        eta_s=d.eta_s,
        eta_b=d.eta_b,
        alpha=d.alpha,
        t_max=int(10 + 4 * max(win_s.t3, win_b.t3)),
    )


def random_instances(rngs, n=None, model_error_fraction=None):
    """One CertifyInstance per stream of rngs, satisfying the certification assumptions.

    Each stream draws n (unless given), the train eigenvalues and basis
    angles, the test spectrum and its angles, the train optimum and the
    initial eigen-coefficients, then the model-error fraction and
    direction. model_error_fraction positions R(theta_hat) at that
    fraction of its allowed cap (None draws 0 or 0.1 at random). alpha is
    set to half the smaller alpha_1 reading, which orders every step
    window. An extremely unbalanced draw (alpha < 1e-280) is redrawn from
    the same stream, at most MAX_DRAWS times in all; then
    InfeasibleWindow, raised once the streams before it are drawn. After
    every stream is drawn, all bases are built in one givens_bases pass.
    """
    draws = [_draw_instance(rng, n, model_error_fraction) for rng in rngs]
    bases = givens_bases(
        [pair for d in draws for pair in ((d.n, d.train_angles), (d.n, d.test_angles))]
    )
    return [_instance(d, *bases[2 * k : 2 * k + 2]) for k, d in enumerate(draws)]


def random_instance(rng, n=None, model_error_fraction=None):
    """The CertifyInstance of one stream: random_instances of a block of one."""
    return random_instances([rng], n, model_error_fraction)[0]
