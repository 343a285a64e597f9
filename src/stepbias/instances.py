"""Randomized problem-pair generator for certification runs.

Instances are sampled so the standing assumptions hold by construction:
spectra with comfortable gaps around sigma_1, sigma_{n-1} and sigma_n
(keeping the log-gap denominators of the step windows away from 0, and
with them the level-set target alpha away from underflow), random
orthogonal bases composed from Givens rotations, and a model error
either zero or scaled to a small fraction of its allowed cap.

Instances are generated in blocks (random_instances, one stream each):
the attempts of a block are recorded by one regime_records pass per
round of draws, and the bases and their products of the whole block by
one vectorized Givens pass and one padded product.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleWindow
from .quadratic import ProblemPair, QuadraticObjective, coefficients, excess_losses
from .records import _window_bounds, regime_records
from .spectral import Spectrum, condition_number, matvec, padded, unpadded

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


def _numbers(drawn):
    """kappa_R, eta_s = 1/(sigma_1 + sigma_n) and eta_b = 1.9/sigma_1 of an attempt."""
    sig, test = drawn[0], drawn[2]
    return condition_number(test), 1.0 / (sig[0] + sig[-1]), 1.9 / sig[0]


def _target(record):
    """The level-set target alpha of each attempt: half its smaller alpha_1 reading."""
    return 0.5 * np.minimum(record.alpha_1, record.alpha_1_split)


def _records(drawn):
    """The regime_records of attempts and their targets; train eigenvalues stand for the spectra."""
    record = regime_records(
        [d[0] for d in drawn], *zip(*map(_numbers, drawn)), [d[5] for d in drawn],
        np.full(len(drawn), math.nan),
    )
    return record, _target(record)


def _instance(drawn, train_basis, test_basis, v_iota, quad, eta_s, eta_b, alpha, cap, fraction,
              direction, t_max):
    """The CertifyInstance of an accepted attempt, from its block's bases, products and numbers."""
    train_eigenvalues, _, test_eigenvalues, _, opt_train, _ = drawn
    opt_test = opt_train.copy()
    if fraction > 0:
        opt_test = opt_train + math.sqrt(fraction * cap * alpha / quad) * direction
    pair = ProblemPair(
        QuadraticObjective(Spectrum(train_eigenvalues, train_basis), opt_train),
        QuadraticObjective(Spectrum(test_eigenvalues, test_basis), opt_test),
    )
    return CertifyInstance(pair, opt_train + v_iota, eta_s, eta_b, alpha, int(t_max))


def random_instances(rngs, n=None, model_error_fraction=None):
    """One CertifyInstance per stream of rngs, satisfying the certification assumptions.

    Each stream draws n (unless given), the train eigenvalues and basis
    angles, the test spectrum and its angles, the train optimum and the
    initial eigen-coefficients, then the model-error fraction and
    direction. model_error_fraction positions R(theta_hat) at that
    fraction of its allowed cap (None draws 0 or 0.1 at random). alpha is
    set to half the smaller alpha_1 reading, which orders every step
    window. Every stream draws an attempt and the block is recorded in
    one regime_records pass; each stream whose attempt is extremely
    unbalanced (alpha < 1e-280) draws its next attempt from its own
    stream and the block is recorded again, until every target is
    accepted, or raises InfeasibleWindow after MAX_DRAWS attempts of one
    stream. Then every stream draws its model error, all bases are built
    in one givens_bases pass, and every theta0 and model-error quadratic
    comes from one padded product. An empty block gives [].
    """
    if n is not None and n < 4:
        raise ValueError("generator needs n >= 4")
    rngs = [np.random.default_rng(rng) for rng in rngs]
    if not rngs:
        return []
    sizes = [int(rng.integers(4, 9)) if n is None else n for rng in rngs]
    drawn, refused = [None] * len(rngs), range(len(rngs))
    for _ in range(MAX_DRAWS):
        for k in refused:
            drawn[k] = _draw(rngs[k], sizes[k])
        record, alpha = _records(drawn)
        refused = np.flatnonzero(~(alpha >= 1e-280)).tolist()
        if not refused:
            break
    else:
        raise InfeasibleWindow(f"no draw in {MAX_DRAWS} gave a level-set target alpha >= 1e-280")
    fractions = [
        (0.1 if rng.uniform() < 0.5 else 0.0) if model_error_fraction is None
        else model_error_fraction
        for rng in rngs
    ]
    directions = [
        rng.normal(size=m) if f > 0 else np.zeros(m) for rng, m, f in zip(rngs, sizes, fractions)
    ]
    scale = np.concatenate([record.scale_s, record.scale_b])
    lead = np.concatenate([record.lead_s, record.lead_b])
    t3 = _window_bounds(scale, lead, np.tile(alpha, 2))[1].reshape(2, -1)
    bases = givens_bases([pair for m, d in zip(sizes, drawn) for pair in ((m, d[1]), (m, d[3]))])
    width = max(sizes)
    train, test = padded(bases[0::2], width), padded(bases[1::2], width)
    v_iota = unpadded(matvec(train, padded([d[5] for d in drawn], width)), sizes)
    quads = excess_losses(
        padded([d[2] for d in drawn], width), coefficients(test, padded(directions, width), 0.0)
    )
    numbers = (quads, record.eta_s, record.eta_b, alpha, record.model_error_cap)
    return [
        _instance(*args)
        for args in zip(
            drawn, bases[0::2], bases[1::2], v_iota, *(c.tolist() for c in numbers), fractions,
            directions, (10 + 4 * np.maximum(*t3)).tolist(),
        )
    ]


def random_instance(rng, n=None, model_error_fraction=None):
    """The CertifyInstance of one stream: random_instances of a block of one."""
    return random_instances([rng], n, model_error_fraction)[0]
