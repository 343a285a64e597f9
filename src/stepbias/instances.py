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
one vectorized Givens pass and one padded product. A block is a
CertifyBlock: the spectral.padded columns regimes.certify_block reads,
from which block[k] builds instance k's CertifyInstance only when asked.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleWindow
from .quadratic import ProblemPair, QuadraticObjective, coefficients, excess_losses
from .records import _window_bounds, regime_records
from .spectral import Spectrum, condition_numbers, live_mask, matvec, padded

MAX_DRAWS = 100


@dataclass(frozen=True)
class CertifyInstance:
    pair: ProblemPair
    theta0: np.ndarray
    eta_s: float
    eta_b: float
    alpha: float
    t_max: int


@dataclass(frozen=True, eq=False)
class CertifyBlock:
    """A block of CertifyInstances as spectral.padded columns, a row per instance.

    Instance k has dimension n[k]; eigenvalues[k], bases[k], optima[k]
    and degenerate[k] hold its train (index 0) and test (1) eigenvalues,
    eigenbases, optima and spectral degeneracy flags; theta0[k] its
    start; eta_s, eta_b, alpha and t_max its rates, level-set target and
    step cap. block[k] is instance k as a CertifyInstance, built when
    read, and CertifyBlock.of stacks a list of them.
    """

    n: np.ndarray
    eigenvalues: np.ndarray
    bases: np.ndarray
    optima: np.ndarray
    degenerate: np.ndarray
    theta0: np.ndarray
    eta_s: np.ndarray
    eta_b: np.ndarray
    alpha: np.ndarray
    t_max: np.ndarray

    def __len__(self):
        return len(self.n)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, k):
        at = [*range(self.n[k] - 1), -1]
        train, test = (
            QuadraticObjective(Spectrum(sig[at], basis[np.ix_(at, at)], bool(flag)), optimum[at])
            for sig, basis, optimum, flag in zip(
                self.eigenvalues[k], self.bases[k], self.optima[k], self.degenerate[k]
            )
        )
        return CertifyInstance(
            ProblemPair(train, test), self.theta0[k, at], self.eta_s[k].item(),
            self.eta_b[k].item(), self.alpha[k].item(), self.t_max[k].item(),
        )

    @classmethod
    def of(cls, instances):
        """The block of a list of CertifyInstances, each stack spectral.padded once.

        Raises DimensionMismatch on an instance whose theta0 is not a
        vector of its pair's dimension.
        """
        instances = list(instances)
        size, pairs = len(instances), [inst.pair for inst in instances]
        n = np.array([p.n for p in pairs], dtype=int)
        for k, (inst, m) in enumerate(zip(instances, n.tolist())):
            if np.shape(inst.theta0) != (m,):
                raise DimensionMismatch(
                    f"instance {k}: theta0 has shape {np.shape(inst.theta0)}, its pair has n = {m}"
                )
        width = n.max(initial=0)
        spectra = [s for p in pairs for s in (p.train.spectrum, p.test.spectrum)]
        rows = [
            *(s.eigenvalues for s in spectra),
            *(x for p in pairs for x in (p.train.optimum, p.test.optimum)),
            *(inst.theta0 for inst in instances),
        ]
        # An empty block has no row to pad.
        stack = padded(rows, width) if size else np.zeros((0, width))
        bases = padded([s.eigenvectors for s in spectra], width) if size else np.zeros((0, 0, 0))
        numbers = (
            np.array([getattr(inst, name) for inst in instances], dtype=float)
            for name in ("eta_s", "eta_b", "alpha")
        )
        return cls(
            n, stack[: 2 * size].reshape(size, 2, width), bases.reshape(size, 2, width, width),
            stack[2 * size : 4 * size].reshape(size, 2, width),
            np.array([s.degenerate for s in spectra], dtype=bool).reshape(size, 2),
            stack[4 * size :], *numbers, np.array([inst.t_max for inst in instances], dtype=int),
        )


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
    may differ in the last bit. Returns the bases as one C-contiguous
    (len(drawn), width, width) stack in spectral.padded's layout, width
    the largest n, gathered from the pass's own array.
    """
    if not drawn:
        return np.zeros((0, 0, 0))
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
    # Basis k's entries, row by row, fill its live positions of the layout in order.
    n = np.array([m for m, _ in drawn])
    inside, live = np.arange(size) < n[:, None], live_mask(n, size)
    bases = np.zeros((len(drawn), size, size))
    bases[live[:, :, None] & live[:, None, :]] = cols.transpose(1, 2, 0)[
        inside[:, :, None] & inside[:, None, :]
    ]
    return bases


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


def _target(record):
    """The level-set target alpha of each attempt: half its smaller alpha_1 reading."""
    return 0.5 * np.minimum(record.alpha_1, record.alpha_1_split)


def _records(drawn):
    """The regime_records of attempts, their targets and their padded stacks.

    The stacks are, a row per attempt, the train eigenvalues, the initial
    eigen-coefficients, the test eigenvalues and the train optimum. Each
    attempt's kappa_R is its test spectrum's, eta_s = 1/(sigma_1 +
    sigma_n) and eta_b = 1.9/sigma_1.
    """
    n = np.array([len(d[0]) for d in drawn])
    stack = padded([d[j] for j in (0, 5, 2, 4) for d in drawn], n.max()).reshape(4, len(drawn), -1)
    sig, iota, test = stack[:3]
    record = regime_records(
        n, sig, condition_numbers(test, n), 1.0 / (sig[:, 0] + sig[:, -1]), 1.9 / sig[:, 0], iota,
        np.full(len(drawn), math.nan),
    )
    return record, _target(record), stack


def random_instances(rngs, n=None, model_error_fraction=None):
    """The CertifyBlock of one instance per stream of rngs, each satisfying the assumptions.

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
    comes from one padded product. The last round's stacks are the
    block's columns; no instance is built.
    """
    if n is not None and n < 4:
        raise ValueError("generator needs n >= 4")
    rngs = [np.random.default_rng(rng) for rng in rngs]
    if not rngs:
        return CertifyBlock.of([])
    sizes = [int(rng.integers(4, 9)) if n is None else n for rng in rngs]
    drawn, refused = [None] * len(rngs), range(len(rngs))
    for _ in range(MAX_DRAWS):
        for k in refused:
            drawn[k] = _draw(rngs[k], sizes[k])
        record, alpha, stack = _records(drawn)
        refused = np.flatnonzero(~(alpha >= 1e-280)).tolist()
        if not refused:
            break
    else:
        raise InfeasibleWindow(f"no draw in {MAX_DRAWS} gave a level-set target alpha >= 1e-280")
    fractions = np.array([
        (0.1 if rng.uniform() < 0.5 else 0.0) if model_error_fraction is None
        else model_error_fraction
        for rng in rngs
    ], dtype=float)
    directions = [
        rng.normal(size=m) if f > 0 else np.zeros(m) for rng, m, f in zip(rngs, sizes, fractions)
    ]
    scale = np.concatenate([record.scale_s, record.scale_b])
    lead = np.concatenate([record.lead_s, record.lead_b])
    t3 = _window_bounds(scale, lead, np.tile(alpha, 2))[1].reshape(2, -1)
    train_sig, iota, test_sig, opt_train = stack
    bases = givens_bases([pair for m, d in zip(sizes, drawn) for pair in ((m, d[1]), (m, d[3]))])
    bases = bases.reshape(len(rngs), 2, *bases.shape[1:])
    directions = padded(directions, stack.shape[-1])
    quads = excess_losses(test_sig, coefficients(bases[:, 1], directions, 0.0))
    # A stream without model error divides 0 by 0 here and keeps its train optimum.
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.sqrt(fractions * record.model_error_cap * alpha / quads)[:, None] * directions
    opt_test = np.where(fractions[:, None] > 0, opt_train + shift, opt_train)
    return CertifyBlock(
        np.array(sizes), np.stack([train_sig, test_sig], axis=1), bases,
        np.stack([opt_train, opt_test], axis=1), np.zeros((len(rngs), 2), dtype=bool),
        opt_train + matvec(bases[:, 0], iota), record.eta_s, record.eta_b, alpha,
        (10 + 4 * np.maximum(*t3)).astype(int),
    )


def random_instance(rng, n=None, model_error_fraction=None):
    """The CertifyInstance of one stream: instance 0 of random_instances of a block of one."""
    return random_instances([rng], n, model_error_fraction)[0]
