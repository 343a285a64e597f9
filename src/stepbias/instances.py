"""Randomized problem-pair generator for certification runs.

Instances are sampled so the standing assumptions hold by construction:
spectra with comfortable gaps around sigma_1, sigma_{n-1} and sigma_n
(keeping the log-gap denominators of the step windows away from 0, and
with them the level-set target alpha away from underflow), random
orthogonal bases composed from Givens rotations, and a model error
either zero or scaled to a small fraction of its allowed cap.

Instances are generated in blocks (random_instances, one stream each):
each round of draws builds its bases in one vectorized Givens pass and
its starts theta0 in one padded product, and is recorded by one
regime_records pass at theta0's eigen-coefficients. A block is a
CertifyBlock: the spectral.padded columns regimes.certify_block reads,
with the start coefficients, the regime record and the step windows at
alpha that the certificate reads, from which block[k] builds instance
k's CertifyInstance only when asked.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleWindow
from .quadratic import ProblemPair, QuadraticObjective, coefficients, excess_losses
from .records import RegimeRecord, _window_bounds, _window_refusal, regime_records
from .spectral import Spectrum, condition_numbers, live_mask, matvec, padded

MAX_DRAWS = 100
# Redraws of one spaced spectrum before the generator refuses its n: about
# 1 s at n = 50 (2-vCPU Xeon), where a draw is spaced with chance ~1e-12.
MAX_SPACING_DRAWS = 100_000


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
    step cap. iota[k] is its start's train eigen-coefficients, record
    the block's records.RegimeRecord at those starts (r_opt the test
    loss of each train optimum), and windows[:, :, k] the [t2, t3]
    bounds of its Small and Big step windows at alpha (NaN where
    records._window_refusal refuses them): the one record the assumption
    checks and the certificate read. block[k] is instance k as a
    CertifyInstance, built when read, and CertifyBlock.of stacks a list
    of them.
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
    iota: np.ndarray
    record: RegimeRecord
    windows: np.ndarray

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
    def of(cls, instances, iota=None):
        """The block of a list of CertifyInstances, each stack spectral.padded once.

        Its record is at the eigen-coefficients of each theta0, or at
        iota's rows where given, a start per instance (certify's is its
        runs'). Raises DimensionMismatch on an instance whose theta0 or
        row of iota is not a vector of its pair's dimension.
        """
        instances = list(instances)
        size, pairs = len(instances), [inst.pair for inst in instances]
        n = np.array([p.n for p in pairs], dtype=int)
        starts = [("theta0", [inst.theta0 for inst in instances])]
        if iota is not None:
            starts.append(("iota", list(iota)))
        for name, vectors in starts:
            for k, (v, m) in enumerate(zip(vectors, n.tolist())):
                if np.shape(v) != (m,):
                    raise DimensionMismatch(
                        f"instance {k}: {name} has shape {np.shape(v)}, its pair has n = {m}"
                    )
        width = n.max(initial=1)  # an empty block keeps a column for the record to read
        spectra = [s for p in pairs for s in (p.train.spectrum, p.test.spectrum)]
        rows = [
            *(s.eigenvalues for s in spectra),
            *(x for p in pairs for x in (p.train.optimum, p.test.optimum)),
            *(v for _, vectors in starts for v in vectors),
        ]
        # An empty block has no row to pad.
        stack = padded(rows, width) if size else np.zeros((0, width))
        bases = padded([s.eigenvectors for s in spectra], width) if size else np.zeros((0, 0, 0))
        eigenvalues, optima = stack[: 4 * size].reshape(2, size, 2, width)
        theta0, start = stack[4 * size : 5 * size], stack[5 * size :]
        bases = bases.reshape(size, 2, width, width)
        if iota is None:
            start = coefficients(bases[:, 0], theta0, optima[:, 0])
        eta_s, eta_b, alpha = (
            np.array([getattr(inst, name) for inst in instances], dtype=float)
            for name in ("eta_s", "eta_b", "alpha")
        )
        train_sig, test_sig = eigenvalues.swapaxes(0, 1)
        r_opt = _model_errors(test_sig, bases[:, 1], optima)
        record = _record(n, train_sig, test_sig, eta_s, eta_b, start, r_opt)
        return cls(
            n, eigenvalues, bases, optima,
            np.array([s.degenerate for s in spectra], dtype=bool).reshape(size, 2), theta0,
            eta_s, eta_b, alpha, np.array([inst.t_max for inst in instances], dtype=int), start,
            record, _windows(record, alpha),
        )


def _record(n, train_sig, test_sig, eta_s, eta_b, iota, r_opt):
    """regime_records of a block at the starts iota, kappa_R each test spectrum's."""
    return regime_records(n, train_sig, condition_numbers(test_sig, n), eta_s, eta_b, iota, r_opt)


def _model_errors(test_sig, test_bases, optima):
    """R(theta_hat) of each instance: its train optimum's test loss, from its test coefficients.

    optima stacks each instance's train and test optimum, (L, 2, width).
    """
    return excess_losses(test_sig, coefficients(test_bases, optima[:, 0], optima[:, 1]))


def _windows(record, alpha):
    """The [t2, t3] bounds of each row's Small and Big step windows at alpha, (2, 2, L).

    A row whose windows records._window_refusal refuses reads NaN.
    """
    columns = (alpha.tolist(), record.scale_s.tolist(), record.scale_b.tolist())
    refused = [_window_refusal(*row) is not None for row in zip(*columns)]
    with np.errstate(all="ignore"):
        scale = np.concatenate([record.scale_s, record.scale_b])
        scale = np.where(np.tile(refused, 2), math.nan, scale)
        lead = np.concatenate([record.lead_s, record.lead_b])
        return _window_bounds(scale, lead, np.tile(alpha, 2)).reshape(2, 2, -1)


def givens_angles(rng, n):
    """The n(n-1)/2 rotation angles of one random basis, from one rng.random call.

    Each angle is rng.uniform(0, 2 pi)'s value, 0 + 2 pi u; one call
    gives the same values and generator state as one call per rotation.
    """
    return (2.0 * math.pi * rng.random(n * (n - 1) // 2)).tolist()


@functools.cache
def _givens_plan(n, width):
    """Where an n x n basis's rotations sit among a width x width basis's, in draw order."""
    return np.array(
        [p * width - p * (p + 1) // 2 + r - p - 1 for p in range(n - 1) for r in range(p + 1, n)],
        dtype=np.intp,
    )


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
    count = size * (size - 1) // 2
    # cos[j, k] and sin[j, k] are c and s of padded rotation j of basis k,
    # set for each basis's own rotations at one flat index each.
    plans = [_givens_plan(n, size) for n, _ in drawn]
    flat = np.concatenate(plans) * len(drawn) + np.repeat(
        np.arange(len(drawn)), [len(plan) for plan in plans]
    )
    angles = [a for _, angles in drawn for a in angles]
    cos = np.ones(count * len(drawn))
    sin = np.zeros(count * len(drawn))
    cos[flat] = list(map(math.cos, angles))
    sin[flat] = list(map(math.sin, angles))
    cos, sin = cos.reshape(count, len(drawn), 1), sin.reshape(count, len(drawn), 1)
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
    """count draws from [low, high], descending, redrawn until gaps >= min_gap.

    Each draw is rng.uniform(low, high)'s value, low + (high - low) u.
    Raises ValueError where count - 1 gaps of min_gap do not fit in the
    window, and InfeasibleWindow after MAX_SPACING_DRAWS draws.
    """
    width = high - low
    if (count - 1) * min_gap >= width:
        raise ValueError(f"{count} draws cannot lie {min_gap} apart in [{low}, {high}]")
    for _ in range(MAX_SPACING_DRAWS):
        vals = sorted([low + width * u for u in rng.random(count).tolist()], reverse=True)
        if all(a - b >= min_gap for a, b in zip(vals, vals[1:])):
            return vals
    raise InfeasibleWindow(
        f"no {count} draws in [{low}, {high}] were {min_gap} apart in {MAX_SPACING_DRAWS} tries"
    )


def _train_eigenvalues(rng, n):
    u_n, u_n1, u_2 = rng.random(3).tolist()
    sig_n = 0.10 + (0.15 - 0.10) * u_n
    sig_n1 = 0.30 + (0.40 - 0.30) * u_n1
    sig_2 = 0.55 + (0.70 - 0.55) * u_2
    middles = _spaced_descending(rng, n - 4, 0.42, 0.52)
    return np.array([1.0, sig_2, *middles, sig_n1, sig_n])


def _test_eigenvalues(rng, n):
    kappa_R = 1.2 + (3.0 - 1.2) * rng.random()
    bottom = 1.0 / kappa_R
    interior = _spaced_descending(rng, n - 2, bottom + 0.02, 0.98)
    return np.array([1.0, *interior, bottom])


def _draw(rng, n):
    """Every draw of one attempt, in stream order.

    Returns the train eigenvalues and basis angles, the test eigenvalues
    and basis angles, the train optimum and the initial eigen-coefficients.
    A spectrum whose spacing cannot be drawn refuses n: ValueError where
    it cannot fit, InfeasibleWindow where its draws never held it.
    """
    try:
        train_eigenvalues = _train_eigenvalues(rng, n)
        train_angles = givens_angles(rng, n)
        test_eigenvalues = _test_eigenvalues(rng, n)
    except (ValueError, InfeasibleWindow) as exc:
        raise type(exc)(f"generator refuses n = {n}: {exc}") from None
    test_angles = givens_angles(rng, n)
    opt_train = rng.normal(size=n)
    while True:
        iota = -1.0 + 2.0 * rng.random(n)
        if abs(iota[0]) >= 1e-3 and abs(iota[-1]) >= 1e-3:
            return (
                train_eigenvalues, train_angles, test_eigenvalues, test_angles,
                opt_train, iota,
            )


def random_instances(rngs, n=None, model_error_fraction=None):
    """The CertifyBlock of one instance per stream of rngs, each satisfying the assumptions.

    Each stream draws n (unless given), the train eigenvalues and basis
    angles, the test spectrum and its angles, the train optimum and the
    initial eigen-coefficients, then the model-error fraction and
    direction. eta_s = 1/(sigma_1 + sigma_n), eta_b = 1.9/sigma_1 and
    kappa_R is the test spectrum's. model_error_fraction positions
    R(theta_hat) at that fraction of its allowed cap (None draws 0 or 0.1
    at random). Every stream draws an attempt; one givens_bases pass
    builds the round's bases, one padded product its starts theta0, and
    one regime_records pass records them at theta0's eigen-coefficients.
    alpha is half the smaller alpha_1 reading of that record, which
    orders every step window. Each stream whose attempt is extremely
    unbalanced (alpha < 1e-280) draws its next attempt from its own
    stream and the round is built again, until every target is accepted,
    or raises InfeasibleWindow after MAX_DRAWS attempts of one stream.
    Then every stream draws its model error, from one padded product, and
    the record gets each R(theta_hat). The last round's stacks, record
    and step windows at alpha are the block's columns; no instance is
    built.
    """
    if n is not None and n < 4:
        raise ValueError("generator needs n >= 4")
    rngs = [np.random.default_rng(rng) for rng in rngs]
    if not rngs:
        return CertifyBlock.of([])
    sizes = [int(rng.integers(4, 9)) if n is None else n for rng in rngs]
    size = len(rngs)
    drawn, refused = [None] * size, range(size)
    for _ in range(MAX_DRAWS):
        for k in refused:
            drawn[k] = _draw(rngs[k], sizes[k])
        stack = padded([d[j] for j in (0, 5, 2, 4) for d in drawn], max(sizes))
        train_sig, iota, test_sig, opt_train = stack.reshape(4, size, -1)
        bases = givens_bases([(m, d[j]) for m, d in zip(sizes, drawn) for j in (1, 3)])
        bases = bases.reshape(size, 2, *bases.shape[1:])
        theta0 = opt_train + matvec(bases[:, 0], iota)
        start = coefficients(bases[:, 0], theta0, opt_train)
        eta_s, eta_b = 1.0 / (train_sig[:, 0] + train_sig[:, -1]), 1.9 / train_sig[:, 0]
        record = _record(sizes, train_sig, test_sig, eta_s, eta_b, start, np.full(size, math.nan))
        alpha = 0.5 * np.minimum(record.alpha_1, record.alpha_1_split)
        refused = np.flatnonzero(~(alpha >= 1e-280)).tolist()
        if not refused:
            break
    else:
        raise InfeasibleWindow(f"no draw in {MAX_DRAWS} gave a level-set target alpha >= 1e-280")
    fractions = np.array([
        (0.1 if rng.random() < 0.5 else 0.0) if model_error_fraction is None
        else model_error_fraction
        for rng in rngs
    ], dtype=float)
    directions = [
        rng.normal(size=m) if f > 0 else np.zeros(m) for rng, m, f in zip(rngs, sizes, fractions)
    ]
    directions = padded(directions, stack.shape[-1])
    quads = excess_losses(test_sig, coefficients(bases[:, 1], directions, 0.0))
    # A stream without model error divides 0 by 0 here and keeps its train optimum.
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.sqrt(fractions * record.model_error_cap * alpha / quads)[:, None] * directions
    opt_test = np.where(fractions[:, None] > 0, opt_train + shift, opt_train)
    optima = np.stack([opt_train, opt_test], axis=1)
    record = dataclasses.replace(record, r_opt=_model_errors(test_sig, bases[:, 1], optima))
    windows = _windows(record, alpha)
    return CertifyBlock(
        np.array(sizes), np.stack([train_sig, test_sig], axis=1), bases, optima,
        np.zeros((size, 2), dtype=bool), theta0, record.eta_s, record.eta_b, alpha,
        (10 + 4 * np.maximum(*windows[1])).astype(int), start, record, windows,
    )


def random_instance(rng, n=None, model_error_fraction=None):
    """The CertifyInstance of one stream: instance 0 of random_instances of a block of one."""
    return random_instances([rng], n, model_error_fraction)[0]
