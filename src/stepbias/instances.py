"""Randomized problem-pair generator for certification runs.

Instances are sampled so the standing assumptions hold by construction:
spectra with comfortable gaps around sigma_1, sigma_{n-1} and sigma_n
(keeping the log-gap denominators of the step windows away from 0, and
with them the level-set target alpha away from underflow), random
orthogonal bases composed from Givens rotations, and a model error
either zero or scaled to a small fraction of its allowed cap.

Instances are generated in blocks (random_instances, one stream each):
each stream draws once, and the block builds its bases in one vectorized
Givens pass, in the spectral.padded layout, its starts theta0 in one
padded product and its record in one regime_records pass at theta0's
eigen-coefficients. The draw ranges keep every target alpha above about
1e-119, so no stream draws again. A block is a CertifyBlock: the
spectral.padded columns regimes.certify_block reads, with the model
errors, start coefficients, regime record and step windows at alpha the
certificate reads; block[k] builds instance k's CertifyInstance only
when asked.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InfeasibleWindow
from .quadratic import ProblemPair, QuadraticObjective, coefficients, excess_losses
from .records import RegimeRecord, _window_bounds, _window_refusal, regime_records
from .spectral import Spectrum, condition_numbers, live_mask, matvec, padded

# Redraws of one spaced spectrum before the generator refuses its n: about
# 1 s at n = 50 (2-vCPU Xeon), where a draw is spaced with chance ~1e-12.
MAX_SPACING_DRAWS = 100_000
# The least gap between the spaced eigenvalues of a drawn spectrum.
MIN_SPACING = 1e-3


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
    start; eta_s, eta_b, r_opt, alpha and t_max its rates, model error
    R(theta_hat) (its train optimum's test loss), level-set target and
    step cap. iota[k] is its start's train eigen-coefficients, record
    the block's records.RegimeRecord at those starts, and
    windows[:, :, k] the [t2, t3] bounds of its Small and Big step
    windows at alpha (NaN where records._window_refusal refuses them):
    the one record the assumption checks and the certificate read.
    block[k] is instance k as a CertifyInstance, built when read, and
    CertifyBlock.of stacks a list of them.
    """

    n: np.ndarray
    eigenvalues: np.ndarray
    bases: np.ndarray
    optima: np.ndarray
    degenerate: np.ndarray
    theta0: np.ndarray
    eta_s: np.ndarray
    eta_b: np.ndarray
    r_opt: np.ndarray
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
        record = _record(n, train_sig, test_sig, eta_s, eta_b, start)
        return cls(
            n, eigenvalues, bases, optima,
            np.array([s.degenerate for s in spectra], dtype=bool).reshape(size, 2), theta0,
            eta_s, eta_b, _model_errors(test_sig, bases[:, 1], optima), alpha,
            np.array([inst.t_max for inst in instances], dtype=int), start, record,
            _windows(record, alpha),
        )


def _record(n, train_sig, test_sig, eta_s, eta_b, iota):
    """regime_records of a block at the starts iota, kappa_R each test spectrum's."""
    return regime_records(n, train_sig, condition_numbers(test_sig, n), eta_s, eta_b, iota)


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
    """Where an n x n basis's rotations sit among a width x width basis's, and its identity sines.

    Basis entry j < n - 1 sits at position j, entry n - 1 at width - 1
    (spectral.padded's layout). The sines are +0.0 but -0.0 where a
    padding position rotates with position width - 1 (see givens_bases).
    """
    number = np.zeros((width, width), dtype=np.intp)  # [p, r]: rotation (p, r)'s draw index
    number[np.triu_indices(width, 1)] = range(width * (width - 1) // 2)
    at = [*range(n - 1), width - 1]
    sines = np.zeros(width * (width - 1) // 2)
    sines[number[n - 1 : width - 1, -1]] = -0.0
    return number[np.ix_(at, at)][np.triu_indices(n, 1)], sines


def givens_bases(drawn):
    """Orthogonal bases, one per (n, angles) pair of drawn, from one Givens pass.

    angles holds the angles of rotations (p, r), p < r, in the order
    p = 0, 1, ... then r = p + 1, ... (see givens_angles). Starting from
    the identity, rotation (p, r) with c, s = cos, sin of its angle sets

        col_r <- s col_p + c col_r,    col_p <- c col_p - s col_r (old).

    The pass applies each rotation to every basis at once, in the
    spectral.padded layout of the block's largest n, width, each basis
    padded with identity rotations (c = 1, s = 0). Those leave a basis's
    own entries bitwise as they were: a padding column stays +0 on the
    basis's rows, so col_p becomes col_p - 0 * col_pad, and where a
    padding column would add +0 to the last one (-0.0 + 0.0 is +0.0), s
    is -0.0. Numpy's elementwise products and sums are the IEEE
    operations of the same loop on floats, so each basis has the bits,
    zero signs included, of its own rotation loop. c and s come from
    math, one angle at a time, not from numpy's vectorized
    transcendentals, whose results may differ in the last bit. One
    np.where writes +0.0 over each basis's padding rows and columns.
    Returns the bases as one C-contiguous (len(drawn), width, width) stack.
    """
    if not drawn:
        return np.zeros((0, 0, 0))
    size = max(n for n, _ in drawn)
    # cos[j, k] and sin[j, k] are c and s of padded rotation j of basis k.
    own, sines = zip(*(_givens_plan(n, size) for n, _ in drawn))
    basis, own = np.repeat(np.arange(len(drawn)), list(map(len, own))), np.concatenate(own)
    angles = [a for _, angles in drawn for a in angles]
    sin = np.array(sines).T[..., None]
    cos = np.ones_like(sin)
    cos[own, basis, 0] = list(map(math.cos, angles))
    sin[own, basis, 0] = list(map(math.sin, angles))
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
    live = live_mask([n for n, _ in drawn], size)
    return np.where(live[:, :, None] & live[:, None, :], cols.transpose(1, 2, 0), 0.0)


def _spaced_descending(rng, count, low, high):
    """count draws from [low, high], descending, redrawn until gaps >= MIN_SPACING.

    Each draw is rng.uniform(low, high)'s value, low + (high - low) u.
    Raises ValueError where count - 1 gaps of MIN_SPACING stacked on low
    reach high (high - low can round up past them), and InfeasibleWindow
    after MAX_SPACING_DRAWS draws.
    """
    width = high - low
    if low + (count - 1) * MIN_SPACING >= high:
        raise ValueError(f"{count} draws cannot lie {MIN_SPACING} apart in [{low}, {high}]")
    for _ in range(MAX_SPACING_DRAWS):
        vals = sorted([low + width * u for u in rng.random(count).tolist()], reverse=True)
        if all(a - b >= MIN_SPACING for a, b in zip(vals, vals[1:])):
            return vals
    raise InfeasibleWindow(
        f"no {count} draws in [{low}, {high}] were {MIN_SPACING} apart in {MAX_SPACING_DRAWS} tries"
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
    """Every draw of one instance, in stream order.

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
    at random). Every stream draws once; one givens_bases pass builds the
    block's bases, one padded product its starts theta0, and one
    regime_records pass records them at theta0's eigen-coefficients.
    alpha is half the smaller alpha_1 reading of that record, which
    orders every step window. The draw ranges keep it above about 1e-119
    (the Big and Small log gaps are at least log(0.9/0.81) and
    -log(0.85)); a target not at least 1e-280 raises InfeasibleWindow,
    naming the first such stream. Then every stream draws its model error, from
    one padded product, which gives each R(theta_hat). The stacks and
    record, the model errors and the step windows at alpha are the
    block's columns; no instance is built.
    """
    if n is not None and n < 4:
        raise ValueError("generator needs n >= 4")
    rngs = [np.random.default_rng(rng) for rng in rngs]
    if not rngs:
        return CertifyBlock.of([])
    sizes = [int(rng.integers(4, 9)) if n is None else n for rng in rngs]
    size = len(rngs)
    drawn = [_draw(rng, m) for rng, m in zip(rngs, sizes)]
    stack = padded([d[j] for j in (0, 5, 2, 4) for d in drawn], max(sizes))
    train_sig, iota, test_sig, opt_train = stack.reshape(4, size, -1)
    bases = givens_bases([(m, d[j]) for m, d in zip(sizes, drawn) for j in (1, 3)])
    bases = bases.reshape(size, 2, *bases.shape[1:])
    theta0 = opt_train + matvec(bases[:, 0], iota)
    start = coefficients(bases[:, 0], theta0, opt_train)
    eta_s, eta_b = 1.0 / (train_sig[:, 0] + train_sig[:, -1]), 1.9 / train_sig[:, 0]
    record = _record(sizes, train_sig, test_sig, eta_s, eta_b, start)
    alpha = 0.5 * np.minimum(record.alpha_1, record.alpha_1_split)
    refused = np.flatnonzero(~(alpha >= 1e-280))
    if refused.size:
        k = refused[0]
        raise InfeasibleWindow(
            f"stream {k} of {size}: level-set target alpha = {alpha[k]:.3g} is not at least 1e-280"
        )
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
    windows = _windows(record, alpha)
    return CertifyBlock(
        np.array(sizes), np.stack([train_sig, test_sig], axis=1), bases, optima,
        np.zeros((size, 2), dtype=bool), theta0, eta_s, eta_b,
        _model_errors(test_sig, bases[:, 1], optima), alpha,
        (10 + 4 * np.maximum(*windows[1])).astype(int), start, record, windows,
    )


def random_instance(rng, n=None, model_error_fraction=None):
    """The CertifyInstance of one stream: instance 0 of random_instances of a block of one."""
    return random_instances([rng], n, model_error_fraction)[0]
