"""The certify path's row-sum rule: no zero padding or stack changes a row's bits.

spectral.row_sums adds each row left to right from +0.0, so a zero term
is exact wherever it sits. spectral.matvec, quadratic.excess_losses and
regimes._mass_ratios sum their rows with it, which is what lets a block
of instances of n = 4..8 be certified in one pass padded to the widest.
numpy's ``.sum`` adds rows of 8 or more in pairwise blocks, whose bits
move with the padding: the widths drawn here run past that, to 12.
The tests' references sum by reference.row_sum, and build matvec and
excess on it; each is pinned here to the program's bits.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stepbias.quadratic import excess_losses
from stepbias.regimes import _mass_ratios
from stepbias.spectral import matvec, padded, row_sums, unpadded

import reference

values = st.floats(min_value=-1e50, max_value=1e50, allow_nan=False)


def rows(n):
    return st.lists(values, min_size=n, max_size=n).map(np.array)


@st.composite
def padded_rows(draw, count=1):
    """count rows of one width n in 1..12, a wider width up to 12, and zero positions.

    places holds, for each of width - n zeros, where in the row it goes.
    """
    n = draw(st.integers(1, 12))
    width = draw(st.integers(n, 12))
    places = draw(st.lists(st.integers(0, n), min_size=width - n, max_size=width - n))
    return [draw(rows(n)) for _ in range(count)], width, places


def with_zeros(row, places):
    """row with a +0.0 inserted at each of places (positions in the row as it grows)."""
    row = row.tolist()
    for p in places:
        row.insert(min(p, len(row)), 0.0)
    return np.array(row)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(padded_rows(), st.integers(0, 5))
def test_row_sums_is_left_to_right_and_blind_to_zeros_and_stacks(case, others):
    (row,), width, places = case
    want = reference.row_sum(row)
    assert bits(row_sums(row)) == bits(want)
    assert bits(row_sums(with_zeros(row, places))) == bits(want)
    stack = np.zeros((others + 1, row.size))
    stack[others] = row
    stack[:others] = np.arange(others * row.size).reshape(others, row.size) / 7.0
    assert bits(row_sums(stack)[others]) == bits(want)
    stack = padded(list(stack), width)
    assert bits(reference.row_sum(stack)) == bits(row_sums(stack))


def entries(rng, shape):
    """Normal draws scaled by 1e-20..1e20, with a tenth of them +0.0 and a tenth -0.0."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 21, size=shape)
    pick = rng.uniform(size=shape)
    return np.where(pick < 0.1, 0.0, np.where(pick < 0.2, -0.0, x))


@st.composite
def matvec_blocks(draw):
    """Square matrices and vectors of n in 1..12, each with its own n, and a width."""
    ns = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    width = draw(st.integers(max(ns), 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [entries(rng, (n, n)) for n in ns], [entries(rng, n) for n in ns], width


@settings(max_examples=200, deadline=None)
@given(matvec_blocks())
def test_matvec_rows_keep_their_bits_padded_in_any_stack(case):
    """A padded stack of mixed n gives each instance's products bitwise, transposed too."""
    mats, vecs, width = case
    n = [len(v) for v in vecs]
    a, v = padded(mats, width), padded(vecs, width)
    assert bits(reference.matvec(a, v)) == bits(matvec(a, v))
    for got, want in zip(unpadded(matvec(a, v), n), (matvec(m, x) for m, x in zip(mats, vecs))):
        assert bits(got) == bits(want)
    got = unpadded(matvec(a.swapaxes(-1, -2), v), n)
    for g, m, x in zip(got, mats, vecs):
        assert bits(g) == bits(matvec(m.T, x))


@settings(max_examples=200, deadline=None)
@given(padded_rows(count=2), st.integers(0, 4))
def test_excess_losses_keep_their_bits_padded_in_any_stack(case, others):
    (sig, coeffs), width, places = case
    want = excess_losses(sig, coeffs)
    assert bits(excess_losses(with_zeros(sig, places), with_zeros(coeffs, places))) == bits(want)
    stack = padded([sig, *[np.full(width, 0.5)] * others], width)
    c = padded([coeffs, *[np.full(width, 3.0)] * others], width)
    assert bits(excess_losses(stack, c)[0]) == bits(want)
    assert bits(reference.excess(stack, c)) == bits(excess_losses(stack, c))


@settings(max_examples=200, deadline=None)
@given(padded_rows(), values.filter(lambda x: x != 0), st.integers(0, 4))
def test_mass_ratios_keep_their_bits_padded_in_any_stack(case, lead, others):
    (rest,), width, places = case
    want = _mass_ratios(lead, rest)
    assert bits(_mass_ratios(lead, with_zeros(rest, places))) == bits(want)
    stack = padded([rest, *[np.full(width, 2.0)] * others], width)
    leads = np.array([lead] + [3.0] * others)
    assert bits(_mass_ratios(leads, stack)[0]) == bits(want)
