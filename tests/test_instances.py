"""Block-built Givens bases and block-generated instances against one-at-a-time oracles."""

import collections
import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from stepbias import experiments, gd, instances, regimes
from stepbias.config import validate_config
from stepbias.errors import CertificationFailed, InfeasibleWindow, InvalidRegime, LevelSetMismatch
from stepbias.experiments import run_experiment, stream
from stepbias.instances import (
    CertifyBlock,
    givens_angles,
    givens_bases,
    random_instance,
    random_instances,
)
from stepbias.quadratic import ProblemPair, QuadraticObjective
from stepbias.records import regime_records
from stepbias.spectral import diagonal_spectrum, padded

from reference import objective_loss, random_instance_numbers


def random_orthogonal(rng, n):
    """The basis of one stream's angles, from the block builder as a block of one."""
    return givens_bases([(n, givens_angles(rng, n))])[0]


def _rotation_loop(rng, n):
    """Oracle: one rng.uniform call and a numpy column update per rotation."""
    q = np.eye(n)
    for p in range(n - 1):
        for r in range(p + 1, n):
            angle = rng.uniform(0.0, 2.0 * math.pi)
            c, s = math.cos(angle), math.sin(angle)
            col_p = q[:, p].copy()
            col_r = q[:, r].copy()
            q[:, p] = c * col_p - s * col_r
            q[:, r] = s * col_p + c * col_r
    return q


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 7, 8])
def test_random_orthogonal_matches_rotation_loop(n):
    for seed in range(20):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _rotation_loop(want_rng, n)
        got = random_orthogonal(got_rng, n)
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and got.dtype == np.float64
        # The generator is left in the same state.
        assert got_rng.uniform() == want_rng.uniform()


def test_random_orthogonal_is_orthogonal():
    q = random_orthogonal(np.random.default_rng(0), 8)
    assert np.allclose(q.T @ q, np.eye(8), atol=1e-13)


def _column_list_loop(rng, n):
    """Oracle: each rotation updates two columns held as lists of floats."""
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n * (n - 1) // 2).tolist()
    return column_list_orthogonal(angles, n)


def column_list_orthogonal(angles, n):
    """The basis of angles, each rotation applied to two columns of floats."""
    angles = iter(angles)
    cols = np.eye(n).tolist()
    for p in range(n - 1):
        for r in range(p + 1, n):
            angle = next(angles)
            c, s = math.cos(angle), math.sin(angle)
            col_p, col_r = cols[p], cols[r]
            cols[p] = [c * x - s * y for x, y in zip(col_p, col_r)]
            cols[r] = [s * x + c * y for x, y in zip(col_p, col_r)]
    return np.array(cols).T.copy()


@pytest.mark.parametrize("n", range(1, 12))
def test_random_orthogonal_matches_column_list_loop(n):
    """The block pass, here on a block of one, gives the bits of the column loop."""
    for seed in range(50):
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = _column_list_loop(want_rng, n)
        got = random_orthogonal(got_rng, n)
        assert got.tobytes() == want.tobytes() and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got_rng.uniform() == want_rng.uniform()


def row_wise_orthogonal(angles, n):
    """Oracle: the basis of angles built one row at a time on plain floats.

    Rotation (p, r) mixes entries p and r of each row and nothing else, so
    each row is built on its own. Row k starts as e_k, so in a sweep p < k
    the rotations (p, r) with r < k only mix zeros and are skipped. The
    zeros they would have signed are later replaced by c x - s y with s y
    nonzero, so the bits are those of the column loop unless a drawn
    angle is exactly 0.
    """
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


def _assert_bitwise(got, want):
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("size", [1, 2, 40, 200])
@pytest.mark.parametrize("n", range(2, 9))
def test_block_bases_match_the_row_wise_builder(n, size):
    rng = stream(n * 1000 + size, "givens-block")
    drawn = [(n, givens_angles(rng, n)) for _ in range(size)]
    got = givens_bases(drawn)
    assert len(got) == size
    for basis, (_, angles) in zip(got, drawn):
        _assert_bitwise(basis, row_wise_orthogonal(angles, n))


@pytest.mark.parametrize("size", [1, 2, 40, 200])
def test_mixed_size_blocks_match_the_row_wise_builder(size):
    """Bases padded to the block's largest n keep their own bits, in spectral.padded's layout."""
    rng = stream(size, "givens-mixed")
    sizes = rng.integers(1, 13, size=size).tolist()
    drawn = [(n, givens_angles(rng, n)) for n in sizes]
    got = givens_bases(drawn)
    assert got.shape == (size, max(sizes), max(sizes))
    for basis, (n, angles) in zip(got, drawn):
        _assert_bitwise(basis, padded([row_wise_orthogonal(angles, n)], max(sizes))[0])


def test_signed_zeros_survive_the_block_pass():
    # Angles of exactly 0 and pi leave zeros that the column update signs;
    # the row-wise builder skips some of those updates, so the column loop
    # is the oracle here. In the second block, small bases sit beside a
    # wider one: an angle of 4 (cos and sin both negative) after angles 0
    # signs zeros of a small basis's last column, which an identity
    # rotation with s = +0 would unsign, and angles pi sign zeros in its
    # padding rows, which the padded layout holds as +0.
    blocks = [
        [
            (3, [0.0, 0.0, math.pi]),
            (4, [0.0, math.pi, 0.0, math.pi, 0.0, math.pi]),
            (8, [0.0] * 28),
        ],
        [
            (3, [0.0, 0.0, 4.0]),
            (2, [math.pi]),
            (7, [0.0, math.pi, 4.0] * 7),
            (4, [0.0, 0.0, 0.0, math.pi, 0.0, 4.0]),
            (1, []),
        ],
    ]
    got = [givens_bases(drawn) for drawn in blocks]
    for bases, drawn in zip(got, blocks):
        width = max(n for n, _ in drawn)
        for basis, (n, angles) in zip(bases, drawn):
            _assert_bitwise(basis, padded([column_list_orthogonal(angles, n)], width)[0])
    assert np.signbit(got[0][0][0, 1]) and got[0][0][0, 1] == 0
    assert np.signbit(got[1][0][0, -1]) and got[1][0][0, -1] == 0
    assert givens_bases([]).shape == (0, 0, 0)


def test_the_givens_plan_is_keyed_on_both_sizes():
    """Blocks of width 8, 11, then 8 again, sharing n, each get their own width's rotation plan."""
    instances._givens_plan.cache_clear()
    rng = stream(0, "givens-plan")
    for sizes in ([5, 8, 3, 5], [5, 11, 8, 2], [8, 5, 5, 4]):
        drawn = [(n, givens_angles(rng, n)) for n in sizes]
        got = givens_bases(drawn)
        for basis, (n, angles) in zip(got, drawn):
            _assert_bitwise(basis, padded([row_wise_orthogonal(angles, n)], max(sizes))[0])
    assert instances._givens_plan.cache_info().hits > 0


def _assert_same_instance(got, want):
    assert got.alpha == want.alpha and got.t_max == want.t_max
    assert (got.eta_s, got.eta_b) == (want.eta_s, want.eta_b)
    assert got.theta0.tobytes() == want.theta0.tobytes()
    for side in ("train", "test"):
        g, w = getattr(got.pair, side), getattr(want.pair, side)
        assert g.spectrum.eigenvalues.tobytes() == w.spectrum.eigenvalues.tobytes()
        assert g.spectrum.eigenvectors.tobytes() == w.spectrum.eigenvectors.tobytes()
        assert g.optimum.tobytes() == w.optimum.tobytes()


def test_block_generation_equals_one_instance_at_a_time():
    keys = [(seed, f"certify-{i}") for seed in range(13) for i in range(40)]
    start = 0
    for size in (1, 2, 40, 77, 200, 200):
        block = keys[start : start + size]
        start += size
        got = random_instances([stream(*key) for key in block])
        want = [random_instance(stream(*key)) for key in block]
        for g, w in zip(got, want, strict=True):
            _assert_same_instance(g, w)
    assert start == len(keys) == 520


def test_a_two_value_draw_is_redrawn_until_its_gap_holds(monkeypatch):
    """count == 2 checks its one gap: the first draw of this stream is 0.15 apart, under 0.5."""
    first = np.random.default_rng(3).uniform(0.0, 1.0, size=2)
    assert abs(first[0] - first[1]) < 0.5
    monkeypatch.setattr(instances, "MIN_SPACING", 0.5)
    high, low = instances._spaced_descending(np.random.default_rng(3), 2, 0.0, 1.0)
    assert high - low >= 0.5


# Streams whose draws redraw, found by search and asserted below:
# redraw-5 a spaced spectrum, redraw-939 and redraw-975 an iota.
REDRAW_KEYS = [(0, f"redraw-{i}") for i in (0, 5, 939, 1, 975)]


def test_a_block_with_redraws_matches_the_draw_reference():
    """Each stream's columns and next draw are those of the reference's explicit rng.uniform draws."""
    rngs = [stream(*key) for key in REDRAW_KEYS]
    block = random_instances(rngs)
    redraws = collections.Counter()
    for k, (key, rng) in enumerate(zip(REDRAW_KEYS, rngs)):
        ref_rng = stream(*key)
        alpha, t_max, theta0, opt_test = random_instance_numbers(ref_rng, None, None, redraws)
        inst = block[k]
        assert inst.alpha == alpha and inst.t_max == t_max
        assert inst.theta0.tobytes() == theta0.tobytes()
        assert inst.pair.test.optimum.tobytes() == opt_test.tobytes()
        assert rng.uniform() == ref_rng.uniform()
    assert redraws == {"spaced": 1, "iota": 2}


def test_an_unspaceable_n_is_refused_at_once_and_an_unlikely_one_after_bounded_redraws():
    """n = 110 cannot space its train spectrum; n = 50 draws its spacing with chance ~1e-12."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="n = 110"):
        random_instance(stream(0, "spacing"), n=110)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(InfeasibleWindow, match="n = 50"):
        random_instances([stream(0, "spacing")], n=50)
    # instances.MAX_SPACING_DRAWS redraws took 0.9 s on a 2-vCPU Xeon.
    assert time.perf_counter() - start < 5.0


def test_n_105_is_refused_at_once_though_its_window_width_rounds_up():
    """100 gaps of 1e-3 fill [0.42, 0.52] exactly; 0.52 - 0.42 rounds above 0.1, 0.42 + 0.1 does not."""
    assert 100 * 1e-3 < 0.52 - 0.42 and 0.42 + 100 * 1e-3 >= 0.52
    for n in (105, 106):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^generator refuses n = {n}: {n - 4} draws cannot"):
            random_instances([stream(0, "spacing")], n=n)
        assert time.perf_counter() - start < 0.1


def test_an_empty_block_has_no_instances():
    assert list(random_instances([])) == list(random_instances([], n=5)) == []
    with pytest.raises(ValueError):
        random_instances([], n=3)


def test_random_instance_is_a_block_of_one():
    for seed in range(5):
        _assert_same_instance(
            random_instance(stream(seed, "one"), model_error_fraction=0.1),
            random_instances([stream(seed, "one")], model_error_fraction=0.1)[0],
        )
    with pytest.raises(ValueError):
        random_instances([stream(0, "one")], n=3)


def _certify_files(tmp_path, label, instances_count):
    """The output files of a quadratic_certify run but its manifest, which names the directory."""
    out = tmp_path / label
    cfg = validate_config(
        {"experiment": "quadratic_certify", "instances": instances_count, "output_dir": str(out)}
    )
    run_experiment(cfg)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_certify_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    want = _certify_files(tmp_path, "default", 7)
    assert len(want) == 2
    for block in (1, 3, 7, 8):
        monkeypatch.setattr(experiments, "CERTIFY_BLOCK", block)
        assert _certify_files(tmp_path, f"block-{block}", 7) == want


class _Corner:
    """A stand-in generator: its first random() values are given, then evenly spread ones.

    The spread values of one call, from 0 to 1 - 2**-53, keep a spaced
    spectrum's gaps at (high - low) / (count - 1) from its first draw.
    """

    def __init__(self, *u):
        self.u = list(u)

    def random(self, size=None):
        if size is None:
            return self.u.pop(0)
        if self.u:
            drawn, self.u = self.u[:size], self.u[size:]
            return np.array(drawn)
        return np.linspace(0.0, 1.0 - 2**-53, size)


def test_the_draw_ranges_keep_every_target_above_the_generator_floor():
    """0.5 min(alpha_1, alpha_1_split) >= 1e-280 at every corner of the draw box, n = 4 and 104.

    The corners are the generator's own draws at u = 0 and u = 1 - 2**-53
    (sigma_n in [0.10, 0.15], sigma_{n-1} in [0.30, 0.40], sigma_2 in
    [0.55, 0.70], kappa_R in [1.2, 3]), with |iota_1| and |iota_n| at
    1e-3 (_draw redraws below it) or 1 and every other |iota_i| at 1,
    its largest; n = 104 is the largest n the generator does not refuse
    at once. Each reading is (1/2) sigma iota^2 exp(-L / g). The gaps g:
    the Big one is log(1.9 - 1) - log(1 - 1.9 sigma_n) >= log(0.9 /
    0.81), as |1 - 1.9 sigma_2| <= 0.33 never leads; the Small one is
    -log(1 + sigma_n - sigma_{n-1}) >= -log(0.85). Each is monotone in
    each coordinate, so their least is at a corner. The numerators L
    grow with n, kappa_R, ||iota||^2, 1 / iota_1^2 and 1 / iota_n^2, to
    at most about log(48 n^2 10^6), 27 at n = 104, and move with sigma_n
    only through 1 + sigma_n, by under 1e-11 of themselves. So every
    reading is at least about 1e-119 and its least is at a corner. A
    change to the draw ranges that lets a target reach the floor fails
    here.
    """
    u, iota_end = (0.0, 1.0 - 2**-53), (1e-3, 1.0)
    for n in (4, 104):
        train_sig, kappa_R, iota = [], [], []
        for u_n, u_n1, u_2, u_R, iota_1, iota_n in itertools.product(u, u, u, u, iota_end, iota_end):
            train_sig.append(instances._train_eigenvalues(_Corner(u_n, u_n1, u_2), n))
            kappa_R.append(1.0 / instances._test_eigenvalues(_Corner(u_R), n)[-1])
            iota.append([iota_1, *[1.0] * (n - 2), iota_n])
        train_sig = np.array(train_sig)
        record = regime_records(
            np.full(len(iota), n), train_sig, kappa_R,
            1.0 / (train_sig[:, 0] + train_sig[:, -1]), 1.9 / train_sig[:, 0], np.array(iota),
        )
        alpha = 0.5 * np.minimum(record.alpha_1, record.alpha_1_split)
        assert (alpha >= 1e-280).all()


def test_an_underflowed_target_refuses_at_once_after_one_draw_per_stream(tmp_path, monkeypatch):
    """A target below 1e-280 refuses the block, and quadratic_certify's run, naming its stream.

    Both alpha_1 readings of stream 1's row of a 3-stream block are
    zeroed. Each stream has drawn once (its generator is where one _draw
    leaves it) and the block is recorded once: nothing is redrawn.
    """
    real_records, recorded = instances.regime_records, []

    def records(*args):
        rec = real_records(*args)
        recorded.append(len(rec.alpha_1))
        zero = np.arange(len(rec.alpha_1)) == 1
        return dataclasses.replace(
            rec, alpha_1=np.where(zero, 0.0, rec.alpha_1),
            alpha_1_split=np.where(zero, 0.0, rec.alpha_1_split),
        )

    monkeypatch.setattr(instances, "regime_records", records)
    refusal = "^stream 1 of 3: level-set target alpha = 0 is not at least 1e-280$"
    keys = [(3, f"underflow-{i}") for i in range(3)]
    rngs = [stream(*key) for key in keys]
    with pytest.raises(InfeasibleWindow, match=refusal):
        random_instances(rngs)
    for key, rng in zip(keys, rngs, strict=True):
        ref_rng = stream(*key)
        instances._draw(ref_rng, int(ref_rng.integers(4, 9)))
        assert rng.random() == ref_rng.random()
    with pytest.raises(InfeasibleWindow, match=refusal):
        _certify_files(tmp_path, "underflow", 3)
    assert recorded == [3, 3]


def _broken(inst, failure):
    """inst made to fail one way: its assumption check, its search or its domain."""
    if failure == "assumptions":  # a target above the initial loss fails A4
        return dataclasses.replace(inst, alpha=10.0 * objective_loss(inst.pair.train, inst.theta0))
    if failure == "max_steps":  # both runs stop at step 1 above the level set
        return dataclasses.replace(inst, t_max=1)
    # On identity bases from the optimum 0, theta0 is iota. iota_n^2 is
    # subnormal, so the record is outside the theorem's domain, yet both
    # runs hit their level set.
    iota = gd.decompose(inst.pair.train, inst.theta0)
    iota[-1] = 1e-160
    pair = ProblemPair(
        *(
            QuadraticObjective(diagonal_spectrum(obj.spectrum.eigenvalues), np.zeros(iota.size))
            for obj in (inst.pair.train, inst.pair.test)
        )
    )
    return dataclasses.replace(inst, pair=pair, theta0=iota)


def _two_dimensions(block):
    """Instances i < j of two dimensions, j's dimension that of instance 0.

    Certified group by group in order of first appearance, j's group
    would come first; certified in stream order, i comes first.
    """
    n0 = block[0].pair.n
    i = next(k for k, inst in enumerate(block) if inst.pair.n != n0)
    j = next(k for k in range(i + 1, len(block)) if block[k].pair.n == n0)
    return i, j


@pytest.mark.parametrize(
    "failures, error, match",
    [
        (("max_steps", "assumptions"), LevelSetMismatch, "MaxStepsExceeded"),
        (("assumptions", "max_steps"), CertificationFailed, "instance {0} fails assumptions"),
        (("max_steps", "max_steps"), LevelSetMismatch, "eta={eta_s0}"),
        (("assumptions", "assumptions"), CertificationFailed, "instance {0} fails assumptions"),
    ],
)
def test_the_earliest_failing_instance_refuses_the_run(
    tmp_path, monkeypatch, failures, error, match
):
    """Failures at two dimensions of one block: the earlier instance's error wins.

    The block is certified in one pass padded to its widest instance, but
    each instance is checked and certified in stream order, as if alone.
    """
    block = random_instances([stream(0, f"certify-{i}") for i in range(8)])
    first, later = _two_dimensions(block)
    broken = {first: failures[0], later: failures[1]}

    def breaking(rngs):
        return CertifyBlock.of(
            _broken(inst, broken[k]) if k in broken else inst
            for k, inst in enumerate(random_instances(rngs))
        )

    monkeypatch.setattr(experiments, "random_instances", breaking)
    with pytest.raises(error, match=match.format(first, eta_s0=block[first].eta_s)):
        _certify_files(tmp_path, "refused", 8)


def _raise_the_first_refusal(block):
    """Raise the earliest refusal of regimes.certify_block, as quadratic_certify does."""
    _, _, refusals = regimes.certify_block(CertifyBlock.of(block))
    raise next(refusal for refusal in refusals if refusal is not None)


@pytest.mark.parametrize(
    "failures, error",
    [
        (("invalid_regime", "max_steps"), InvalidRegime),
        (("max_steps", "invalid_regime"), LevelSetMismatch),
    ],
)
def test_the_earliest_certificate_error_refuses_the_block(monkeypatch, failures, error):
    """With every assumption check passing, certify's own refusals come in stream order too."""
    block = list(random_instances([stream(1, f"certify-{i}") for i in range(8)]))
    first, later = _two_dimensions(block)
    block[first] = _broken(block[first], failures[0])
    block[later] = _broken(block[later], failures[1])
    monkeypatch.setattr(
        regimes, "assumption_checks", lambda block, *args: (np.ones((5, len(block)), bool), None)
    )
    with pytest.raises(error):
        _raise_the_first_refusal(block)


@pytest.mark.parametrize(
    "failures, error, match",
    [
        (("assumptions", "max_steps"), CertificationFailed, "^instance 0 fails assumptions"),
        (("max_steps", "assumptions"), LevelSetMismatch, "stopped with MaxStepsExceeded"),
    ],
)
def test_the_earlier_of_an_assumption_and_a_refusal_in_one_dimension_refuses_the_block(
    failures, error, match
):
    """Within the columns of one dimension, too, the earlier instance's failure is raised.

    max_steps fails no assumption: its runs stop at step 1, which only
    the certificate refuses.
    """
    block = list(random_instances([stream(2, f"certify-{i}") for i in range(8)]))
    first, later = [k for k, inst in enumerate(block) if inst.pair.n == block[0].pair.n][:2]
    block[first] = _broken(block[first], failures[0])
    block[later] = _broken(block[later], failures[1])
    with pytest.raises(error, match=match):
        _raise_the_first_refusal(block)
