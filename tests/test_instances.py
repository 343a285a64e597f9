"""Block-built Givens bases and block-generated instances against one-at-a-time oracles."""

import dataclasses
import math

import numpy as np
import pytest

from stepbias import experiments, instances
from stepbias.config import validate_config
from stepbias.errors import InfeasibleWindow
from stepbias.experiments import run_experiment, stream
from stepbias.instances import (
    givens_angles,
    givens_bases,
    random_instance,
    random_instances,
)


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
    """Bases padded to the block's largest n keep their own bits."""
    rng = stream(size, "givens-mixed")
    sizes = rng.integers(2, 9, size=size).tolist()
    drawn = [(n, givens_angles(rng, n)) for n in sizes]
    for basis, (n, angles) in zip(givens_bases(drawn), drawn):
        _assert_bitwise(basis, row_wise_orthogonal(angles, n))


def test_signed_zeros_survive_the_block_pass():
    # Angles of exactly 0 and pi leave zeros that the column update signs;
    # the row-wise builder skips some of those updates, so the column loop
    # is the oracle here.
    drawn = [
        (3, [0.0, 0.0, math.pi]),
        (4, [0.0, math.pi, 0.0, math.pi, 0.0, math.pi]),
        (8, [0.0] * 28),
    ]
    got = givens_bases(drawn)
    assert np.signbit(got[0][0, 1]) and got[0][0, 1] == 0
    for basis, (n, angles) in zip(got, drawn):
        _assert_bitwise(basis, column_list_orthogonal(angles, n))
    assert givens_bases([]) == []


def _assert_same_instance(got, want):
    assert got.alpha == want.alpha and got.t_max == want.t_max
    assert (got.eta_s, got.eta_b) == (want.eta_s, want.eta_b)
    assert got.theta0.tobytes() == want.theta0.tobytes()
    for side in ("train", "test"):
        g, w = getattr(got.pair, side), getattr(want.pair, side)
        assert g.spectrum.eigenvalues.tobytes() == w.spectrum.eigenvalues.tobytes()
        assert g.spectrum.eigenvectors.tobytes() == w.spectrum.eigenvectors.tobytes()
        assert g.optimum.tobytes() == w.optimum.tobytes()


def _retrying(monkeypatch, failing_calls):
    """Make the attempts numbered failing_calls (from 1, in call order) underflow."""
    real = instances.regime_record
    calls = []

    def fake(*args, **kwargs):
        calls.append(1)
        rec = real(*args, **kwargs)
        if len(calls) in failing_calls:
            rec = dataclasses.replace(rec, alpha_1=0.0, alpha_1_split=0.0)
        return rec

    monkeypatch.setattr(instances, "regime_record", fake)
    return calls


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


def test_block_generation_with_a_retrying_stream(monkeypatch):
    """The second stream's first attempt is rejected: block and one at a time agree."""
    keys = [(3, "retry"), (4, "retry"), (5, "retry")]
    # The second call is the first attempt of the second stream either way.
    calls = _retrying(monkeypatch, {2})
    got = random_instances([stream(*key) for key in keys], n=5)
    assert len(calls) == 4
    calls.clear()
    want = [random_instance(stream(*key), n=5) for key in keys]
    assert len(calls) == 4
    for g, w in zip(got, want, strict=True):
        _assert_same_instance(g, w)
    # The retrying stream's instance is the draw after its rejected attempt.
    ref_rng = stream(4, "retry")
    instances._draw(ref_rng, 5)
    monkeypatch.undo()
    _assert_same_instance(got[1], random_instance(ref_rng, n=5))


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


def test_a_stream_that_runs_out_of_draws_refuses_the_run(tmp_path, monkeypatch):
    """quadratic_certify raises InfeasibleWindow when a stream runs out of draws.

    Every attempt but instance 0's first one underflows, so stream 1 of the
    block runs out of draws.
    """
    real = instances.regime_record
    first = []

    def only_the_first_draw(spectrum, *args, **kwargs):
        rec = real(spectrum, *args, **kwargs)
        key = spectrum.eigenvalues.tobytes()
        if not first:
            first.append(key)
        if key != first[0]:
            rec = dataclasses.replace(rec, alpha_1=0.0, alpha_1_split=0.0)
        return rec

    monkeypatch.setattr(instances, "regime_record", only_the_first_draw)
    with pytest.raises(InfeasibleWindow, match=f"no draw in {instances.MAX_DRAWS}"):
        _certify_files(tmp_path, "infeasible", 3)
