"""The block certificate and the lockstep search against their one-instance paths.

quadratic_certify certifies each block of instances with stacked numpy
work (experiments._certify_block) and searches every level set of a
dimension in lockstep (gd.level_set_runs). Both must give the bits of
certifying each instance alone: regimes.certify on two
gd.run_to_level_set runs. CI reruns this file with numpy's AVX-512
kernels disabled, since the agreement rests on numpy's SIMD dispatch.
"""

import dataclasses
import math

import numpy as np
import pytest

from stepbias import experiments, gd
from stepbias.experiments import stream
from stepbias.gd import StopStatus, level_set_runs, run_to_level_set
from stepbias.instances import random_instances
from stepbias.quadratic import ProblemPair, QuadraticObjective
from stepbias.regimes import certify, check_assumptions, pair_record
from stepbias.spectral import diagonal_spectrum


def one_at_a_time(inst):
    """The certificate record of inst, certified on its own."""
    shared = pair_record(
        inst.pair, gd.decompose(inst.pair.train, inst.theta0), inst.eta_s, inst.eta_b
    )
    verdicts = check_assumptions(
        inst.pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha, record=shared
    )
    assert all(v.passed for v in verdicts)
    run_s, run_b = (
        run_to_level_set(inst.pair.train, inst.theta0, eta, inst.alpha, inst.t_max)
        for eta in (inst.eta_s, inst.eta_b)
    )
    return certify(inst.pair, run_s, run_b, inst.alpha, record=shared).to_record()


def assert_same_records(got, want):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert list(g) == list(w), k
        for name in w:
            assert repr(g[name]) == repr(w[name]), (k, name)


def block_records(block):
    return [cert.to_record() for cert in experiments._certify_block(block, 0)]


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 11])
def test_block_rows_equal_the_one_instance_rows(seed):
    block = random_instances([stream(seed, f"certify-{i}") for i in range(40)])
    assert len({inst.pair.n for inst in block}) >= 4
    assert_same_records(block_records(block), [one_at_a_time(inst) for inst in block])


def diagonal(inst, zero=None):
    """inst on identity bases with no model error, started at its own iota.

    With zero, iota[zero] is 0: a direction that carries no weight.
    """
    iota = gd.decompose(inst.pair.train, inst.theta0)
    if zero is not None:
        iota[zero] = 0.0
    opt = inst.pair.train.optimum
    pair = ProblemPair(
        QuadraticObjective(diagonal_spectrum(inst.pair.train.spectrum.eigenvalues), opt),
        QuadraticObjective(diagonal_spectrum(inst.pair.test.spectrum.eigenvalues), opt),
    )
    return dataclasses.replace(inst, pair=pair, theta0=opt + iota)


def test_an_instance_with_a_zero_weight_direction_runs_alone(monkeypatch):
    """Its lanes leave the lockstep search; every row is still the one-instance row."""
    block = random_instances([stream(3, f"certify-{i}") for i in range(12)])
    block[4] = diagonal(block[4], zero=1)
    block[5] = diagonal(block[5])
    alone = []
    real = gd.run_to_level_set

    def recording(obj, theta0, *args):
        alone.append(theta0.tobytes())
        return real(obj, theta0, *args)

    want = [one_at_a_time(inst) for inst in block]
    monkeypatch.setattr(gd, "run_to_level_set", recording)
    assert_same_records(block_records(block), want)
    assert alone == [block[4].theta0.tobytes()] * 2


def test_block_rows_with_a_rejected_start(monkeypatch):
    """A bound past the hit fails its check: both paths restart from step 1."""
    monkeypatch.setattr(gd, "hit_lower_bound", lambda w, r, alpha, t_max: t_max)
    block = random_instances([stream(5, f"certify-{i}") for i in range(10)])
    assert_same_records(block_records(block), [one_at_a_time(inst) for inst in block])


def _tie_alpha(t):
    """L(t) of the dyadic problem sigma (1, 1/2), iota (1, 1), eta 1/2: exact in floats."""
    return 0.5 * (0.5 ** (2 * t) + 0.5 * 0.75 ** (2 * t))


def _lanes():
    """(sigma, iota, eta, alpha, t_max) lanes, and whether each is searched in lockstep."""
    tie = ([1.0, 0.5], [1.0, 1.0], 0.5)
    for t in (1, 2, 3, 5, 9, 16):
        yield (*tie, _tie_alpha(t), 100), True  # L(t) == alpha: a hit at t
        yield (*tie, np.nextafter(_tie_alpha(t), 0.0), 100), True  # a hit at t + 1
    yield (*tie, _tie_alpha(40), 3), True  # MaxStepsExceeded next to hits
    yield (*tie, _tie_alpha(3), 1), True  # t_max 1
    # Factor 0 on a negative coefficient: mu_1 is -0.0.
    yield ([1.0, 0.5], [-1.0, 1.0], 1.0, 1e-3, 100), True
    yield ([1.0, 0.5], [1.0, -1.0], 1.9, 1e-9, 10**6), True
    yield ([1.0, 0.5], [0.0, 1.0], 1.0, 1e-3, 100), False  # a zero-weight direction
    yield ([1.0, 0.5], [1.0, 1.0], 2.5, 1e-3, 100), False  # |factor| > 1
    yield (*tie, 1.0, 100), False  # already below the level set
    yield (*tie, math.inf, 100), False  # an invalid target
    yield (*tie, _tie_alpha(3), 0), False  # an invalid t_max
    rng = np.random.default_rng(13)
    for n in (2, 5, 9, 17):
        for _ in range(40):
            sigma = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
            iota = rng.normal(size=n)
            eta = float(rng.uniform(0.01, 2.0))
            loss0 = 0.5 * float(np.sum(sigma * iota * iota))
            alpha = loss0 * 10.0 ** float(rng.uniform(-12, -0.1))
            yield (sigma, iota, eta, alpha, int(rng.integers(1, 3000))), None


def _assert_same_run(got, want):
    assert (got.steps, got.stop_status, got.half_level_ok) == (
        want.steps,
        want.stop_status,
        want.half_level_ok,
    )
    assert (got.eta, got.alpha) == (want.eta, want.alpha)
    assert np.float64(got.final_excess).tobytes() == np.float64(want.final_excess).tobytes()
    assert got.mu.tobytes() == want.mu.tobytes()
    assert np.array_equal(np.signbit(got.mu), np.signbit(want.mu))
    assert got.iota.tobytes() == want.iota.tobytes()


def _run_lanes(lanes):
    """level_set_runs over each dimension's lanes at once, against one-lane runs."""
    by_n = {}
    for lane in lanes:
        by_n.setdefault(len(lane[0][0]), []).append(lane)
    statuses, searched = set(), 0
    for group in by_n.values():
        objs = [
            QuadraticObjective(diagonal_spectrum(np.asarray(s, float)), np.zeros(len(s)))
            for (s, *_), _ in group
        ]
        iota = np.array([i for (_, i, *_), _ in group], dtype=float)
        etas, alphas, t_maxes = ([lane[j] for lane, _ in group] for j in (2, 3, 4))
        runs = level_set_runs(objs, iota, etas, alphas, t_maxes)
        for run, obj, row, (lane, expected) in zip(runs, objs, iota, group):
            if expected is not None:
                assert (run is not None) == expected, lane
            if run is None:
                continue
            searched += 1
            statuses.add(run.stop_status)
            _assert_same_run(run, run_to_level_set(obj, row, *lane[2:]))
    return statuses, searched


def test_lockstep_runs_equal_one_lane_runs():
    statuses, searched = _run_lanes(list(_lanes()))
    assert statuses == {StopStatus.HIT_LEVEL_SET, StopStatus.MAX_STEPS_EXCEEDED}
    assert searched > 150


def test_lockstep_runs_from_rejected_and_early_starts(monkeypatch):
    """Bounds past the hit (rejected by the loss(start - 1) check) and at step 1."""
    for bound in (lambda w, r, alpha, t_max: t_max, lambda w, r, alpha, t_max: 1):
        with monkeypatch.context() as m:
            m.setattr(gd, "hit_lower_bound", bound)
            _, searched = _run_lanes(list(_lanes()))
            assert searched > 150


def test_lockstep_steps_one_and_two_take_numpys_fast_paths():
    """At steps 1 and 2 the powers are those of ** with an int exponent, bit for bit."""
    rng = np.random.default_rng(2)
    factors = rng.uniform(-1.0, 1.0, size=(2000, 3))
    for t in (0, 1, 2, 3, 7):
        got = gd._powers(factors, [t] * len(factors))
        assert got.tobytes() == np.array([row**t for row in factors]).tobytes()
