"""The block certificate and the lockstep search against their one-instance oracle.

quadratic_certify certifies each block of instances with stacked numpy
work (regimes.certify_block), and gd.level_set_lanes searches every
level set in lockstep. Both must give the bits of the one-lane search
they replaced, reference.search_run, and the column passes
(records.regime_records, regimes.assumption_checks and
regimes.certificates) the bits of their one-row views. The bits rest on
numpy's SIMD dispatch and not on BLAS: CI reruns the suite with numpy's
AVX-512 kernels disabled and under OpenBLAS's Prescott kernel.
"""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stepbias import experiments, gd, instances, quadratic, records, regimes, spectral
from stepbias.config import validate_config
from stepbias.errors import (
    AlreadyBelowLevelSet, CertificationFailed, DimensionMismatch, LevelSetMismatch, StepbiasError,
)
from stepbias.experiments import stream
from stepbias.gd import GDRun, LevelSetLanes, StopStatus, level_set_lanes
from stepbias.instances import CertifyBlock, CertifyInstance, random_instances
from stepbias.quadratic import ProblemPair, QuadraticObjective
from stepbias.records import regime_records
from stepbias.regimes import (
    assumption_checks,
    certificates,
    certify,
    certify_block,
    check_assumptions,
)
from stepbias.spectral import condition_numbers, diagonal_spectrum, padded, unpadded

from reference import certified_alone, objective_loss, power, search_run, tie_alpha


def assert_same_records(got, want):
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert list(g) == list(w), k
        for name in w:
            assert repr(g[name]) == repr(w[name]), (k, name)


def block_records(block):
    """The certificate records of a block, one per row of certify_block's columns; none refused."""
    cert, _, refusals = certify_block(block)
    assert refusals == [None] * len(block)
    columns = cert.to_record()
    values = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values())
    return [dict(zip(columns, row)) for row in zip(*values)]


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 11])
def test_block_rows_equal_the_one_instance_rows(seed):
    block = random_instances([stream(seed, f"certify-{i}") for i in range(40)])
    assert len({inst.pair.n for inst in block}) >= 4
    assert_same_records(block_records(block), [certified_alone(inst) for inst in block])


# The spectral.padded calls of one default quadratic_certify block: the
# generator's one round of draws (train and test eigenvalues, iota, train
# optimum) and its model-error directions. certify_block pads nothing.
BLOCK_PADDED_CALLS = 2


# The passes _count_passes counts, each in every module that binds it.
COUNTED = {
    "level_set_lanes": gd.level_set_lanes,
    "padded": spectral.padded,
    "regime_records": records.regime_records,
    "_window_bounds": records._window_bounds,
}


def _count_passes(monkeypatch):
    """Count the COUNTED passes' calls, and objects built, until undone.

    Each function is counted in every module that binds it. Returns the
    calls by name and the list of the types of the objects built.
    """
    calls = dict.fromkeys(COUNTED, 0)
    for name, real in COUNTED.items():

        def wrapper(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        for module in (experiments, gd, instances, quadratic, regimes, records, spectral):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, wrapper)
    built = []
    for cls in (spectral.Spectrum, quadratic.ProblemPair, CertifyInstance, GDRun):

        def init(self, *args, real=cls.__init__, **kwargs):
            built.append(type(self))
            real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    return calls, built


def test_a_block_of_every_dimension_is_certified_in_one_pass(tmp_path, monkeypatch):
    """The default quadratic_certify, one block of n = 4..8, makes one call of each pass.

    Its stacks are padded once, by the generator, and carried to the
    certificate rows as columns: no instance, pair, spectrum or GDRun is
    built on the way. Its draws are recorded once, with its step windows,
    and certify_block reads that record.
    """
    calls, built = _count_passes(monkeypatch)
    sizes = []
    real_block = experiments.certify_block

    def certified(block, first):
        sizes.append(set(block.n.tolist()))
        return real_block(block, first)

    monkeypatch.setattr(experiments, "certify_block", certified)
    cfg = validate_config({"experiment": "quadratic_certify", "output_dir": str(tmp_path)})
    experiments.run_experiment(cfg)
    assert sizes == [{4, 5, 6, 7, 8}]
    assert calls == {
        "level_set_lanes": 1, "padded": BLOCK_PADDED_CALLS, "regime_records": 1,
        "_window_bounds": 1,
    }
    assert built == []


def test_a_generated_block_is_certified_from_the_record_it_carries(monkeypatch):
    """certify_block on a generated block records nothing and computes no step window.

    Its assumption checks and certificate read the generator's record and
    windows, at theta0's eigen-coefficients; only the level-set search runs.
    """
    block = random_instances([stream(1, f"certify-{i}") for i in range(20)])
    calls, built = _count_passes(monkeypatch)
    certify_block(block)
    assert calls == {"level_set_lanes": 1, "padded": 0, "regime_records": 0, "_window_bounds": 0}
    assert built == []


@pytest.mark.parametrize("experiment", ["eta_sweep", "alpha_sweep"])
def test_a_sweep_reads_its_rows_from_one_lane_search(experiment, tmp_path, monkeypatch):
    """Every level set of a default sweep (n = 50) is one level_set_lanes call's lane.

    Its rows are read from the lanes' columns: nothing is padded or
    recorded and no GDRun is built.
    """
    calls, built = _count_passes(monkeypatch)
    experiments.run_experiment(
        validate_config({"experiment": experiment, "n": 50, "output_dir": str(tmp_path)})
    )
    assert calls == {"level_set_lanes": 1, "padded": 0, "regime_records": 0, "_window_bounds": 0}
    assert GDRun not in built


def test_the_one_row_views_pad_only_what_they_stack(monkeypatch):
    """run_to_level_set pads nothing; check_assumptions and certify pad one block of one.

    check_assumptions stacks its instance (CertifyBlock.of: two padded
    calls) and certify its instance and its two runs (LevelSetLanes.of:
    two more). Each records its block once, with its step windows.
    """
    inst = random_instances([stream(0, "certify-0")])[0]
    calls, _ = _count_passes(monkeypatch)

    def counted(view, *args):
        calls.update(dict.fromkeys(COUNTED, 0))
        return view(*args), dict(calls)

    start = (inst.pair, inst.theta0)
    _, checked = counted(check_assumptions, *start, inst.eta_s, inst.eta_b, inst.alpha)
    runs, searched = counted(lambda: [
        gd.run_to_level_set(inst.pair.train, inst.theta0, eta, inst.alpha, inst.t_max)
        for eta in (inst.eta_s, inst.eta_b)
    ])
    _, certified = counted(certify, inst.pair, *runs, inst.alpha)
    once = {"regime_records": 1, "_window_bounds": 1}
    assert checked == {"level_set_lanes": 0, "padded": 2, **once}
    assert searched == {"level_set_lanes": 2, "padded": 0, "regime_records": 0, "_window_bounds": 0}
    assert certified == {"level_set_lanes": 0, "padded": 4, **once}


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


def test_an_instance_with_a_zero_weight_direction_is_searched_in_lockstep(monkeypatch):
    """Its lanes are searched with the block's; every row is still the one-instance row."""
    block = list(random_instances([stream(3, f"certify-{i}") for i in range(12)]))
    block[4] = diagonal(block[4], zero=1)
    block[5] = diagonal(block[5])
    want = [certified_alone(inst) for inst in block]

    def alone(*args):
        raise AssertionError("a block lane ran alone")

    monkeypatch.setattr(gd, "run_to_level_set", alone)
    assert_same_records(block_records(CertifyBlock.of(block)), want)


def test_block_rows_with_a_rejected_start(monkeypatch):
    """A bound past the hit fails its check: both paths restart from step 1."""
    monkeypatch.setattr(gd, "hit_lower_bound", lambda w, r, alpha, t_max: t_max)
    block = random_instances([stream(5, f"certify-{i}") for i in range(10)])
    assert_same_records(block_records(block), [certified_alone(inst) for inst in block])


def _diagonal_pair(train, test, optimum_shift=0.0):
    n = len(train)
    return ProblemPair(
        QuadraticObjective(diagonal_spectrum(train), np.zeros(n)),
        QuadraticObjective(diagonal_spectrum(test), np.full(n, optimum_shift)),
    )


def _edge_instances():
    """Instances outside the theorem's domain or refused, each on identity bases."""
    spec = [1.0, 0.9, 0.3, 0.2]
    test = [1.0, 0.8, 0.7, 0.5]
    iota = [0.5, -0.4, 0.3, 0.6]
    s1 = 1.761975919418575
    edges = [
        # A zero float gap, Small then Big.
        (_diagonal_pair([1.0, 0.5, 1e-3, np.nextafter(1e-3, 0.0)], test), [1.0] * 4, 1.0, 1.9995, 1e-6),
        (_diagonal_pair([s1, np.nextafter(s1, 0.0), 0.3 * s1, 0.2 * s1], test), [0.5, 1, 1, 1], 0.7 / s1,
         0.9585242630026088, 1e-9),
        # Subnormal boundary scales.
        (_diagonal_pair(spec, test), [0.5, 1, 1, 1e-160], 0.7, 1.9, 1e-9),
        (_diagonal_pair(spec, test), [1e-160, 1, 1, 0.5], 0.7, 1.9, 1e-9),
        # Rates that are not Small and Big: Big, Divergent, NotPositive, a threshold.
        (_diagonal_pair(spec, test), iota, 1.9, 1.9, 1e-9),
        (_diagonal_pair(spec, test), iota, 0.7, 3.0, 1e-9),
        (_diagonal_pair(spec, test), iota, 0.0, 1.9, 1e-9),
        (_diagonal_pair(spec, test), iota, 2.0 / 1.2, 1.9, 1e-9),
        # Targets below UNDERFLOW_GUARD, and c_alpha = inf.
        (_diagonal_pair(spec, test), iota, 0.7, 1.9, 1e-310),
        (_diagonal_pair(spec, test), iota, 0.7, 1.9, 5e-324),
        (_diagonal_pair(spec, test, optimum_shift=10.0), iota, 0.7, 1.9, 1e-9),
        # eta_s sigma_{n-1} == 1, two and one eigenvalues.
        (_diagonal_pair([1.0, 0.9, 0.8, 0.2], test), iota, 1.25, 1.9, 1e-6),
        (_diagonal_pair([1.0, 0.6539088785463802], [1.0, 0.5]), [-0.0022587252701268944, 4.057105251940958],
         0.9228364331862055, 1.5780795515150112, 3e-5),
        (_diagonal_pair([2.0], [1.0]), [1.0], 0.3, 0.8, 1e-3),
    ]
    return [
        CertifyInstance(pair, np.array(theta0, dtype=float), eta_s, eta_b, alpha, 10**6)
        for pair, theta0, eta_s, eta_b, alpha in edges
    ]


def _assert_same_columns(got, want):
    """Every field of two dataclasses of columns, bit for bit; a RegimeRecord's too."""
    for field in dataclasses.fields(want):
        g, w = getattr(got, field.name), getattr(want, field.name)
        if dataclasses.is_dataclass(w):
            _assert_same_columns(g, w)
        elif isinstance(w, tuple):  # a record's rate kinds
            assert g == w, field.name
        else:
            assert (g.dtype, g.shape) == (w.dtype, w.shape), field.name
            assert g.tobytes() == w.tobytes(), field.name


def _certified(block):
    """certify_block's rows by repr, its verdicts and its refusals by class and message."""
    cert, passed, refusals = certify_block(block)
    rows = [repr(cert.row(k)) for k in range(len(block))]
    return rows, passed.tolist(), [(type(r), str(r)) for r in refusals]


def test_a_block_rebuilt_from_its_instances_is_the_same_block():
    """CertifyBlock.of(list(block)) is block, bit for bit, and certifies the same.

    On the default config's blocks at seeds 0-2, and on the edge
    instances mixed with generated ones of n = 4..8 and a degenerate one.
    """
    cfg = validate_config({"experiment": "quadratic_certify"})
    blocks = [
        random_instances([stream(seed, f"certify-{i}") for i in range(cfg.instances)])
        for seed in range(3)
    ]
    mixed = list(random_instances([stream(4, f"certify-{i}") for i in range(12)]))
    pair = mixed[0].pair
    flagged = diagonal_spectrum(pair.train.spectrum.eigenvalues, degenerate=True)
    mixed[0] = dataclasses.replace(
        mixed[0], pair=ProblemPair(QuadraticObjective(flagged, pair.train.optimum), pair.test)
    )
    mixed = [*mixed[:6], *_edge_instances(), *mixed[6:]]
    assert len({inst.pair.n for inst in mixed}) >= 6
    blocks.append(CertifyBlock.of(mixed))
    for block in blocks:
        rebuilt = CertifyBlock.of(list(block))
        _assert_same_columns(rebuilt, block)
        assert _certified(rebuilt) == _certified(block)
    assert blocks[-1].degenerate[0].tolist() == [True, False]


@pytest.mark.parametrize("entries", [5, 7])
def test_a_start_of_another_dimension_is_refused(entries):
    """CertifyBlock.of raises DimensionMismatch on a theta0 of n - 1 or n + 1 entries.

    In a block of mixed n, such a start would be laid into the stack and
    certified as if it were valid; check_assumptions raises the error too,
    from gd.decompose.
    """
    block = list(random_instances([stream(0, f"certify-{i}") for i in range(6)]))
    assert block[0].pair.n == 6 and len({inst.pair.n for inst in block}) >= 4
    theta0 = np.append(block[0].theta0, 0.0)[:entries]
    bad = dataclasses.replace(block[0], theta0=theta0)
    for k, stack in ((5, [*block[1:], bad]), (0, [bad])):
        with pytest.raises(DimensionMismatch) as raised:
            CertifyBlock.of(stack)
        assert str(raised.value) == f"instance {k}: theta0 has shape ({entries},), its pair has n = 6"
    with pytest.raises(DimensionMismatch, match=f"^point has dimension {entries}, objective has 6$"):
        check_assumptions(bad.pair, theta0, bad.eta_s, bad.eta_b, bad.alpha)


def _one_lane(obj, theta0, eta, alpha, t_max):
    """run_to_level_set's GDRun, or the error it raises."""
    try:
        return gd.run_to_level_set(obj, theta0, eta, alpha, t_max)
    except (ValueError, AlreadyBelowLevelSet) as error:
        return error


@pytest.mark.parametrize("seed", range(6))
def test_column_rows_equal_their_one_row_views(seed):
    """regime_records, assumption_checks, certificates and certify_block on a mixed block, by row.

    Each row's record is regime_records' on its instance alone, its r_opt
    the test loss of its train optimum, its A1-A5
    verdicts are check_assumptions', and its certificate or refusal is
    certify's, by repr, on generated instances of n = 4..8 and on the
    edge instances.
    A row whose run failed is refused with that run's error.
    certify_block returns every row, refused ones included, with the
    columns and verdicts of those passes. Its refusal column names the
    failed assumptions where check_assumptions fails one, else holds the
    class and message of the row's refusal above; an unrefused row is
    certified_alone's record, a refused one its certify_block alone (an
    n = 1 row's epsilon ratios too). A nonzero first renumbers only the
    messages.
    """
    block = list(random_instances([stream(seed, f"certify-{i}") for i in range(30)]))
    block += _edge_instances()
    # Two that pass A1-A5 and are refused all the same: by a lane that
    # cannot run (t_max 0) and by runs that stop at step 1 (t_max 1).
    block += [dataclasses.replace(block[0], t_max=t_max) for t_max in (0, 1)]
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(block))
    block = [block[k] for k in order]
    assert len({inst.pair.n for inst in block}) >= 5
    pairs = [inst.pair for inst in block]
    iota = [gd.decompose(p.train, inst.theta0) for p, inst in zip(pairs, block)]
    runs = [
        [
            _one_lane(inst.pair.train, inst.theta0, eta, inst.alpha, inst.t_max)
            for eta in (inst.eta_s, inst.eta_b)
        ]
        for inst in block
    ]
    stacked = CertifyBlock.of(block)
    record = stacked.record
    passed, a_one = assumption_checks(stacked)
    lanes = LevelSetLanes.of([run for side in zip(*runs) for run in side], iota * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert, refusals = certificates(stacked, lanes)
        block_cert, block_passed, block_refusals = certify_block(stacked)
        cert_7, passed_7, refusals_7 = certify_block(stacked, first=7)
    assert block_passed.tolist() == passed_7.tolist() == passed.tolist()
    refused = 0
    for k, (inst, p, i, (run_s, run_b)) in enumerate(zip(block, pairs, iota, runs)):
        one = regime_records(
            [p.n], p.train.spectrum.eigenvalues[None],
            condition_numbers(p.test.spectrum.eigenvalues[None], [p.n]), [inst.eta_s],
            [inst.eta_b], i[None],
        ).row(0)
        assert repr(record.row(k)) == repr(one), k
        assert repr(stacked.r_opt[k].item()) == repr(objective_loss(p.test, p.train.optimum)), k
        verdicts = check_assumptions(p, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha)
        assert passed[:, k].tolist() == [v.passed for v in verdicts], k
        assert repr(a_one[k].item()) == repr(verdicts[3].details["alpha_1"]), k
        failed_run = next((run for run in (run_s, run_b) if not isinstance(run, GDRun)), None)
        want = refusals[k]
        if failed_run is not None:
            assert want is failed_run, k
        elif want is None:
            assert repr(cert.row(k)) == repr(certify(p, run_s, run_b, inst.alpha)), k
        else:
            with pytest.raises(type(want)) as raised:
                certify(p, run_s, run_b, inst.alpha)
            assert str(raised.value) == str(want), k
        refused += want is not None
        assert repr(block_cert.row(k)) == repr(cert_7.row(k)) == repr(cert.row(k)), k
        failed = ", ".join(v.name for v in verdicts if not v.passed)
        got, renumbered = block_refusals[k], refusals_7[k]
        if failed:
            assert type(got) is type(renumbered) is CertificationFailed, k
            assert str(got) == f"instance {k} fails assumptions: {failed}", k
            assert str(renumbered) == f"instance {7 + k} fails assumptions: {failed}", k
        else:
            assert type(got) is type(renumbered) is type(want), k
            assert str(got) == str(renumbered) == str(want), k
        if got is None:
            assert_same_records([block_cert.row(k).to_record()], [certified_alone(inst)])
        else:
            alone, _, _ = certify_block(CertifyBlock.of([inst]))
            assert repr(alone.row(0)) == repr(block_cert.row(k)), k
    assert 0 < refused < len(block)
    assert sum(isinstance(r, StepbiasError) for r in refusals) >= 6
    kinds = {type(r) for r, v in zip(block_refusals, passed.T) if v.all()}
    assert kinds == {type(None), ValueError, LevelSetMismatch}
    # A refused row keeps its lanes' step counts: 0 where the lanes could
    # not run (t_max 0), 1 where both stopped at step 1 (t_max 1).
    for t_max in (0, 1):
        k = order.tolist().index(len(block) - 2 + t_max)
        row = block_cert.row(k)
        assert (row.t_small, row.t_big) == (t_max, t_max), k
        assert type(block_refusals[k]) is (ValueError, LevelSetMismatch)[t_max], k


def _lanes():
    """(sigma, iota, eta, alpha, t_max) lanes of every kind the search meets."""
    tie = ([1.0, 0.5], [1.0, 1.0], 0.5)
    for t in (1, 2, 3, 5, 9, 16):
        yield (*tie, tie_alpha(t), 100)  # L(t) == alpha: a hit at t
        yield (*tie, np.nextafter(tie_alpha(t), 0.0), 100)  # a hit at t + 1
    yield (*tie, tie_alpha(40), 3)  # MaxStepsExceeded next to hits
    yield (*tie, tie_alpha(3), 1)  # t_max 1
    # Factor 0 on a negative coefficient: mu_1 is -0.0.
    yield ([1.0, 0.5], [-1.0, 1.0], 1.0, 1e-3, 100)
    yield ([1.0, 0.5], [1.0, -1.0], 1.9, 1e-9, 10**6)
    # Zero-weight directions, in two places in one dimension; on the second
    # |factor| = 1.5 overflows past step 1750 without turning mu into NaN.
    yield ([1.0, 0.5], [0.0, 1.0], 1.0, 1e-3, 100)
    yield ([1.0, 0.001], [0.0, 1.0], 2.5, 1e-9, 10**6)
    yield ([1.0, 0.001], [0.0, 1.0], 2.5, 1e-9, 2000)
    yield ([1.0, 0.001], [1.0, 0.0], 1.5, 1e-9, 100)
    yield ([1.0, 0.5, 0.25], [1.0, 0.0, -2.0], 0.9, 1e-6, 1000)
    yield from _underflow_lanes()
    # |factor| >= 1 on a live direction: Diverged, or factor -1 that
    # never decays, or a run that ends before it diverges.
    yield ([1.0, 0.1], [1.0, 1.0], 2.2, 1e-9, 10**6)
    yield ([1.0, 0.5], [1.0, 1.0], 2.5, 1e-3, 100)
    yield ([1.0, 0.5], [1.0, 1.0], 1e6, 1e-3, 100)
    yield ([1.0, 0.5], [1.0, 1.0], 2.0, 1e-3, 500)
    yield ([1.0, 0.5], [1.0, 1.0], 2.0, 0.6, 500)
    yield ([1.0, 0.1], [1.0, 1.0], 2.2, 1e-9, 20)
    yield ([1.0, 0.5, 0.25], [1.0, 0.0, -2.0], 2.1, 1e-6, 1000)
    # Lanes that fail, for the caller to raise.
    yield (*tie, 1.0, 100)  # already below the level set
    yield (*tie, tie_alpha(0), 100)  # L(0) == alpha is below too
    yield (*tie, math.inf, 100)
    yield (*tie, 0.0, 100)
    yield (*tie, tie_alpha(3), 0)
    yield ([1.0, 0.5], [1.0, 1.0], math.nan, 1e-3, 100)
    yield ([1.0, 0.5], [1.0, 1.0], -0.5, 1e-3, 100)
    yield ([1.0, 0.5], [0.0, 0.0], 0.5, 1e-3, 100)  # no weight at all
    rng = np.random.default_rng(13)
    for n in (2, 5, 9, 17):
        for k in range(40):
            sigma = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
            iota = rng.normal(size=n)
            if k % 5 == 0:
                iota[rng.integers(n)] = 0.0
            eta = float(rng.uniform(2.0, 2.3) if k % 4 == 0 else rng.uniform(0.01, 2.0))
            loss0 = 0.5 * float(np.sum(sigma * iota * iota))
            alpha = loss0 * 10.0 ** float(rng.uniform(-12, -0.1))
            yield sigma, iota, eta, alpha, int(rng.integers(1, 3000))


def _underflow_lanes():
    """Lanes whose last direction is dead by underflow: sigma iota^2 == 0, both nonzero.

    sigma = 1e-200 gives that direction a factor of exactly 1, at n = 3
    and at n = 11 (where numpy's row sums are unrolled), at rates 1.0
    and 2.5.
    """
    for sigma in ([1.0, 0.5, 1e-200], [0.75 * 0.7**k for k in range(10)] + [1e-200]):
        iota = [1.0] * (len(sigma) - 1) + [1e-120]
        for eta in (1.0, 2.5):
            yield sigma, iota, eta, 1e-6, 10**6


def test_a_direction_dead_by_underflow_keeps_its_coefficient(monkeypatch):
    """Its mu is iota, and its factor of 1 does not send the search back to step 1."""
    starts = []
    real = gd.hit_lower_bound

    def recorded(*args):
        starts.append(real(*args))
        return starts[-1]

    monkeypatch.setattr(gd, "hit_lower_bound", recorded)
    found = []
    for sigma, iota, eta, alpha, t_max in _underflow_lanes():
        lanes = level_set_lanes(np.array([sigma]), np.array([iota]), [eta], [alpha], [t_max])
        assert lanes.mu[0, -1] == lanes.iota[0, -1] == 1e-120
        found.append((lanes.steps.item(), *lanes.outcome))
    assert found == [
        (9, StopStatus.HIT_LEVEL_SET),
        (35, StopStatus.DIVERGED),
        (157, StopStatus.HIT_LEVEL_SET),
        (62, StopStatus.HIT_LEVEL_SET),
    ]
    assert starts == [8, 156, 61]


def _fields(steps, status, half_level_ok, eta, alpha, final, mu, iota):
    """What a finished run reports, its final loss and coefficients as bytes."""
    final = np.float64(final).tobytes()
    return steps, status, half_level_ok, eta, alpha, final, mu.tobytes(), iota.tobytes()


def _run_fields(run):
    """The _fields of a GDRun, or the error of a run that failed."""
    if not isinstance(run, GDRun):
        return run
    return _fields(
        run.steps, run.stop_status, run.half_level_ok, run.eta, run.alpha, run.final_excess,
        run.mu, run.iota,
    )


def _lane_fields(lanes, n):
    """The _fields of each lane of a LevelSetLanes at its own n, or the error of a failed lane."""
    columns = zip(
        lanes.outcome, lanes.steps.tolist(), lanes.half_level_ok.tolist(), lanes.eta, lanes.alpha,
        lanes.final.tolist(), unpadded(lanes.mu, n), unpadded(lanes.iota, n),
    )
    return [
        _fields(t, status, ok if status is StopStatus.HIT_LEVEL_SET else None, *rest)
        if isinstance(status, StopStatus) else status
        for status, t, ok, *rest in columns
    ]


def _assert_same_outcome(got, obj, iota, lane):
    """got is the _fields of search_run's GDRun on the lane, or the error it raises."""
    try:
        want = search_run(obj, iota, *lane)
    except (ValueError, AlreadyBelowLevelSet) as error:
        assert type(got) is type(error) and str(got) == str(error), lane
        return type(error)
    assert got == _run_fields(want), lane
    return want.stop_status


def _run_lanes(lanes):
    """level_set_lanes over every lane at once, of mixed dimensions, against each lane alone.

    The lanes are padded to the widest (spectral.padded) and searched in
    one call. Each lane must get what run_to_level_set gives it on its
    own and what search_run gives or raises. Returns the outcomes seen:
    stop statuses and error classes.
    """
    objs = [
        QuadraticObjective(diagonal_spectrum(np.asarray(s, float)), np.zeros(len(s)))
        for s, *_ in lanes
    ]
    iotas = [np.asarray(i, dtype=float) for _, i, *_ in lanes]
    etas, alphas, t_maxes = ([lane[j] for lane in lanes] for j in (2, 3, 4))
    n, width = [len(i) for i in iotas], max(map(len, iotas))
    sig = padded([obj.spectrum.eigenvalues for obj in objs], width)
    got = _lane_fields(level_set_lanes(sig, padded(iotas, width), etas, alphas, t_maxes), n)
    assert len(got) == len(lanes)
    outcomes = []
    for run, obj, row, lane in zip(got, objs, iotas, lanes):
        alone = _run_fields(_one_lane(obj, row, *lane[2:]))
        outcomes.append(_assert_same_outcome(run, obj, row, lane[2:]))
        assert _assert_same_outcome(alone, obj, row, lane[2:]) is outcomes[-1]
    return outcomes


def test_lockstep_runs_equal_one_lane_runs():
    outcomes = _run_lanes(list(_lanes()))
    assert set(outcomes) == {*StopStatus, ValueError, AlreadyBelowLevelSet}
    assert outcomes.count(StopStatus.DIVERGED) > 10


def test_lockstep_runs_from_rejected_and_early_starts(monkeypatch):
    """Bounds past the hit (rejected by the loss(start - 1) check) and at step 1."""
    for bound in (lambda w, r, alpha, t_max: t_max, lambda w, r, alpha, t_max: 1):
        with monkeypatch.context() as m:
            m.setattr(gd, "hit_lower_bound", bound)
            outcomes = _run_lanes(list(_lanes()))
            assert outcomes.count(StopStatus.HIT_LEVEL_SET) > 150


def test_lockstep_steps_one_and_two_take_numpys_fast_paths():
    """Each row's powers are reference.power's, ** with an int exponent, bit for bit.

    At steps 1 and 2 numpy's ** takes fast paths (a copy, a square) that
    gd._powers mirrors. Then padded stacks of n = 1..5, each row at its
    own step, up to steps where |factor| > 1 overflows to +-inf.
    """
    rng = np.random.default_rng(2)
    factors = rng.uniform(-1.0, 1.0, size=(2000, 3))
    for t in (0, 1, 2, 3, 7):
        got = gd._powers(factors, [t] * len(factors))
        assert got.tobytes() == np.array([power(row, t) for row in factors]).tobytes()
    stack = padded([rng.uniform(-2.5, 2.5, size=n) for n in rng.integers(1, 6, size=600)], 5)
    steps = rng.choice([0, 1, 2, 3, 7, 1000, 1001], size=len(stack)).tolist()
    with np.errstate(over="ignore"):
        got = gd._powers(stack, steps)
        want = np.array([power(row, t) for row, t in zip(stack, steps)])
    assert got.tobytes() == want.tobytes()
    assert np.isposinf(got).any() and np.isneginf(got).any()


# Certifies the default quadratic_certify at CERTIFY_BLOCK 1 and 40 into
# sys.argv[1] and prints each certificates.csv sha256.
_HASH_CHILD = """
import hashlib, sys
from pathlib import Path
from stepbias import experiments
from stepbias.config import validate_config
for block in (1, 40):
    experiments.CERTIFY_BLOCK = block
    out = Path(sys.argv[1]) / str(block)
    experiments.run_experiment(
        validate_config({"experiment": "quadratic_certify", "output_dir": str(out)})
    )
    print(hashlib.sha256((out / "certificates.csv").read_bytes()).hexdigest())
"""


def test_certificates_do_not_depend_on_the_blas_kernel_threads_or_block(tmp_path):
    """One certificates.csv under three OpenBLAS kernels, 1 and 2 threads, blocks 1 and 40.

    OpenBLAS reads its kernel and thread count when it loads, so each
    setting runs in its own child process. Prescott is the kernel that
    rounds a stacked BLAS product by the size of the stack.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("OPENBLAS_", "OMP_"))}
    env["PYTHONPATH"] = str(Path(experiments.__file__).resolve().parents[1])
    children = []
    for coretype in (None, "Prescott", "Sandybridge"):
        for threads in ("1", "2"):
            setting = {"OPENBLAS_NUM_THREADS": threads}
            if coretype:
                setting["OPENBLAS_CORETYPE"] = coretype
            out = tmp_path / f"{coretype}-{threads}"
            child = subprocess.Popen(
                [sys.executable, "-c", _HASH_CHILD, str(out)], env={**env, **setting},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            children.append((setting, child))
    hashes = {}
    for setting, child in children:
        stdout, stderr = child.communicate(timeout=120)
        assert child.returncode == 0, (setting, stderr)
        for block, digest in zip((1, 40), stdout.split()):
            hashes.setdefault(digest, []).append((setting, block))
    assert len(hashes) == 1, hashes
