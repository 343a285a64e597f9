"""Summary statistics, the metric list, the speed sampler and the boundary tracer."""

import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_p90_omitted_below_100_ops():
    assert "op_p90_s" not in run.op_summary([0.1] * 99)


def test_p90_reported_from_100_ops():
    durations = [0.01 * i for i in range(1, 101)]
    summary = run.op_summary(durations)
    assert sum(d > summary["op_p90_s"] for d in durations) >= 10
    assert summary["op_p50_s"] == pytest.approx(0.505)


def test_benchmark_json_matches_the_code():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) == set(run.SHARES)


def test_workloads_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
    assert workloads.build("certify_stream", 3) != workloads.build("certify_stream", 4)


def test_toy2d_median_op_is_a_short_one():
    _, ops = workloads.build("toy2d_grid", 3)
    short = sum(1 for raw in ops if "eta_big" in raw)
    assert short > len(ops) / 2 + 1


class _Run:
    def __init__(self, steps):
        self.steps = steps
        self.stop_status = types.SimpleNamespace(value="HitLevelSet")
        self.loss_trace = types.SimpleNamespace(nbytes=8 * steps)


def _fake_package(monkeypatch):
    """fakepkg.gd defines run_to_level_set; fakepkg.toy2d imports it by name."""
    gd = types.ModuleType("fakepkg.gd")
    gd.run_to_level_set = lambda steps: _Run(steps)
    toy2d = types.ModuleType("fakepkg.toy2d")
    toy2d.run_to_level_set = gd.run_to_level_set

    def ratio_check(steps):
        return toy2d.run_to_level_set(steps).steps + toy2d.run_to_level_set(1).steps

    toy2d.ratio_check = ratio_check
    instances = types.ModuleType("fakepkg.instances")

    def random_instance(retries):
        return instances.random_instance(retries - 1) if retries else 0

    instances.random_instance = random_instance
    for mod in (gd, toy2d, instances):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    return gd, toy2d, instances


def test_tracer_wraps_every_binding_and_restores_them(monkeypatch):
    gd, toy2d, instances = _fake_package(monkeypatch)
    original = gd.run_to_level_set
    trace = tracer.Tracer()
    trace.install("fakepkg")
    try:
        assert gd.run_to_level_set is toy2d.run_to_level_set is not original
        assert toy2d.ratio_check(5) == 6
        instances.random_instance(2)
    finally:
        trace.uninstall()
    assert gd.run_to_level_set is toy2d.run_to_level_set is original
    assert "spectral.eig_sym" in trace.absent and "gd.run_to_level_set" not in trace.absent

    metrics = trace.metrics(overhead_frac=0.0)
    assert metrics["gd.run_to_level_set.calls"] == 2
    assert metrics["gd.run_to_level_set.steps"] == 6
    assert metrics["gd.run_to_level_set.steps_max"] == 5
    assert metrics["gd.run_to_level_set.trace_bytes"] == 48
    assert metrics["instances.random_instance.calls"] == 3
    assert metrics["instances.random_instance.retries"] == 2
    assert metrics["spectral.eig_sym.calls"] == 0
    # Self time excludes the two GD child spans.
    parent = next(s for s in trace.spans if s[3] == "toy2d.ratio_check")
    children = [s for s in trace.spans if s[1] == parent[0]]
    assert len(children) == 2
    own = (parent[5] - parent[4]) - sum(c[5] - c[4] for c in children)
    assert metrics["toy2d.ratio_check.self_s"] == own >= 0


def test_speed_sampler_times_the_reference_during_an_op(tmp_path):
    def busy_then_fail(config):
        end = time.perf_counter() + 0.6
        while time.perf_counter() < end:
            pass
        raise RuntimeError("planted")

    fake = types.SimpleNamespace(validate_config=dict, run_experiment=busy_then_fail)
    sampler = worker.SpeedSampler()
    op = worker.run_op(fake, {"experiment": "toy2d"}, str(tmp_path), sampler=sampler)
    assert op.problems == ["raised RuntimeError: planted"]
    assert len(sampler.refs) >= 1
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    # The op lasts 0.6 s of wall time, the handler's part of it included.
    assert op.wall_s + sampler.wall_s >= 0.6 > op.wall_s
