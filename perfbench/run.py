"""stepbias benchmark: one workload run, end to end or traced per layer.

    python3 perfbench/run.py --workload certify_stream --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
src/ there. --trace 0 prints every end-to-end metric of BENCHMARK.json,
--trace 1 every per-layer metric. Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See METRICS.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIME_LIMIT_S = 170.0
# Fresh worker processes per pass over the op list. Each one adds a
# set-up and a cold-op sample, and spreading them over the run keeps a
# burst of load from other tenants out of most of the samples. The
# certify_stream cold op is the cheapest (0.6 s) and its median over 5
# workers spread the most over ten seeds (0.086), so it gets 7.
SHARES = {"certify_stream": 7, "toy2d_grid": 5, "kernel_sweeps": 5}
P90_MIN_OPS = 100
# Median CPU time of worker.reference_s() on the machine the benchmark was
# written on (2-vCPU Xeon at 2.0 GHz, Python 3.11.7). Op and set-up times
# are scaled by REF_NOMINAL_S / (the reference timed next to them), so the
# end-to-end times read as seconds at that machine's usual speed.
REF_NOMINAL_S = 0.00125


def at_ref_speed(seconds, ref_s):
    """A time measured while the reference took ref_s, scaled to REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def op_summary(durations):
    """Closed-loop throughput and latency of the steady ops, from their op times.

    op_p90_s is given only when at least P90_MIN_OPS ops ran, so that at
    least ten samples lie beyond it.
    """
    out = {
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_s": statistics.median(durations),
    }
    if len(durations) >= P90_MIN_OPS:
        out["op_p90_s"] = statistics.quantiles(durations, n=10)[8]
    return out


def call_worker(mode, args, tmp, deadline, *extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--tmp", tmp, *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=deadline - time.monotonic())
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args, tmp, deadline):
    """Whole passes while another still fits in --seconds, each over SHARES fresh workers.

    setup is the wall time from starting a worker's interpreter to the
    configs built. Every time metric is scaled to the reference speed;
    the unscaled figures go to the report under cpu and wall.
    """
    workers, passes = [], 0
    shares = SHARES[args.workload]
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for k in range(shares):
            spawned = time.time()
            out = call_worker("share", args, tmp, deadline, "--share", str(k),
                              "--shares", str(shares))
            out["setup_s"] = out["setup_done"] - spawned
            workers.append(out)
        passes += 1
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            break
    ops = [op for w in workers for op in w["ops"]]
    scaled = op_summary([at_ref_speed(op[0], op[3]) for op in ops])
    cpu = op_summary([op[0] for op in ops])
    wall = op_summary([op[1] for op in ops])
    steady_failed = sum(1 for op in ops if op[2])
    metrics = {
        "setup_s": statistics.median(at_ref_speed(w["setup_s"], w["setup_ref_s"])
                                     for w in workers),
        "cold_op_s": statistics.median(at_ref_speed(w["cold"]["cpu_s"], w["cold"]["ref_s"])
                                       for w in workers),
        "ops_per_s": scaled["ops_per_s"],
        "op_p50_s": scaled["op_p50_s"],
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "pass_frac": 1.0 - steady_failed / len(ops),
    }
    wall["setup_s"] = statistics.median(w["setup_s"] for w in workers)
    cpu["cold_op_s"] = statistics.median(w["cold"]["cpu_s"] for w in workers)
    wall["cold_op_s"] = statistics.median(w["cold"]["wall_s"] for w in workers)
    report = {"passes": passes, "op_samples": len(ops), "cold_samples": len(workers),
              "fail_frac": steady_failed / len(ops), "cpu": cpu, "wall": wall,
              "ref_s": statistics.median(op[3] for op in ops)}
    if "op_p90_s" in scaled:
        report["op_p90_s"] = scaled["op_p90_s"]
    return workers, metrics, report


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
    )
    return out.stdout.strip() or None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "stepbias" / "__init__.py").is_file():
        print(f"no stepbias package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        if args.trace:
            out = call_worker("traced", args, tmp, deadline)
            workers, metrics = [out], out["metrics"]
            report = {k: out[k] for k in ("absent", "spans", "traced_outputs_differ")}
        else:
            workers, metrics, report = end_to_end(args, tmp, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()
    if set(metrics) != {m["name"] for m in declared}:
        print(f"metrics {sorted(metrics)} do not match BENCHMARK.json", file=sys.stderr)
        return 1

    # The cold op must write byte-identical files in every fresh worker,
    # and a traced pass the same files as an untraced one.
    report["cold_outputs_differ"] = len({json.dumps(w["hashes"]) for w in workers}) > 1
    correct = not report["cold_outputs_differ"] and not report.get("traced_outputs_differ")
    report["failures"] = list({f["op"]: f for w in workers for f in w["failures"]}.values())
    report.update(env=workers[0]["env"], git_sha=git_sha(), workload=args.workload,
                  seed=args.seed, trace=args.trace)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    lines = [(m["name"], metrics[m["name"]], m["unit"]) for m in declared]
    lines += [(k, report[k], u) for k, u in (("op_p90_s", "s"), ("fail_frac", "frac"))
              if k in report]
    for name, value, unit in lines:
        n = report.get("op_samples") if name.startswith(("op_", "fail_")) else None
        print(f"  {name:44s} {value:>14.6g} {unit}" + (f" (n={n})" if n else ""))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
