"""One measured process of a workload run, started by run.py.

The package comes from PYTHONPATH and BLAS is pinned to one thread. Ops
run in a closed loop: one client, the next op starting only after the
previous one has finished and been checked. An op is one
stepbias.run_experiment(stepbias.validate_config(raw)) call into a fresh
temporary output directory; checking and cleanup are outside its time.
Op time is the process CPU time over the call: the program is
single-threaded with BLAS on one thread, so on an idle machine it equals
the wall time, and it leaves out time the machine gave to other tenants.
A fixed reference computation is timed before the first op and after
each op, so that run.py can scale each op time to a fixed machine speed.

Modes:
  share   import and build the configs (setup ends here), time the
          reference, run the cold op, then ops[share::shares] of the
          op list.
  traced  the cold op untimed, one untraced pass, one traced pass.

Prints one JSON object on standard output.
"""

import argparse
import contextlib
import ctypes
import glob
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass

import check
import tracer as tracing
import workloads


REF_REPEATS = 5
SAMPLE_EVERY_S = 0.25


@dataclass
class Op:
    label: str
    cpu_s: float
    wall_s: float
    problems: list
    hashes: tuple
    ref_s: float = 0.0


def _reference_work():
    """Fixed interpreter and small-array work, like the program's inner loops."""
    import numpy

    x = numpy.ones(6)
    s = 0.0
    for i in range(300):
        x = x * 0.5 + 1.0
        s += float(x[i % 6])
        for j in range(10):
            s = s * 0.999 + j
    return s


def reference_s():
    """CPU time of the fixed reference work, the median of REF_REPEATS timings.

    It measures how fast the machine runs Python right now, independent of
    the program, so that run.py can scale op times to a fixed speed.
    """
    times = []
    for _ in range(REF_REPEATS):
        c0 = time.process_time()
        _reference_work()
        times.append(time.process_time() - c0)
    return sorted(times)[REF_REPEATS // 2]


class SpeedSampler:
    """Times the reference every SAMPLE_EVERY_S of wall time while an op runs.

    Load from other tenants changes the machine's speed within a fraction
    of a second, so references timed at an op's two ends say little about
    the speed during a 4 s op. A SIGALRM handler runs the reference
    between the op's bytecodes; its own CPU and wall time are subtracted
    from the op's.
    """

    def __init__(self):
        self.refs = []
        self.cpu_s = 0.0
        self.wall_s = 0.0

    def _tick(self, signum, frame):
        c0 = time.process_time()
        t0 = time.perf_counter()
        self.refs.append(reference_s())
        self.cpu_s += time.process_time() - c0
        self.wall_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def label(raw):
    rest = ",".join(f"{k}={v}" for k, v in raw.items() if k != "experiment")
    return f"{raw['experiment']}({rest})"


def run_op(stepbias, raw, tmp_root, trace=None, op_id=None, sampler=None):
    out_dir = tempfile.mkdtemp(dir=tmp_root)
    if trace is not None:
        trace.op = op_id
    manifest = None
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with sampler or contextlib.nullcontext():
            manifest = stepbias.run_experiment(
                stepbias.validate_config(dict(raw, output_dir=out_dir))
            )
    except Exception as exc:  # An op that raises is a failed op, not a crash.
        problems = [f"raised {type(exc).__name__}: {exc}"]
    wall_s = time.perf_counter() - t0
    cpu_s = time.process_time() - c0
    if sampler is not None:
        wall_s -= sampler.wall_s
        cpu_s -= sampler.cpu_s
    hashes = ()
    if manifest is not None:
        try:
            problems = check.check_op(raw, out_dir, manifest)
        except (KeyError, ValueError, OSError) as exc:
            problems = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
        hashes = tuple((f["path"], f["sha256"]) for f in manifest["files"])
    shutil.rmtree(out_dir)
    return Op(label(raw), cpu_s, wall_s, problems, hashes)


def run_pass(stepbias, ops, tmp_root, trace=None, ref_before=None, sample=False):
    """Run ops in order, timing the reference after each.

    An op's ref_s is the harmonic mean of the references timed just
    before it, during it (with sample) and just after it: the op time
    scales with the mean of 1 / ref over the op.
    """
    before = reference_s() if ref_before is None else ref_before
    done = []
    for i, raw in enumerate(ops):
        sampler = SpeedSampler() if sample else None
        op = run_op(stepbias, raw, tmp_root, trace, i, sampler)
        after = reference_s()
        refs = [before, *(sampler.refs if sample else ()), after]
        op.ref_s = len(refs) / sum(1.0 / r for r in refs)
        done.append(op)
        before = after
    return done


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def _failures(ops):
    seen = {}
    for op in ops:
        if op.problems and op.label not in seen:
            seen[op.label] = op.problems[:3]
    return [{"op": k, "problems": v} for k, v in seen.items()]


def _counts(ops):
    return {
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o.problems),
        "failures": _failures(ops),
    }


def share(stepbias, cold_raw, ops, tmp):
    """Setup, the cold op, then this process's share of the op list."""
    setup_done = time.time()
    setup_ref = reference_s()
    (cold,) = run_pass(stepbias, [cold_raw], tmp, ref_before=setup_ref, sample=True)
    done = run_pass(stepbias, ops, tmp, sample=True)
    return {
        "setup_done": setup_done,
        "setup_ref_s": setup_ref,
        "cold": {"cpu_s": cold.cpu_s, "wall_s": cold.wall_s, "ref_s": cold.ref_s},
        "hashes": cold.hashes,
        "ops": [[o.cpu_s, o.wall_s, bool(o.problems), o.ref_s] for o in done],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **_counts([cold] + done),
    }


def traced(stepbias, cold_raw, ops, tmp):
    """One untraced and one traced pass; both must write the same files."""
    warm = run_op(stepbias, cold_raw, tmp)
    plain = run_pass(stepbias, ops, tmp)
    trace = tracing.Tracer()
    trace.install()
    try:
        seen = run_pass(stepbias, ops, tmp, trace)
    finally:
        trace.uninstall()
    # Op times in units of the reference, so a change of machine speed
    # between the two passes does not read as tracing overhead.
    plain_s = sum(o.cpu_s / o.ref_s for o in plain)
    seen_s = sum(o.cpu_s / o.ref_s for o in seen)
    overhead = seen_s / plain_s - 1.0
    return {
        "hashes": warm.hashes,
        "metrics": trace.metrics(overhead),
        "absent": trace.absent,
        "spans": len(trace.spans),
        "traced_outputs_differ": [a.label for a, b in zip(plain, seen) if a.hashes != b.hashes],
        **_counts([warm] + plain + seen),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("share", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--share", type=int, default=0)
    parser.add_argument("--shares", type=int, default=1)
    parser.add_argument("--tmp", required=True, help="directory for op outputs")
    args = parser.parse_args(argv)

    import stepbias

    cold_raw, ops = workloads.build(args.workload, args.seed)
    if args.mode == "share":
        result = share(stepbias, cold_raw, ops[args.share::args.shares], args.tmp)
    else:
        result = traced(stepbias, cold_raw, ops, args.tmp)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
