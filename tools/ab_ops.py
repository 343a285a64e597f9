"""Time two stepbias source trees on workloads' ops, in one process.

    python3 tools/ab_ops.py ROOT_A ROOT_B [--workload NAME ... | all] [--seed N] [--rounds R]

Each root is a source checkout. Its package, ROOT/src/stepbias, is
imported under its own name (stepbias_a, stepbias_b); the package imports
itself relatively, so the two copies load side by side. --workload names
one or more workloads of this checkout's perfbench/workloads.py, or all
for every one (default certify_stream); they are timed one after another.
A workload's ops are its steady op list at workload seed N (default 1);
each tree first runs the workload's cold op, untimed. BLAS is pinned to
one thread before numpy loads. A round runs every op on both trees, tree
by tree for each op, and the tree that runs first alternates from round
to round. Each op writes into a fresh temporary directory, removed after
it is timed. An op's time is the process CPU time of its validate_config
and run_experiment calls, as perfbench times it.

Prints one block per workload, blocks apart by a blank line: each tree's
median CPU per op over the rounds with its quartiles, the ratio B / A of
the medians, the rounds each tree was faster in, and the ops whose output
files hash differently on the two trees. Exits 0.

Compare trees only within one run. On a 2-vCPU Xeon VM, creating an
output directory with three 2 kB files and removing it took 0.07-0.67 ms
depending on the file system of the directory, against ops of a few ms,
and two trees timed in separate processes swung by about 15 % from pair
to pair, while a tree timed against itself here reads within 1 %.
"""

import argparse
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_tree(root, name):
    """ROOT/src/stepbias imported as the package name."""
    package = Path(root).resolve() / "src" / "stepbias"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_workloads():
    """This checkout's perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", HERE / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_op(tree, raw):
    """(process CPU seconds, {file: sha256}) of one op into a fresh temporary directory."""
    out = tempfile.mkdtemp(prefix="ab_ops-")
    try:
        start = time.process_time()
        manifest = tree.run_experiment(tree.validate_config(dict(raw, output_dir=out)))
        cpu_s = time.process_time() - start
    finally:
        shutil.rmtree(out)
    return cpu_s, {f["path"]: f["sha256"] for f in manifest["files"]}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def workload_names(requested, known):
    """The workloads to time: those requested, in order, or every known one if all is."""
    return list(known) if "all" in requested else requested


def compare(trees, roots, workloads, workload, seed, rounds):
    """Time both trees on one workload's ops and print its block."""
    cold, ops = workloads.build(workload, seed)
    for tree in trees:
        run_op(tree, cold)
    per_op = [[], []]  # each tree's mean CPU per op, one entry per round
    moved = set()
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        totals = [0.0, 0.0]
        for i, raw in enumerate(ops):
            hashes = [None, None]
            for t in order:
                cpu_s, hashes[t] = run_op(trees[t], raw)
                totals[t] += cpu_s
            if hashes[0] != hashes[1]:
                moved.add(i)
        for t in (0, 1):
            per_op[t].append(totals[t] / len(ops))
    wins = [sum(a < b for a, b in zip(per_op[t], per_op[1 - t])) for t in (0, 1)]
    print(f"{workload} seed {seed}: {len(ops)} ops x {rounds} rounds")
    for t, (label, root) in enumerate(zip("AB", roots)):
        q1, q2, q3 = quartiles(per_op[t])
        print(
            f"{label} {root}: median {q2 * 1e3:.3f} ms/op "
            f"(quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f}), faster in {wins[t]}/{rounds} rounds"
        )
    ratio = statistics.median(per_op[1]) / statistics.median(per_op[0])
    print(f"B / A: {ratio:.4f} ({(1.0 / ratio - 1.0) * 100:+.1f} % ops/s)")
    print(f"ops whose output hashes differ: {len(moved)}/{len(ops)}")


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    parser.add_argument(
        "--workload", nargs="+", default=["certify_stream"], choices=[*workloads.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--rounds", type=int, default=10, help="at least 2")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    roots = (args.root_a, args.root_b)
    trees = [load_tree(root, name) for root, name in zip(roots, ("stepbias_a", "stepbias_b"))]
    for k, workload in enumerate(workload_names(args.workload, workloads.WORKLOADS)):
        if k:
            print()
        compare(trees, roots, workloads, workload, args.seed, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
