"""Compare the output files of two stepbias source trees, config by config.

    python3 tools/compare_outputs.py ROOT_A ROOT_B [--seed N] [--configs FILE] [--keep DIR]

Each root is a source checkout; its package is imported from ROOT/src in a
child process with BLAS pinned to one thread. Both run the same configs:
by default the default config of every experiment (config.EXPERIMENTS of
this checkout), the cold op and every distinct op of each benchmark
workload (WORKLOADS in perfbench/workloads.py of this checkout) at
workload seed N (default 1), and quadratic_certify
at the edges of its instance blocks (B - 1, B, B + 1 and 2B + 3
instances for the CERTIFY_BLOCK B of this checkout) at config seeds N
and N + 1, the sweeps of LEVEL_SET_EDGES (level-set runs at rates past
2/sigma_1, MaxStepsExceeded and Diverged, targets that are refused, and
the three kernel sweeps at d = 5), and the toy2d runs of TOY2D_EDGES.
--configs FILE runs the JSON list of experiment configs in FILE
instead. A config that a tree refuses with a library error records the
error as "ClassName: message", and one that raises any other exception
records "uncaught" and the same; each message has the run's output
directory replaced by <out>, so that no message carries a temporary
path. --keep DIR writes tree A's outputs to DIR/a and
tree B's to DIR/b and keeps them; it refuses a DIR that already holds
run, a or b.

Prints the configs whose outcome differs, the files that differ or exist
on one side only, and for each CSV column with a differing cell the worst
relative drift |a - b| / max(|a|, |b|) over finite cells, the number of
differing cells and whether non-finite values sit in the same cells.
Also lists every SVG, on either tree, that does not parse as XML.
Exits 0 when every file of every config is byte-identical and every SVG
parses, 1 otherwise.
"""

import argparse
import ast
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from xml.etree import ElementTree

HERE = Path(__file__).resolve().parents[1]
# Kernel sweeps at rates past 2/sigma_1, at n = 20 and the default n, and
# two that a tree refuses: a target above the initial loss, and a target
# fraction that underflows after one that does not. Then sweeps at lam
# 1e160 and 1e200, whose initial losses and Hilbert norms are formed from
# coefficients whose squares alone would underflow, and one whose
# n (sigma + lam) overflows (refused). Then the three kernel sweeps at
# d = 5, where the kernel sums more coordinates than any default op's.
# Last, three sweeps whose step size eta_mult / sigma_1 overflows to inf
# or rounds to 0 (refused).
LEVEL_SET_EDGES = [
    {"experiment": experiment, "n": n, **edge}
    for n in (20, 200)
    for experiment, edge in (
        ("eta_sweep", {"eta_grid": [1.9, 2.0, 2.5, 3.0, 1e6]}),
        ("alpha_sweep", {"eta_big": 2.5}),
    )
] + [
    {"experiment": "eta_sweep", "n": 20, "alpha": 1e6},
    {"experiment": "alpha_sweep", "n": 20, "alpha_grid": [0.5, 5e-324]},
    {"experiment": "eta_sweep", "n": 20, "lam": 1e160},
    {"experiment": "eta_sweep", "n": 20, "lam": 1e200},
    {"experiment": "alpha_sweep", "n": 20, "lam": 1e200},
    {"experiment": "eta_sweep", "n": 20, "lam": 1.7e308},
] + [
    {"experiment": experiment, "n": 20, "d": 5}
    for experiment in ("eta_sweep", "alpha_sweep", "scale_sweep")
] + [
    {"experiment": "eta_sweep", "eta_grid": [1.3383999106150952e308]},
    {"experiment": "alpha_sweep", "eta_big": 1.7e308},
    {"experiment": "eta_sweep", "lam": 1e160, "eta_grid": [1e-300]},
]
# toy2d at fixed targets: one where the big-rate run stops at
# MaxStepsExceeded, one the window gate refuses, and one that writes its
# outputs at other rates. Then feasible_alpha's scan past its first
# candidate (every default toy2d op accepts that one): 76 and 301
# candidates, and all 400 without a feasible one (refused).
TOY2D_EDGES = [
    {"experiment": "toy2d", "alpha": 1e-300},
    {"experiment": "toy2d", "alpha": 0.4},
    {"experiment": "toy2d", "alpha": 1e-9, "eta_small": 0.5, "eta_big": 1.9},
    {"experiment": "toy2d", "sigma2": 0.05, "eta_big": 1.91},
    {"experiment": "toy2d", "sigma2": 0.05, "eta_small": 0.2, "eta_big": 1.91},
    {"experiment": "toy2d", "sigma2": 0.1, "eta_small": 0.1, "eta_big": 1.82},
]

# Runs in the child: reads {"base": dir, "configs": [[label, raw], ...]}
# on stdin, prints {"package": path, "outcomes": {label: outcome}}.
CHILD = """
import json, sys
import stepbias
from stepbias.config import validate_config
from stepbias.errors import StepbiasError
from stepbias.experiments import run_experiment


def said(exc):
    message = str(exc).replace(job["base"], "<out>")
    return type(exc).__name__ + (": " + message if message else "")


job = json.load(sys.stdin)
outcomes = {}
for label, raw in job["configs"]:
    try:
        run_experiment(validate_config(dict(raw, output_dir=job["base"] + "/" + label)))
        outcomes[label] = "ok"
    except StepbiasError as exc:
        outcomes[label] = said(exc)
    except Exception as exc:
        outcomes[label] = "uncaught " + said(exc)
print(json.dumps({"package": stepbias.__file__, "outcomes": outcomes}))
"""


def default_configs(seed):
    """[label, raw config] for each default config and distinct workload op."""
    spec = importlib.util.spec_from_file_location(
        "workloads", HERE / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = [[f"default-{e}", {"experiment": e}] for e in constant("config.py", "EXPERIMENTS")]
    for name in workloads.WORKLOADS:
        cold, ops = workloads.build(name, seed)
        seen = set()
        for raw in [cold, *ops]:
            key = json.dumps(raw, sort_keys=True)
            if key not in seen:
                seen.add(key)
                configs.append([f"{name}-{len(seen) - 1:03d}-{raw['experiment']}", raw])
    block = constant("experiments.py", "CERTIFY_BLOCK")
    for config_seed in (seed, seed + 1):
        for count in (block - 1, block, block + 1, 2 * block + 3):
            raw = {"experiment": "quadratic_certify", "instances": count, "seed": config_seed}
            configs.append([f"certify-block-{count}-seed{config_seed}", raw])
    for i, raw in enumerate(LEVEL_SET_EDGES):
        configs.append([f"level-set-edge-{i}-{raw['experiment']}", dict(raw, seed=seed)])
    for i, raw in enumerate(TOY2D_EDGES):
        configs.append([f"toy2d-edge-{i}", raw])
    return configs


def constant(module, name):
    """The literal constant name of src/stepbias/module in this checkout, read without importing it."""
    tree = ast.parse((HERE / "src" / "stepbias" / module).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    sys.exit(f"src/stepbias/{module} defines no {name}")


def run_tree(root, configs, base):
    """Run every config against the package under root/src; return the outcomes."""
    src = str(Path(root).resolve() / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    job = json.dumps({"base": str(base), "configs": configs})
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=job, env=env,
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        sys.exit(f"{root}: the run failed\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["package"].startswith(src):
        sys.exit(f"{root}: imported stepbias from {result['package']}, not {src}")
    return result["outcomes"]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


class ColumnDrift:
    """Differences in one CSV column, summed over configs."""

    def __init__(self):
        self.cells = 0
        self.differing = 0
        self.worst = 0.0
        self.nonfinite_moved = 0

    def add(self, a, b):
        self.cells += 1
        if a == b:
            return
        self.differing += 1
        x, y = _number(a), _number(b)
        if x is None or y is None:
            self.nonfinite_moved += 1
        elif math.isfinite(x) and math.isfinite(y):
            self.worst = max(self.worst, abs(x - y) / max(abs(x), abs(y)))
        elif not (math.isnan(x) and math.isnan(y)):
            self.nonfinite_moved += 1


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def compare_csv(name, path_a, path_b, drifts, problems):
    rows_a, rows_b = _rows(path_a), _rows(path_b)
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        problems.append(f"{name}: header or row count differs")
        return
    header = rows_a[0]
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        if len(row_a) != len(row_b):
            problems.append(f"{name}: a row differs in length")
            return
        for column, a, b in zip(header, row_a, row_b):
            drifts[(Path(name).name, column)].add(a, b)


def ill_formed_svgs(base):
    """'label/name: error' for each SVG under base that does not parse as XML."""
    bad = []
    for path in sorted(base.glob("*/*.svg")):
        try:
            ElementTree.parse(path)
        except ElementTree.ParseError as exc:
            bad.append(f"{path.parent.name}/{path.name}: {exc}")
    return bad


def compare(configs, outcomes_a, outcomes_b, base_a, base_b):
    """Print the differences; return True when all is byte-identical and every SVG parses."""
    same = True
    drifts = defaultdict(ColumnDrift)
    problems = []
    files = differing = 0
    for label, raw in configs:
        if outcomes_a[label] != outcomes_b[label]:
            same = False
            print(f"outcome differs: {label} {json.dumps(raw)}: "
                  f"{outcomes_a[label]} -> {outcomes_b[label]}")
            continue
        dir_a, dir_b = base_a / label, base_b / label
        names = sorted(
            {p.name for p in dir_a.glob("*")} | {p.name for p in dir_b.glob("*")}
        )
        for name in names:
            files += 1
            path_a, path_b = dir_a / name, dir_b / name
            if not (path_a.exists() and path_b.exists()):
                same = False
                differing += 1
                print(f"only in {'A' if path_a.exists() else 'B'}: {label}/{name}")
                continue
            if path_a.read_bytes() == path_b.read_bytes():
                if name.endswith(".csv"):
                    compare_csv(f"{label}/{name}", path_a, path_b, drifts, problems)
                continue
            same = False
            differing += 1
            print(f"differs: {label}/{name}")
            if name.endswith(".csv"):
                compare_csv(f"{label}/{name}", path_a, path_b, drifts, problems)
    refused = sum(outcome != "ok" for outcome in outcomes_a.values())
    print(f"{len(configs)} configs ({refused} refused by A), {files} files, "
          f"{differing} differ")
    for problem in problems:
        print(problem)
    for side, base in (("A", base_a), ("B", base_b)):
        for bad in ill_formed_svgs(base):
            problems.append(bad)
            print(f"ill-formed SVG in {side}: {bad}")
    moved = [(key, d) for key, d in sorted(drifts.items()) if d.differing]
    if moved:
        print("CSV columns with differing cells (worst relative drift over finite cells):")
    for (name, column), d in moved:
        print(f"  {name} {column}: {d.worst:.3g} ({d.differing}/{d.cells} cells differ; "
              f"{d.nonfinite_moved} non-finite or non-numeric cells moved)")
    return same and not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--configs", help="JSON file with a list of configs to run instead")
    parser.add_argument("--keep", help="write the outputs under this directory and keep them")
    args = parser.parse_args(argv)
    if args.configs:
        raw_list = json.loads(Path(args.configs).read_text())
        configs = [[f"config-{i:03d}-{raw['experiment']}", raw] for i, raw in enumerate(raw_list)]
    else:
        configs = default_configs(args.seed)
    if args.keep:
        base = Path(args.keep).resolve()
        taken = [name for name in ("run", "a", "b") if (base / name).exists()]
        if taken:
            sys.exit(f"--keep {base}: already holds {', '.join(taken)}; give an empty directory")
        return compare_trees(args.root_a, args.root_b, configs, base)
    with tempfile.TemporaryDirectory() as tmp:
        return compare_trees(args.root_a, args.root_b, configs, Path(tmp))


def compare_trees(root_a, root_b, configs, base):
    """Run both trees under base and compare; return the exit code."""
    # Both trees write to the same path, which the manifests record,
    # and each tree's files are then moved aside.
    run, base_a, base_b = base / "run", base / "a", base / "b"
    outcomes_a = run_tree(root_a, configs, run)
    run.rename(base_a)
    outcomes_b = run_tree(root_b, configs, run)
    run.rename(base_b)
    return 0 if compare(configs, outcomes_a, outcomes_b, base_a, base_b) else 1


if __name__ == "__main__":
    sys.exit(main())
