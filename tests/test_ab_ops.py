"""tools/ab_ops.py on a tree against itself."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_ops.py"


def test_a_tree_against_itself_writes_the_same_outputs():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "kernel_sweeps",
         "toy2d_grid", "--rounds", "2"],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    blocks = [block.splitlines() for block in done.stdout.split("\n\n")]
    for lines, (workload, ops) in zip(blocks, [("kernel_sweeps", 12), ("toy2d_grid", 36)]):
        assert lines[0] == f"{workload} seed 1: {ops} ops x 2 rounds"
        assert [line.split(":")[0] for line in lines[1:3]] == [f"A {ROOT}", f"B {ROOT}"]
        assert lines[3].startswith("B / A: ")
        assert lines[4] == f"ops whose output hashes differ: 0/{ops}"
    assert len(blocks) == 2


def test_all_names_every_workload_in_order():
    spec = importlib.util.spec_from_file_location("ab_ops", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    known = tool.load_workloads().WORKLOADS
    assert tool.workload_names(["all"], known) == ["certify_stream", "toy2d_grid", "kernel_sweeps"]
    assert tool.workload_names(["toy2d_grid", "all"], known) == list(known)
    assert tool.workload_names(["toy2d_grid", "certify_stream"], known) == [
        "toy2d_grid", "certify_stream"
    ]


def test_an_unknown_workload_is_a_usage_error():
    done = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT), "--workload", "toy2d_grid", "nope"],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 2 and "invalid choice: 'nope'" in done.stderr
