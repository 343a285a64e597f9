"""tools/ab_ops.py on a tree against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_tree_against_itself_writes_the_same_outputs():
    tool = ROOT / "tools" / "ab_ops.py"
    done = subprocess.run(
        [sys.executable, str(tool), str(ROOT), str(ROOT), "--workload", "kernel_sweeps",
         "--rounds", "2"],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "kernel_sweeps seed 1: 12 ops x 2 rounds"
    assert [line.split(":")[0] for line in lines[1:3]] == [f"A {ROOT}", f"B {ROOT}"]
    assert lines[3].startswith("B / A: ")
    assert lines[4] == "ops whose output hashes differ: 0/12"
