"""tools/compare_outputs.py on a tree against itself and against a changed copy."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = [{"experiment": "filter_profiles"}, {"experiment": "toy2d", "eta_big": 1.9}]


def _compare(tmp_path, other):
    configs = tmp_path / "configs.json"
    configs.write_text(json.dumps(CONFIGS))
    tool = ROOT / "tools" / "compare_outputs.py"
    return subprocess.run(
        [sys.executable, str(tool), str(ROOT), str(other), "--configs", str(configs)],
        capture_output=True, text=True, check=False,
    )


def test_a_tree_against_itself_differs_nowhere(tmp_path):
    done = _compare(tmp_path, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "2 configs (0 refused by A), 6 files, 0 differ" in done.stdout


def test_a_changed_colour_lists_each_svg_and_its_manifest(tmp_path):
    copy = tmp_path / "tree"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    reporting = copy / "src" / "stepbias" / "reporting.py"
    text = reporting.read_text()
    assert text.count('"#1f77b4"') == 1
    reporting.write_text(text.replace('"#1f77b4"', '"#1f77b5"'))
    done = _compare(tmp_path, copy)
    assert done.returncode == 1, done.stdout + done.stderr
    differ = sorted(line for line in done.stdout.splitlines() if line.startswith("differs: "))
    assert differ == [
        "differs: config-000-filter_profiles/filter_profiles.svg",
        "differs: config-000-filter_profiles/manifest.json",
        "differs: config-001-toy2d/manifest.json",
        "differs: config-001-toy2d/toy2d_loss.svg",
    ]
    assert "6 files, 4 differ" in done.stdout
