"""tools/compare_outputs.py on a tree against itself and against a changed copy."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = [{"experiment": "filter_profiles"}, {"experiment": "toy2d", "eta_big": 1.9}]


def _compare(tmp_path, other, configs=CONFIGS):
    path = tmp_path / "configs.json"
    path.write_text(json.dumps(configs))
    tool = ROOT / "tools" / "compare_outputs.py"
    return subprocess.run(
        [sys.executable, str(tool), str(ROOT), str(other), "--configs", str(path)],
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
    # The copy also raises an exception that is no StepbiasError on a third
    # config: compared as an outcome, not a crash of the run.
    experiments = copy / "src" / "stepbias" / "experiments.py"
    runner = "    runner = _RUNNERS[cfg.experiment]\n"
    assert experiments.read_text().count(runner) == 1
    experiments.write_text(experiments.read_text().replace(
        runner, runner + '    if cfg.experiment == "quadratic_certify":\n        raise ValueError\n'
    ))
    certify = {"experiment": "quadratic_certify", "instances": 1}
    done = _compare(tmp_path, copy, [*CONFIGS, certify])
    assert done.returncode == 1, done.stdout + done.stderr
    assert (
        f"outcome differs: config-002-quadratic_certify {json.dumps(certify)}: "
        "ok -> uncaught ValueError"
    ) in done.stdout
    differ = sorted(line for line in done.stdout.splitlines() if line.startswith("differs: "))
    assert differ == [
        "differs: config-000-filter_profiles/filter_profiles.svg",
        "differs: config-000-filter_profiles/manifest.json",
        "differs: config-001-toy2d/manifest.json",
        "differs: config-001-toy2d/toy2d_loss.svg",
    ]
    assert "6 files, 4 differ" in done.stdout


def test_a_changed_refusal_message_is_a_difference(tmp_path):
    """Both trees refuse the config with the same class; only the message moved."""
    copy = tmp_path / "tree"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    toy2d = copy / "src" / "stepbias" / "toy2d.py"
    text = toy2d.read_text()
    assert text.count('"level-set window infeasible for eta=') == 1
    toy2d.write_text(text.replace('"level-set window infeasible', '"level-set window empty'))
    refused = {"experiment": "toy2d", "alpha": 0.4}
    done = _compare(tmp_path, copy, [refused])
    assert done.returncode == 1, done.stdout + done.stderr
    assert (
        f"outcome differs: config-000-toy2d {json.dumps(refused)}: "
        "InfeasibleWindow: level-set window infeasible for eta=1.0: t2=-1.553 <= t1=1.000 -> "
        "InfeasibleWindow: level-set window empty for eta=1.0: t2=-1.553 <= t1=1.000"
    ) in done.stdout
    assert "1 configs (1 refused by A), 0 files, 0 differ" in done.stdout
