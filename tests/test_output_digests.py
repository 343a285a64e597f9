"""The outputs that do not depend on the machine keep the bytes in output_digests.json.

Reruns the default toy2d and filter_profiles configs and the toy2d edges
of tools/compare_outputs.py, and compares the SHA-256 of every file each
writes (manifest.json aside) or the class of the error that refuses it.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

from stepbias.config import validate_config
from stepbias.errors import StepbiasError
from stepbias.experiments import run_experiment

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("output_digests.json")


def _configs():
    """The default toy2d and filter_profiles configs and compare_outputs' TOY2D_EDGES."""
    path = ROOT / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return [{"experiment": "toy2d"}, {"experiment": "filter_profiles"}, *tool.TOY2D_EDGES]


def _outcome(config, out_dir):
    """{"config", "files": {name: SHA-256}} of a config's run into out_dir, or its error class."""
    try:
        run_experiment(validate_config(dict(config, output_dir=str(out_dir))))
    except StepbiasError as exc:
        return {"config": config, "error": type(exc).__name__}
    files = sorted(p for p in Path(out_dir).iterdir() if p.name != "manifest.json")
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    return {"config": config, "files": digests}


def test_machine_free_outputs_keep_their_committed_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())["runs"]
    got = [_outcome(config, tmp_path / str(k)) for k, config in enumerate(_configs())]
    assert [run["config"] for run in want] == [run["config"] for run in got]
    for w, g in zip(want, got):
        assert w == g, w["config"]
