"""Output checks for one op: the manifest, the CSV tables and the science.

check_op returns a list of problems; an empty list means the op's
outputs are correct. The checks read only the files on disk and the
manifest the program returned, never the program's own readers.
"""

import csv
import hashlib
import json
import math
import sys
from pathlib import Path

CSV_BY_EXPERIMENT = {
    "quadratic_certify": "certificates.csv",
    "toy2d": "toy2d_ratio.csv",
    "eta_sweep": "eta_sweep.csv",
    "alpha_sweep": "alpha_sweep.csv",
    "scale_sweep": "scale_sweep.csv",
}
# Numeric fields that may be +inf; every other numeric field must be finite.
INF_ALLOWED = {("scale_sweep", "kappa")}
EPS = sys.float_info.epsilon


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_manifest(out_dir, manifest):
    """Every listed file exists and matches its SHA-256; manifest.json agrees."""
    out_dir = Path(out_dir)
    problems = []
    for entry in manifest["files"]:
        path = out_dir / entry["path"]
        if not path.is_file():
            problems.append(f"{entry['path']}: listed in the manifest but missing")
        elif hashlib.sha256(path.read_bytes()).hexdigest() != entry["sha256"]:
            problems.append(f"{entry['path']}: SHA-256 does not match the manifest")
    on_disk = out_dir / "manifest.json"
    if not on_disk.is_file():
        problems.append("manifest.json: missing")
    elif json.loads(on_disk.read_text())["files"] != manifest["files"]:
        problems.append("manifest.json: file list differs from the returned manifest")
    return problems


def check_finite(experiment, name, rows):
    problems = []
    for i, row in enumerate(rows, start=1):
        for key, text in row.items():
            value = _number(text)
            if value is None or math.isfinite(value):
                continue
            if value == math.inf and (experiment, key) in INF_ALLOWED:
                continue
            problems.append(f"{name} row {i}: {key} = {text} is not finite")
    return problems


def _certify(raw, rows):
    problems = []
    for i, row in enumerate(rows, start=1):
        if row["verdict_final"] != "true":
            problems.append(f"row {i}: verdict_final is {row['verdict_final']}")
        r_big, r_small = float(row["r_big"]), float(row["r_small"])
        bound = 34.0 * (float(row["kappa_R"]) / float(row["kappa_F"])) * r_small
        if not r_big <= bound:
            problems.append(f"row {i}: r_big {r_big!r} > 34 kappa_R/kappa_F r_small {bound!r}")
    return problems


def _toy2d(raw, rows):
    problems = []
    for i, row in enumerate(rows, start=1):
        if row["passes"] != "true":
            problems.append(f"row {i}: passes is {row['passes']}")
        if not float(row["ratio"]) >= float(row["kappa"]):
            problems.append(f"row {i}: ratio {row['ratio']} < kappa {row['kappa']}")
    return problems


def _eta_sweep(raw, rows):
    return [
        f"row {i}: stop_status is {row['stop_status']}"
        for i, row in enumerate(rows, start=1)
        if row["stop_status"] != "HitLevelSet"
    ]


def _alpha_sweep(raw, rows):
    return [
        f"row {i}: {key} = {row[key]} outside [0, 1]"
        for i, row in enumerate(rows, start=1)
        for key in ("accuracy_small", "accuracy_big")
        if not 0.0 <= float(row[key]) <= 1.0
    ]


def _scale_sweep(raw, rows):
    kappa_max = 1.0 / (raw["n"] * EPS)
    problems = []
    for i, row in enumerate(rows, start=1):
        kappa = float(row["kappa"])
        if not (kappa == math.inf or 1.0 <= kappa <= kappa_max):
            problems.append(f"row {i}: kappa = {row['kappa']} outside [1, 1/(n eps)] and not inf")
        if not float(row["kappa_regularized"]) >= 1.0:
            problems.append(f"row {i}: kappa_regularized = {row['kappa_regularized']} < 1")
    return problems


_SCIENCE = {
    "quadratic_certify": _certify,
    "toy2d": _toy2d,
    "eta_sweep": _eta_sweep,
    "alpha_sweep": _alpha_sweep,
    "scale_sweep": _scale_sweep,
}


def check_op(raw, out_dir, manifest):
    """All problems with one op's outputs; raw is the config without output_dir."""
    experiment = raw["experiment"]
    problems = check_manifest(out_dir, manifest)
    name = CSV_BY_EXPERIMENT[experiment]
    if name not in {entry["path"] for entry in manifest["files"]}:
        return problems + [f"{name}: not in the manifest"]
    rows = _read_rows(Path(out_dir) / name)
    if not rows:
        return problems + [f"{name}: no rows"]
    problems += check_finite(experiment, name, rows)
    problems += [f"{name} {p}" for p in _SCIENCE[experiment](raw, rows)]
    return problems
