"""The output check rejects planted bad outputs and accepts good ones."""

import csv
import hashlib
import json

import pytest

import check


def write_op(tmp_path, name, header, rows):
    """Write one CSV plus a manifest listing it, as an experiment would."""
    path = tmp_path / name
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    manifest = {
        "files": [{"path": name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}]
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    return manifest


CERT_HEADER = ("instance", "kappa_F", "kappa_R", "r_small", "r_big", "verdict_final", "reason")
GOOD_CERT = (0, "4.0", "2.0", "1e-10", "2e-10", "true", "")


def test_good_certificate_passes(tmp_path):
    manifest = write_op(tmp_path, "certificates.csv", CERT_HEADER, [GOOD_CERT])
    assert check.check_op({"experiment": "quadratic_certify"}, tmp_path, manifest) == []


def test_verdict_false_row_is_rejected(tmp_path):
    bad = (1, "4.0", "2.0", "1e-10", "2e-10", "false", "BoundViolated")
    manifest = write_op(tmp_path, "certificates.csv", CERT_HEADER, [GOOD_CERT, bad])
    problems = check.check_op({"experiment": "quadratic_certify"}, tmp_path, manifest)
    assert any("row 2: verdict_final is false" in p for p in problems)


def test_bound_is_recomputed_from_the_row(tmp_path):
    # verdict_final claims true, but r_big > 34 * (2/4) * r_small.
    bad = (0, "4.0", "2.0", "1e-10", "2e-9", "true", "")
    manifest = write_op(tmp_path, "certificates.csv", CERT_HEADER, [bad])
    problems = check.check_op({"experiment": "quadratic_certify"}, tmp_path, manifest)
    assert any("r_big" in p for p in problems)


def test_hash_mismatch_is_rejected(tmp_path):
    manifest = write_op(tmp_path, "certificates.csv", CERT_HEADER, [GOOD_CERT])
    with open(tmp_path / "certificates.csv", "a") as fh:
        fh.write("1,4.0,2.0,1e-10,2e-10,true,\n")
    problems = check.check_op({"experiment": "quadratic_certify"}, tmp_path, manifest)
    assert any("SHA-256 does not match" in p for p in problems)


SCALE_HEADER = ("scale", "kappa", "kappa_regularized")


@pytest.mark.parametrize("kappa", ["-1.2e16", "nan", "1e16", "0.5"])
def test_bad_kappa_row_is_rejected(tmp_path, kappa):
    rows = [("1.0", "12.5", "12.5"), ("2.0", kappa, "3e5")]
    manifest = write_op(tmp_path, "scale_sweep.csv", SCALE_HEADER, rows)
    problems = check.check_op({"experiment": "scale_sweep", "n": 50}, tmp_path, manifest)
    assert any("row 2: kappa" in p for p in problems)


def test_infinite_kappa_is_accepted(tmp_path):
    manifest = write_op(tmp_path, "scale_sweep.csv", SCALE_HEADER, [("1.0", "inf", "3e5")])
    assert check.check_op({"experiment": "scale_sweep", "n": 50}, tmp_path, manifest) == []


ETA_HEADER = ("eta_mult", "eta", "steps", "stop_status", "proj_e1", "hilbert_norm", "accuracy")


def test_max_steps_row_is_rejected(tmp_path):
    rows = [
        ("0.5", "0.1", "40", "HitLevelSet", "0.1", "1.0", "1.0"),
        ("1.0", "0.2", "500000", "MaxStepsExceeded", "0.1", "1.0", "1.0"),
    ]
    manifest = write_op(tmp_path, "eta_sweep.csv", ETA_HEADER, rows)
    problems = check.check_op({"experiment": "eta_sweep"}, tmp_path, manifest)
    assert problems == ["eta_sweep.csv row 2: stop_status is MaxStepsExceeded"]


def test_non_finite_field_is_rejected(tmp_path):
    rows = [("0.5", "0.1", "40", "HitLevelSet", "inf", "1.0", "1.0")]
    manifest = write_op(tmp_path, "eta_sweep.csv", ETA_HEADER, rows)
    problems = check.check_op({"experiment": "eta_sweep"}, tmp_path, manifest)
    assert problems == ["eta_sweep.csv row 1: proj_e1 = inf is not finite"]


def test_toy2d_ratio_below_kappa_is_rejected(tmp_path):
    header = ("sigma1", "sigma2", "kappa", "ratio", "passes")
    manifest = write_op(tmp_path, "toy2d_ratio.csv", header, [("1.0", "0.2", "5.0", "4.9", "false")])
    problems = check.check_op({"experiment": "toy2d"}, tmp_path, manifest)
    assert len(problems) == 2
