"""Kernel sweep experiments: scoring the test set in blocks, and
condition numbers of the scale sweep."""

import csv
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from stepbias import cli, experiments, gd, kernels
from stepbias.config import validate_config
from stepbias.errors import AlreadyBelowLevelSet, InfeasibleWindow
from stepbias.experiments import run_experiment, stream
from stepbias.spectral import condition_number, eigvals_sym

EPS = float(np.finfo(float).eps)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def noisy_dataset(tmp_path):
    """Overlapping clusters with flipped labels, so accuracies vary by run."""
    rng = np.random.default_rng(3)
    data = kernels.two_cluster_dataset(200, rng)
    points = data.points + 0.5 * rng.standard_normal(data.points.shape)
    labels = np.where(rng.random(data.n) < 0.15, -data.labels, data.labels)
    path = tmp_path / "noisy.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x_1", "x_2", "label"])
        writer.writerows([*map(repr, row.tolist()), int(y)] for row, y in zip(points, labels))
    return path


@pytest.mark.parametrize(
    "raw, columns",
    [
        ({"experiment": "eta_sweep"}, ("accuracy",)),
        (
            {"experiment": "alpha_sweep", "alpha_grid": [0.3, 0.1, 0.03, 0.01]},
            ("accuracy_small", "accuracy_big"),
        ),
    ],
)
def test_sweep_accuracy_matches_binary_error_from_scratch(
    raw, columns, noisy_dataset, tmp_path, monkeypatch
):
    stacks = []
    original = kernels.binary_error

    def recording(prob, alpha, test):
        stacks.append(np.array(alpha))
        return original(prob, alpha, test)

    monkeypatch.setattr(kernels, "binary_error", recording)
    out = tmp_path / "o"
    cfg = validate_config(
        dict(raw, dataset_path=str(noisy_dataset), scale=0.5, output_dir=str(out))
    )
    run_experiment(cfg)
    monkeypatch.undo()

    full = kernels.load_dataset(noisy_dataset)
    train = kernels.Dataset(full.points[0::2], full.labels[0::2])
    test = kernels.Dataset(full.points[1::2], full.labels[1::2])
    prob = kernels.kernel_problem(train, cfg.scale, cfg.lam)
    rows = _rows(out / f"{cfg.experiment}.csv")
    reported = [float(r[c]) for r in rows for c in columns]
    assert len(stacks) == 1  # every grid point in one call
    scored = list(stacks[0])
    assert len(scored) == len(reported)
    fresh = [1.0 - kernels.binary_error(prob, a, test) for a in scored]
    assert reported == fresh
    assert len(set(reported)) > 1  # the task is hard enough to tell runs apart


@pytest.mark.parametrize("experiment", ["eta_sweep", "alpha_sweep"])
@pytest.mark.parametrize("grid_length", [1, 6])
def test_sweep_evaluates_each_test_kernel_row_once_in_blocks(
    experiment, grid_length, tmp_path, monkeypatch
):
    n, n_test = 20, 1000
    rows = kernels.SCORE_BLOCK_BYTES // (8 * n)
    calls = []
    original = kernels.gaussian_cross_kernel

    def recording(X_train, X_query, s):
        calls.append((np.array(X_train), np.array(X_query)))
        return original(X_train, X_query, s)

    monkeypatch.setattr(kernels, "gaussian_cross_kernel", recording)
    grid = {
        "eta_sweep": {"eta_grid": list(np.linspace(0.25, 1.9, grid_length))},
        "alpha_sweep": {"alpha_grid": list(np.geomspace(0.2, 0.01, grid_length))},
    }[experiment]
    cfg = validate_config(
        {"experiment": experiment, "n": n, "n_test": n_test,
         "output_dir": str(tmp_path / "o"), **grid}
    )
    run_experiment(cfg)
    train = kernels.two_cluster_dataset(n, stream(cfg.seed, "train-data")).points
    test = kernels.two_cluster_dataset(n_test, stream(cfg.seed, "test-data")).points
    # The train kernel matrix, then the test set block by block.
    assert all(np.array_equal(X, train) for X, _ in calls)
    (_, square), *blocks = calls
    assert np.array_equal(square, train)
    assert np.array_equal(np.concatenate([Q for _, Q in blocks]), test)
    assert len(blocks) == -(-n_test // rows) > 1
    assert all(len(Q) <= rows for _, Q in blocks)


@pytest.mark.parametrize(
    "raw, failed_lanes, refusal",
    [
        # Lanes run Small, Big per fraction; the second target underflows.
        ({"experiment": "alpha_sweep", "alpha_grid": [0.5, 5e-324, 0.1]}, (1,), "lane 1"),
        ({"experiment": "alpha_sweep", "alpha_grid": [0.5, 5e-324, 0.1]}, (), "underflows"),
        ({"experiment": "alpha_sweep", "alpha_grid": [5e-324, 0.1]}, (), "underflows"),
        ({"experiment": "eta_sweep", "eta_grid": [0.5, 1.0, 1.5, 1.9]}, (3, 1), "lane 1"),
    ],
)
def test_a_sweep_is_refused_at_its_first_failed_run_or_target(
    raw, failed_lanes, refusal, tmp_path, monkeypatch
):
    real = gd.level_set_runs

    def failing(*args):
        runs = real(*args)
        for k in failed_lanes:
            runs[k] = AlreadyBelowLevelSet(f"lane {k}")
        return runs

    monkeypatch.setattr(gd, "level_set_runs", failing)
    cfg = validate_config(dict(raw, n=20, output_dir=str(tmp_path)))
    with pytest.raises((AlreadyBelowLevelSet, InfeasibleWindow), match=refusal):
        run_experiment(cfg)


def test_sweep_scoring_memory_does_not_grow_with_the_test_set(tmp_path):
    n, n_test = 200, 5000
    cfg = validate_config(
        {"experiment": "eta_sweep", "n": n, "n_test": n_test, "output_dir": str(tmp_path)}
    )
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One n x n_test cross kernel alone would take 8 MB.
    assert peak < n * n_test * 8 / 2


def test_scale_sweep_kappa_is_inf_or_in_range(tmp_path):
    for seed in (0, 1):
        for n in (50, 100):
            out = tmp_path / f"{seed}-{n}"
            cfg = validate_config(
                {"experiment": "scale_sweep", "n": n, "seed": seed,
                 "output_dir": str(out)}
            )
            run_experiment(cfg)
            for row in _rows(out / "scale_sweep.csv"):
                kappa = float(row["kappa"])
                assert kappa == math.inf or 1.0 <= kappa <= 1.0 / (n * EPS)
                assert 1.0 <= float(row["kappa_regularized"]) < math.inf


def test_scale_sweep_singular_kernel_regression(tmp_path):
    # n = 50, seed 0: K/n at scale 1.0 has a bottom eigenvalue of about
    # -1e-17, which used to be reported as kappa = -5.3e16.
    out = tmp_path / "o"
    run_experiment(
        validate_config(
            {"experiment": "scale_sweep", "n": 50, "seed": 0, "output_dir": str(out)}
        )
    )
    rows = _rows(out / "scale_sweep.csv")
    assert [r["scale"] for r in rows] == ["0.5", "1.0", "2.0", "4.0"]
    assert rows[1]["kappa"] == "inf"
    svg = (out / "scale_sweep.svg").read_text()
    assert "nan" not in svg and "inf" not in svg
    # One polyline per series; infinite kappas are left out, the
    # regularized series is always drawn in full.
    kappa_pts, regularized_pts = [
        len(p.split()) for p in re.findall(r'points="([^"]*)"', svg)
    ]
    assert kappa_pts == sum(r["kappa"] != "inf" for r in rows)
    assert regularized_pts == 4


def test_scale_sweep_at_lam_zero_never_reports_a_negative_kappa(tmp_path):
    out = tmp_path / "o"
    run_experiment(
        validate_config(
            {"experiment": "scale_sweep", "n": 50, "lam": 0.0, "output_dir": str(out)}
        )
    )
    for row in _rows(out / "scale_sweep.csv"):
        for column in ("kappa", "kappa_regularized"):
            assert float(row[column]) >= 1.0


def test_scale_sweep_reads_eigenvalues_only(tmp_path, monkeypatch):
    def no_eigenvectors(*args, **kwargs):
        raise AssertionError("scale_sweep computed eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_eigenvectors)
    out = tmp_path / "o"
    cfg = validate_config({"experiment": "scale_sweep", "n": 40, "output_dir": str(out)})
    run_experiment(cfg)
    monkeypatch.undo()
    # Each row is read from the scale's own kernel matrix.
    data = kernels.two_cluster_dataset(40, stream(cfg.seed, "train-data"))
    rows = _rows(out / "scale_sweep.csv")
    assert len(rows) == len(cfg.scale_grid)
    for row, s in zip(rows, cfg.scale_grid):
        sig = eigvals_sym(kernels.gaussian_kernel_matrix(data.points, s) / 40)
        assert float(row["kappa"]) == condition_number(sig)
        assert float(row["kappa_regularized"]) == condition_number(sig + cfg.lam)


@pytest.mark.parametrize("experiment", ["eta_sweep", "alpha_sweep"])
def test_sweeps_eigendecompose_once_and_solve_no_second_system(
    experiment, tmp_path, monkeypatch
):
    def second_solve(*args, **kwargs):
        raise AssertionError("the sweep solved the ridge system again")

    eighs = []
    real_eigh = np.linalg.eigh

    def counting_eigh(A):
        eighs.append(A.shape)
        return real_eigh(A)

    monkeypatch.setattr(kernels, "ridge_alpha", second_solve)
    monkeypatch.setattr(np.linalg, "cholesky", second_solve)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    run_experiment(
        validate_config({"experiment": experiment, "n": 30, "output_dir": str(tmp_path)})
    )
    assert eighs == [(30, 30)]


@pytest.mark.parametrize("n", [50, 100])
@pytest.mark.parametrize("seed", [0, 1])
def test_sweep_alpha_star_solves_the_ridge_system(n, seed):
    # The kernel_sweeps benchmark problems.
    cfg = validate_config({"experiment": "eta_sweep", "n": n, "seed": seed})
    sweep = experiments._sweep_problem(cfg)
    prob = sweep.prob
    want = kernels.ridge_alpha(prob.K, prob.y, prob.lam)
    assert np.linalg.norm(sweep.alpha_star - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.parametrize("lam, code", [(1e-20, 2), (1e-15, 2), (1e-13, 0)])
def test_cli_sweep_refuses_a_numerically_singular_ridge_system(lam, code, tmp_path, capsys):
    # The Cholesky path refused the first two at n = 50, seed 0; so does
    # the eigenvalue test on K + n lam I that replaced it.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "eta_sweep", "n": 50, "seed": 0, "lam": lam}))
    assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert ("K + n lam I" in err) == (code == 2)


@pytest.mark.parametrize(
    "experiment, code", [("eta_sweep", 1), ("alpha_sweep", 1), ("scale_sweep", 0)]
)
def test_cli_one_row_data_file(experiment, code, tmp_path, capsys):
    # Alternate rows train and test, so one row leaves the sweeps no test
    # set; scale_sweep reads every row as training data.
    data = tmp_path / "one.csv"
    data.write_text("x_1,x_2,label\n0.5,0.1,1")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": experiment, "dataset_path": str(data)}))
    assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (str(data) in err) == (code == 1)


def test_two_cluster_dataset_in_d_dimensions():
    # At d = 2 the draws are those of the two-dimensional generator.
    rng = np.random.default_rng(4)
    cluster = rng.integers(0, 2, size=30)
    noise = rng.standard_normal((30, 2))
    want = np.where(cluster[:, None] == 0, 1.0, -1.0) * np.array([1.0, 0.0]) + 0.2 * noise
    got = kernels.two_cluster_dataset(30, np.random.default_rng(4))
    assert got.points.tobytes() == want.tobytes()
    assert np.array_equal(got.points, kernels.two_cluster_dataset(30, 4, d=2).points)
    data = kernels.two_cluster_dataset(30, np.random.default_rng(4), d=3)
    assert data.points.shape == (30, 3)
    assert np.array_equal(np.sign(data.points[:, 0]), data.labels)


@pytest.mark.parametrize("experiment", ["eta_sweep", "scale_sweep"])
def test_config_d_reaches_the_synthetic_data(tmp_path, monkeypatch, experiment):
    shapes = []
    real = kernels.two_cluster_dataset

    def recording(*args, **kwargs):
        data = real(*args, **kwargs)
        shapes.append(data.points.shape[1])
        return data

    monkeypatch.setattr(kernels, "two_cluster_dataset", recording)
    raw = {"experiment": experiment, "n": 30, "n_test": 40, "d": 3, "output_dir": str(tmp_path)}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(path)]) == 0
    # Train and test sets for eta_sweep, the one data set for scale_sweep.
    assert shapes == ([3, 3] if experiment == "eta_sweep" else [3])
    rows = _rows(tmp_path / f"{experiment}.csv")
    assert rows and all(v != "nan" for row in rows for v in row.values())
