"""Experiment implementations behind the CLI.

Every experiment is a pure function of (config, seed): randomness flows
from the config seed through named streams (one per consumer), outputs
are CSV tables plus SVG figures, and the returned manifest lists each
written file with its content hash.
"""

import hashlib
import json
import math
import os
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from . import gd, kernels, toy2d
from .config import TAU, canonical_config
from .errors import CertificationFailed, DegenerateSpectrum, InfeasibleWindow, ParseError
from .filters import (
    cut_off,
    gd_filter,
    iterated_tikhonov,
    residual,
    tikhonov,
)
from .instances import random_instances
from .quadratic import QuadraticObjective
from .regimes import certify, check_assumptions, pair_record
from .reporting import AxesSpec, Series, render_svg, write_bytes, write_csv
from .spectral import condition_number, eigvals_sym

T_MAX_SWEEP = 500_000
# Streams per random_instances call in quadratic_certify. Memory grows
# with it, not with the number of instances; the cost per instance stops
# falling at about 20 streams.
CERTIFY_BLOCK = 40


def stream(seed, name):
    """Independent RNG per consumer name; adding names never shifts others."""
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


class _Outputs:
    """The files of one run, each hashed from the bytes written to it."""

    def __init__(self, out_dir):
        self.dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.files = []

    def _add(self, name, data):
        self.files.append({"path": name, "sha256": hashlib.sha256(data).hexdigest()})

    def csv(self, name, rows, schema):
        self._add(name, write_csv(rows, schema, os.path.join(self.dir, name)))

    def svg(self, name, series, axes):
        self._add(name, render_svg(series, axes, os.path.join(self.dir, name)))

    def manifest(self, cfg):
        manifest = {
            "experiment": cfg.experiment,
            "seed": cfg.seed,
            "config": canonical_config(cfg),
            "files": self.files,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        write_bytes(text, os.path.join(self.dir, "manifest.json"))
        return manifest


def run_experiment(cfg):
    """Dispatch a validated config and return the output manifest."""
    out = _Outputs(cfg.output_dir)
    runner = _RUNNERS[cfg.experiment]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrum)
        runner(cfg, out)
    return out.manifest(cfg)


def _run_toy2d(cfg, out):
    inst = toy2d.ToyInstance(cfg.sigma1, cfg.sigma2)
    eta_s = (cfg.eta_small if cfg.eta_small is not None else 1.0) / cfg.sigma1
    eta_b = (cfg.eta_big if cfg.eta_big is not None else TAU * 2.0) / cfg.sigma1
    alpha = (
        cfg.alpha
        if cfg.alpha is not None
        else toy2d.feasible_alpha(inst, eta_s, eta_b, target=1e-8, margin=1.0 + 1e-9)
    )
    ratio, passes = toy2d.ratio_check(inst, eta_s, eta_b, alpha, t_max=10**7)
    out.csv(
        "toy2d_ratio.csv",
        [
            (
                cfg.sigma1,
                cfg.sigma2,
                inst.kappa,
                eta_s,
                eta_b,
                float(alpha),
                float(ratio),
                passes,
            )
        ],
        (
            "sigma1",
            "sigma2",
            "kappa",
            "eta_small",
            "eta_big",
            "alpha",
            "ratio",
            "passes",
        ),
    )
    ts = tuple(range(41))
    series = [
        Series(name, ts, tuple([toy2d.excess_loss(inst, eta, t) for t in ts]))
        for name, eta in (("small rate", eta_s), ("big rate", eta_b))
    ]
    out.svg(
        "toy2d_loss.svg",
        series,
        AxesSpec(
            title="Excess train loss on the 2-D toy",
            xlabel="step",
            ylabel="log10 excess loss",
            log_y=True,
        ),
    )


def _certify_instances(cfg):
    """The run's instances in order, generated CERTIFY_BLOCK streams at a time."""
    for start in range(0, cfg.instances, CERTIFY_BLOCK):
        stop = min(start + CERTIFY_BLOCK, cfg.instances)
        yield from random_instances(
            [stream(cfg.seed, f"certify-{i}") for i in range(start, stop)]
        )


def _run_quadratic_certify(cfg, out):
    rows = []
    schema = None
    for i, inst in enumerate(_certify_instances(cfg)):
        if i == 0:
            spec = inst.pair.train.spectrum
        # One record for the check and the certificate: its iota is the
        # gd.decompose of theta0 that both runs start from.
        shared = pair_record(
            inst.pair, gd.decompose(inst.pair.train, inst.theta0), inst.eta_s, inst.eta_b
        )
        verdicts = check_assumptions(
            inst.pair, inst.theta0, inst.eta_s, inst.eta_b, inst.alpha, record=shared
        )
        failed = [v.name for v in verdicts if not v.passed]
        if failed:
            raise CertificationFailed(
                f"instance {i} fails assumptions: {', '.join(failed)}"
            )
        run_s = gd.run_to_level_set(
            inst.pair.train, inst.theta0, inst.eta_s, inst.alpha, inst.t_max
        )
        run_b = gd.run_to_level_set(
            inst.pair.train, inst.theta0, inst.eta_b, inst.alpha, inst.t_max
        )
        cert = certify(inst.pair, run_s, run_b, inst.alpha, record=shared)
        record = {"instance": i, **cert.to_record()}
        if schema is None:
            schema = tuple(record)
        rows.append(tuple(record[k] for k in schema))
    out.csv("certificates.csv", rows, schema)
    etas = np.linspace(0.01, 2.1 / spec.top, 200)
    # The attenuation coefficient |1 - eta sigma| of each eigenvalue, per array.
    xs = tuple(etas.tolist())
    series = [
        Series(f"sigma_{i + 1}", xs, tuple(np.abs(1.0 - etas * s).tolist()))
        for i, s in enumerate(spec.eigenvalues)
    ]
    out.svg(
        "attenuation.svg",
        series,
        AxesSpec(
            title="Attenuation coefficients of the first instance",
            xlabel="step size",
            ylabel="|1 - eta sigma|",
            vlines=(
                2.0 / (spec.top + spec.bottom),
                2.0 / spec.top,
            ),
        ),
    )


@dataclass(frozen=True)
class _Sweep:
    """A kernel problem, its train objective, alpha* and the test data.

    ``cross`` is the train-by-test kernel, built once per sweep and used
    to score every grid point; ``excess0`` is the excess train loss at
    the zero start of every run.
    """

    prob: kernels.KernelProblem
    obj: QuadraticObjective
    alpha_star: np.ndarray
    test: kernels.Dataset
    cross: np.ndarray
    excess0: float


def _sweep_problem(cfg):
    if cfg.dataset_path:
        full = kernels.load_dataset(cfg.dataset_path)
        if full.n < 2:
            raise ParseError(
                f"{cfg.dataset_path}: a sweep needs at least 2 data rows "
                f"(alternate rows train and test), got {full.n}"
            )
        train = kernels.Dataset(full.points[0::2], full.labels[0::2])
        test = kernels.Dataset(full.points[1::2], full.labels[1::2])
    else:
        train = kernels.two_cluster_dataset(
            cfg.n, stream(cfg.seed, "train-data"), d=cfg.d
        )
        test = kernels.two_cluster_dataset(
            cfg.n_test, stream(cfg.seed, "test-data"), d=cfg.d
        )
    prob = kernels.kernel_problem(train, cfg.scale, cfg.lam)
    obj, alpha_star = kernels.ridge_fit(prob)
    return _Sweep(
        prob=prob,
        obj=obj,
        alpha_star=alpha_star,
        test=test,
        cross=kernels.gaussian_cross_kernel(
            prob.dataset.points, test.points, prob.scale
        ),
        excess0=0.5 * float(np.sum(obj.spectrum.eigenvalues * obj.optimum**2)),
    )


def _norm(mu):
    """Euclidean norm of mu, finite whenever the true norm is.

    sqrt(sum(mu * mu)) overflows once mu reaches about 1e154; only then,
    if every mu is finite, is the norm taken over mu / max|mu| instead.
    """
    with np.errstate(over="ignore"):
        norm = float(np.sqrt(np.sum(mu * mu)))
        if math.isinf(norm) and np.all(np.isfinite(mu)):
            top = float(np.max(np.abs(mu)))
            norm = top * float(np.sqrt(np.sum((mu / top) ** 2)))
    return norm


def _level_run_row(sweep, eta_mult, alpha):
    """Run theta-space GD to the alpha level set; report the sweep metrics."""
    obj = sweep.obj
    sigma1 = obj.spectrum.top
    eta = eta_mult / sigma1
    beta0 = np.zeros(obj.n)
    run = gd.run_to_level_set(obj, beta0, eta, alpha, T_MAX_SWEEP)
    mu = run.mu
    proj_e1 = abs(float(mu[0]))
    hilbert_norm = _norm(mu)
    alpha_hat = sweep.alpha_star + kernels.from_eigen_coords(sweep.prob, mu)
    accuracy = 1.0 - kernels.binary_error(
        sweep.prob, alpha_hat, sweep.test, cross=sweep.cross
    )
    return run, proj_e1, hilbert_norm, accuracy


def _level_target(fraction, excess0):
    """The level-set target fraction * excess0 of a sweep.

    Raises InfeasibleWindow when it underflows to 0, as it does when a
    huge lam leaves the initial excess loss below about 1e-300.
    """
    alpha = fraction * excess0
    if not alpha > 0:
        raise InfeasibleWindow(
            f"level-set target {fraction!r} * initial excess loss {excess0!r} "
            f"underflows to {alpha!r}"
        )
    return alpha


def _run_eta_sweep(cfg, out):
    sweep = _sweep_problem(cfg)
    alpha = cfg.alpha if cfg.alpha is not None else _level_target(0.05, sweep.excess0)
    rows = []
    for eta_mult in cfg.eta_grid:
        run, proj_e1, hilbert_norm, accuracy = _level_run_row(
            sweep, float(eta_mult), alpha
        )
        rows.append(
            (
                float(eta_mult),
                run.eta,
                run.steps,
                run.stop_status.value,
                proj_e1,
                hilbert_norm,
                accuracy,
            )
        )
    schema = (
        "eta_mult",
        "eta",
        "steps",
        "stop_status",
        "proj_e1",
        "hilbert_norm",
        "accuracy",
    )
    out.csv("eta_sweep.csv", rows, schema)
    xs = tuple(r[0] for r in rows)
    out.svg(
        "eta_sweep.svg",
        [
            Series("|<theta - theta_hat, e_1>|", xs, tuple(r[4] for r in rows)),
            Series("Hilbert norm", xs, tuple(r[5] for r in rows)),
            Series("accuracy", xs, tuple(r[6] for r in rows)),
        ],
        AxesSpec(
            title="Level-set estimators across step sizes",
            xlabel="eta * sigma_1",
            ylabel="value",
        ),
    )


def _run_alpha_sweep(cfg, out):
    sweep = _sweep_problem(cfg)
    eta_s = cfg.eta_small if cfg.eta_small is not None else 1.0
    eta_b = cfg.eta_big if cfg.eta_big is not None else TAU * 2.0
    rows = []
    for frac in cfg.alpha_grid:
        alpha = _level_target(float(frac), sweep.excess0)
        _, _, _, acc_s = _level_run_row(sweep, eta_s, alpha)
        _, _, _, acc_b = _level_run_row(sweep, eta_b, alpha)
        rows.append((float(frac), alpha, acc_s, acc_b))
    schema = ("alpha_fraction", "alpha", "accuracy_small", "accuracy_big")
    out.csv("alpha_sweep.csv", rows, schema)
    xs = tuple(r[0] for r in rows)
    out.svg(
        "alpha_sweep.svg",
        [
            Series("small rate", xs, tuple(r[2] for r in rows)),
            Series("big rate", xs, tuple(r[3] for r in rows)),
        ],
        AxesSpec(
            title="Test accuracy across level-set targets",
            xlabel="alpha / initial excess loss",
            ylabel="accuracy",
        ),
    )


def _run_scale_sweep(cfg, out):
    if cfg.dataset_path:
        data = kernels.load_dataset(cfg.dataset_path)
    else:
        data = kernels.two_cluster_dataset(
            cfg.n, stream(cfg.seed, "train-data"), d=cfg.d
        )
    rows = []
    for s in cfg.scale_grid:
        sig = eigvals_sym(kernels.gaussian_kernel_matrix(data.points, float(s)) / data.n)
        rows.append((float(s), condition_number(sig), condition_number(sig + cfg.lam)))
    schema = ("scale", "kappa", "kappa_regularized")
    out.csv("scale_sweep.csv", rows, schema)
    xs = tuple(r[0] for r in rows)
    out.svg(
        "scale_sweep.svg",
        [
            Series("log10 kappa", xs, tuple(r[1] for r in rows)),
            Series("log10 kappa_regularized", xs, tuple(r[2] for r in rows)),
        ],
        AxesSpec(
            title="Condition number of K/n across kernel scales",
            xlabel="scale",
            ylabel="log10 kappa",
            log_y=True,
        ),
    )


FIG5_FILTERS = (
    ("cutoff", cut_off(0.25)),
    ("gd_small", gd_filter(1.0, 4)),
    ("gd_big", gd_filter(2.0, 4)),
    ("tikhonov", tikhonov(0.25)),
    ("iterated_tikhonov", iterated_tikhonov(0.8, 5)),
)


def _run_filter_profiles(cfg, out):
    sigmas = np.linspace(0.01, 1.0, 100)
    rows = []
    for s in sigmas:
        rows.append(
            (float(s), *(residual(f, float(s)) for _, f in FIG5_FILTERS))
        )
    schema = ("sigma", *(name for name, _ in FIG5_FILTERS))
    out.csv("filter_profiles.csv", rows, schema)
    xs = tuple(r[0] for r in rows)
    out.svg(
        "filter_profiles.svg",
        [
            Series(name, xs, tuple(r[i + 1] for r in rows))
            for i, (name, _) in enumerate(FIG5_FILTERS)
        ],
        AxesSpec(
            title="Residual of spectral filters",
            xlabel="sigma",
            ylabel="residual",
        ),
    )


_RUNNERS = {
    "toy2d": _run_toy2d,
    "quadratic_certify": _run_quadratic_certify,
    "eta_sweep": _run_eta_sweep,
    "alpha_sweep": _run_alpha_sweep,
    "scale_sweep": _run_scale_sweep,
    "filter_profiles": _run_filter_profiles,
}
