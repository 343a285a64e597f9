"""Experiment implementations behind the CLI.

Every experiment is a pure function of (config, seed): randomness flows
from the config seed through named streams (one per consumer), outputs
are CSV tables plus SVG figures, and the returned manifest lists each
written file with its content hash. quadratic_certify certifies its
instances a block at a time with regimes.certify_block and raises the
first refusal in stream order.
"""

import hashlib
import math
import os
import zlib
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import gd, kernels, toy2d
from .config import TAU, canonical_config
from .errors import InfeasibleWindow, InvalidRegime, ParseError
from .filters import (
    cut_off,
    gd_filter,
    iterated_tikhonov,
    residual,
    tikhonov,
)
from .instances import random_instances
from .quadratic import QuadraticObjective, excess_losses
from .regimes import certify_block
from .reporting import AxesSpec, Series, render_svg, write_bytes, write_csv
from .spectral import condition_numbers, eigvals_sym, unpadded

T_MAX_SWEEP = 500_000
# Streams per random_instances block in quadratic_certify, each block
# generated and certified as one. Memory grows with it (about 10 kB per
# stream), not with the number of instances. random_instances and
# certify_block took 184, 135, 108 and 91 us of CPU per instance at 10,
# 20, 40 and 80 streams (2-vCPU Xeon, BLAS on one thread, median of 8
# in-process rounds of 800 instances): doubling the memory past 40 saves
# 15 %.
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
        text = _json_text(manifest) + "\n"
        write_bytes(text, os.path.join(self.dir, "manifest.json"))
        return manifest


def _json_text(value, indent="\n"):
    """json.dumps(value, indent=2, sort_keys=True) of a manifest.

    json.dumps with an indent runs the pure-Python encoder, whose
    closures leave reference cycles for the collector on every call;
    this writes the same text over the manifest's types (dicts with str
    keys, lists, str, bool, None, int and finite float) and leaves none.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(value[k], inner)}" for k in sorted(value)]
    elif isinstance(value, list):
        items = [_json_text(v, inner) for v in value]
    elif isinstance(value, str):
        return encode_basestring_ascii(value)
    elif value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    elif isinstance(value, float):
        return float.__repr__(value)
    else:
        return int.__repr__(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def run_experiment(cfg):
    """Dispatch a validated config and return the output manifest."""
    out = _Outputs(cfg.output_dir)
    runner = _RUNNERS[cfg.experiment]
    runner(cfg, out)
    return out.manifest(cfg)


def _run_toy2d(cfg, out):
    inst = toy2d.ToyInstance(cfg.sigma1, cfg.sigma2)
    eta_s = (cfg.eta_small if cfg.eta_small is not None else 1.0) / cfg.sigma1
    eta_b = (cfg.eta_big if cfg.eta_big is not None else TAU * 2.0) / cfg.sigma1
    if cfg.alpha is None:
        alpha, ratio, passes = toy2d.aligned_ratio_check(
            inst, eta_s, eta_b, target=1e-8, margin=1.0 + 1e-9
        )
    else:
        alpha = cfg.alpha
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


def _attenuation_series(sig):
    """The attenuation coefficient |1 - eta sigma_i| of each eigenvalue of descending sig.

    Each series runs over eta in [0.01, 2.1/sigma_1] (an increasing range
    for sigma_1 < 210). |1 - eta sigma_i| is linear on either side of its
    kink at 1/sigma_i, so the two ends, and the kink where it lies
    strictly between them, draw it exactly.
    """
    lo, hi = 0.01, 2.1 / float(sig[0])
    series = []
    for i, s in enumerate(sig.tolist()):
        kink = 1.0 / s
        xs = (lo, kink, hi) if lo < kink < hi else (lo, hi)
        series.append(Series(f"sigma_{i + 1}", xs, tuple(abs(1.0 - eta * s) for eta in xs)))
    return series


def _run_quadratic_certify(cfg, out):
    rows = []
    for first in range(0, cfg.instances, CERTIFY_BLOCK):
        stop = min(first + CERTIFY_BLOCK, cfg.instances)
        block = random_instances(
            [stream(cfg.seed, f"certify-{i}") for i in range(first, stop)]
        )
        if first == 0:
            (sig,) = unpadded(block.eigenvalues[:1, 0], block.n[:1])
        cert, _, refusals = certify_block(block, first)
        refusal = next((r for r in refusals if r is not None), None)
        if refusal is not None:
            raise refusal
        columns = cert.to_record()
        schema = ("instance", *columns)
        rows += zip(
            range(first, stop),
            *(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()),
        )
    out.csv("certificates.csv", rows, schema)
    out.svg(
        "attenuation.svg",
        _attenuation_series(sig),
        AxesSpec(
            title="Attenuation coefficients of the first instance",
            xlabel="step size",
            ylabel="|1 - eta sigma|",
            vlines=(
                2.0 / (float(sig[0]) + float(sig[-1])),
                2.0 / float(sig[0]),
            ),
        ),
    )


@dataclass(frozen=True)
class _Sweep:
    """A kernel problem, its train objective, alpha* and the test data.

    The test set is scored once per sweep, for every grid point at once
    and one block of test points at a time (kernels.binary_error), so no
    train-by-test kernel is kept: scoring memory is O(n x block), not
    O(n x n_test). ``excess0`` is the excess train loss at the zero start
    of every run.
    """

    prob: kernels.KernelProblem
    obj: QuadraticObjective
    alpha_star: np.ndarray
    test: kernels.Dataset
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
        excess0=float(excess_losses(obj.spectrum.eigenvalues, obj.optimum)),
    )


def _level_runs(sweep, eta_mults, alphas):
    """Theta-space GD from zero to each alpha at each eta_mult / sigma_1, searched at once.

    Returns, in order, each run's (eta, steps, StopStatus, mu) and its
    sweep metrics (proj_e1, Hilbert norm, accuracy), read from the
    search's gd.LevelSetLanes: a sweep has one n, so a lane's padded mu
    is its mu. The first failed run raises, InvalidRegime where its step
    size overflows to inf or rounds to 0. Every run's alpha_hat is
    scored in one binary_error call.
    """
    obj = sweep.obj
    sigma1 = obj.spectrum.top
    iota = gd.decompose(obj, np.zeros(obj.n))
    etas = [eta_mult / sigma1 for eta_mult in eta_mults]
    lanes = gd.level_set_lanes(
        np.tile(obj.spectrum.eigenvalues, (len(alphas), 1)),
        np.tile(iota, (len(alphas), 1)),
        etas,
        alphas,
        [T_MAX_SWEEP] * len(alphas),
    )
    for eta_mult, eta, outcome in zip(eta_mults, etas, lanes.outcome):
        if not (math.isfinite(eta) and eta > 0):
            raise InvalidRegime(
                f"rate {eta_mult!r} / sigma_1 {sigma1!r} gives step size {eta!r}, "
                "not a finite positive float"
            )
        if not isinstance(outcome, gd.StopStatus):
            raise outcome
    alpha_hats = [sweep.alpha_star + kernels.from_eigen_coords(sweep.prob, mu) for mu in lanes.mu]
    errors = kernels.binary_error(sweep.prob, np.array(alpha_hats), sweep.test)
    return [
        (eta, steps, status, mu, abs(float(mu[0])), math.hypot(*mu.tolist()), 1.0 - error)
        for eta, steps, status, mu, error in zip(
            lanes.eta, lanes.steps.tolist(), lanes.outcome, lanes.mu, errors.tolist()
        )
    ]


def _level_target(fraction, excess0):
    """The level-set target fraction * excess0 of a sweep.

    Raises InfeasibleWindow when it underflows to 0, for a fraction near
    5e-324. excess0 is quadratic.excess_losses of the optimum, which
    multiplies sigma_i by each coefficient before the other, so no
    coefficient is squared on its own to underflow.
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
    grid = [float(eta_mult) for eta_mult in cfg.eta_grid]
    rows = [
        (eta_mult, eta, steps, status.value, proj_e1, hilbert_norm, accuracy)
        for eta_mult, (eta, steps, status, _, proj_e1, hilbert_norm, accuracy) in zip(
            grid, _level_runs(sweep, grid, [alpha] * len(grid))
        )
    ]
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
    fracs = [float(frac) for frac in cfg.alpha_grid]
    # Fractions past the first target that underflows are not run: a
    # failed run before it refuses the sweep first, else _level_target
    # below refuses it at that target.
    alphas = [frac * sweep.excess0 for frac in fracs]
    kept = next((k for k, alpha in enumerate(alphas) if not alpha > 0), len(fracs))
    lanes = [alpha for alpha in alphas[:kept] for _ in range(2)]
    runs = iter(_level_runs(sweep, [eta_s, eta_b] * kept, lanes) if kept else ())
    rows = []
    for frac in fracs:
        alpha = _level_target(frac, sweep.excess0)
        acc_s, acc_b = next(runs)[-1], next(runs)[-1]
        rows.append((frac, alpha, acc_s, acc_b))
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
    scales = [float(s) for s in cfg.scale_grid]
    sig = np.array(
        [eigvals_sym(kernels.gaussian_kernel_matrix(data.points, s) / data.n) for s in scales]
    )
    kappa = (condition_numbers(s, [data.n] * len(scales)).tolist() for s in (sig, sig + cfg.lam))
    rows = list(zip(scales, *kappa))
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
