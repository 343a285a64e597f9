"""Workload definitions: a workload seed becomes a list of experiment configs.

The program sees only the configs. Each workload has a cold op, run
first in every fresh worker, and a fixed op list that the steady passes
run. The cold op does not depend on the seed, so its time varies only
with the machine and the program.
"""

import random

CERTIFY_OPS = 150
TOY2D_KAPPAS = (2.0, 5.0, 10.0)
TOY2D_SIGMA1 = (1.0, 10.0)
TOY2D_ETA_BIG = (None, 1.9)  # None keeps the program's default of 2 tau.
TOY2D_SHORT_REPEATS = 5
KERNEL_EXPERIMENTS = ("eta_sweep", "alpha_sweep", "scale_sweep")
KERNEL_SIZES = (50, 100)
KERNEL_DATA_SEEDS = (0, 1)


def certify_stream(seed):
    """quadratic_certify on its defaults at successive config seeds.

    Many short level-set runs, instance generation, certificate checks
    and output writing; no eigensolver or kernel work. The cold op
    certifies 100 instances, about 0.6 s, because a 0.1 s op times too
    unsteadily on a shared machine.
    """
    cold = {"experiment": "quadratic_certify", "instances": 100}
    ops = [
        {"experiment": "quadratic_certify", "seed": seed * CERTIFY_OPS + i}
        for i in range(CERTIFY_OPS)
    ]
    return cold, ops


def toy2d_grid(seed):
    """toy2d over condition number x sigma1 x eta_big, alpha left to the program.

    The default 2 tau rate steps about 450k times per op, the 1.9 rate
    finishes in milliseconds, so one list holds both long and short runs.
    Each short op is listed TOY2D_SHORT_REPEATS times, so that the median
    op is a short one and op_p50_s reads the per-op overhead, while the
    long ops set ops_per_s; with equal counts the median would fall
    between the two kinds. The seed sets the op order and the config
    seed, which only the manifest records. The cold op runs the default
    sigmas at eta_big = 1.9999, a level-set run of about 0.8 s: long
    enough to time steadily, short enough to repeat in every fresh worker.
    """
    cold = {"experiment": "toy2d", "eta_big": 1.9999}
    ops = []
    for kappa in TOY2D_KAPPAS:
        for sigma1 in TOY2D_SIGMA1:
            for eta_big in TOY2D_ETA_BIG:
                raw = {
                    "experiment": "toy2d",
                    "seed": seed,
                    "sigma1": sigma1,
                    "sigma2": sigma1 / kappa,
                }
                if eta_big is None:
                    ops.append(raw)
                else:
                    ops += [dict(raw, eta_big=eta_big)] * TOY2D_SHORT_REPEATS
    random.Random(seed).shuffle(ops)
    return cold, ops


def kernel_sweeps(seed):
    """eta, alpha and scale sweeps on the synthetic two-cluster data.

    The only workload with eigendecompositions, kernel assembly, ridge
    solves and test prediction; scale_sweep does no gradient descent.
    The data sets are fixed (config seeds KERNEL_DATA_SEEDS) and the seed
    sets only the op order: GD step counts vary by up to 1.5x from one
    data set to the next, so with two data sets drawn from the seed
    ops_per_s and op_p50_s spread 0.16-0.25 over ten seeds, and more data
    sets per pass do not fit the run time. n = 200, the program's
    default, is left out: each such op takes 18-28 s with the
    pure-Python eigensolver.
    """
    cold = {"experiment": "eta_sweep", "n": KERNEL_SIZES[0]}
    ops = [
        {"experiment": experiment, "n": n, "seed": data_seed}
        for data_seed in KERNEL_DATA_SEEDS
        for n in KERNEL_SIZES
        for experiment in KERNEL_EXPERIMENTS
    ]
    random.Random(seed).shuffle(ops)
    return cold, ops


WORKLOADS = {
    "certify_stream": certify_stream,
    "toy2d_grid": toy2d_grid,
    "kernel_sweeps": kernel_sweeps,
}


def build(workload, seed):
    """Return (cold op config, steady op configs) for a workload and seed."""
    return WORKLOADS[workload](seed)
