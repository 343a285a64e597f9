"""Step-size-dependent spectral bias of gradient descent on quadratics.

The package certifies, on explicit quadratic problem pairs, that running
gradient descent to a fixed excess-loss level set with a big step size
(between 2/(sigma_1 + sigma_n) and 2/sigma_1) leaves the error mass in
the top eigendirection, while a small step size leaves it in the bottom
one, and quantifies the resulting gap in population loss. Kernel ridge
regression, a closed-form 2-D instance, and spectral-filter residual
profiles provide the surrounding experiment harness.
"""

from . import (
    config,
    errors,
    experiments,
    filters,
    gd,
    instances,
    kernels,
    quadratic,
    records,
    regimes,
    reporting,
    spectral,
    toy2d,
)
from .config import ExperimentConfig, load_config, validate_config
from .errors import StepbiasError
from .experiments import run_experiment
from .gd import GDRun, StopStatus, run_to_level_set
from .quadratic import ProblemPair, QuadraticObjective
from .records import RegimeKind
from .regimes import Certificate, certify, check_assumptions
from .spectral import Spectrum, eig_sym

__version__ = "0.1.0"

__all__ = [
    "config",
    "errors",
    "experiments",
    "filters",
    "gd",
    "instances",
    "kernels",
    "quadratic",
    "records",
    "regimes",
    "reporting",
    "spectral",
    "toy2d",
    "ExperimentConfig",
    "load_config",
    "validate_config",
    "StepbiasError",
    "run_experiment",
    "GDRun",
    "StopStatus",
    "run_to_level_set",
    "ProblemPair",
    "QuadraticObjective",
    "Certificate",
    "RegimeKind",
    "certify",
    "check_assumptions",
    "Spectrum",
    "eig_sym",
    "__version__",
]
