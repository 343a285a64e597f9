"""Experiment configuration: a single validated JSON file."""

import json
import math
import reprlib
from dataclasses import dataclass, field, fields

from .errors import ParseError, ValidationError

EXPERIMENTS = (
    "toy2d",
    "quadratic_certify",
    "eta_sweep",
    "alpha_sweep",
    "scale_sweep",
    "filter_profiles",
)

TAU = 1.0 - 1e-5  # eta_big default is tau * 2 / sigma_1.

DEFAULT_ETA_GRID = (0.25, 0.5, 0.75, 1.0, 1.4, 1.7, TAU * 2.0)
DEFAULT_ALPHA_GRID = (0.2, 0.1, 0.05, 0.02, 0.01)
DEFAULT_SCALE_GRID = (0.5, 1.0, 2.0, 4.0)


@dataclass
class ExperimentConfig:
    """All knobs of a run; unknown JSON keys are rejected at load time.

    Grids are interpreted per experiment: eta_grid in units of
    1/sigma_1 of the train operator, alpha_grid as fractions of the
    initial excess train loss, scale_grid as kernel scales. eta_small
    and eta_big (same 1/sigma_1 units) default to 1 and tau*2 with
    tau = 1 - 1e-5. Each annotation is the type validate_config checks
    the JSON value against; a bool is refused wherever a number is due.
    """

    experiment: str
    seed: int = 0
    dataset_path: str | None = None
    n: int = 200
    d: int = 2
    n_test: int = 1000
    eta_grid: list = field(default_factory=lambda: list(DEFAULT_ETA_GRID))
    alpha_grid: list = field(default_factory=lambda: list(DEFAULT_ALPHA_GRID))
    scale_grid: list = field(default_factory=lambda: list(DEFAULT_SCALE_GRID))
    eta_small: int | float | None = None
    eta_big: int | float | None = None
    alpha: int | float | None = None
    lam: int | float = 1e-6
    scale: int | float = 1.0
    sigma1: int | float = 1.0
    sigma2: int | float = 0.2
    instances: int = 20
    output_dir: str = "out"


_GRID_BY_EXPERIMENT = {
    "eta_sweep": "eta_grid",
    "alpha_sweep": "alpha_grid",
    "scale_sweep": "scale_grid",
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}

# The one form in which an error message echoes an input value: 4 list
# entries, 2 dict entries, one level of nesting and 24 characters per
# scalar at most, so an error line stays under 200 characters whatever
# the config holds.
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 1
_ECHO.maxlist = 4
_ECHO.maxdict = 2
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 24


def validate_config(raw):
    """Check a raw mapping and build an ExperimentConfig from it."""
    if not isinstance(raw, dict):
        raise ValidationError("config root must be a JSON object")
    unknown = set(raw) - set(_FIELD_TYPES)
    if unknown:
        raise ValidationError(f"unknown config keys: {_ECHO.repr(sorted(unknown))}")
    if "experiment" not in raw:
        raise ValidationError("experiment is required")
    for key, value in raw.items():
        want = _FIELD_TYPES[key]
        if isinstance(value, bool) or not isinstance(value, want):
            # A plain type is named as annotated (int), not as <class 'int'>.
            name = want.__name__ if isinstance(want, type) else want
            raise ValidationError(f"{key}: expected {name}, got {_ECHO.repr(value)}")
        entries = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
            raise ValidationError(f"{key}: numbers must be finite, got {_ECHO.repr(value)}")
    cfg = ExperimentConfig(**raw)
    if cfg.experiment not in EXPERIMENTS:
        raise ValidationError(
            f"experiment must be one of {EXPERIMENTS}, got {_ECHO.repr(cfg.experiment)}"
        )
    for name in ("n", "d", "n_test", "instances"):
        if getattr(cfg, name) < 1:
            raise ValidationError(f"{name} must be positive")
    for name in ("seed", "lam"):
        if getattr(cfg, name) < 0:
            raise ValidationError(f"{name} must be nonnegative")
    for name in ("scale", "sigma1", "sigma2"):
        if getattr(cfg, name) <= 0:
            raise ValidationError(f"{name} must be positive")
    for name in ("eta_small", "eta_big", "alpha"):
        if getattr(cfg, name) is not None and getattr(cfg, name) <= 0:
            raise ValidationError(f"{name} must be positive when set")
    if cfg.experiment == "toy2d" and not cfg.sigma1 > cfg.sigma2:
        raise ValidationError("sigma1 must exceed sigma2")
    grid_name = _GRID_BY_EXPERIMENT.get(cfg.experiment)
    if grid_name is not None:
        grid = getattr(cfg, grid_name)
        if not grid:
            raise ValidationError(grid_name)
        if not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
            for v in grid
        ):
            raise ValidationError(f"{grid_name} must contain positive numbers")
        if grid_name == "alpha_grid" and max(grid) >= 1:
            # A fraction >= 1 puts the target at or above the initial loss.
            raise ValidationError("alpha_grid fractions must be below 1")
    return cfg


def load_config(path):
    """Parse and validate a JSON config file."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: nested too deeply to parse") from exc
    return validate_config(raw)


def canonical_config(cfg):
    """Mapping that round-trips through validate_config to an equal config.

    Equal to dataclasses.asdict(cfg). Of its deep copy a validated config
    needs only the grid lists copied: every other field is a str, a
    number or None.
    """
    out = {name: getattr(cfg, name) for name in _FIELD_TYPES}
    for name in _GRID_BY_EXPERIMENT.values():
        out[name] = list(out[name])
    return out
