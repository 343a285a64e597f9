"""Property: every config validate_config accepts runs to a documented exit code."""

import csv
import json
import math
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from stepbias import cli
from stepbias.config import EXPERIMENTS, validate_config
from stepbias.errors import ValidationError

# Every positive float: log-uniform from the least subnormal to the
# largest float, and the extremes on purpose.
_floats = st.floats(math.log(5e-324), math.log(sys.float_info.max)).map(math.exp)
_floats |= st.sampled_from((5e-324, 1e-300, 1e160, 1e300, 1.7e308))
_grid = st.lists(_floats, min_size=1, max_size=3)

# Small sizes and short grids keep each run to milliseconds.
_KEYS = {
    "seed": st.integers(0, 10_000),
    "n": st.integers(1, 12),
    "d": st.integers(1, 3),
    "n_test": st.integers(1, 20),
    "eta_grid": _grid,
    "alpha_grid": _grid,
    "scale_grid": _grid,
    "eta_small": st.none() | _floats,
    "eta_big": st.none() | _floats,
    "alpha": st.none() | _floats,
    "lam": st.just(0.0) | _floats,
    "scale": _floats,
    "sigma1": _floats,
    "sigma2": _floats,
    "instances": st.integers(1, 3),
}


# The experiments that read dataset_path.
_KERNEL_EXPERIMENTS = ("eta_sweep", "alpha_sweep", "scale_sweep")


@st.composite
def data_files(draw):
    """The text of a data file: 0 to 3 rows, d from 1 to 3, labels +-1."""
    d = draw(st.integers(1, 3))
    point = st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)
    rows = draw(st.lists(st.tuples(point, st.sampled_from((-1, 1))), max_size=3))
    lines = [",".join([*(f"x_{i + 1}" for i in range(d)), "label"])]
    lines += [",".join([*map(repr, xs), str(label)]) for xs, label in rows]
    return "\n".join(lines) + "\n"


@st.composite
def raw_configs(draw):
    """A raw config, and the text of its data file or None."""
    raw = {"experiment": draw(st.sampled_from(EXPERIMENTS))}
    for key in draw(st.sets(st.sampled_from(sorted(_KEYS)))):
        raw[key] = draw(_KEYS[key])
    data = None
    if raw["experiment"] in _KERNEL_EXPERIMENTS:
        data = draw(st.none() | data_files())
    return raw, data


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=raw_configs())
@example(case=({"experiment": "eta_sweep"}, "x_1,x_2,label\n0.5,0.1,1\n"))
# The first two crashed toy2d.thresholds: a leading factor that rounds to
# 1, and a target over sigma_1 that underflows to 0. The third ran on to a
# big-rate test loss of 0 and divided by it.
@example(case=({"experiment": "toy2d", "sigma2": 1e-300, "alpha": 1e-300}, None))
@example(case=({"experiment": "toy2d", "sigma1": 10, "sigma2": 0.2, "alpha": 5e-324}, None))
@example(case=({"experiment": "toy2d", "sigma2": 0.5, "eta_big": 1.5, "alpha": 5e-324}, None))
# Sweep rates whose step size eta_mult / sigma_1 overflows to inf or rounds to 0.
@example(case=({"experiment": "eta_sweep", "eta_grid": [1.3383999106150952e308]}, None))
@example(case=({"experiment": "alpha_sweep", "eta_big": 1.7e308}, None))
@example(case=({"experiment": "eta_sweep", "lam": 1e160, "eta_grid": [1e-300]}, None))
def test_accepted_configs_run_to_a_documented_exit_code(case):
    raw, data = case
    with tempfile.TemporaryDirectory() as tmp:
        if data is not None:
            data_path = Path(tmp) / "data.csv"
            data_path.write_text(data)
            raw = dict(raw, dataset_path=str(data_path))
        try:
            validate_config(raw)
        except ValidationError:
            assume(False)
        out_dir = Path(tmp) / "out"
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dict(raw, output_dir=str(out_dir))))
        # An exception escaping main is the traceback the CLI must not give,
        # and a warning is one too.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["run", "--config", str(path)])
        assert code in (0, 1, 2, 3)
        # inf is allowed (scale_sweep reports kappa = inf by design); nan never.
        for table in out_dir.glob("*.csv"):
            with open(table, newline="") as fh:
                for row in csv.reader(fh):
                    assert "nan" not in row, (table.name, row)
