"""Property: every config validate_config accepts runs to a documented exit code."""

import csv
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from stepbias import cli
from stepbias.config import EXPERIMENTS, validate_config
from stepbias.errors import ValidationError

_rates = st.floats(0.01, 3.0)
_optional_rate = st.none() | _rates

# Small sizes and short grids keep each run to milliseconds.
_KEYS = {
    "seed": st.integers(0, 10_000),
    "n": st.integers(1, 12),
    "d": st.integers(1, 3),
    "n_test": st.integers(1, 20),
    "eta_grid": st.lists(_rates, min_size=1, max_size=3),
    "alpha_grid": st.lists(st.floats(1e-6, 0.99), min_size=1, max_size=3),
    "scale_grid": st.lists(st.floats(0.05, 20.0), min_size=1, max_size=3),
    "eta_small": _optional_rate,
    "eta_big": _optional_rate,
    "alpha": st.none() | st.floats(1e-12, 10.0),
    "lam": st.floats(0.0, 1.0),
    "scale": st.floats(0.05, 20.0),
    "sigma1": st.floats(0.01, 100.0),
    "sigma2": st.floats(0.01, 100.0),
    "instances": st.integers(1, 3),
}


@st.composite
def raw_configs(draw):
    raw = {"experiment": draw(st.sampled_from(EXPERIMENTS))}
    for key in draw(st.sets(st.sampled_from(sorted(_KEYS)))):
        raw[key] = draw(_KEYS[key])
    return raw


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(raw=raw_configs())
def test_accepted_configs_run_to_a_documented_exit_code(raw):
    try:
        validate_config(raw)
    except ValidationError:
        assume(False)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(dict(raw, output_dir=str(out_dir))))
        # An exception escaping main is the traceback the CLI must not give.
        code = cli.main(["run", "--config", str(path)])
        assert code in (0, 1, 2, 3)
        # inf is allowed (scale_sweep reports kappa = inf by design); nan never.
        for table in out_dir.glob("*.csv"):
            with open(table, newline="") as fh:
                for row in csv.reader(fh):
                    assert "nan" not in row, (table.name, row)
