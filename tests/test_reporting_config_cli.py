"""CSV/SVG emission, config validation, and the CLI contract."""

import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import stat
import warnings
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stepbias import cli, errors, experiments, reporting
from stepbias.config import (
    DEFAULT_ETA_GRID,
    EXPERIMENTS,
    ExperimentConfig,
    canonical_config,
    load_config,
    validate_config,
)
from stepbias.errors import IoError, ParseError, ValidationError
from stepbias.instances import random_instances
from stepbias.records import RegimeKind
from stepbias.reporting import (
    AxesSpec,
    Series,
    format_value,
    render_svg,
    write_csv,
)


# ---------------------------------------------------------------- reporting


def _field(text):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path):
    """A write_csv file as (schema, rows), each field a float where it parses as one."""
    with open(path, newline="") as fh:
        schema, *rows = csv.reader(fh)
    return schema, [[_field(v) for v in row] for row in rows]


def test_format_value():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(0.1) == "0.1"
    assert format_value(np.float64(0.1)) == "0.1"
    assert format_value(np.bool_(True)) == "true"
    assert format_value(3) == "3"
    assert format_value("x") == "x"
    assert format_value(-0.0) == "-0.0"
    assert format_value(np.float64(math.nan)) == "nan"
    assert format_value(np.float32(0.1)) == "0.10000000149011612"
    assert format_value(np.int64(-4)) == "-4"
    assert format_value(None) == "None"
    assert format_value(math.inf) == "inf"
    assert format_value(-math.inf) == "-inf"
    assert format_value(np.float64(-math.inf)) == "-inf"

    class Tagged(float):
        def __repr__(self):
            return "tagged"

        __str__ = __repr__

    # A float subclass prints as the float it holds.
    assert format_value(Tagged(0.25)) == "0.25"
    assert format_value(Tagged(-math.inf)) == "-inf"


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    rows = [
        (float(rng.normal()) * 10.0 ** int(rng.integers(-30, 30)), i, f"s{i}")
        for i in range(50)
    ]
    path = tmp_path / "t.csv"
    write_csv(list(zip(*rows)), ("value", "index", "name"), path)
    schema, back = read_csv(path)
    assert schema == ["value", "index", "name"]
    for row, got in zip(rows, back):
        assert got[0] == row[0]  # exact float round trip
        assert got[1] == float(row[1])
        assert got[2] == row[2]
    assert b"\r" not in path.read_bytes()


def test_csv_arity_and_io_errors(tmp_path):
    with pytest.raises(ValueError):
        write_csv([[1], [2]], ("a",), tmp_path / "x.csv")
    with pytest.raises(IoError):
        write_csv([[]], ("a",), tmp_path / "missing" / "x.csv")


def test_write_csv_formats_a_mixed_column_value_by_value(tmp_path):
    """A column of one exact builtin type and a mixed one read as format_value reads each value."""
    mixed = [1.5, np.float64(0.1), True, np.bool_(False), None, "a,b", 3, np.float32(0.25)]
    path = tmp_path / "mixed.csv"
    got = write_csv([mixed, [float(i) for i in range(len(mixed))]], ("mixed", "float"), path)
    want = "mixed,float\n" + "".join(
        f"{format_value(value)},{float(i)!r}\n" for i, value in enumerate(mixed)
    ).replace("a,b", '"a,b"')
    assert got == path.read_bytes() == want.encode()
    assert got.splitlines()[1:6] == [b"1.5,0.0", b"0.1,1.0", b"true,2.0", b"false,3.0", b"None,4.0"]


def test_write_csv_of_no_rows_writes_the_header(tmp_path):
    assert write_csv([[], []], ("a", "b"), tmp_path / "empty.csv") == b"a,b\n"
    assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


def test_write_csv_refuses_a_short_column_before_writing(tmp_path):
    """zip would cut every column to the shortest; the length and count checks name it first."""
    path = tmp_path / "short.csv"
    with pytest.raises(ValueError, match="^column 'b' has 1 values, column 'a' has 2$"):
        write_csv([[1.0, 2.0], [1.0]], ("a", "b"), path)
    with pytest.raises(ValueError, match="^column 'b' has 3 values, column 'a' has 2$"):
        write_csv([[1.0, 2.0], [1.0, 2.0, 3.0]], ("a", "b"), path)
    with pytest.raises(ValueError, match="^1 columns, schema has 2$"):
        write_csv([[1.0, 2.0]], ("a", "b"), path)
    with pytest.raises(ValueError, match="^3 columns, schema has 2$"):
        write_csv([[1.0], [2.0], [3.0]], ("a", "b"), path)
    assert not path.exists()


def test_write_bytes_writes_a_large_payload_whole(tmp_path):
    text = "".join(f"{i},é\n" for i in range(200_000))
    data = reporting.write_bytes(text, tmp_path / "big.csv")
    assert len(data) > 1 << 20
    assert data == text.encode("utf-8") == (tmp_path / "big.csv").read_bytes()


def test_write_bytes_truncates_a_longer_file(tmp_path):
    path = tmp_path / "old.csv"
    path.write_bytes(b"x" * 10_000)
    assert reporting.write_bytes("short\n", path) == b"short\n"
    assert path.read_bytes() == b"short\n"


def test_write_bytes_creates_files_with_the_mode_open_gives(tmp_path):
    current = os.umask(0o022)
    os.umask(current)
    for k, umask in enumerate((current, 0o027, 0o077)):
        ours, theirs = tmp_path / f"ours{k}", tmp_path / f"theirs{k}"
        previous = os.umask(umask)
        try:
            reporting.write_bytes("a\n", ours)
            with open(theirs, "wb") as fh:
                fh.write(b"a\n")
        finally:
            os.umask(previous)
        mode = stat.S_IMODE(ours.stat().st_mode)
        assert mode == stat.S_IMODE(theirs.stat().st_mode) == 0o666 & ~umask


def test_write_bytes_into_a_missing_directory_is_an_io_error(tmp_path, monkeypatch, capsys):
    with pytest.raises(IoError, match="No such file or directory"):
        reporting.write_bytes("a\n", tmp_path / "missing" / "x.csv")
    # Through the CLI, with the output directory left uncreated: exit 3.
    monkeypatch.setattr(experiments.os, "makedirs", lambda *args, **kwargs: None)
    path = _write_cfg(tmp_path, experiment="toy2d")
    out = tmp_path / "missing" / "out"
    assert cli.main(["run", "--config", str(path), "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "No such file or directory" in err and "Traceback" not in err


def test_render_svg_deterministic(tmp_path):
    series = [Series("a", (0.0, 1.0, 2.0), (1.0, 4.0, 9.0))]
    axes = AxesSpec(title="t", xlabel="x", ylabel="y", vlines=(0.5,))
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(series, axes, p1)
    render_svg(series, axes, p2)
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    text = data.decode()
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 1
    assert "stroke-dasharray" in text  # the vline
    assert "t</text>" in text


def test_render_svg_leaves_out_non_finite_points(tmp_path):
    axes = AxesSpec(title="t", vlines=(0.5, float("inf")))
    with_gaps = [
        Series("a", (0.0, 1.0, 2.0, float("nan")), (1.0, float("inf"), 9.0, 3.0)),
        Series("b", (0.0, 2.0), (float("-inf"), 2.0)),
    ]
    finite = [Series("a", (0.0, 2.0), (1.0, 9.0)), Series("b", (2.0,), (2.0,))]
    render_svg(with_gaps, AxesSpec(title="t", vlines=(0.5,)), tmp_path / "f.svg")
    render_svg(with_gaps, axes, tmp_path / "g.svg")
    render_svg(finite, AxesSpec(title="t", vlines=(0.5,)), tmp_path / "h.svg")
    data = (tmp_path / "g.svg").read_bytes()
    assert data == (tmp_path / "f.svg").read_bytes() == (tmp_path / "h.svg").read_bytes()
    assert b"nan" not in data and b"inf" not in data


def test_render_svg_without_finite_points_uses_a_unit_range(tmp_path):
    series = [Series("a", (1.0, 2.0), (float("inf"), float("nan")))]
    render_svg(series, AxesSpec(log_y=True), tmp_path / "a.svg")
    text = (tmp_path / "a.svg").read_text()
    assert 'points=""' in text and "nan" not in text
    # One huge x value: adding 1.0 to it would not widen the axis range.
    render_svg([Series("a", (1e300,), (0.5,))], AxesSpec(), tmp_path / "b.svg")
    assert 'points="60.000,420.000"' in (tmp_path / "b.svg").read_text()


def test_render_svg_range_wider_than_the_largest_float(tmp_path):
    # hi - lo overflows to inf on this y axis and on the x axis.
    render_svg([Series("a", (0.0, 1.0), (-1e308, 1e308))], AxesSpec(), tmp_path / "a.svg")
    render_svg(
        [Series("a", (-1.5e308, 1.5e308, 0.0), (1.0, 2.0, 3.0))],
        AxesSpec(vlines=(1e308,)),
        tmp_path / "b.svg",
    )
    for name in ("a.svg", "b.svg"):
        text = (tmp_path / name).read_text()
        assert "nan" not in text and "inf" not in text
        coords = re.search(r'<polyline [^>]*points="([^"]*)"', text).group(1)
        for pair in coords.split():
            x, y = (float(v) for v in pair.split(","))
            assert 60.0 <= x <= 580.0 and 60.0 <= y <= 420.0
    assert 'points="60.000,420.000 580.000,60.000"' in (tmp_path / "a.svg").read_text()


def _per_point_polylines(series, axes):
    """The points attribute of each polyline, mapping and formatting one float at a time."""

    def axis_range(values):
        if not values:
            return 0.0, 1.0
        lo, hi = min(values), max(values)
        return (lo, max(lo + 1.0, math.nextafter(lo, math.inf)) if hi == lo else hi)

    def unit(v, lo, hi):
        if math.isfinite(hi - lo):
            return (v - lo) / (hi - lo)
        return (v / 2 - lo / 2) / (hi / 2 - lo / 2)

    points = []
    for s in series:
        pts = []
        for x, y in zip(s.xs, s.ys):
            x, y = float(x), float(y)
            if axes.log_y:
                y = math.log10(max(y, 1e-300))
            if math.isfinite(x) and math.isfinite(y):
                pts.append((x, y))
        points.append(pts)
    vlines = [float(v) for v in axes.vlines if math.isfinite(float(v))]
    x_lo, x_hi = axis_range([x for pts in points for x, _ in pts] + vlines)
    y_lo, y_hi = axis_range([y for pts in points for _, y in pts])
    return [
        " ".join(
            f"{60.0 + unit(x, x_lo, x_hi) * 520.0:.3f},{420.0 - unit(y, y_lo, y_hi) * 360.0:.3f}"
            for x, y in pts
        )
        for pts in points
    ]


def test_render_svg_coordinates_match_the_per_point_mapping(tmp_path):
    """Each polyline holds the points of mapping and formatting one float at a time."""
    rng = np.random.default_rng(7)
    cases = [
        (
            [
                Series(f"s{i}", tuple(rng.uniform(-3, 5, 50)), tuple(rng.lognormal(0, 4, 50)))
                for i in range(3)
            ],
            AxesSpec(log_y=True, vlines=(0.25,)),
        ),
        ([Series("a", tuple(rng.normal(size=40) * 1e5), tuple(rng.normal(size=40)))], AxesSpec()),
        ([Series("a", (-1.5e308, 1.5e308, 0.0), (1.0, 2.0, -1e308))], AxesSpec()),
        # Integer and numpy xs, unequal lengths, gaps, an empty series and
        # y values at and below the log floor.
        (
            [
                Series("a", tuple(range(6)), (1.0, 0.0, -2.0, 1e-300, math.nan, 3.0, 9.0)),
                Series("b", (), ()),
                Series("c", tuple(np.arange(4)), (math.inf, 2.0, 5e-301, 4.0)),
            ],
            AxesSpec(log_y=True, vlines=(math.inf, 7.5)),
        ),
    ]
    for k, (series, axes) in enumerate(cases):
        path = tmp_path / f"{k}.svg"
        render_svg(series, axes, path)
        got = re.findall(r'<polyline [^>]*points="([^"]*)"', path.read_text())
        assert got == _per_point_polylines(series, axes)


def test_svg_coordinates_format_like_str_format():
    """The one-pass formatting writes what "{:.3f}" writes, -0.000 included."""
    flat = [-0.0004, 1e-4, -0.0, 419.9995, 59.99949999, -1e-300, 123.4565, math.nan]
    want = " ".join(
        "{:.3f},{:.3f}".format(*flat[i:i + 2]) for i in range(0, len(flat), 2)
    )
    assert reporting._points_attr(flat) == want
    assert want.startswith("-0.000,0.000 -0.000,")
    assert reporting._points_attr([]) == ""


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_written_svg_is_well_formed_xml(experiment, tmp_path):
    """Escaped text keeps each figure parseable, eta_sweep's |<theta - ...>| legend included."""
    raw = {"experiment": experiment, "n": 20, "n_test": 20, "instances": 2,
           "output_dir": str(tmp_path)}
    manifest = experiments.run_experiment(validate_config(raw))
    svgs = [f["path"] for f in manifest["files"] if f["path"].endswith(".svg")]
    assert svgs
    for name in svgs:
        root = ElementTree.parse(tmp_path / name).getroot()
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
    if experiment == "eta_sweep":
        texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "|<theta - theta_hat, e_1>|" in texts


def _attenuation_spectra():
    """Descending spectra with sigma_1 < 210, so 0.01 < 2.1/sigma_1.

    Random ones of n = 2..8 over four decades, then pinned ones: a kink
    below 0.01 (sigma_i > 100), kinks past 2.1/sigma_1, and kinks within
    a few ulps of either end.
    """
    rng = np.random.default_rng(21)
    spectra = [
        np.sort(10.0 ** rng.uniform(-2.0, 2.0, size=n))[::-1]
        for n in (2, 2, 3, 4, 5, 8, 8)
    ]
    spectra.append(np.array([150.0, 120.0, 60.0, 0.5]))
    for top in (1.0, 3.7, 150.0):
        hi = 2.1 / top
        near = [1.0 / (0.01 + k * math.ulp(0.01)) for k in range(-3, 4)]
        near += [1.0 / (hi + k * math.ulp(hi)) for k in range(-3, 4)]
        spectra.append(np.array([top, *sorted((s for s in near if s < top), reverse=True)]))
    return spectra


@pytest.mark.parametrize("sigma", _attenuation_spectra())
def test_attenuation_series_are_exact_through_each_kink(sigma):
    lo, hi = 0.01, 2.1 / sigma[0]
    series = experiments._attenuation_series(sigma)
    assert [s.name for s in series] == [f"sigma_{i + 1}" for i in range(sigma.size)]
    grid = np.linspace(lo, hi, 2000)
    for s, sig in zip(series, sigma):
        assert len(s.xs) in (2, 3) and len(s.ys) == len(s.xs)
        assert s.xs[0] == lo and s.xs[-1] == hi
        assert all(a < b for a, b in zip(s.xs, s.xs[1:]))
        assert (len(s.xs) == 3) == (lo < 1.0 / sig < hi)
        want = np.abs(1.0 - grid * sig)
        assert np.max(np.abs(np.interp(grid, s.xs, s.ys) - want)) <= 1e-12


def test_default_attenuation_figure_draws_each_eigenvalue_of_instance_0(tmp_path):
    cfg = validate_config({"experiment": "quadratic_certify", "output_dir": str(tmp_path)})
    experiments.run_experiment(cfg)
    spec = random_instances([experiments.stream(cfg.seed, "certify-0")])[0].pair.train.spectrum
    root = ElementTree.parse(tmp_path / "attenuation.svg").getroot()
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    assert len(lines) == spec.n
    for line, s in zip(lines, experiments._attenuation_series(spec.eigenvalues)):
        assert len(line.get("points").split()) == len(s.xs)


def test_svg_text_is_escaped(tmp_path):
    axes = AxesSpec(title="a & b", xlabel="x < 1", ylabel="y > 2")
    render_svg([Series("<s> & </s>", (0.0, 1.0), (0.0, 1.0))], axes, tmp_path / "a.svg")
    text = (tmp_path / "a.svg").read_text()
    assert "a &amp; b</text>" in text and "x &lt; 1</text>" in text and "y &gt; 2</text>" in text
    assert "&lt;s&gt; &amp; &lt;/s&gt;</text>" in text
    ElementTree.parse(tmp_path / "a.svg")


def test_render_svg_needs_series(tmp_path):
    with pytest.raises(ValueError):
        render_svg([], AxesSpec(), tmp_path / "x.svg")


# ------------------------------------------------------------------ config


def test_validate_config_defaults():
    cfg = validate_config({"experiment": "eta_sweep"})
    assert cfg.seed == 0
    assert tuple(cfg.eta_grid) == DEFAULT_ETA_GRID
    assert cfg.output_dir == "out"


@pytest.mark.parametrize(
    "raw",
    [
        {},
        {"experiment": "nope"},
        {"experiment": "eta_sweep", "bogus": 1},
        {"experiment": "eta_sweep", "seed": "zero"},
        {"experiment": "eta_sweep", "seed": True},
        {"experiment": "eta_sweep", "n": 0},
        {"experiment": "eta_sweep", "lam": -1.0},
        {"experiment": "eta_sweep", "seed": -5},
        {"experiment": "toy2d", "sigma1": 0.1, "sigma2": 0.2},
        {"experiment": "eta_sweep", "eta_grid": []},
        {"experiment": "eta_sweep", "eta_grid": [0.5, -1.0]},
        {"experiment": "alpha_sweep", "alpha_grid": [0.1, "x"]},
        {"experiment": "alpha_sweep", "alpha_grid": [0.5, 1.0]},
        {"experiment": "toy2d", "alpha": float("nan")},
        {"experiment": "toy2d", "alpha": -1e-8},
        {"experiment": "toy2d", "sigma1": float("inf")},
        {"experiment": "alpha_sweep", "eta_big": 0.0},
        {"experiment": "eta_sweep", "lam": float("nan")},
        {"experiment": "eta_sweep", "eta_grid": [0.5, float("inf")]},
        {"experiment": "scale_sweep", "scale_grid": [float("nan")]},
        {"experiment": "toy2d", "alpha_grid": [float("-inf")]},
        "not a dict",
    ],
)
def test_validate_config_rejects(raw):
    with pytest.raises(ValidationError):
        validate_config(raw)


FLOAT_FIELDS = {"eta_small", "eta_big", "alpha", "lam", "scale", "sigma1", "sigma2"}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ExperimentConfig)])
def test_config_field_types(name):
    # The types come from ExperimentConfig's annotations.
    base = {"experiment": "eta_sweep"}
    with pytest.raises(ValidationError):
        validate_config({**base, name: True})
    if name in FLOAT_FIELDS:
        assert validate_config({**base, name: 1}) == validate_config({**base, name: 1.0})
    else:
        with pytest.raises(ValidationError):
            validate_config({**base, name: 1.0})


def test_config_file_roundtrip(tmp_path):
    cfg = validate_config({"experiment": "toy2d", "seed": 7, "sigma2": 0.1})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(canonical_config(cfg)))
    back = load_config(path)
    assert back == cfg
    assert validate_config(canonical_config(cfg)) == cfg


@pytest.mark.parametrize(
    "raw",
    [
        {"experiment": "toy2d"},
        {"experiment": "eta_sweep", "seed": 3, "dataset_path": "d.csv", "eta_grid": [0.5, 1]},
        {"experiment": "alpha_sweep", "alpha": 1e-3, "alpha_grid": [0.1], "eta_big": 1.9},
    ],
)
def test_canonical_config_is_asdict_with_its_own_lists(raw):
    cfg = validate_config(raw)
    got = canonical_config(cfg)
    assert got == dataclasses.asdict(cfg)
    assert list(got) == [f.name for f in dataclasses.fields(cfg)]
    for name in ("eta_grid", "alpha_grid", "scale_grid"):
        before = list(getattr(cfg, name))
        got[name].append(99.0)
        got[name][0] = -1.0
        assert getattr(cfg, name) == before
    assert canonical_config(cfg) == dataclasses.asdict(cfg)


def test_load_config_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ParseError) as err:
        load_config(path)
    assert "line 2" in str(err.value)


# --------------------------------------------------------------------- CLI


def _write_cfg(tmp_path, **kw):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(kw))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = _write_cfg(tmp_path, experiment="filter_profiles")
    assert cli.main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "\x1b" not in out  # no color on a pipe


def test_cli_run_writes_outputs(tmp_path, capsys):
    path = _write_cfg(tmp_path, experiment="filter_profiles")
    out_dir = tmp_path / "results"
    assert cli.main(["run", "--config", path, "--output-dir", str(out_dir)]) == 0
    assert (out_dir / "filter_profiles.csv").exists()
    assert (out_dir / "filter_profiles.svg").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert {e["path"] for e in manifest["files"]} == {
        "filter_profiles.csv",
        "filter_profiles.svg",
    }
    assert capsys.readouterr().out.count("wrote ") == 3


def test_cli_seed_override(tmp_path):
    path = _write_cfg(tmp_path, experiment="scale_sweep", n=30)
    out_dir = tmp_path / "o"
    assert cli.main(["run", "--config", path, "--output-dir", str(out_dir), "--seed", "3"]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_cli_exit_code_validation(tmp_path, capsys):
    path = _write_cfg(tmp_path, experiment="nope")
    assert cli.main(["run", "--config", path]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["run", "--config", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_exit_code_certification(tmp_path, capsys):
    # A level-set target too close to the initial loss has no feasible
    # step window on the 2-D toy.
    path = _write_cfg(tmp_path, experiment="toy2d", alpha=0.4)
    out_dir = tmp_path / "o"
    assert cli.main(["run", "--config", path, "--output-dir", str(out_dir)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_rejects_non_finite_json_numbers(tmp_path, capsys):
    # JSON's NaN and Infinity literals must not reach the experiments.
    for text in (
        '{"experiment": "toy2d", "alpha": NaN}',
        '{"experiment": "eta_sweep", "eta_grid": [Infinity]}',
    ):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path), "--output-dir", str(tmp_path / "o")]) == 1
        assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_maps_library_refusals_without_traceback(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"experiment": "toy2d", "output_dir": "\u00e9"}'.encode("latin-1"))
    assert cli.main(["validate", "--config", str(bad)]) == 1
    path = _write_cfg(tmp_path, experiment="alpha_sweep", n=20, alpha_grid=[2.0])
    assert cli.main(["run", "--config", path, "--output-dir", str(tmp_path / "o")]) == 1
    # lam = 0 leaves the kernel system singular.
    path = _write_cfg(tmp_path, experiment="eta_sweep", n=50, lam=0.0)
    assert cli.main(["run", "--config", path, "--output-dir", str(tmp_path / "o")]) == 2
    # A negative seed, from the file or the command line, is a config error.
    path = _write_cfg(tmp_path, experiment="filter_profiles")
    assert cli.main(["run", "--config", path, "--seed", "-5"]) == 1
    assert capsys.readouterr().err.count("error: ") == 4


_HEADER = b"x_1,x_2,label\n0.0,0.0,1\n"


@pytest.mark.parametrize(
    "command, name, data, message",
    [
        ("run", "data.csv", _HEADER + b"0.5,\xff,-1\n", "not UTF-8 text"),
        # csv's default field size limit is 131,072 characters.
        ("run", "data.csv", _HEADER + b"1" * 131_073 + b",0.0,-1\n", "line 3: field larger"),
        ("validate", "deep.json", b"[" * 200_000 + b"]" * 200_000, "nested too deeply"),
    ],
    ids=["non-utf8-data", "oversized-data-field", "deeply-nested-config"],
)
def test_cli_maps_unreadable_input_files_to_exit_1(tmp_path, capsys, command, name, data, message):
    target = tmp_path / name
    target.write_bytes(data)
    if command == "validate":
        path = str(target)
    else:
        path = _write_cfg(tmp_path, experiment="eta_sweep", dataset_path=str(target))
    assert cli.main([command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.count("error: ") == 1 and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, echo",
    [
        (json.dumps({"experiment": "toy2d", "seed": list(range(100_000))}), "[0, 1, 2, 3, ...]"),
        ('{"experiment": "toy2d", "seed": ' + "[" * 900 + "]" * 900 + "}", "[[...]]"),
    ],
    ids=["long-list", "deep-list"],
)
def test_cli_config_error_echoes_a_bounded_value(tmp_path, capsys, text, echo):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["validate", "--config", str(path)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 200
    assert lines[0] == f"error: seed: expected int, got {echo}"


def test_cli_huge_finite_step_size_writes_diverged_run(tmp_path, capsys):
    # eta = 1e300 / sigma_1 diverges at step 1 with a Hilbert norm near the
    # largest float; the SVG leaves a non-finite point out instead of crashing.
    path = _write_cfg(tmp_path, experiment="eta_sweep", n=20, eta_grid=[1e300])
    out_dir = tmp_path / "o"
    assert cli.main(["run", "--config", path, "--output-dir", str(out_dir)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    _, rows = read_csv(out_dir / "eta_sweep.csv")
    assert rows[0][3] == "Diverged"
    proj_e1, hilbert_norm = rows[0][4], rows[0][5]
    assert hilbert_norm == float("inf") or hilbert_norm >= proj_e1
    assert "nan" not in (out_dir / "eta_sweep.svg").read_text()


def test_cli_huge_finite_step_size_reports_a_finite_hilbert_norm(tmp_path, capsys):
    # mu * mu overflows, the norm itself does not.
    path = _write_cfg(tmp_path, experiment="eta_sweep", n=20, eta_grid=[1e300])
    out_dir = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", "--config", path, "--output-dir", str(out_dir)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    _, rows = read_csv(out_dir / "eta_sweep.csv")
    proj_e1, hilbert_norm = rows[0][4], rows[0][5]
    assert math.isfinite(hilbert_norm) and hilbert_norm >= proj_e1 > 1e299


def _stepbias_errors(cls=errors.StepbiasError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _stepbias_errors(sub)


# The exit codes documented in the cli docstring and the README.
_DOCUMENTED_EXIT = {errors.ParseError: 1, errors.ValidationError: 1, errors.IoError: 3}


@pytest.mark.parametrize("exc", list(_stepbias_errors()), ids=lambda e: e.__name__)
def test_cli_every_stepbias_error_has_an_exit_code(exc, tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise exc("boom")

    monkeypatch.setattr(cli, "run_experiment", fail)
    path = _write_cfg(tmp_path, experiment="filter_profiles")
    assert cli.main(["run", "--config", path]) == _DOCUMENTED_EXIT.get(exc, 2)
    assert "error: boom" in capsys.readouterr().err


def test_cli_maps_memory_error_to_exit_2(tmp_path, monkeypatch, capsys):
    # As {"experiment": "eta_sweep", "n": 3000000} does: its n x n train
    # kernel cannot be allocated.
    def fail(cfg):
        raise MemoryError("Unable to allocate 65.5 TiB")

    monkeypatch.setattr(cli, "run_experiment", fail)
    path = _write_cfg(tmp_path, experiment="eta_sweep")
    assert cli.main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "error: out of memory: Unable to allocate 65.5 TiB" in err
    assert "Traceback" not in err


def test_cli_exit_code_io(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_manifest_hashes_match_files(tmp_path):
    path = _write_cfg(tmp_path, experiment="toy2d")
    out_dir = tmp_path / "o"
    assert cli.main(["run", "--config", path, "--output-dir", str(out_dir)]) == 0
    import hashlib

    manifest = json.loads((out_dir / "manifest.json").read_text())
    for entry in manifest["files"]:
        digest = hashlib.sha256((out_dir / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]
    assert manifest["config"]["experiment"] == "toy2d"


@pytest.mark.parametrize(
    "raw",
    [
        # The second fraction times the initial excess loss underflows.
        {"experiment": "alpha_sweep", "n": 20, "alpha_grid": [0.5, 5e-324]},
    ],
)
def test_cli_underflowed_level_set_target_is_a_refusal(raw, tmp_path, capsys):
    path = _write_cfg(tmp_path, **raw)
    assert cli.main(["run", "--config", path, "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "level-set target" in err and "underflows to 0.0" in err
    assert "Traceback" not in err


def test_cli_overflowing_ridge_shift_is_a_refusal(tmp_path, capsys):
    # n (sigma + lam) overflows at n = 20: the ridge system is refused
    # before its coefficients are formed.
    path = _write_cfg(tmp_path, experiment="eta_sweep", n=20, lam=1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", "--config", path, "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "n (sigma + lam) overflows at n = 20, lam = 1.7e+308" in err
    assert "Traceback" not in err and "RuntimeWarning" not in err


@pytest.mark.parametrize(
    "raw",
    [
        {"experiment": "eta_sweep", "n": 20, "lam": 1e300},
        {"experiment": "eta_sweep", "n": 20, "lam": 1e200},
        {"experiment": "alpha_sweep", "n": 20, "lam": 1e300},
        {"experiment": "alpha_sweep", "n": 20, "lam": 1e200},
    ],
)
def test_cli_huge_lam_keeps_a_positive_level_set_target(raw, tmp_path, capsys):
    # The initial excess loss sits near 1e-201 or 1e-301, far above the
    # smallest float, and so does every target.
    path = _write_cfg(tmp_path, **raw)
    out_dir = tmp_path / "o"
    assert cli.main(["run", "--config", path, "--output-dir", str(out_dir)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    _, rows = read_csv(out_dir / f"{raw['experiment']}.csv")
    assert rows and all(math.isfinite(v) for row in rows for v in row if not isinstance(v, str))
    if raw["experiment"] == "alpha_sweep":
        assert all(row[1] > 0 for row in rows)
    else:
        assert all(row[3] == "HitLevelSet" for row in rows)


_FIELD_VALUES = [
    0.1, -0.0, 0.0, math.inf, -math.inf, math.nan, 1e-320, 1.7976931348623157e308,
    np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float32(0.1), np.float16(2.5),
    True, False, np.bool_(True), np.bool_(False),
    0, -7, 2**70, np.int64(3), np.int32(-4),
    "", "x", "a,b", 'say "hi"', "two\nlines", " lead", "é",
    None, RegimeKind.BIG,
]


def test_write_csv_matches_a_csv_writer_on_the_file(tmp_path):
    """One formatted write gives the bytes of csv.writer writing row by row."""
    rows = [tuple(_FIELD_VALUES[i:i + 4]) for i in range(0, len(_FIELD_VALUES) - 3)]
    rows += [("",), ("only",)]
    for k, group in enumerate((rows[:-2], rows[-2:])):
        schema = ("a", "b", "c", "d")[: len(group[0])]
        got = write_csv(list(zip(*group)), schema, tmp_path / f"got{k}.csv")
        assert got == _csv_writer_bytes(group, schema) == (tmp_path / f"got{k}.csv").read_bytes()


def _csv_writer_bytes(rows, schema):
    """What csv.writer(lineterminator="\\n") writes for schema, then rows formatted by format_value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema)
    writer.writerows([format_value(v) for v in row] for row in rows)
    return buf.getvalue().encode("utf-8")


_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\r"), max_size=6)
_COLUMN_VALUES = st.sampled_from([
    _TEXT, st.floats(), st.integers(), st.booleans(),
    st.one_of(_TEXT, st.floats(), st.integers(), st.booleans()),
])


@st.composite
def _csv_tables(draw):
    """(schema, columns): 1-4 columns of 0-5 text, float, int, bool or mixed values.

    Header names are any text: empty, repeated or holding quotes.
    """
    kinds = draw(st.lists(_COLUMN_VALUES, min_size=1, max_size=4))
    schema = tuple(draw(_TEXT) for _ in kinds)
    size = draw(st.integers(0, 5))
    return schema, [draw(st.lists(kind, min_size=size, max_size=size)) for kind in kinds]


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(table=_csv_tables())
def test_write_csv_writes_the_bytes_of_a_csv_writer(table, tmp_path):
    """Without '\\r', write_csv's quoting is csv.writer's, header and one-field rows included."""
    schema, columns = table
    want = _csv_writer_bytes(list(zip(*columns)), schema)
    assert write_csv(columns, schema, tmp_path / "t.csv") == want


def test_write_csv_quotes_carriage_returns_and_lone_empty_fields(tmp_path):
    """'\\r' is quoted on every Python (csv.writer only from 3.13), and so is a lone empty field."""
    path = tmp_path / "t.csv"
    assert write_csv([["cr\rhere"], [1.0]], ("a", "b"), path) == b'a,b\n"cr\rhere",1.0\n'
    assert write_csv([["", "x", ""]], ("a",), path) == b'a\n""\nx\n""\n'
    assert write_csv([[""]], ("",), path) == b'""\n""\n'
    assert write_csv([[""], [""]], ("a,b", 'q"'), path) == b'"a,b","q"""\n,\n'
    assert path.read_bytes() == b'"a,b","q"""\n,\n'


@pytest.mark.parametrize("experiment", sorted(experiments._RUNNERS))
def test_manifest_hashes_the_files_on_disk(experiment, tmp_path):
    """Each file's hash, taken from the bytes written, is the SHA-256 of the file."""
    import hashlib

    out_dir = tmp_path / "o"
    manifest = experiments.run_experiment(
        validate_config({"experiment": experiment, "output_dir": str(out_dir)})
    )
    assert len(manifest["files"]) == 2
    for entry in manifest["files"]:
        assert entry["sha256"] == hashlib.sha256((out_dir / entry["path"]).read_bytes()).hexdigest()
    on_disk = (out_dir / "manifest.json").read_bytes()
    assert on_disk == (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    assert json.loads(on_disk) == manifest


# Each experiment's figure: the column of its table every series takes
# as xs, and the column each series in turn takes as ys.
FIGURE_COLUMNS = {
    "eta_sweep": ("eta_mult", ["proj_e1", "hilbert_norm", "accuracy"]),
    "alpha_sweep": ("alpha_fraction", ["accuracy_small", "accuracy_big"]),
    "scale_sweep": ("scale", ["kappa", "kappa_regularized"]),
    "filter_profiles": ("sigma", [name for name, _ in experiments.FIG5_FILTERS]),
}


@pytest.mark.parametrize("experiment", sorted(FIGURE_COLUMNS))
def test_each_figure_draws_columns_of_the_table_written_beside_it(
    experiment, tmp_path, monkeypatch
):
    calls = []

    def recording(real):
        def record(data, spec, path):
            calls.append((data, spec))
            return real(data, spec, path)
        return record

    monkeypatch.setattr(experiments, "write_csv", recording(reporting.write_csv))
    monkeypatch.setattr(experiments, "render_svg", recording(reporting.render_svg))
    raw = {"experiment": experiment, "output_dir": str(tmp_path)}
    if experiment == "eta_sweep":
        raw["n"] = 20
    experiments.run_experiment(validate_config(raw))
    (columns, schema), (series, _) = calls
    table = dict(zip(schema, columns))
    assert len(table) == len(schema)
    file_schema, rows = read_csv(tmp_path / f"{experiment}.csv")
    assert file_schema == list(schema)
    # The file holds the captured columns, each field read back as the value written.
    assert [list(column) for column in zip(*rows)] == [list(column) for column in columns]
    x, ys = FIGURE_COLUMNS[experiment]
    assert len(series) == len(ys)
    for s, y in zip(series, ys):
        assert list(s.xs) == list(table[x]) and list(s.ys) == list(table[y])


@pytest.mark.parametrize("experiment", sorted(experiments._RUNNERS))
def test_an_op_leaves_no_cyclic_garbage(experiment, tmp_path):
    cfg = validate_config({"experiment": experiment, "output_dir": str(tmp_path)})
    experiments.run_experiment(cfg)  # first-call caches are not garbage
    gc.collect()
    gc.disable()
    try:
        experiments.run_experiment(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "manifest",
    [
        {"config": {"output_dir": "sortie/été/日本", "eta_grid": [], "alpha": None,
                    "eta_small": None, "seed": 0, "lam": 1e-06, "n": 2**70,
                    "flag": True, "off": False, "scale": -0.0, "big": 1.7976931348623157e308},
         "files": [], "experiment": "eta_sweep", "seed": 3},
        {"files": [{"path": "a \"q\"\n.csv", "sha256": "00"}], "empty": {}, "nested": [[1, 2.5], []]},
        {},
        [],
    ],
)
def test_manifest_text_is_json_dumps(manifest):
    assert experiments._json_text(manifest) == json.dumps(manifest, indent=2, sort_keys=True)
