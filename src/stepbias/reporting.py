"""Deterministic CSV and SVG emission for experiment outputs."""

import csv
import io
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IoError


def format_value(value):
    """Shortest round-trip text for a CSV field."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_bytes(text, path):
    """Write text to path as UTF-8 in one call; return the bytes written."""
    data = text.encode("utf-8")
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return data


def write_csv(rows, schema, path):
    """Write rows under a header; floats print shortest-round-trip.

    RFC-4180-style quoting, '\\n' line endings, no locale formatting.
    Every row must match the schema arity. Returns the bytes written.
    """
    for i, row in enumerate(rows):
        if len(row) != len(schema):
            raise ValueError(
                f"row {i} has {len(row)} fields, schema has {len(schema)}"
            )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(schema)
    writer.writerows([format_value(v) for v in row] for row in rows)
    return write_bytes(buf.getvalue(), path)


def read_csv(path):
    """Reload a write_csv file as (schema, rows of floats-or-strings)."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            schema = next(reader)
            rows = []
            for raw in reader:
                row = []
                for v in raw:
                    try:
                        row.append(float(v))
                    except ValueError:
                        row.append(v)
                rows.append(row)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return schema, rows


@dataclass(frozen=True)
class Series:
    name: str
    xs: tuple
    ys: tuple


@dataclass(frozen=True)
class AxesSpec:
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    vlines: tuple = field(default_factory=tuple)
    log_y: bool = False


_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")
_WIDTH, _HEIGHT = 640.0, 480.0
_MARGIN = 60.0


def _coord(v):
    return f"{v:.3f}"


def _span(values):
    """(lo, hi) of a float array, widened to a non-empty range; (0, 1) if empty."""
    if not values.size:
        return 0.0, 1.0
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        # nextafter keeps the range open where 1.0 is absorbed (|lo| >= 2**53).
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))
    return lo, hi


def _finite_points(s, axes):
    """(xs, ys on the axis scale) of the points with a finite place on the axes.

    Two float arrays; points pair up as zip(s.xs, s.ys) does. The log of
    a log_y axis is math.log10, one value at a time.
    """
    count = min(len(s.xs), len(s.ys))
    xs = np.array(s.xs[:count], dtype=float)
    if axes.log_y:
        ys = np.array([math.log10(max(float(y), 1e-300)) for y in s.ys[:count]], dtype=float)
    else:
        ys = np.array(s.ys[:count], dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    return xs[keep], ys[keep]


def _unit(lo, hi):
    """Map [lo, hi] onto [0, 1].

    When hi - lo overflows, every operand is halved first, so a range
    wider than the largest float still maps finite values to finite
    coordinates.
    """
    span = hi - lo
    if math.isfinite(span):
        return lambda v: (v - lo) / span
    half_lo = lo / 2
    half_span = hi / 2 - half_lo
    return lambda v: (v / 2 - half_lo) / half_span


def render_svg(series, axes, path):
    """Standalone SVG: one polyline per series, axes, legend.

    Points with a non-finite coordinate (after the log for log_y axes)
    are left out of the axis ranges and the polylines. Output bytes
    depend only on the inputs, so re-rendering the same data is
    byte-identical. Returns the bytes written.
    """
    series = list(series)
    if not series:
        raise ValueError("render_svg needs at least one series")
    points = [_finite_points(s, axes) for s in series]
    vlines = [float(v) for v in axes.vlines if math.isfinite(float(v))]
    xs = np.concatenate([x for x, _ in points])
    ys = np.concatenate([y for _, y in points])
    x_unit = _unit(*_span(np.concatenate([xs, vlines])))
    y_unit = _unit(*_span(ys))

    def px(x):
        return _MARGIN + x_unit(x) * (_WIDTH - 2 * _MARGIN)

    def py(y):
        return _HEIGHT - _MARGIN - y_unit(y) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
        f'height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
        f'<rect width="{int(_WIDTH)}" height="{int(_HEIGHT)}" fill="white"/>',
        f'<line x1="{_coord(_MARGIN)}" y1="{_coord(_HEIGHT - _MARGIN)}" '
        f'x2="{_coord(_WIDTH - _MARGIN)}" y2="{_coord(_HEIGHT - _MARGIN)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_coord(_MARGIN)}" y1="{_coord(_MARGIN)}" '
        f'x2="{_coord(_MARGIN)}" y2="{_coord(_HEIGHT - _MARGIN)}" '
        'stroke="black" stroke-width="1"/>',
    ]
    if axes.title:
        parts.append(
            f'<text x="{_coord(_WIDTH / 2)}" y="30" text-anchor="middle" '
            f'font-size="16">{axes.title}</text>'
        )
    if axes.xlabel:
        parts.append(
            f'<text x="{_coord(_WIDTH / 2)}" y="{_coord(_HEIGHT - 15)}" '
            f'text-anchor="middle" font-size="12">{axes.xlabel}</text>'
        )
    if axes.ylabel:
        parts.append(
            f'<text x="18" y="{_coord(_HEIGHT / 2)}" text-anchor="middle" '
            f'font-size="12" transform="rotate(-90 18 {_coord(_HEIGHT / 2)})">'
            f"{axes.ylabel}</text>"
        )
    for v in vlines:
        parts.append(
            f'<line x1="{_coord(px(v))}" y1="{_coord(_MARGIN)}" '
            f'x2="{_coord(px(v))}" y2="{_coord(_HEIGHT - _MARGIN)}" '
            'stroke="gray" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    # px and py map the points of every series as two arrays, with the
    # operations they apply to one float; each polyline takes its share.
    pixels = map("{:.3f},{:.3f}".format, px(xs).tolist(), py(ys).tolist())
    for i, (s, (pts, _)) in enumerate(zip(series, points)):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(itertools.islice(pixels, len(pts)))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{coords}"/>'
        )
        ly = _MARGIN + 16.0 * i
        parts.append(
            f'<line x1="{_coord(_WIDTH - _MARGIN - 120)}" y1="{_coord(ly)}" '
            f'x2="{_coord(_WIDTH - _MARGIN - 100)}" y2="{_coord(ly)}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_coord(_WIDTH - _MARGIN - 94)}" y="{_coord(ly + 4)}" '
            f'font-size="11">{s.name}</text>'
        )
    parts.append("</svg>")
    return write_bytes("\n".join(parts) + "\n", path)
