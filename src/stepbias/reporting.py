"""Deterministic CSV and SVG emission for experiment outputs."""

import csv
import io
import math
import os
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .errors import IoError


def _bool_text(value):
    return "true" if value else "false"


# The text of each exact builtin type, found by one dict lookup; numpy
# scalars and subclasses fall through to the isinstance chain.
_TEXT_BY_TYPE = {float: float.__repr__, int: int.__repr__, str: str, bool: _bool_text}


def format_value(value):
    """Shortest round-trip text for a CSV field."""
    text = _TEXT_BY_TYPE.get(type(value))
    if text is not None:
        return text(value)
    if isinstance(value, (bool, np.bool_)):
        return _bool_text(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_bytes(text, path):
    """Write text to path as UTF-8 with one open, os.write calls and close; return the bytes."""
    data = text.encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
        finally:
            os.close(fd)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return data


def _column_text(values):
    """The fields of one column: one text function where every value has one exact builtin type."""
    kinds = set(map(type, values))
    text = _TEXT_BY_TYPE.get(kinds.pop()) if len(kinds) == 1 else None
    return map(text or format_value, values)


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
    writer.writerows(zip(*map(_column_text, zip(*rows))))
    return write_bytes(buf.getvalue(), path)


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


def _escape(text):
    """Text content with &, < and > written as XML entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# The markup that does not depend on the data, built once. Each %s or
# %.3f takes an argument in render_svg.
_FRAME = "\n".join([
    f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
    f'height="{int(_HEIGHT)}" viewBox="0 0 {int(_WIDTH)} {int(_HEIGHT)}">',
    f'<rect width="{int(_WIDTH)}" height="{int(_HEIGHT)}" fill="white"/>',
    f'<line x1="{_coord(_MARGIN)}" y1="{_coord(_HEIGHT - _MARGIN)}" '
    f'x2="{_coord(_WIDTH - _MARGIN)}" y2="{_coord(_HEIGHT - _MARGIN)}" '
    'stroke="black" stroke-width="1"/>',
    f'<line x1="{_coord(_MARGIN)}" y1="{_coord(_MARGIN)}" '
    f'x2="{_coord(_MARGIN)}" y2="{_coord(_HEIGHT - _MARGIN)}" '
    'stroke="black" stroke-width="1"/>',
])
_TITLE = (
    f'<text x="{_coord(_WIDTH / 2)}" y="30" text-anchor="middle" '
    'font-size="16">%s</text>'
)
_XLABEL = (
    f'<text x="{_coord(_WIDTH / 2)}" y="{_coord(_HEIGHT - 15)}" '
    'text-anchor="middle" font-size="12">%s</text>'
)
_YLABEL = (
    f'<text x="18" y="{_coord(_HEIGHT / 2)}" text-anchor="middle" '
    f'font-size="12" transform="rotate(-90 18 {_coord(_HEIGHT / 2)})">%s</text>'
)
_VLINE = (
    f'<line x1="%.3f" y1="{_coord(_MARGIN)}" x2="%.3f" y2="{_coord(_HEIGHT - _MARGIN)}" '
    'stroke="gray" stroke-width="1" stroke-dasharray="4 3"/>'
)
# Polyline, legend line and legend name of one series.
_SERIES = "\n".join([
    '<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>',
    f'<line x1="{_coord(_WIDTH - _MARGIN - 120)}" y1="%.3f" '
    f'x2="{_coord(_WIDTH - _MARGIN - 100)}" y2="%.3f" stroke="%s" stroke-width="1.5"/>',
    f'<text x="{_coord(_WIDTH - _MARGIN - 94)}" y="%.3f" font-size="11">%s</text>',
])


def _span(values):
    """(lo, hi) of a float array, widened to a non-empty range; (0, 1) if empty."""
    if not values.size:
        return 0.0, 1.0
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        # nextafter keeps the range open where 1.0 is absorbed (|lo| >= 2**53).
        hi = max(lo + 1.0, math.nextafter(lo, math.inf))
    return lo, hi


def _finite_points(series, log_y):
    """The points of every series with a finite place on the axes.

    Returns (xs, ys, edges): two float arrays with the kept points of
    all series in order, ys on the axis scale, and the offsets at which
    each series starts and ends in them, so series i holds the points
    edges[i]:edges[i + 1]. Points pair up as zip(s.xs, s.ys) does. The
    log of a log_y axis is math.log10 of max(y, 1e-300), one value at a
    time.
    """
    counts = [min(len(s.xs), len(s.ys)) for s in series]
    size = sum(counts)
    xs = np.fromiter(chain.from_iterable(s.xs[:c] for s, c in zip(series, counts)), float, size)
    ys = chain.from_iterable(s.ys[:c] for s, c in zip(series, counts))
    if log_y:
        # log10 of max(y, 1e-300); a NaN stays NaN.
        ys = [math.log10(1e-300 if y < 1e-300 else y) for y in map(float, ys)]
    ys = np.fromiter(ys, float, size)
    keep = np.isfinite(xs) & np.isfinite(ys)
    kept_before = [0, *np.cumsum(keep).tolist()]
    edges = [kept_before[i] for i in accumulate(counts, initial=0)]
    return xs[keep], ys[keep], edges


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


def _points_attr(flat):
    """'x,y x,y ...' from [x0, y0, x1, y1, ...], each coordinate to 3 decimals."""
    return ("%.3f,%.3f " * (len(flat) // 2))[:-1] % tuple(flat)


def render_svg(series, axes, path):
    """Standalone SVG: one polyline per series, axes, legend.

    Points with a non-finite coordinate (after the log for log_y axes)
    are left out of the axis ranges and the polylines. The title, axis
    labels and series names are XML-escaped. Output bytes depend only on
    the inputs, so re-rendering the same data is byte-identical. Returns
    the bytes written.
    """
    series = list(series)
    if not series:
        raise ValueError("render_svg needs at least one series")
    xs, ys, edges = _finite_points(series, axes.log_y)
    vlines = [float(v) for v in axes.vlines if math.isfinite(float(v))]
    x_unit = _unit(*_span(np.concatenate([xs, vlines])))
    y_unit = _unit(*_span(ys))

    def px(x):
        return _MARGIN + x_unit(x) * (_WIDTH - 2 * _MARGIN)

    def py(y):
        return _HEIGHT - _MARGIN - y_unit(y) * (_HEIGHT - 2 * _MARGIN)

    parts = [_FRAME]
    if axes.title:
        parts.append(_TITLE % _escape(axes.title))
    if axes.xlabel:
        parts.append(_XLABEL % _escape(axes.xlabel))
    if axes.ylabel:
        parts.append(_YLABEL % _escape(axes.ylabel))
    for v in vlines:
        x = px(v)
        parts.append(_VLINE % (x, x))
    # px and py map the points of every series as two arrays, with the
    # operations they apply to one float, into [x0, y0, x1, y1, ...];
    # each polyline formats its share in one pass.
    flat = np.empty(2 * xs.size)
    flat[0::2] = px(xs)
    flat[1::2] = py(ys)
    flat = flat.tolist()
    for i, s in enumerate(series):
        ly = _MARGIN + 16.0 * i
        color = _PALETTE[i % len(_PALETTE)]
        coords = _points_attr(flat[2 * edges[i]:2 * edges[i + 1]])
        parts.append(_SERIES % (color, coords, ly, ly, color, ly + 4, _escape(s.name)))
    parts.append("</svg>\n")
    return write_bytes("\n".join(parts), path)
