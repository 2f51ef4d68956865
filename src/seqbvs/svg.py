"""Minimal SVG 1.1 line-chart emitter, no external dependencies.

What the charts of a run share is formatted once per run and kept in
small bounded caches, keyed by what it depends on:
- per x grid: each x's "px,%.2f" half of a point, and their join, the
  points template of a series finite at every x;
- per (ranges, labels): the axes, ticks and axis titles;
- per (x grid, actives, emphasized covariates): a trajectory chart's 0.5
  rule, legend, draw order, and each line's colour and width.
What is formatted once per chart is its title and its own y values.  A
chart maps its y values in one array call (a trajectory chart its whole
(T, p) matrix); a series finite at every x fills the template with one %,
and a gapped one joins the x cells of its finite points first.  The text
is byte for byte what formatting "%.2f,%.2f" point by point gives.
"""

from __future__ import annotations

import functools
from itertools import compress
from typing import NamedTuple

import numpy as np

WIDTH = 880
HEIGHT = 560
MARGIN_L = 64
MARGIN_R = 24
MARGIN_T = 48
MARGIN_B = 56

ACTIVE_COLOR = "#2e8b57"  # green
INACTIVE_COLOR = "#8b5a2b"  # brown
SERIES_COLORS = {"bvs": "#d62728", "mixed": "#1f77b4", "smcs": "#2ca02c", "zero_out": "#9467bd"}

# distinct frames of each kind whose text is kept: a run's charts use two x
# grids, two axes frames and, colouring by beta, one trajectory frame
_FRAME_CACHE_SIZE = 8

_HEAD = (
    f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
    '<rect width="100%" height="100%" fill="#ffffff"/>'
)


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


def _map_x(x, lo: float, hi: float):
    return MARGIN_L + (x - lo) / (hi - lo) * (WIDTH - MARGIN_L - MARGIN_R)


def _map_y(y, lo: float, hi: float):
    return HEIGHT - MARGIN_B - (y - lo) / (hi - lo) * (HEIGHT - MARGIN_T - MARGIN_B)


def _title(text: str) -> str:
    return (
        f'<text x="{WIDTH / 2:.0f}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="17">{_escape(text)}</text>'
    )


def _label(text: str, x: float, y: float, color: str) -> str:
    return (
        f'<text x="{x:.0f}" y="{y:.0f}" font-family="sans-serif" font-size="12" '
        f'fill="{color}">{_escape(text)}</text>'
    )


def _polyline_open(color: str, width: float) -> str:
    """A polyline's text up to its points, which close with '"/>'."""
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width:g}" stroke-opacity="1" points="'


def _points(cells, py: np.ndarray, template: str | None = None) -> str | None:
    """The 'px,py px,py ...' text of the points with finite mapped y `py`.

    `cells` holds each point's "px,%.2f" x half and `template` their join,
    filled by one % when every py is finite; otherwise the finite points'
    cells are joined first.  None when fewer than 2 points are finite, as
    there is no line to draw.
    """
    finite = np.isfinite(py)
    n_finite = np.count_nonzero(finite)
    if n_finite < 2:
        return None
    if template is not None and n_finite == py.size:
        return template % tuple(py.tolist())
    return " ".join(compress(cells, finite.tolist())) % tuple(py[finite].tolist())


class _XFrame(NamedTuple):
    lo: float
    hi: float
    cells: tuple[str, ...]  # each x's half of a point; a series fills in the y half
    template: str  # the cells joined: the points text of a series finite at every x


def _x_key(xs) -> bytes:
    return np.asarray(xs, dtype=float).tobytes()


@functools.lru_cache(maxsize=_FRAME_CACHE_SIZE)
def _x_frame(key: bytes) -> _XFrame:
    """The x half of every point over the float64 x values whose bytes are `key`."""
    xs = np.frombuffer(key)
    lo, hi = float(xs[0]), float(xs[-1])
    cells = tuple("%.2f,%%.2f" % px for px in _map_x(xs, lo, hi).tolist())
    return _XFrame(lo, hi, cells, " ".join(cells))


@functools.lru_cache(maxsize=_FRAME_CACHE_SIZE)
def _axes(x_lo: float, x_hi: float, y_lo: float, y_hi: float, x_label: str, y_label: str) -> str:
    """Axis lines, ticks, tick labels and axis titles of one chart frame."""
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#000" stroke-width="1.2"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#000" stroke-width="1.2"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = y_lo + frac * (y_hi - y_lo)
        py = _map_y(yv, y_lo, y_hi)
        parts.append(f'<line x1="{x0 - 4}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="#000"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{yv:g}</text>'
        )
    n_ticks = 5
    for i in range(n_ticks + 1):
        xv = x_lo + i * (x_hi - x_lo) / n_ticks
        px = _map_x(xv, x_lo, x_hi)
        parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 4}" stroke="#000"/>')
        parts.append(
            f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xv:g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>'
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">{_escape(y_label)}</text>'
    )
    return "\n".join(parts)


class _Canvas:
    """One chart over the x values `xs`; series are drawn at those x."""

    def __init__(self, title: str, xs, y_lo: float, y_hi: float, x_label: str, y_label: str):
        self.x = _x_frame(_x_key(xs))
        self.y_lo, self.y_hi = y_lo, y_hi
        self.parts: list[str] = [_HEAD, _title(title), _axes(self.x.lo, self.x.hi, y_lo, y_hi, x_label, y_label)]

    def _px(self, x: float | np.ndarray) -> float | np.ndarray:
        return _map_x(x, self.x.lo, self.x.hi)

    def _py(self, y: float | np.ndarray) -> float | np.ndarray:
        return _map_y(y, self.y_lo, self.y_hi)

    def polyline(self, py: np.ndarray, color: str, width: float) -> None:
        """A line through (x, py) over the chart's x, skipping non-finite py."""
        pts = _points(self.x.cells, py, self.x.template)
        if pts is not None:
            self.parts.append(_polyline_open(color, width) + pts + '"/>')

    def band(self, py_lo: np.ndarray, py_hi: np.ndarray, color: str) -> None:
        """The region between two mapped series: along py_hi, then back along py_lo."""
        outline = _points(self.x.cells + self.x.cells[::-1], np.concatenate([py_hi, py_lo[::-1]]))
        if outline is not None:
            self.parts.append(
                f'<polygon fill="{color}" fill-opacity="0.18" stroke="none" points="{outline}"/>'
            )

    def label(self, text: str, x: float, y: float, color: str) -> None:
        self.parts.append(_label(text, x, y, color))

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _TrajectoryFrame(NamedTuple):
    x: _XFrame
    top: str  # axes and the 0.5 rule
    lines: tuple[tuple[int, str], ...]  # (covariate index, polyline opening) in draw order
    tail: str  # legend and closing tag


@functools.lru_cache(maxsize=_FRAME_CACHE_SIZE)
def _trajectory_frame(x_key: bytes, active_key: bytes, emphasize: tuple[int, ...]) -> _TrajectoryFrame:
    """Every part of a trajectory chart that its title and probabilities do not change."""
    x = _x_frame(x_key)
    active = np.frombuffer(active_key, dtype=bool)
    order = np.argsort(active.astype(int)).tolist()  # draw inactives first, actives on top
    lines = tuple(
        (k, _polyline_open(ACTIVE_COLOR if active[k] else INACTIVE_COLOR, 2.6 if (k + 1) in emphasize else 1.2))
        for k in order
    )
    rule = _map_y(0.5, 0.0, 1.0)
    top = "\n".join(
        [
            _axes(x.lo, x.hi, 0.0, 1.0, "n", "inclusion probability"),
            f'<line x1="{MARGIN_L}" y1="{rule:.1f}" x2="{WIDTH - MARGIN_R}" y2="{rule:.1f}" '
            'stroke="#555" stroke-width="1" stroke-dasharray="6 4"/>',
        ]
    )
    tail = "\n".join(
        [
            _label("active", WIDTH - 150, MARGIN_T + 16, ACTIVE_COLOR),
            _label("inactive", WIDTH - 150, MARGIN_T + 32, INACTIVE_COLOR),
            "</svg>\n",
        ]
    )
    return _TrajectoryFrame(x, top, lines, tail)


def trajectory_chart(
    ns: np.ndarray,
    probs: np.ndarray,
    active: np.ndarray,
    emphasize: tuple[int, ...],
    title: str,
) -> str:
    """Inclusion-probability trajectories of all covariates for one method.

    `active` marks the truly active covariates (drawn green, others brown);
    `emphasize` lists 1-based covariate ids drawn with a thicker stroke.
    NaN probabilities are gaps; a covariate with fewer than 2 finite
    probabilities draws no line.
    """
    frame = _trajectory_frame(_x_key(ns), np.asarray(active, dtype=bool).tobytes(), tuple(emphasize))
    py = _map_y(np.asarray(probs, dtype=float), 0.0, 1.0)  # (T, p), every covariate in one map
    parts = [_HEAD, _title(title), frame.top]
    for k, opening in frame.lines:
        pts = _points(frame.x.cells, py[:, k], frame.x.template)
        if pts is not None:
            parts.append(opening + pts + '"/>')
    parts.append(frame.tail)
    return "\n".join(parts)


def crossing_totals_chart(
    ts: np.ndarray,
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    title: str,
) -> str:
    """Mean cumulative total crossings with +-1 sd bands (clipped at 0) per method."""
    y_hi = 1.0
    for mean, sd in series.values():
        y_hi = max(y_hi, float(np.max(mean + sd)) * 1.05)
    canvas = _Canvas(title, ts, 0.0, y_hi, "t", "total crossings")
    y_text = MARGIN_T + 16
    for meth, (mean, sd) in series.items():
        color = SERIES_COLORS.get(meth, "#333333")
        canvas.band(canvas._py(np.maximum(mean - sd, 0.0)), canvas._py(mean + sd), color)
        canvas.polyline(canvas._py(mean), color, width=2.0)
        canvas.label(meth, WIDTH - 150, y_text, color)
        y_text += 16
    return canvas.render()
