"""Minimal SVG 1.1 line-chart emitter, no external dependencies.

A chart formats each distinct piece of text once.  Its x values are mapped
and formatted into "px,%.2f" cells when the canvas is made; a series' y
values are mapped in one array call (a trajectory chart maps its whole
(T, p) matrix at once); and a polyline or band is one join of the x cells of
its finite points, filled by one % over their y values.  The axes and ticks
are a pure function of the ranges and labels, built once per distinct chart
frame.  The text is byte for byte what formatting "%.2f,%.2f" point by point
gives.
"""

from __future__ import annotations

import functools
from itertools import compress

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

# distinct (ranges, labels) frames whose axes text is kept: a run's charts use two
_AXES_CACHE_SIZE = 8

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


@functools.lru_cache(maxsize=_AXES_CACHE_SIZE)
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
        xs = np.asarray(xs, dtype=float)
        self.x_lo, self.x_hi = float(xs[0]), float(xs[-1])
        self.y_lo, self.y_hi = y_lo, y_hi
        # each x's half of a point, formatted once; a series fills in the y half
        self.x_cells = ["%.2f,%%.2f" % px for px in self._px(xs).tolist()]
        self.parts: list[str] = [
            _HEAD,
            f'<text x="{WIDTH / 2:.0f}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="17">{_escape(title)}</text>',
            _axes(self.x_lo, self.x_hi, y_lo, y_hi, x_label, y_label),
        ]

    def _px(self, x: float | np.ndarray) -> float | np.ndarray:
        return _map_x(x, self.x_lo, self.x_hi)

    def _py(self, y: float | np.ndarray) -> float | np.ndarray:
        return _map_y(y, self.y_lo, self.y_hi)

    @staticmethod
    def _points(cells: list[str], py: np.ndarray) -> str | None:
        """The 'px,py px,py ...' text of the points with finite mapped y `py`.

        One join of those points' x cells and one % over their y values;
        None when fewer than 2 points are finite, as there is no line to draw.
        """
        finite = np.isfinite(py)
        if np.count_nonzero(finite) < 2:
            return None
        return " ".join(compress(cells, finite.tolist())) % tuple(py[finite].tolist())

    def hline(self, y: float, color: str = "#555", dashed: bool = True) -> None:
        py = self._py(y)
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self.parts.append(
            f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{WIDTH - MARGIN_R}" y2="{py:.1f}" '
            f'stroke="{color}" stroke-width="1"{dash}/>'
        )

    def polyline(self, py: np.ndarray, color: str, width: float = 1.3, opacity: float = 1.0) -> None:
        """A line through (x, py) over the chart's x, skipping non-finite py."""
        pts = self._points(self.x_cells, py)
        if pts is None:
            return
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width:g}" '
            f'stroke-opacity="{opacity:g}" points="{pts}"/>'
        )

    def band(self, py_lo: np.ndarray, py_hi: np.ndarray, color: str, opacity: float = 0.18) -> None:
        """The region between two mapped series: along py_hi, then back along py_lo."""
        outline = self._points(self.x_cells + self.x_cells[::-1], np.concatenate([py_hi, py_lo[::-1]]))
        if outline is None:
            return
        self.parts.append(
            f'<polygon fill="{color}" fill-opacity="{opacity:g}" stroke="none" '
            f'points="{outline}"/>'
        )

    def label(self, text: str, x: float, y: float, color: str) -> None:
        self.parts.append(
            f'<text x="{x:.0f}" y="{y:.0f}" font-family="sans-serif" font-size="12" '
            f'fill="{color}">{_escape(text)}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


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
    canvas = _Canvas(title, ns, 0.0, 1.0, "n", "inclusion probability")
    canvas.hline(0.5)
    py = canvas._py(np.asarray(probs, dtype=float))  # (T, p), every covariate in one map
    order = np.argsort(active.astype(int))  # draw inactives first, actives on top
    for k in order:
        color = ACTIVE_COLOR if active[k] else INACTIVE_COLOR
        width = 2.6 if (k + 1) in emphasize else 1.2
        canvas.polyline(py[:, k], color, width=width)
    canvas.label("active", WIDTH - 150, MARGIN_T + 16, ACTIVE_COLOR)
    canvas.label("inactive", WIDTH - 150, MARGIN_T + 32, INACTIVE_COLOR)
    return canvas.render()


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
