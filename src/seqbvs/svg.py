"""Minimal SVG 1.1 line-chart emitter, no external dependencies."""

from __future__ import annotations

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


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


class _Canvas:
    def __init__(self, title: str, x_lo: float, x_hi: float, y_lo: float, y_hi: float,
                 x_label: str, y_label: str):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            '<rect width="100%" height="100%" fill="#ffffff"/>',
            f'<text x="{WIDTH / 2:.0f}" y="28" text-anchor="middle" '
            f'font-family="sans-serif" font-size="17">{_escape(title)}</text>',
        ]
        self._axes(x_label, y_label)

    def _px(self, x: float | np.ndarray) -> float | np.ndarray:
        span = self.x_hi - self.x_lo
        return MARGIN_L + (x - self.x_lo) / span * (WIDTH - MARGIN_L - MARGIN_R)

    def _py(self, y: float | np.ndarray) -> float | np.ndarray:
        span = self.y_hi - self.y_lo
        return HEIGHT - MARGIN_B - (y - self.y_lo) / span * (HEIGHT - MARGIN_T - MARGIN_B)

    def _axes(self, x_label: str, y_label: str) -> None:
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
        self.parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#000" stroke-width="1.2"/>')
        self.parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#000" stroke-width="1.2"/>')
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            yv = self.y_lo + frac * (self.y_hi - self.y_lo)
            py = self._py(yv)
            self.parts.append(f'<line x1="{x0 - 4}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="#000"/>')
            self.parts.append(
                f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12">{yv:g}</text>'
            )
        n_ticks = 5
        for i in range(n_ticks + 1):
            xv = self.x_lo + i * (self.x_hi - self.x_lo) / n_ticks
            px = self._px(xv)
            self.parts.append(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 4}" stroke="#000"/>')
            self.parts.append(
                f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="12">{xv:g}</text>'
            )
        self.parts.append(
            f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 14}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{_escape(x_label)}</text>'
        )
        self.parts.append(
            f'<text x="18" y="{(y0 + y1) / 2:.0f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {(y0 + y1) / 2:.0f})">{_escape(y_label)}</text>'
        )

    def hline(self, y: float, color: str = "#555", dashed: bool = True) -> None:
        py = self._py(y)
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        self.parts.append(
            f'<line x1="{MARGIN_L}" y1="{py:.1f}" x2="{WIDTH - MARGIN_R}" y2="{py:.1f}" '
            f'stroke="{color}" stroke-width="1"{dash}/>'
        )

    def _points(self, xs: np.ndarray, ys: np.ndarray) -> str:
        """The 'px,py px,py ...' text of the mapped points, from one % call."""
        px, py = self._px(xs), self._py(ys)
        return " ".join(["%.2f,%.2f"] * len(px)) % tuple(np.column_stack([px, py]).ravel().tolist())

    def polyline(self, xs, ys, color: str, width: float = 1.3, opacity: float = 1.0) -> None:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        finite = np.isfinite(ys)
        if np.count_nonzero(finite) < 2:
            return
        pts = self._points(xs[finite], ys[finite])
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width:g}" '
            f'stroke-opacity="{opacity:g}" points="{pts}"/>'
        )

    def band(self, xs, lo, hi, color: str, opacity: float = 0.18) -> None:
        xs = np.asarray(xs, dtype=float)
        outline = self._points(
            np.concatenate([xs, xs[::-1]]),
            np.concatenate([np.asarray(hi, dtype=float), np.asarray(lo, dtype=float)[::-1]]),
        )
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
    """
    canvas = _Canvas(title, float(ns[0]), float(ns[-1]), 0.0, 1.0, "n", "inclusion probability")
    canvas.hline(0.5)
    order = np.argsort(active.astype(int))  # draw inactives first, actives on top
    for k in order:
        color = ACTIVE_COLOR if active[k] else INACTIVE_COLOR
        width = 2.6 if (k + 1) in emphasize else 1.2
        canvas.polyline(ns, probs[:, k], color, width=width)
    canvas.label("active", WIDTH - 150, MARGIN_T + 16, ACTIVE_COLOR)
    canvas.label("inactive", WIDTH - 150, MARGIN_T + 32, INACTIVE_COLOR)
    return canvas.render()


def crossing_totals_chart(
    ts: np.ndarray,
    series: dict[str, tuple[np.ndarray, np.ndarray]],
    title: str,
) -> str:
    """Mean cumulative total crossings with +-1 sd bands per method."""
    y_hi = 1.0
    for mean, sd in series.values():
        y_hi = max(y_hi, float(np.max(mean + sd)) * 1.05)
    canvas = _Canvas(title, float(ts[0]), float(ts[-1]), 0.0, y_hi, "t", "total crossings")
    y_text = MARGIN_T + 16
    for meth, (mean, sd) in series.items():
        color = SERIES_COLORS.get(meth, "#333333")
        canvas.band(ts, np.maximum(mean - sd, 0.0), mean + sd, color)
        canvas.polyline(ts, mean, color, width=2.0)
        canvas.label(meth, WIDTH - 150, y_text, color)
        y_text += 16
    return canvas.render()
