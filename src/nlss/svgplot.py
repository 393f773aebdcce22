"""Minimal deterministic SVG line-plot emitter.

Self-contained output (inline styling, no external assets); numbers are
formatted with a fixed precision so identical inputs give identical bytes.
"""

from __future__ import annotations

import math

WIDTH = 720
HEIGHT = 480
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 30
MARGIN_B = 50

COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


class LinePlot:
    """Collects named series and vertical marker lines, then renders SVG."""

    def __init__(self, title: str, xlabel: str, ylabel: str, logx: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.logx = logx
        self.series: list[tuple[str, list[float], list[float]]] = []
        self.verticals: list[tuple[str, float]] = []

    def add_series(self, name: str, xs, ys):
        self.series.append((name, list(xs), list(ys)))

    def add_vertical(self, name: str, x: float):
        self.verticals.append((name, float(x)))

    def _tx(self, x: float) -> float:
        return math.log10(x) if self.logx else x

    def render(self) -> str:
        xs_all, ys_all = [], []
        for _, xs, ys in self.series:
            for x, y in zip(xs, ys):
                if y is not None and math.isfinite(y) and math.isfinite(x):
                    xs_all.append(self._tx(x))
                    ys_all.append(y)
        for _, x in self.verticals:
            if math.isfinite(x) and (x > 0 or not self.logx):
                xs_all.append(self._tx(x))
        if not xs_all:
            xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
        if not ys_all:
            ys_all = [0.0, 1.0]
        x0, x1 = min(xs_all), max(xs_all)
        y0, y1 = min(ys_all), max(ys_all)
        if x1 - x0 < 1e-12:
            x0, x1 = x0 - 0.5, x1 + 0.5
        pad = 0.05 * (y1 - y0) or 0.5
        y0, y1 = y0 - pad, y1 + pad
        pw = WIDTH - MARGIN_L - MARGIN_R
        ph = HEIGHT - MARGIN_T - MARGIN_B

        def px(x):
            return MARGIN_L + pw * (self._tx(x) - x0) / (x1 - x0)

        def py(y):
            return MARGIN_T + ph * (1.0 - (y - y0) / (y1 - y0))

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
            'fill="none" stroke="#333" stroke-width="1"/>',
            f'<text x="{WIDTH // 2}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{self.title}</text>',
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{self.xlabel}</text>',
            f'<text x="16" y="{HEIGHT // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {HEIGHT // 2})">{self.ylabel}</text>',
        ]
        # axis tick labels at the corners keep the emitter tiny but readable
        for frac in (0.0, 0.5, 1.0):
            xv = x0 + frac * (x1 - x0)
            lab = f"{10 ** xv:.3g}" if self.logx else f"{xv:.3g}"
            xp = MARGIN_L + frac * pw
            parts.append(
                f'<text x="{_fmt(xp)}" y="{HEIGHT - MARGIN_B + 16}" '
                f'text-anchor="middle" font-family="sans-serif" '
                f'font-size="10">{lab}</text>'
            )
            yv = y0 + frac * (y1 - y0)
            yp = MARGIN_T + (1.0 - frac) * ph
            parts.append(
                f'<text x="{MARGIN_L - 6}" y="{_fmt(yp + 3)}" '
                f'text-anchor="end" font-family="sans-serif" '
                f'font-size="10">{yv:.3g}</text>'
            )
        for name, x in self.verticals:
            if not math.isfinite(x) or (self.logx and x <= 0):
                continue
            xp = px(x)
            if xp < MARGIN_L - 0.5 or xp > WIDTH - MARGIN_R + 0.5:
                continue
            parts.append(
                f'<line x1="{_fmt(xp)}" y1="{MARGIN_T}" x2="{_fmt(xp)}" '
                f'y2="{HEIGHT - MARGIN_B}" stroke="#999" stroke-width="1" '
                'stroke-dasharray="4 3"/>'
            )
            parts.append(
                f'<text x="{_fmt(xp + 3)}" y="{MARGIN_T + 12}" '
                f'font-family="sans-serif" font-size="10" '
                f'fill="#666">{name}</text>'
            )
        for idx, (name, xs, ys) in enumerate(self.series):
            color = COLORS[idx % len(COLORS)]
            pts = []
            segs = []
            for x, y in zip(xs, ys):
                if y is None or not math.isfinite(y) or not math.isfinite(x):
                    if pts:
                        segs.append(pts)
                        pts = []
                    continue
                pts.append(f"{_fmt(px(x))},{_fmt(py(y))}")
            if pts:
                segs.append(pts)
            for seg in segs:
                if len(seg) == 1:
                    cx, cy = seg[0].split(",")
                    parts.append(
                        f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="{color}"/>'
                    )
                else:
                    parts.append(
                        f'<polyline points="{" ".join(seg)}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>'
                    )
            ly = MARGIN_T + 16 + 16 * idx
            lx = WIDTH - MARGIN_R - 130
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{name}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
