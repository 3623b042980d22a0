"""Self-contained SVG line charts; no renderer dependency, CSV stays the contract."""

from __future__ import annotations

from dataclasses import dataclass


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#7f7f7f",
    "#9467bd", "#8c564b", "#e377c2", "#17becf",
    "#bcbd22", "#ff7f0e", "#aec7e8", "#98df8a",
)

_WIDTH, _HEIGHT = 720, 460
_MARGIN_LEFT, _MARGIN_RIGHT = 70, 170
_MARGIN_TOP, _MARGIN_BOTTOM = 40, 55
_TICKS = 5


@dataclass(frozen=True)
class Series:
    label: str
    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError("series needs matching, non-empty x and y vectors")


def _span(values: list[float]) -> tuple[float, float]:
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def line_chart(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    """Render series as polylines with markers, axes, ticks, and a legend."""
    if not series:
        raise ValueError("need at least one series")
    x_lo, x_hi = _span([x for s in series for x in s.xs])
    y_lo, y_hi = _span([y for s in series for y in s.ys])
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    for i in range(_TICKS + 1):
        frac = i / _TICKS
        gx = _MARGIN_LEFT + frac * plot_w
        gy = _MARGIN_TOP + plot_h - frac * plot_h
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<line x1="{gx:.1f}" y1="{_MARGIN_TOP}" x2="{gx:.1f}" '
            f'y2="{_MARGIN_TOP + plot_h}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{gy:.1f}" x2="{_MARGIN_LEFT + plot_w}" '
            f'y2="{gy:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{gx:.1f}" y="{_MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle">{format(xv, ".3g")}</text>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{gy + 4:.1f}" '
            f'text-anchor="end">{format(yv, ".3g")}</text>'
        )
    parts.append(
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444"/>'
    )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.1f})">{ylabel}</text>'
    )

    for k, s in enumerate(series):
        color = _PALETTE[k % len(_PALETTE)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(s.xs, s.ys))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for x, y in zip(s.xs, s.ys):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>')
        ly = _MARGIN_TOP + 14 + 18 * k
        lx = _MARGIN_LEFT + plot_w + 14
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{s.label}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
