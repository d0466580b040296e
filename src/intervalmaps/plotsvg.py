"""Deterministic SVG rendering of a map's graph with its markers.

Hand-rolled SVG so identical inputs give byte-identical output: fixed canvas,
fixed float formatting, no timestamps or generated ids.
"""

from __future__ import annotations

from typing import Optional

from .construct import Markers
from .kernel import scalar_to_str
from .plmap import PLMap

SIZE = 560
MARGIN = 48

__all__ = ["render_map_svg"]


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_map_svg(m: PLMap, markers: Optional[Markers] = None, title: str = "") -> str:
    lo = float(m.breakpoints[0])
    hi = float(m.breakpoints[-1])
    span = hi - lo
    inner = SIZE - 2 * MARGIN

    def px(x: float) -> float:
        return MARGIN + (x - lo) / span * inner

    def py(y: float) -> float:
        return SIZE - MARGIN - (y - lo) / span * inner

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{inner}" height="{inner}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
        # the diagonal, for reading off fixed points
        f'<line x1="{_fmt(px(lo))}" y1="{_fmt(py(lo))}" x2="{_fmt(px(hi))}" '
        f'y2="{_fmt(py(hi))}" stroke="#bbbbbb" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{MARGIN}" y="{MARGIN - 14}" font-family="monospace" '
            f'font-size="13">{title}</text>'
        )

    pts = " ".join(
        f"{_fmt(px(float(b)))},{_fmt(py(float(v)))}"
        for b, v in zip(m.breakpoints, m.values)
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#0044cc" stroke-width="2"/>'
    )

    if markers is not None:
        x = _fmt(px(float(markers.t)))
        parts.append(
            f'<line x1="{x}" y1="{MARGIN}" x2="{x}" y2="{SIZE - MARGIN}" '
            f'stroke="#cc8800" stroke-width="1" stroke-dasharray="4 3"/>'
        )
        for pt in markers.orbit:
            fx = float(pt)
            parts.append(
                f'<circle cx="{_fmt(px(fx))}" cy="{_fmt(py(float(m.eval(pt))))}" '
                f'r="3.5" fill="#cc0000"/>'
            )

    # domain end labels
    parts.append(
        f'<text x="{MARGIN}" y="{SIZE - MARGIN + 16}" font-family="monospace" '
        f'font-size="11">{scalar_to_str(m.breakpoints[0])}</text>'
    )
    parts.append(
        f'<text x="{SIZE - MARGIN - 8}" y="{SIZE - MARGIN + 16}" '
        f'font-family="monospace" font-size="11">{scalar_to_str(m.breakpoints[-1])}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
