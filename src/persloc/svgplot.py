"""Static SVG pictures of strip/quadrant decompositions.

Pure string generation with integer pixel arithmetic: the same decomposition
always renders to byte-identical output (no timestamps, no floating point).
Vertical strips are bands with a solid left edge and a dashed right edge
(half-open), horizontal strips are the mirror, quadrants are shaded
upper-right regions with a dot on the corner.
"""

from __future__ import annotations

from .twoparam import Decomposition

_UNIT = 40
_MARGIN = 48

_QUAD_FILL = "#f2c94c"
_VSTRIP_FILL = "#6fcf97"
_HSTRIP_FILL = "#56ccf2"
_AXIS = "#222222"
_EDGE = "#14532d"
_HEDGE = "#0c4a6e"
_DOT = "#b45309"


def _extent(deco: Decomposition) -> int:
    ext = 4
    for iv, _ in deco.vertical + deco.horizontal:
        ext = max(ext, iv.end + 1)
    for corner, _ in deco.quadrants:
        ext = max(ext, corner[0] + 2, corner[1] + 2)
    return ext


def _line(x1: int, y1: int, x2: int, y2: int, color: str, width: int, dashed: bool = False) -> str:
    dash = ' stroke-dasharray="6 4"' if dashed else ""
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{color}" stroke-width="{width}"{dash}/>'


def _text(x: int, y: int, size: int, color: str, body) -> str:
    return f'<text x="{x}" y="{y}" font-family="monospace" font-size="{size}" fill="{color}">{body}</text>'


def render_svg(deco: Decomposition) -> str:
    ext = _extent(deco)
    side = ext * _UNIT
    width = side + 2 * _MARGIN
    height = side + 2 * _MARGIN

    def px(x: int) -> int:
        return _MARGIN + x * _UNIT

    def py(y: int) -> int:
        return _MARGIN + side - y * _UNIT

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    )
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')

    # quadrants first (bottom layer)
    for corner, mult in deco.quadrants:
        x, y = corner
        parts.append(
            f'<rect x="{px(x)}" y="{py(ext)}" width="{side - x * _UNIT}" '
            f'height="{side - y * _UNIT}" fill="{_QUAD_FILL}" fill-opacity="0.45"/>'
        )
    for iv, mult in deco.vertical:
        x0, x1 = px(iv.start), px(iv.end)
        parts.append(
            f'<rect x="{x0}" y="{py(ext)}" width="{x1 - x0}" height="{side}" '
            f'fill="{_VSTRIP_FILL}" fill-opacity="0.4"/>'
        )
        parts.append(_line(x0, py(0), x0, py(ext), _EDGE, 2))
        parts.append(_line(x1, py(0), x1, py(ext), _EDGE, 2, dashed=True))
        if mult > 1:
            parts.append(_text(x0 + 4, py(ext) + 16, 14, _EDGE, f"x{mult}"))
    for iv, mult in deco.horizontal:
        y0, y1 = py(iv.start), py(iv.end)
        parts.append(
            f'<rect x="{px(0)}" y="{y1}" width="{side}" height="{y0 - y1}" '
            f'fill="{_HSTRIP_FILL}" fill-opacity="0.4"/>'
        )
        parts.append(_line(px(0), y0, px(ext), y0, _HEDGE, 2))
        parts.append(_line(px(0), y1, px(ext), y1, _HEDGE, 2, dashed=True))
        if mult > 1:
            parts.append(_text(px(ext) - 28, y0 - 4, 14, _HEDGE, f"x{mult}"))
    # corner dots above the fills
    for corner, mult in deco.quadrants:
        x, y = corner
        parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="5" fill="{_DOT}"/>')
        if mult > 1:
            parts.append(_text(px(x) + 8, py(y) - 8, 14, _DOT, f"x{mult}"))
    # axes on top
    parts.append(_line(px(0), py(0), px(ext), py(0), _AXIS, 2))
    parts.append(_line(px(0), py(0), px(0), py(ext), _AXIS, 2))
    for t in range(ext + 1):
        parts.append(_line(px(t), py(0) - 4, px(t), py(0) + 4, _AXIS, 1))
        parts.append(_text(px(t) - 4, py(0) + 20, 12, _AXIS, t))
        parts.append(_line(px(0) - 4, py(t), px(0) + 4, py(t), _AXIS, 1))
        parts.append(_text(px(0) - 26, py(t) + 4, 12, _AXIS, t))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
