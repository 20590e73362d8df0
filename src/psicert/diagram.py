"""Static lattice diagrams for sign patterns in two or three variables.

Three-variable patterns are drawn on the barycentric triangle of the
degree-D lattice: thick circles mark positive points, thin circles negative
ones, dotted circles zeros.  For power 1 the gray contributor triangles of
the product monomials can be overlaid.  Output is plain text or hand-emitted
SVG with coordinates quantized to 0.01 so identical inputs give identical
bytes.
"""

from __future__ import annotations

from .errors import UnsupportedDimension
from .patterns import Sign, SignPattern
from .polycore import monomials_of_degree

_SQRT3_2 = 0.8660254037844386
_CELL = 44.0
_MARGIN = 40.0
_RADIUS = 12.0


def _q(x: float) -> str:
    return f"{round(x, 2):.2f}"


def _xy(alpha):
    if len(alpha) == 3:
        u = alpha[1] + alpha[2] / 2.0
        v = alpha[2] * _SQRT3_2
    else:
        u = alpha[1]
        v = 0.0
    return _MARGIN + u * _CELL, v * _CELL


def render_diagram(pattern: SignPattern, fmt: str = "svg", show_simplices: bool = False) -> str:
    """The diagram of `pattern` as `fmt` ("svg" or "ascii") text.

    `show_simplices` overlays the power-1 contributor triangles on a three-variable SVG.
    """
    if pattern.n not in (2, 3):
        raise UnsupportedDimension(f"diagrams need 2 or 3 variables, got {pattern.n}")
    if fmt == "ascii":
        return _render_ascii(pattern)
    return _render_svg(pattern, show_simplices)


def _render_ascii(pat: SignPattern) -> str:
    lattice = monomials_of_degree(pat.n, pat.D)
    marker = {Sign.POS: "P", Sign.NEG: "N", Sign.ZERO: "."}
    if pat.n == 2:
        row = " ".join(marker[pat.sign(a)] for a in sorted(lattice, key=lambda a: a[1]))
        return row + "\n"
    lines = []
    for c in range(pat.D, -1, -1):
        points = sorted(
            (a for a in lattice if a[2] == c), key=lambda a: a[1]
        )
        pad = " " * c
        lines.append(pad + " ".join(marker[pat.sign(a)] for a in points))
    return "\n".join(lines) + "\n"


def _node_svg(x: float, y: float, sign: Sign) -> list:
    parts = []
    if sign is Sign.POS:
        style = 'stroke="#000" stroke-width="3" fill="#fff"'
        label = "P"
    elif sign is Sign.NEG:
        style = 'stroke="#000" stroke-width="1" fill="#fff"'
        label = "N"
    else:
        style = 'stroke="#888" stroke-width="1" stroke-dasharray="2,2" fill="#fff"'
        label = ""
    parts.append(f'  <circle cx="{_q(x)}" cy="{_q(y)}" r="{_q(_RADIUS)}" {style} />')
    if label:
        parts.append(
            f'  <text x="{_q(x)}" y="{_q(y + 4.5)}" font-size="13" '
            f'text-anchor="middle" font-family="monospace">{label}</text>'
        )
    return parts


def _render_svg(pat: SignPattern, show_simplices: bool) -> str:
    D = pat.D
    lattice = monomials_of_degree(pat.n, D)
    height = (D * _SQRT3_2 if pat.n == 3 else 0.0) * _CELL + 2 * _MARGIN
    width = D * _CELL + 2 * _MARGIN + (_CELL / 2 if pat.n == 3 else 0.0)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_q(width)}" '
        f'height="{_q(height)}" viewBox="0 0 {_q(width)} {_q(height)}">'
    ]

    def place(alpha):
        x, y = _xy(alpha)
        return x, height - _MARGIN - y  # flip so the last variable grows upward

    if pat.support:
        if show_simplices and pat.n == 3:
            support = pat.support
            for A in monomials_of_degree(3, D + 1):
                corners = []
                touched = False
                for k in range(3):
                    if A[k] == 0:
                        continue
                    contrib = A[:k] + (A[k] - 1,) + A[k + 1 :]
                    corners.append(place(contrib))
                    if contrib in support:
                        touched = True
                if not touched:
                    continue
                if len(corners) == 3:
                    pts = " ".join(f"{_q(x)},{_q(y)}" for x, y in corners)
                    out.append(f'  <polygon points="{pts}" fill="#ccc" opacity="0.6" />')
                elif len(corners) == 2:
                    (x1, y1), (x2, y2) = corners
                    out.append(
                        f'  <line x1="{_q(x1)}" y1="{_q(y1)}" x2="{_q(x2)}" '
                        f'y2="{_q(y2)}" stroke="#ccc" stroke-width="6" opacity="0.6" />'
                    )
        for alpha in lattice:
            x, y = place(alpha)
            out.extend(_node_svg(x, y, pat.sign(alpha)))
    out.append("</svg>")
    return "\n".join(out) + "\n"
