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
from .patterns import SignPattern
from .polycore import monomials_of_degree

_SQRT3_2 = 0.8660254037844386
_CELL = 44.0
_MARGIN = 40.0
_RADIUS = 12.0
# circle style by mark: P positive, N negative, "." zero
_STYLES = {
    "P": 'stroke="#000" stroke-width="3" fill="#fff"',
    "N": 'stroke="#000" stroke-width="1" fill="#fff"',
    ".": 'stroke="#888" stroke-width="1" stroke-dasharray="2,2" fill="#fff"',
}


def _q(x: float) -> str:
    return f"{round(x, 2):.2f}"


def render_diagram(pattern: SignPattern, fmt: str = "svg", show_simplices: bool = False) -> str:
    """The diagram of `pattern` as `fmt` ("svg" or "ascii") text.

    `show_simplices` overlays the power-1 contributor triangles on a three-variable SVG.
    """
    if pattern.n not in (2, 3):
        raise UnsupportedDimension(f"diagrams need 2 or 3 variables, got {pattern.n}")
    marks = dict.fromkeys(pattern.pos, "P")
    marks.update(dict.fromkeys(pattern.neg, "N"))
    if fmt == "ascii":
        return _render_ascii(pattern, marks)
    return _render_svg(pattern, marks, show_simplices)


def _render_ascii(pat: SignPattern, marks: dict) -> str:
    D = pat.D
    if pat.n == 2:
        return " ".join(marks.get((D - b, b), ".") for b in range(D + 1)) + "\n"
    # row c holds the points with a[2] == c, by a[1], indented to the triangle
    return "".join(
        " " * c + " ".join(marks.get((D - c - b, b, c), ".") for b in range(D - c + 1)) + "\n"
        for c in range(D, -1, -1)
    )


def _render_svg(pat: SignPattern, marks: dict, show_simplices: bool) -> str:
    D, n = pat.D, pat.n
    height = (D * _SQRT3_2 if n == 3 else 0.0) * _CELL + 2 * _MARGIN
    width = D * _CELL + 2 * _MARGIN + (_CELL / 2 if n == 3 else 0.0)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_q(width)}" '
        f'height="{_q(height)}" viewBox="0 0 {_q(width)} {_q(height)}">'
    ]
    if marks:
        # each coordinate text is quantized once: x by column 2*a[1] + a[2] (half
        # cells), y and the label baseline by row a[2], flipped so the last variable
        # grows upward
        xs = [_q(_MARGIN + c / 2 * _CELL) for c in range(2 * D + 1)]
        rows = [height - _MARGIN - r * _SQRT3_2 * _CELL for r in range(D + 1 if n == 3 else 1)]
        ys = [_q(y) for y in rows]
        bases = [_q(y + 4.5) for y in rows]
        radius = _q(_RADIUS)
        if show_simplices and n == 3:
            for A in monomials_of_degree(3, D + 1):
                corners = []
                touched = False
                for k in range(3):
                    if A[k] == 0:
                        continue
                    contrib = A[:k] + (A[k] - 1,) + A[k + 1 :]
                    corners.append((xs[2 * contrib[1] + contrib[2]], ys[contrib[2]]))
                    touched = touched or contrib in marks
                if not touched:
                    continue
                if len(corners) == 3:
                    pts = " ".join(f"{x},{y}" for x, y in corners)
                    out.append(f'  <polygon points="{pts}" fill="#ccc" opacity="0.6" />')
                elif len(corners) == 2:
                    (x1, y1), (x2, y2) = corners
                    out.append(
                        f'  <line x1="{x1}" y1="{y1}" x2="{x2}" '
                        f'y2="{y2}" stroke="#ccc" stroke-width="6" opacity="0.6" />'
                    )
        for a in monomials_of_degree(n, D):
            c, r = (2 * a[1] + a[2], a[2]) if n == 3 else (2 * a[1], 0)
            mark = marks.get(a, ".")
            out.append(f'  <circle cx="{xs[c]}" cy="{ys[r]}" r="{radius}" {_STYLES[mark]} />')
            if mark != ".":
                out.append(
                    f'  <text x="{xs[c]}" y="{bases[r]}" font-size="13" '
                    f'text-anchor="middle" font-family="monospace">{mark}</text>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"
