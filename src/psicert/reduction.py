"""Signature-preserving reduction to partial row-echelon form, in exact arithmetic.

A decomposed form represents a Hermitian polynomial as
sum_i w_i |a_i . Z|^2 - sum_j v_j |b_j . Z|^2 over an ordered monomial basis
Z: plus rows a_i and minus rows b_j, each with a positive rational weight.
A row is held sparse, as `inverse_rows` gives it: the tuple of its nonzero
entries (col, re, im), col ascending, for the Gaussian integer re + i im at
basis[col].  Rows are primitive (no common integer factor); dividing a row
by a positive rational s and multiplying its weight by s^2 leaves the form
unchanged, and every step ends that way.

The steps are Gentleman's square-root-free Givens rotations (W. M. Gentleman,
1973, "Least squares computations by Givens transformations without square
roots"), carried over to the indefinite case.  For rows a (weight w) and b
(weight v) leading in column c, with sign = +1 for rows of one block and -1
across the blocks:

    mu = b[c] / a[c],   b' = b - mu a,   c0 = w + sign v |mu|^2,
    a' = a + (sign v conj(mu) / c0) b',   w' = c0,   v' = w v / c0,

so w'|a'.Z|^2 + sign v'|b'.Z|^2 == w|a.Z|^2 + sign v|b.Z|^2, b'[c] == 0 and
a'[c] == a[c].  Across the blocks c0 > 0 needs w|a[c]|^2 > v|b[c]|^2; when
that fails, every minus weight is first multiplied by lambda = 2^-k, the
largest power of two that restores it.  A rescale changes the represented
polynomial to (plus part) - lambda (minus part), so the target it must equal
gains (1 - lambda) (minus part).  Every quantity stays rational, and the
reduction ends with exact checks instead of tolerances.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CertificateFailure, NotInPsiD
from .inertia import congruence_factorization
from .polycore import HermitianPoly, RealSparsePoly
from .psi import _routed, in_psi


@dataclass(frozen=True)
class DecomposedForm:
    """sum_i w_i |a_i . Z|^2 - sum_j v_j |b_j . Z|^2 over the sorted monomial basis Z.

    A row is the tuple of its nonzero entries (col, re, im), col ascending,
    primitive; weights are positive Fractions.  `target` is the exact
    polynomial the rows must represent, or None for bare rows.
    """

    plus_rows: tuple
    plus_weights: tuple
    minus_rows: tuple
    minus_weights: tuple
    basis: tuple
    target: HermitianPoly | None = None

    @property
    def n_plus(self) -> int:
        return len(self.plus_rows)

    @property
    def n_minus(self) -> int:
        return len(self.minus_rows)


def _lead(row):
    """Column of the first entry of a row; None for a zero row."""
    return row[0][0] if row else None


def _primitive(row, weight) -> tuple:
    """(row / g, weight * g^2) for g the integer content of the row (a zero row is kept)."""
    g = gcd(*(x for _, re, im in row for x in (re, im)))
    if g <= 1:
        return row, weight
    return tuple((c, x // g, y // g) for c, x, y in row), weight * (g * g)


def _rotation(p, q, w, v, sign) -> tuple:
    """The step on pivots p = a[c] and q = b[c] (Gaussian integers (re, im)), in integers.

    Returns (x1, y1, d1), (x2, y2, d2), (w', v'): a' = (x1 a + y1 b) / d1 and
    b' = (x2 a + y2 b) / d2 for Gaussian integers x, y and integers d, which
    are positive while c0 is.
    """
    (pr, pi), (qr, qi) = p, q
    p2, q2 = pr * pr + pi * pi, qr * qr + qi * qi
    mr, mi = qr * pr + qi * pi, qi * pr - qr * pi  # q conj(p) == mu |p|^2
    wn, wd, vn, vd = w.numerator, w.denominator, v.numerator, v.denominator
    d1 = wn * vd * p2 + sign * vn * wd * q2  # c0 |p|^2 wd vd
    c0 = Fraction(d1, p2 * wd * vd)
    k = sign * vn * wd
    return (
        ((wn * vd * p2, 0), (k * mr, -k * mi), d1),
        ((-mr, -mi), (p2, 0), p2),
        (c0, w * v / c0),
    )


def _combine(x, a, y, b) -> tuple:
    """x a + y b for Gaussian integers x, y and rows a, b, without the entries that cancel."""
    (xr, xi), (yr, yi) = x, y
    out = {c: (xr * ar - xi * ai, xr * ai + xi * ar) for c, ar, ai in a}
    for c, br, bi in b:
        ur, ui = out.get(c, (0, 0))
        out[c] = (ur + yr * br - yi * bi, ui + yr * bi + yi * br)
    return tuple((c, ur, ui) for c, (ur, ui) in sorted(out.items()) if ur or ui)


def _apply(rotation, a, b) -> tuple:
    """((a', w'), (b', v')): a `_rotation` applied to rows a and b, rows made primitive."""
    (x1, y1, d1), (x2, y2, d2), (w1, v1) = rotation
    return (
        _primitive(_combine(x1, a, y1, b), w1 / (d1 * d1)),
        _primitive(_combine(x2, a, y2, b), v1 / (d2 * d2)),
    )


def _squares(n: int, basis, terms) -> HermitianPoly:
    """sum weight |row . Z|^2 over the (row, weight) terms, in n variables.

    `terms` are (row, weight) pairs with sparse rows over the sorted
    `basis` and Fraction weights; the upper triangle (alpha <= beta),
    which is the table, is summed in ints over the lcm of the weights'
    denominators.
    """
    den = lcm(*(w.denominator for _, w in terms))
    out: dict = {}
    get = out.get
    for row, w in terms:
        s = w.numerator * (den // w.denominator)
        nz = [(basis[j], x, y) for j, x, y in row]
        for i, (alpha, x, y) in enumerate(nz):
            sx, sy = s * x, s * y
            for beta, u, t in nz[i:]:
                # s * conj(x + iy) * (u + it)
                key = (alpha, beta)
                re, im = sx * u + sy * t, sx * t - sy * u
                cur = get(key)
                out[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    return HermitianPoly._from_table(n, den, {key: z for key, z in out.items() if z[0] or z[1]})


def decompose(r: HermitianPoly) -> DecomposedForm:
    """The exact signed-squares decomposition of r, as a form whose target is r.

    On the diagonal route (`psi._routed`) r is sum_a (c_a / L) |z^a|^2
    already: monomial j of its sorted table is the one-entry square
    ((j, 1, 0),) of weight |c_a| / L, in the plus block when c_a > 0, and
    nothing is factored.  Otherwise r's coefficient matrix M is factored as
    diag == T* M T, so
    M == sum_k diag[k] (row k of T^-1)* (row k of T^-1).  Row k of T^-1 is
    its nonzero entries over its pivot minor den, which may be negative; it
    becomes the row sign(den) * entries of weight |diag[k]| / den^2, made
    primitive, in the plus block when diag[k] > 0 and the minus block when
    diag[k] < 0.
    """
    routed = _routed(r)
    plus, minus = [], []
    if isinstance(routed, RealSparsePoly):
        basis = tuple(sorted(routed.table))
        for j, a in enumerate(basis):
            c = routed.table[a]
            (plus if c > 0 else minus).append((((j, 1, 0),), Fraction(abs(c), routed.scale)))
    else:
        fact = congruence_factorization(r)
        basis = fact.basis
        for d, (den, entries) in zip(fact.diag, fact.inverse_rows):
            if d:
                row = entries if den > 0 else tuple((c, -x, -y) for c, x, y in entries)
                (plus if d > 0 else minus).append(_primitive(row, abs(d) / (den * den)))
    return DecomposedForm(
        plus_rows=tuple(row for row, _ in plus),
        plus_weights=tuple(w for _, w in plus),
        minus_rows=tuple(row for row, _ in minus),
        minus_weights=tuple(w for _, w in minus),
        basis=basis,
        target=r,
    )


@dataclass(frozen=True)
class HyperbolicStep:
    """One cross-block step: rows (a, b) become t (a, b), and t* diag(w', -v') t == diag(w, -v).

    t is `_rotation`'s rows ((x1, y1, d1), (x2, y2, d2)): row k of t is
    (x_k, y_k) / d_k, Gaussian integers (re, im) over an int d_k > 0.  The
    engine stores each new row scaled by a positive rational, with its
    weight divided by that rational's square.
    """

    t: tuple
    weights: tuple  # ((w, v), (w', v')): before and after the step, positive Fractions
    pivot_col: int
    rows: tuple  # (plus row index, minus row index)
    lambda_used: Fraction | None

    def j_identity_holds(self) -> bool:
        """t* diag(w', -v') t == diag(w, -v), exactly: in ints times the weights, over (d1 d2)^2."""
        (w, v), (w1, v1) = self.weights
        (*r1, d1), (*r2, d2) = self.t
        a, b, s = w1 * d2 * d2, v1 * d1 * d1, (d1 * d2) ** 2

        def entry(i, j) -> tuple:
            (pr, pi), (qr, qi) = _hdot(r1[i], r1[j]), _hdot(r2[i], r2[j])
            return pr * a - qr * b, pi * a - qi * b

        return entry(0, 0) == (w * s, 0) and entry(1, 1) == (-v * s, 0) and entry(0, 1) == (0, 0)


def _hdot(u, z) -> tuple:
    """conj(u) z for Gaussian integers (re, im)."""
    return u[0] * z[0] + u[1] * z[1], u[0] * z[1] - u[1] * z[0]


def _cross_step(p, q, w, v, pivot_col, rows, lambda_used) -> tuple:
    """(step, rotation): the checked cross-block step on Gaussian-integer pivots p, q.

    The rotation is the one to apply to the rows; the step is built from it,
    so the dominance and J-identity checks hold for what is applied.  The
    rescale before a step restores dominance, so a failure of either check
    is an internal fault and raises CertificateFailure.
    """
    p2, q2 = p[0] ** 2 + p[1] ** 2, q[0] ** 2 + q[1] ** 2
    if w * p2 <= v * q2:
        raise CertificateFailure(f"w|a1|^2 must exceed v|b1|^2: w = {w}, v = {v}, a1 : b1 = {p} : {q}")
    rotation = _rotation(p, q, w, v, -1)
    *t, after = rotation
    step = HyperbolicStep(tuple(t), ((w, v), after), pivot_col, rows, lambda_used)
    if not step.j_identity_holds():
        raise CertificateFailure(f"step {step.t} misses the J-identity")
    return step, rotation


def _insert(block: list, row, weight) -> None:
    """Add a row to a block of (lead, row, weight) kept in echelon form, sorted by lead.

    A row leading where a block row leads is stepped against it until it
    leads in a free column; a row that reduces to zero means the block's
    rows are dependent, which raises CertificateFailure.
    """
    while True:
        c = _lead(row)
        if c is None:
            raise CertificateFailure("a block lost rank: a row reduced to zero")
        i = bisect_left(block, (c,))
        if i == len(block) or block[i][0] != c:
            block.insert(i, (c, row, weight))
            return
        _, a, w = block[i]
        (a, w), (row, weight) = _apply(_rotation(a[0][1:], row[0][1:], w, weight, +1), a, row)
        block[i] = (c, a, w)


def _echelon(rows, weights) -> list:
    block: list = []
    for row, weight in zip(rows, weights):
        _insert(block, row, weight)
    return block


def is_partial_row_echelon(form: DecomposedForm) -> bool:
    """Rows permute into row-echelon form: nonzero rows have distinct leading columns."""
    leads = [c for c in map(_lead, form.plus_rows + form.minus_rows) if c is not None]
    return len(leads) == len(set(leads))


def partial_row_echelon(form: DecomposedForm) -> tuple:
    """Drive the stacked rows into partial row-echelon form: (reduced form, steps).

    Requires a target that is a member at power 1.  Each block is brought
    to echelon form; the first column led by rows of both blocks is resolved
    by a hyperbolic step, after a rescale of the minus weights whenever the
    minus pivot dominates, until no column is.  The reduced form's target
    carries the rescales.  Ends with two exact checks, either of which raises
    CertificateFailure: the leading columns are distinct, and the rows
    represent the target.  A block that loses rank raises as well.
    """
    if form.target is None:
        raise NotInPsiD("reduction requires the exact target polynomial")
    if not in_psi(form.target, 1).member:
        raise NotInPsiD("target is not a member at power 1")

    plus = _echelon(form.plus_rows, form.plus_weights)
    minus = _echelon(form.minus_rows, form.minus_weights)
    moved: list = []  # (row, weight): minus mass the rescales moved into the target
    steps: list = []
    while True:
        plus_at = {lead: i for i, (lead, _, _) in enumerate(plus)}
        rb = next((j for j, (lead, _, _) in enumerate(minus) if lead in plus_at), None)
        if rb is None:
            break
        c, b, v = minus[rb]
        ra = plus_at[c]
        _, a, w = plus[ra]
        lam = None
        excess = v * (b[0][1] ** 2 + b[0][2] ** 2) / (w * (a[0][1] ** 2 + a[0][2] ** 2))
        if excess >= 1:
            # the largest 2^-k with 2^-k * excess < 1
            lam = Fraction(1, 1 << (excess.numerator // excess.denominator).bit_length())
            moved += [(row, (1 - lam) * u) for _, row, u in minus]
            minus = [(lead, row, u * lam) for lead, row, u in minus]
            v *= lam
        step, rotation = _cross_step(a[0][1:], b[0][1:], w, v, c, (ra, rb), lam)
        (a, w), (b, v) = _apply(rotation, a, b)
        plus[ra] = (c, a, w)
        del minus[rb]
        _insert(minus, b, v)
        steps.append(step)

    reduced = DecomposedForm(
        plus_rows=tuple(row for _, row, _ in plus),
        plus_weights=tuple(w for _, _, w in plus),
        minus_rows=tuple(row for _, row, _ in minus),
        minus_weights=tuple(v for _, _, v in minus),
        basis=form.basis,
        target=form.target + _squares(form.target.n, form.basis, moved) if moved else form.target,
    )
    if not is_partial_row_echelon(reduced):
        raise CertificateFailure("reduction finished without distinct leading columns")
    err = reconstruction_error(reduced)
    if err:
        raise CertificateFailure(f"reduced rows miss the target by {err}")
    return reduced, steps


def reconstruction_error(form: DecomposedForm) -> Fraction:
    """Largest gap between a coefficient of the form and of its target, exactly.

    Real and imaginary parts are compared separately; the gap is 0 when the
    rows represent the target, and 0 for a form without a target.
    """
    if form.target is None:
        return Fraction(0)
    terms = list(zip(form.plus_rows, form.plus_weights))
    terms += [(row, -v) for row, v in zip(form.minus_rows, form.minus_weights)]
    gap = _squares(form.target.n, form.basis, terms) + form.target.times(-1)
    return Fraction(max((abs(x) for z in gap.table.values() for x in z), default=0), gap.scale)
