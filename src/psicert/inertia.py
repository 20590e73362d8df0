"""Exact inertia of Hermitian coefficient tables by fraction-free congruence.

`congruence_factorization` takes a `polycore.HermitianPoly` r, as the
readers and the power and multiplier shift passes build it: its
Gaussian-integer table {(alpha, beta): (re, im)} over one triangle,
Hermitian and over the minimal scale L, stands for table / L, and the type
holds both conditions, so nothing here checks them again.  It lays the
table out as the upper triangle of dense integer rows over the sorted index
set, labelling the connected blocks of the nonzero pattern as it goes, and
runs symmetric Bareiss elimination (Bareiss 1968) on that triangle over
Gaussian integers held as pairs of Python ints, in the sorted index order
with a pivot minor per block.
Sylvester's identity makes every division exact, and the pivot signs come
from ratios of successive pivot minors.  Pivots are 1x1 only.  When a
diagonal entry vanishes but its row does not, a congruence that adds
another row/column into it (with a factor of 1, -1 or i) manufactures a
nonzero entry, so square roots never appear.  Sylvester's law of inertia
makes the sign counts of the resulting diagonal the inertia of the input.
`psd_factorization` runs the same elimination but stops at the first
negative pivot, which decides positive semidefiniteness.

The factorization stores the elimination record only, in ints, each at
its own block's scale: (basis, scale, pivots, steps); the inertia,
`pivot_log`, `column_scales`, `diag`, `inverse_rows` (T^-1) and
`integer_column` (one column of T) are views of it, and nothing printed
depends on the blocks.  Vectors are tuples of (re, im) int pairs;
`table_quadratic_form` evaluates a witness on r's table itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import CertificateFailure, ExplicitLimit, PsicertError
from .polycore import HermitianPoly

_HARD_DIM_CAP = 2048


def _dim_cap() -> int:
    """Desk-scale cap on dense dimension; the environment may lower it."""
    env = os.environ.get("PSI_MAX_DIM")
    if not env:
        return _HARD_DIM_CAP
    try:
        cap = int(env)
        if cap <= 0:
            raise ValueError
    except ValueError:
        raise PsicertError(f"PSI_MAX_DIM must be a positive integer, got {env!r}") from None
    return min(_HARD_DIM_CAP, cap)


@dataclass(frozen=True)
class CongruenceFactorization:
    """diag == T* . M . T, exactly, M the matrix over `basis`.

    The factorization stores its elimination record and nothing else:
    `basis`, the scale L of the table, `pivots` and `steps`.  `pivots[k]`
    is diagonal entry k as the ints (num, den), not reduced: den is L times
    the pivot minor of k's block before k (1 for its first pivot), nonzero
    but possibly negative, and num is that block's minor through k, or 0.
    T is the product E_1 ... E_m of the congruence steps in `steps`, in
    order: a pivot on q is (q, p, ((c, re, im), ...)), p = a_qq
    and the nonzero entries a_qc of row q over q and the indices c then
    active in q's block, at that block's scale; only the ratios a_qc / p
    enter T.  A bump is (i, j, fr, fi), column i += f * column j with
    f = fr + i*fi.  A record that `psd_factorization` stopped holds the
    pivots of the indices up to its negative one only.

    Everything else is a view: `inertia`, `pivot_log` and `column_scales`
    are read on each access, `diag` (the pivots as Fractions) and
    `inverse_rows` (the rows of T^-1) on first access, and `integer_column`
    replays one column of T.
    """

    basis: tuple  # index of each row and column
    scale: int  # L: the matrix is the table over L
    pivots: tuple  # of (num, den) int pairs, original index order
    steps: tuple

    @cached_property
    def diag(self) -> tuple:
        """The diagonal entries as reduced Fractions, original index order."""
        return tuple(Fraction(num, den) for num, den in self.pivots)

    @property
    def column_scales(self) -> tuple:
        """The pivot minor of k's block before k, at each index k: it makes column k of T integral."""
        return tuple(den // self.scale for _, den in self.pivots)

    @cached_property
    def inverse_rows(self) -> tuple:
        """Row k of T^-1 as (den, ((col, re, im), ...)): its nonzero entries, col ascending, over den (maybe < 0).

        T^-1 = E_m^-1 ... E_1^-1, so row k is e_k times the inverse steps
        from the last.  A step after k's pivot leaves e_k as it is, k's
        pivot gives its entries over p (the very tuple when no bump came
        before), and an earlier pivot's index is zero in what is left.  So
        only the earlier bumps (i, j, f) act, latest first, each subtracting
        f * entry j from entry i; a bump in another block finds no entry j.
        Entry i is absent until then, or k's own p, which k's bump leaves at
        conj(f a_kj) != 0, so no entry is zero.
        An index never pivoted starts from e_k over 1 and takes every bump.
        One forward pass over the steps collects the bumps before each pivot.
        """
        starts, bumps = {}, []
        for step in self.steps:
            if len(step) == 4:
                bumps.append(step)
            else:
                starts[step[0]] = (step[1], step[2], len(bumps))
        rows = []
        for k in range(len(self.pivots)):
            den, entries, before = starts.get(k, (1, ((k, 1, 0),), len(bumps)))
            if before:
                row = {c: (a, b) for c, a, b in entries}
                for i, j, fr, fi in reversed(bumps[:before]):
                    if j in row:
                        (a, b), (x, y) = row[j], row.get(i, (0, 0))
                        row[i] = (x - fr * a + fi * b, y - fr * b - fi * a)
                entries = tuple((c, a, b) for c, (a, b) in sorted(row.items()))
            rows.append((den, entries))
        return tuple(rows)

    @property
    def inertia(self) -> tuple:
        pos = neg = 0
        for num, den in self.pivots:
            if num:
                if (num > 0) == (den > 0):
                    pos += 1
                else:
                    neg += 1
        return (pos, neg, len(self.pivots) - pos - neg)

    @property
    def pivot_log(self) -> tuple:
        """The steps in order, read as ("pivot", k) and ("bump", i, j, "1", "-1" or "i")."""
        return tuple(
            ("bump", step[0], step[1], "i" if step[3] else str(step[2])) if len(step) == 4 else ("pivot", step[0])
            for step in self.steps
        )

    def integer_column(self, k: int) -> tuple:
        """Column k of T times its scale, as (re, im) int pairs.

        T . e_k = E_1 (... (E_m . e_k)).  Only the steps before k's own
        pivot are replayed, backwards: a later step touches only indices
        still active, and e_k is zero on those.  A pivot on q sets x_q
        to -sum_c a_qc * x_c / p over its entries, x_q being still 0 there;
        a bump (i, j, f) adds f * x_i to x_j.  x is held as ints over one
        denominator, kept primitive.  A column that the scale does not make
        integral raises CertificateFailure.
        """
        dim = len(self.basis)
        xr, xi = [0] * dim, [0] * dim
        xr[k] = den = 1
        steps = self.steps
        stop = next((s for s, step in enumerate(steps) if len(step) == 3 and step[0] == k), len(steps))
        for step in reversed(steps[:stop]):
            if len(step) == 4:
                i, j, fr, fi = step
                a, b = xr[i], xi[i]
                xr[j] += fr * a - fi * b
                xi[j] += fr * b + fi * a
                continue
            q, p, entries = step
            sr = si = 0
            for c, a, b in entries:
                u, v = xr[c], xi[c]
                if u or v:
                    sr += a * u - b * v
                    si += a * v + b * u
            if not (sr or si):
                continue
            xr = [p * u for u in xr]
            xi = [p * v for v in xi]
            xr[q], xi[q] = -sr, -si
            den *= p
            g = gcd(den, *xr, *xi)
            if g != 1:
                xr = [u // g for u in xr]
                xi = [v // g for v in xi]
                den //= g
        scale = self.pivots[k][1] // self.scale
        column = []
        for u, v in zip(xr, xi):
            a, ra = divmod(u * scale, den)
            b, rb = divmod(v * scale, den)
            if ra or rb:
                raise CertificateFailure(f"column {k} of the transform is not integral at its scale")
            column.append((a, b))
        return tuple(column)


def congruence_factorization(r: HermitianPoly) -> CongruenceFactorization:
    """Exact congruence factorization of the coefficient matrix of r.

    The matrix is r.table / r.scale, indexed by the sorted index set, which
    the factorization carries as `basis`.  A table over more than
    `PSI_MAX_DIM` indices raises ExplicitLimit: the cap counts the whole
    matrix, not its largest block.
    """
    basis, re, im, labels = _integer_rows(r)
    return _bareiss(basis, r.scale, re, im, labels)


def psd_factorization(r: HermitianPoly) -> CongruenceFactorization:
    """The elimination of `congruence_factorization`, stopped at its first negative pivot.

    The whole factorization when r's coefficient matrix is positive
    semidefinite; otherwise the record up to and including the negative
    pivot, which is its last pivot and the only one its `inertia` counts
    negative, and whose `integer_column` is a negative direction.
    """
    basis, re, im, labels = _integer_rows(r)
    return _bareiss(basis, r.scale, re, im, labels, stop=True)


def _integer_rows(r: HermitianPoly) -> tuple:
    """(basis, re, im, labels): the upper triangle of r.scale times the coefficient matrix of r, and its blocks.

    The basis is the sorted index set; the entries below the diagonal stay
    0, as r's table holds alpha <= beta.  The dimension cap is checked before
    any row is allocated.  `labels[k]` is the least index of the connected
    component of the nonzero pattern that holds k, found by a union-find
    over the table's nonzero entries while the rows are laid out.
    """
    basis = sorted({a for key in r.table for a in key})
    dim = len(basis)
    cap = _dim_cap()
    if dim > cap:
        raise ExplicitLimit(f"dimension {dim} exceeds cap {cap}")
    pos = {b: i for i, b in enumerate(basis)}
    re = [[0] * dim for _ in range(dim)]
    im = [[0] * dim for _ in range(dim)]
    labels = list(range(dim))  # parent links, each to a smaller index, until the last pass
    for (alpha, beta), (x, y) in r.table.items():
        i, j = pos[alpha], pos[beta]
        re[i][j] = x
        im[i][j] = y
        if i < j and (x or y):  # join the roots, halving the paths to them
            while labels[i] != i:
                labels[i] = i = labels[labels[i]]
            while labels[j] != j:
                labels[j] = j = labels[labels[j]]
            if i < j:
                labels[j] = i
            elif j < i:
                labels[i] = j
    for k in range(dim):
        labels[k] = labels[labels[k]]
    return tuple(basis), re, im, labels


def _bareiss(basis, L: int, re, im, labels, stop: bool = False) -> CongruenceFactorization:
    """Symmetric Bareiss elimination of (re + i*im) / L over Gaussian integers, in index order, a pivot minor per block.

    `re` and `im` hold the upper triangle of a Hermitian matrix of ints over
    `basis`, and L > 0; it is overwritten, and a_ij below it is read as
    conj(a_ji).  `labels[k]` names the block of index k, and no nonzero
    entry links two blocks.  Let m_s be the principal minor of a block on
    its first s pivots, after any bumps (m_0 = 1).  An active entry a_ij of
    that block then holds m_s * L times the matching entry of the rational
    Schur complement.  Pivoting on k, with p = a_kk = m_{s+1}, maps a_ij
    over k's block to
    (p * a_ij - a_ik * a_kj) / m_s; Sylvester's identity makes the division
    exact, and a remainder raises CertificateFailure.  The pivot is recorded
    as pivots[k] = (p, L * m_s), at its own block's scale, so a block's
    record is the one it gets factored alone.  Neither T nor its inverse is
    formed: each pivot and bump is recorded as a step, and the
    factorization's views read the steps.

    Pivot rule: the indices are taken in order, k the least active index,
    so without a bump row k of T^-1 is k's pivot row, leading in column k.
    If a_kk = 0 and row k is zero, k is a zero of the diagonal, (0, L * m_s).
    Otherwise column k += f * column j and row k += conj(f) * row j, for j
    the least index with a_kj != 0, make a_kk = 2 Re(f a_kj) + a_jj; f is
    the first of 1, -1, i that makes it nonzero (when 1 and -1 both fail,
    Re(a_kj) = a_jj = 0 and i gives -2 Im(a_kj) != 0); on the triangle
    that is a_kc += conj(f) * a_jc for the active c > k.  With `stop`, the
    elimination returns at its first negative pivot, its record then ending
    there.
    """
    blocks = {}  # label -> [pivot minor, active indices ascending]
    for k, label in enumerate(labels):
        blocks.setdefault(label, [1, []])[1].append(k)
    pivots, steps = [], []

    for k, label in enumerate(labels):
        block = blocks[label]
        prev, active = block  # k == active[0]
        rk, ik = re[k], im[k]
        p = rk[k]
        if not p:
            j = next((j for j in active if rk[j] or ik[j]), None)
            if j is None:
                del active[0]
                pivots.append((0, L * prev))  # a zero row: a zero of the diagonal
                continue
            x, y, rj, ij = rk[j], ik[j], re[j], im[j]
            fr, fi = next((fr, fi) for fr, fi in ((1, 0), (-1, 0), (0, 1)) if 2 * (fr * x - fi * y) + rj[j])
            # on the triangle the congruence changes row k only: a_kc += conj(f) * a_jc, a_jc = conj(a_cj) for c < j
            for c in active[1:]:
                u, v = (rj[c], ij[c]) if c >= j else (re[c][j], -im[c][j])
                rk[c] += fr * u + fi * v
                ik[c] += fr * v - fi * u
            steps.append((k, j, fr, fi))
            p = rk[k] = 2 * (fr * x - fi * y) + rj[j]
        steps.append((k, p, tuple((c, rk[c], ik[c]) for c in active if rk[c] or ik[c])))
        del active[0]
        pivots.append((p, L * prev))
        if stop and (p > 0) != (prev > 0):  # a negative pivot, over den = L * m_s
            break
        block[0] = p
        col = [(i, rk[i], -ik[i]) for i in active]  # a_ik = conj(a_ki)

        # active block, upper triangle; a row with a_ik = 0 only rescales its nonzeros
        for idx, (i, xr, xi) in enumerate(col):
            ri, ii = re[i], im[i]
            for j, yr, yi in col[idx:] if xr or xi else [(j, 0, 0) for j, _, _ in col[idx:] if ri[j] or ii[j]]:
                nr = p * ri[j] - xr * yr - xi * yi
                ni = p * ii[j] - xi * yr + xr * yi
                if prev != 1:
                    nr, qr = divmod(nr, prev)
                    ni, qi = divmod(ni, prev)
                    if qr or qi:
                        raise CertificateFailure("inexact Bareiss division")
                ri[j] = nr
                ii[j] = ni

    return CongruenceFactorization(basis=basis, scale=L, pivots=tuple(pivots), steps=tuple(steps))


def table_quadratic_form(r: HermitianPoly, basis, v) -> Fraction:
    """v* M v for M the coefficient matrix of r and v a tuple of (re, im) int pairs over `basis`, in ints.

    An off-diagonal entry and its mirror are two terms.  A nonzero imaginary
    part raises CertificateFailure.
    """
    comps = {b: z for b, z in zip(basis, v) if z[0] or z[1]}
    acc_re = acc_im = 0
    for (alpha, beta), (x, y) in r.table.items():
        va = comps.get(alpha)
        vb = comps.get(beta)
        if va is None or vb is None:
            continue
        # conj(va) * (x + iy) * vb, and conj(vb) * (x - iy) * va off the diagonal
        for (p, q), (u, w), y in ((va, vb, y), (vb, va, -y)) if alpha != beta else ((va, vb, y),):
            t_re, t_im = x * u - y * w, x * w + y * u
            acc_re += p * t_re + q * t_im
            acc_im += p * t_im - q * t_re
    if acc_im:
        raise CertificateFailure(f"v* M v has imaginary part {Fraction(acc_im, r.scale)}")
    return Fraction(acc_re, r.scale)


def inertia(r: HermitianPoly) -> tuple:
    """(n_plus, n_minus, n_zero) of r's coefficient matrix over its index set, exactly."""
    return congruence_factorization(r).inertia
