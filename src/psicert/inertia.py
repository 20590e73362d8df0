"""Exact inertia of Hermitian coefficient tables by fraction-free congruence.

The one entry, `congruence_factorization`, takes a `polycore.HermitianPoly`
r, as the readers and the power and multiplier shift passes build it: its
Gaussian-integer table {(alpha, beta): (re, im)} over both triangles,
Hermitian and over the minimal scale L, stands for table / L, and the type
holds both conditions, so nothing here checks them again.  It lays the
table out as dense integer rows over the sorted index set and runs
symmetric Bareiss elimination (Bareiss 1968) over Gaussian integers held
as pairs of Python ints.  Sylvester's identity makes every
division exact, and the pivot signs come from ratios of successive pivot
minors.  Pivots are 1x1 only.  When the active diagonal vanishes but the
block does not, a congruence that adds one row/column into another (with a
factor of 1 or i) manufactures a nonzero diagonal entry, so square roots
never appear.  Sylvester's law of inertia makes the sign counts of the
resulting diagonal the inertia of the input.  A matrix whose nonzero
pattern is a direct sum of blocks, as the product matrices of members
rotated in one coordinate plane are, is eliminated in the same one body
with a pivot minor per block: each pivot updates its own block only, and
the whole matrix's minor is the product of the block minors, so every
pivot, column and witness is the one a single minor would give.

The factorization stores the elimination record only, in ints: (basis,
scale, pivots, steps); the inertia, `pivot_log`, `column_scales`, `diag`,
`inverse_rows` (T^-1) and `integer_column` (one column of T) are views of
it.  Vectors are tuples of (re, im) int pairs; `table_quadratic_form`
evaluates a witness on r's table itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
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
    the pivot minor of the whole matrix in force at k (the last minor for
    indices left in a zero block), nonzero but possibly negative.  T is
    the product E_1 ... E_m of the congruence steps in `steps`, in order: a
    pivot on q is (q, p, ((c, re, im), ...)), p = a_qq and the entries
    a_qc of row q over the indices c then active in q's block, at that
    block's scale; only the ratios a_qc / p enter T.  A bump is (i, j, fr,
    fi), column i += f * column j with f = fr + i*fi.

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
        """The pivot minor of the whole matrix at each index: it makes column k of T integral."""
        return tuple(den // self.scale for _, den in self.pivots)

    @cached_property
    def inverse_rows(self) -> tuple:
        """Row k of T^-1 as (den, ((col, re, im), ...)): Gaussian integers over den, which may be negative.

        T^-1 = E_m^-1 ... E_1^-1, so row k is e_k times the inverse steps
        from the last.  A step after k's pivot leaves e_k as it is, k's
        pivot gives its entries over p (the very tuple when no bump came
        before), and an earlier pivot's index is zero in what is left.  So
        only the earlier bumps (i, j, f) act, latest first, each subtracting
        f * entry j from entry i; a bump in another block finds no entry j.
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
        """The steps in order, read as ("pivot", k) and ("bump", i, j, "1" or "i")."""
        return tuple(
            ("bump", step[0], step[1], "1" if step[2] else "i") if len(step) == 4 else ("pivot", step[0])
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
        dim = len(self.pivots)
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
    the factorization carries as `basis`.  Pivots are deterministic.  A
    table over more than `PSI_MAX_DIM` indices raises ExplicitLimit: the cap
    counts the whole matrix, not its largest block.

    Every matrix takes the same path: its rows, the connected blocks of
    their nonzero pattern, and one elimination that keeps a pivot minor per
    block.
    """
    basis, re, im = _integer_rows(r)
    return _bareiss(basis, r.scale, re, im, _blocks(re, im))


def _blocks(re, im) -> list:
    """The connected component of the nonzero pattern of re + i*im that holds each index.

    Components are numbered 0, 1, ... in order of their least index and
    grown from index 0; the scan stops as soon as the first covers every
    index, which is then all one block.
    """
    labels, rest, label = [0] * len(re), list(range(len(re))), 0
    while rest:
        block = [rest.pop(0)]
        for i in block:  # grows while it is walked
            if not rest:
                break
            ri, ii = re[i], im[i]
            unlinked = []
            for j in rest:
                if ri[j] or ii[j]:
                    block.append(j)
                else:
                    unlinked.append(j)
            rest = unlinked
        for i in block:
            labels[i] = label
        label += 1
    return labels


def _integer_rows(r: HermitianPoly) -> tuple:
    """(basis, re, im): dense rows of r.scale times the coefficient matrix of r.

    The basis is the sorted index set.  The dimension cap is checked before
    any row is allocated.
    """
    basis = sorted({a for key in r.table for a in key})
    dim = len(basis)
    cap = _dim_cap()
    if dim > cap:
        raise ExplicitLimit(f"dimension {dim} exceeds cap {cap}")
    pos = {b: i for i, b in enumerate(basis)}
    re = [[0] * dim for _ in range(dim)]
    im = [[0] * dim for _ in range(dim)]
    for (alpha, beta), (x, y) in r.table.items():
        i, j = pos[alpha], pos[beta]
        re[i][j] = x
        im[i][j] = y
    return tuple(basis), re, im


def _bareiss(basis, L: int, re, im, labels) -> CongruenceFactorization:
    """Symmetric Bareiss elimination of (re + i*im) / L over Gaussian integers, a pivot minor per block.

    `re` and `im` are the rows of a Hermitian matrix of ints over `basis`
    and L > 0; the rows are overwritten.  `labels[k]` names the block of
    index k, and no nonzero entry links two blocks.  Let m_s be the
    principal minor of a block on its first s pivots, after any bumps
    (m_0 = 1).  An active entry a_ij of that block then holds m_s * L times
    the matching entry of the rational Schur complement.  Pivoting on k,
    with p = a_kk = m_{s+1}, maps a_ij over k's block to
    (p * a_ij - a_ik * a_kj) / m_s; Sylvester's identity makes the division
    exact, and a remainder raises CertificateFailure.  The pivot minor g of
    the whole matrix is the product of the block minors, so the pivot gets
    pivots[k] = (p * g / m_s, L * g), as the whole-matrix elimination gives
    it.  Neither T nor its inverse is formed: each pivot and bump is
    recorded as a step, and the factorization's views read the steps.

    Pivot rule: among the active diagonal, take the entry of largest
    |a_kk| / |m_s|, its block's minor, which orders the entries of the
    rational complement; blocks are compared by cross-multiplied ints, the
    smallest index on ties.  If the active diagonal is all zero but an
    active off-diagonal entry remains, add row/column j into row/column i
    (factor 1, or i when the entry is purely imaginary) to create a pivot,
    i the least such row.  With every index in one block this is the plain
    symmetric Bareiss elimination.
    """
    dim = len(re)
    blocks = {}  # label -> [pivot minor, active indices ascending]
    for k, label in enumerate(labels):
        blocks.setdefault(label, [1, []])[1].append(k)
    pivots = [None] * dim
    g = 1
    steps = []
    left = dim  # indices not yet pivoted

    while left:
        block = None
        for state in blocks.values():
            minor, active = state
            best, best_mag = None, 0
            for k in active:
                mag = abs(re[k][k])
                if mag > best_mag:
                    best, best_mag = k, mag
            if best is None:
                continue
            if block is not None:  # |a_kk| / |minor| against the best block's so far
                lhs, rhs = best_mag * abs(block[0]), top_mag * abs(minor)
                if lhs < rhs or (lhs == rhs and best > top):
                    continue
            block, top, top_mag = state, best, best_mag
        if block is None:
            rows = sorted(chain.from_iterable(active for _, active in blocks.values()))
            bump = next(
                (
                    (i, j)
                    for i in rows
                    for j in blocks[labels[i]][1]
                    if i != j and (re[i][j] or im[i][j])
                ),
                None,
            )
            if bump is None:
                break  # all-zero active blocks: zeros of the diagonal
            i, j = bump
            active = blocks[labels[i]][1]
            # a factor of 1 creates 2*Re(entry); fall back to i when that is zero
            fr, fi = (1, 0) if re[i][j] else (0, 1)
            # congruence: column i += f * column j, then row i += conj(f) * row j
            for r in active:
                a, b = re[r][j], im[r][j]
                re[r][i] += fr * a - fi * b
                im[r][i] += fr * b + fi * a
            for c in active:
                a, b = re[j][c], im[j][c]
                re[i][c] += fr * a + fi * b
                im[i][c] += fr * b - fi * a
            steps.append((i, j, fr, fi))
            continue

        prev, active = block
        k = top
        p = re[k][k]
        rk, ik = re[k], im[k]
        steps.append((k, p, tuple((c, rk[c], ik[c]) for c in active)))
        active.remove(k)
        left -= 1
        num = p if g == prev else p * (g // prev)  # times the other blocks' minors
        pivots[k] = (num, L * g)
        g = num
        block[0] = p
        col = [(i, re[i][k], im[i][k]) for i in active]

        # active block: upper triangle, mirrored into the lower
        for idx, (i, xr, xi) in enumerate(col):
            ri, ii = re[i], im[i]
            for j, yr, yi in col[idx:]:
                nr = p * ri[j] - xr * yr - xi * yi
                ni = p * ii[j] - xi * yr + xr * yi
                if prev != 1:
                    nr, qr = divmod(nr, prev)
                    ni, qi = divmod(ni, prev)
                    if qr or qi:
                        raise CertificateFailure("inexact Bareiss division")
                ri[j] = nr
                ii[j] = ni
                re[j][i] = nr
                im[j][i] = -ni

    pivots = tuple(pair or (0, L * g) for pair in pivots)  # indices left in all-zero blocks
    return CongruenceFactorization(basis=basis, scale=L, pivots=pivots, steps=tuple(steps))


def table_quadratic_form(r: HermitianPoly, basis, v) -> Fraction:
    """v* M v for M the coefficient matrix of r and v a tuple of (re, im) int pairs over `basis`, in ints.

    A nonzero imaginary part raises CertificateFailure.
    """
    comps = {b: z for b, z in zip(basis, v) if z[0] or z[1]}
    acc_re = acc_im = 0
    for (alpha, beta), (x, y) in r.table.items():
        va = comps.get(alpha)
        vb = comps.get(beta)
        if va is None or vb is None:
            continue
        # conj(va) * (x + iy) * vb
        (p, q), (u, w) = va, vb
        t_re, t_im = x * u - y * w, x * w + y * u
        acc_re += p * t_re + q * t_im
        acc_im += p * t_im - q * t_re
    if acc_im:
        raise CertificateFailure(f"v* M v has imaginary part {Fraction(acc_im, r.scale)}")
    return Fraction(acc_re, r.scale)


def inertia(r: HermitianPoly) -> tuple:
    """(n_plus, n_minus, n_zero) of r's coefficient matrix over its index set, exactly."""
    return congruence_factorization(r).inertia
