"""Exact inertia of Hermitian coefficient tables by fraction-free congruence.

The one entry, `congruence_factorization`, takes a Gaussian-integer table
(L, {(alpha, beta): (re, im)}) standing for table / L, as a
`polycore.HermitianPoly` holds it or as the power and multiplier shift
passes build it.  It lays the table out as dense integer rows over the sorted index
set and runs symmetric Bareiss elimination (Bareiss 1968) over Gaussian
integers held as pairs of Python ints.  Sylvester's identity makes every
division exact, and the pivot signs come from ratios of successive pivot
minors.  Pivots are 1x1 only.  When the active diagonal vanishes but the
block does not, a congruence that adds one row/column into another (with a
factor of 1 or i) manufactures a nonzero diagonal entry, so square roots
never appear.  Sylvester's law of inertia makes the sign counts of the
resulting diagonal the inertia of the input.  A larger matrix whose nonzero
pattern is a direct sum of blocks, as the product matrices of members
rotated in one coordinate plane are, is eliminated block by block, and the
blocks' steps are merged into the order the whole-matrix elimination would
take, so every pivot, column and witness is the same.

The factorization holds integer data only: each diagonal entry as a pair
of ints, the record of the elimination steps, from which `integer_column`
replays one column of the congruence transform on demand, and the
transform's inverse as Gaussian-integer rows over their pivots.  The
inertia is read off the signs of the pairs; `diag`, the same entries as
reduced Fractions, is built on first access.  Vectors are tuples of
(re, im) int pairs; `table_quadratic_form` evaluates a witness on the table
itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd

from .errors import CertificateFailure, ExplicitLimit, NotHermitian, PsicertError
from .polycore import HermitianPoly

_HARD_DIM_CAP = 2048
# Below this many indices the whole matrix is eliminated without looking for
# blocks: there the split's per-block calls and merge cost more than the
# dense elimination they save (measured on the rotated members of the
# benchmark, the split breaks even between dimensions 10 and 11).
_SPLIT_MIN_DIM = 12


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

    The elimination leaves integer data only.  `pivots[k]` is diagonal
    entry k as the ints (num, den), not reduced: den is the scale L times
    the pivot minor in force at k, nonzero but possibly negative; `diag`
    reads them as Fractions.  T is the product E_1 ... E_m of the
    congruence steps in `steps`, in order: a pivot on q is
    (q, p, ((c, re, im), ...)), p = a_qq and the entries a_qc of row q over
    the indices c then active; a bump is (i, j, fr, fi), column i += f *
    column j with f = fr + i*fi.  When the matrix was eliminated block by
    block, a pivot step's p and entries are at its block's scale, over the
    indices then active in its block; only the ratios a_qc / p enter T.
    `column_scales[k]` is the pivot minor of the whole matrix in force when
    k was pivoted, or the last minor for indices left in a zero block, and
    makes column k of T integral.  `inverse_rows[k]` is row k of T^-1 as
    (den, ((col, re, im), ...)): Gaussian integers over den, the pivot
    minor at k (its block's, when split), which may be negative.  Before
    any bump in its block, a pivot step's entries are the entries of its
    inverse row.
    """

    basis: tuple  # index of each row and column
    pivots: tuple  # of (num, den) int pairs, original index order
    steps: tuple
    column_scales: tuple
    inverse_rows: tuple

    @cached_property
    def diag(self) -> tuple:
        """The diagonal entries as reduced Fractions, original index order."""
        return tuple(Fraction(num, den) for num, den in self.pivots)

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
        scale = self.column_scales[k]
        column = []
        for u, v in zip(xr, xi):
            a, ra = divmod(u * scale, den)
            b, rb = divmod(v * scale, den)
            if ra or rb:
                raise CertificateFailure(f"column {k} of the transform is not integral at its scale")
            column.append((a, b))
        return tuple(column)


def congruence_factorization(scaled: tuple) -> CongruenceFactorization:
    """Exact congruence factorization of the coefficient matrix of table / L.

    `scaled` is (L, table) with table mapping (alpha, beta) to (re, im)
    ints, as a `HermitianPoly` holds it (`(r.scale, r.table)`); the matrix is indexed
    by the sorted index set, which the factorization carries as `basis`.
    Pivots are deterministic.  A table that is not Hermitian raises
    NotHermitian, and one over more than `PSI_MAX_DIM` indices ExplicitLimit:
    the cap counts the whole matrix, not its largest block.

    A matrix of at least `_SPLIT_MIN_DIM` indices whose nonzero pattern falls
    into several connected blocks is eliminated block by block, and
    `_merged` interleaves the blocks' steps in the order the whole-matrix
    elimination takes them; any other matrix is eliminated whole.
    """
    basis, L, re, im = whole = _integer_rows(scaled)
    blocks = _blocks(re, im) if len(basis) >= _SPLIT_MIN_DIM else ()
    if len(blocks) > 1:
        pieces = [
            (tuple(basis[i] for i in b), L, [[re[i][j] for j in b] for i in b], [[im[i][j] for j in b] for i in b])
            for b in blocks
        ]
    else:
        pieces = (whole,)
    parts = []
    for piece in pieces:
        parts.append(_bareiss(*piece))
    return _merged(basis, L, blocks, parts) if len(blocks) > 1 else parts[0]


def _blocks(re, im) -> list:
    """The connected components of the nonzero pattern of re + i*im, as ascending index lists.

    Components are grown in order of their least index, starting at 0, and
    the scan stops as soon as the first covers every index, which it
    returns as the one block.
    """
    blocks, rest = [], list(range(len(re)))
    while rest:
        block = [rest.pop(0)]
        for i in block:  # grows while it is walked
            if not rest:
                break
            ri, ii = re[i], im[i]
            linked = [j for j in rest if ri[j] or ii[j]]
            if linked:
                block += linked
                rest = [] if len(linked) == len(rest) else [j for j in rest if not (ri[j] or ii[j])]
        block.sort()
        blocks.append(block)
    return blocks


def _merged(basis, L: int, blocks, parts) -> CongruenceFactorization:
    """The factorization of a direct sum, from its blocks', as the whole-matrix elimination gives it.

    parts[b] factors the rows of blocks[b] over (re + i*im) / L.  The Schur
    complement of a direct sum is the direct sum of the blocks' complements,
    so the whole elimination, restricted to one block, takes that block's
    steps in the block's order; the merge interleaves the blocks' heads by
    the same rule.  The next step is the pivot head of largest |num/den|,
    the block's active diagonal entry of the rational complement (smallest
    index on ties); only when no head is a pivot, the bump head of least
    row index.  The whole matrix's minor g is the product of the block
    minors, so a pivot pair is its block's pair times g over the block's
    minor, and its column scale is g; an index no block pivots gets the
    final product.  Steps and inverse rows keep their block's scale.
    """
    dim = len(basis)
    pivots, scales, inverse_rows, steps = [None] * dim, [None] * dim, [None] * dim, []
    heads, queues = {}, []  # per block: its steps over global indices, reversed, and the head taken off
    for index, (block, part) in enumerate(zip(blocks, parts)):
        mapped = {}  # id of a block's entry tuple -> the tuple over global indices; steps share theirs with rows
        for k, (den, entries) in zip(block, part.inverse_rows):
            mapped[id(entries)] = row = tuple([(block[c], x, y) for c, x, y in entries])
            inverse_rows[k] = (den, row)
        queue = []
        for step in reversed(part.steps):
            if len(step) == 4:
                i, j, fr, fi = step
                queue.append(((block[i], block[j], fr, fi), None, None, 0, 0))
            else:
                q, p, entries = step
                row = mapped.get(id(entries)) or tuple([(block[c], x, y) for c, x, y in entries])
                num, den = part.pivots[q]
                queue.append(((block[q], p, row), num, den, abs(num), abs(den)))
        if queue:
            heads[index] = queue.pop()
        queues.append(queue)

    minors, g = [1] * len(parts), 1
    while heads:
        pick = None
        for b, (step, num, _, x, y) in heads.items():
            if num is None:
                continue
            if pick is not None:
                lhs, rhs = x * top_y, top_x * y
                if lhs < rhs or (lhs == rhs and step[0] > top):
                    continue
            pick, top, top_x, top_y = b, step[0], x, y
        if pick is None:
            pick = min(heads, key=lambda b: heads[b][0][0])
        step, num, den, _, _ = heads[pick]
        queue = queues[pick]
        if queue:
            heads[pick] = queue.pop()
        else:
            del heads[pick]
        steps.append(step)
        if num is not None:  # a pivot: num and den are its block's pair, den L times the block's minor
            others = g // minors[pick]
            pivots[step[0]] = (num * others, den * others)
            scales[step[0]] = g
            g = others * num
            minors[pick] = num

    for k in range(dim):
        if pivots[k] is None:
            pivots[k] = (0, L * g)
            scales[k] = g
    return CongruenceFactorization(
        basis=basis,
        pivots=tuple(pivots),
        steps=tuple(steps),
        column_scales=tuple(scales),
        inverse_rows=tuple(inverse_rows),
    )


def _integer_rows(scaled: tuple) -> tuple:
    """(basis, L', re, im): dense rows of the coefficient matrix of table / L.

    `scaled` is (L, table) as for `congruence_factorization`; the
    basis is the sorted index set.  Entries and L are divided by
    g = gcd(L, every entry), so L' is the lcm of the denominators of
    table / L and the rows are L' times the rational matrix.  The dimension
    cap is checked before any row is allocated, and a table that is not
    Hermitian raises NotHermitian.
    """
    L, table = scaled
    basis = sorted({a for key in table for a in key})
    dim = len(basis)
    cap = _dim_cap()
    if dim > cap:
        raise ExplicitLimit(f"dimension {dim} exceeds cap {cap}")
    for (alpha, beta), (x, y) in table.items():
        if alpha == beta:
            if y:
                raise NotHermitian(f"diagonal entry at {alpha} is not real")
        elif table.get((beta, alpha)) != (x, -y):
            raise NotHermitian(f"entries at {(alpha, beta)} and {(beta, alpha)} are not conjugate")
    g = gcd(L, *chain.from_iterable(table.values()))
    pos = {b: i for i, b in enumerate(basis)}
    re = [[0] * dim for _ in range(dim)]
    im = [[0] * dim for _ in range(dim)]
    for (alpha, beta), (x, y) in table.items():
        i, j = pos[alpha], pos[beta]
        re[i][j] = x // g
        im[i][j] = y // g
    return tuple(basis), L // g, re, im


def _bareiss(basis, L: int, re, im) -> CongruenceFactorization:
    """Symmetric Bareiss elimination of (re + i*im) / L over Gaussian integers.

    `re` and `im` are the rows of a Hermitian matrix of ints over `basis`
    and L > 0; the rows are overwritten.  Let m_s be the principal minor of
    re + i*im on the first s pivots, after any bumps (m_0 = 1).  An active
    entry a_ij then holds m_s * L times the matching entry of the rational Schur
    complement.  Pivoting on k, with p = a_kk = m_{s+1}, maps a_ij to
    (p * a_ij - a_ik * a_kj) / m_s; Sylvester's identity makes the division
    exact, and a remainder raises CertificateFailure.  The pivot gets
    pivots[k] = (p, L * m_s).  The transform is not formed: each pivot and
    bump is recorded as a step, and `integer_column` replays them.

    Pivot rule: among the active diagonal, take the entry of largest absolute
    value (smallest index on ties).  If the active diagonal is all zero but an
    active off-diagonal entry remains, add row/column j into row/column i
    (factor 1, or i when the entry is purely imaginary) to create a pivot.
    """
    dim = len(re)
    scales = [1] * dim
    inverse_rows = [None] * dim
    unit = None  # integer rows of T^-1 for active indices, once a bump has moved them
    prev = 1
    steps = []
    active = list(range(dim))

    while active:
        best, best_mag = None, 0
        for k in active:
            mag = abs(re[k][k])
            if mag > best_mag:
                best, best_mag = k, mag
        if best is None:
            bump = next(
                (
                    (i, j)
                    for i in active
                    for j in active
                    if i != j and (re[i][j] or im[i][j])
                ),
                None,
            )
            if bump is None:
                break  # all-zero active block: zeros of the diagonal
            i, j = bump
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
            if unit is None:
                unit = {a: ([int(a == c) for c in range(dim)], [0] * dim) for a in active}
            (ur, ui), (vr, vi) = unit[j], unit[i]
            for c in range(dim):
                a, b = vr[c], vi[c]
                ur[c] -= fr * a - fi * b
                ui[c] -= fr * b + fi * a
            continue

        k = best
        p = re[k][k]
        rk, ik = re[k], im[k]
        entries = tuple((c, rk[c], ik[c]) for c in active)
        steps.append((k, p, entries))
        # row k of T^-1 is sum_c a_kc * (row c of T^-1) over the active c, divided by p
        if unit is None:
            inverse_rows[k] = (p, entries)
        else:
            sr, si = [0] * dim, [0] * dim
            for c in active:
                a, b = rk[c], ik[c]
                if a or b:
                    ur, ui = unit[c]
                    for t in range(dim):
                        sr[t] += a * ur[t] - b * ui[t]
                        si[t] += a * ui[t] + b * ur[t]
            inverse_rows[k] = (p, tuple((t, sr[t], si[t]) for t in range(dim)))
            del unit[k]
        active.remove(k)
        scales[k] = prev
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
        prev = p

    for i in active:
        scales[i] = prev
        if unit is None:
            inverse_rows[i] = (1, ((i, 1, 0),))
        else:
            ur, ui = unit[i]
            inverse_rows[i] = (1, tuple((t, ur[t], ui[t]) for t in range(dim)))
    return CongruenceFactorization(
        basis=basis,
        pivots=tuple((re[k][k], L * scales[k]) for k in range(dim)),
        steps=tuple(steps),
        column_scales=tuple(scales),
        inverse_rows=tuple(inverse_rows),
    )


def table_quadratic_form(scaled: tuple, basis, v) -> Fraction:
    """v* (table / L) v for v a tuple of (re, im) int pairs over `basis`, in ints.

    `scaled` is (L, table) with table mapping (alpha, beta) to (re, im)
    ints, as for `congruence_factorization`.
    """
    L, table = scaled
    comps = {b: z for b, z in zip(basis, v) if z[0] or z[1]}
    acc_re = acc_im = 0
    for (alpha, beta), (x, y) in table.items():
        va = comps.get(alpha)
        vb = comps.get(beta)
        if va is None or vb is None:
            continue
        # conj(va) * (x + iy) * vb
        (p, q), (r, s) = va, vb
        t_re, t_im = x * r - y * s, x * s + y * r
        acc_re += p * t_re + q * t_im
        acc_im += p * t_im - q * t_re
    if acc_im:
        raise CertificateFailure(f"v* M v has imaginary part {Fraction(acc_im, L)}")
    return Fraction(acc_re, L)


def inertia(r: HermitianPoly) -> tuple:
    """(n_plus, n_minus, n_zero) of r's coefficient matrix over its index set, exactly."""
    return congruence_factorization((r.scale, r.table)).inertia
