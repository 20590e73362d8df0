"""Independent brute-force oracles used to pin expected values.

Nothing here imports `psicert.inertia` or routes through the library's
multiplier code paths: polynomial products are naive dict convolutions,
product coefficient matrices are assembled and laid out over Gaussian
rationals, tiny eigen problems are solved from the characteristic
polynomial, the congruence factorization is the original elimination over
Gaussian rationals on plain rows, the library factorization's integer data
is read back as Gaussian-rational matrices, signed sums of squares are
expanded over Gaussian rationals, a reduction step's integer rows are read
back as a Gaussian-rational 2x2 matrix, sign patterns are checked by the
original negative-inflow scan and realized by the original unchecked
magnitude rule, JSON documents are parsed term by term into Fraction and
Gaussian-rational dicts (and by the original term-by-term polynomial and
Hermitian readers), the pigeonhole certificate is built on exponent
vectors, and the certificate document is written by the generic JSON
encoder.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from psicert.errors import CertificateFailure, NotHermitian, NotInPsiD
from psicert.polycore import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    HermitianPoly,
    RealSparsePoly,
    _exponent_vector,
    _hermitian_closure,
    _json_int,
    _rational_texts,
    compositions,
    multinomial,
)


def add_index(alpha, beta) -> tuple:
    return tuple(a + b for a, b in zip(alpha, beta))


def naive_mul(a: dict, b: dict) -> dict:
    """Full polynomial product of two exponent->coefficient dicts."""
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, Fraction(0)) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def naive_simplex_power(n: int, d: int) -> dict:
    """(x_1 + ... + x_n)^d by repeated naive multiplication."""
    ell = {tuple(1 if i == k else 0 for i in range(n)): Fraction(1) for k in range(n)}
    acc = {tuple([0] * n): Fraction(1)}
    for _ in range(d):
        acc = naive_mul(acc, ell)
    return acc


def multiply_by_simplex_power_direct(p: RealSparsePoly, d: int) -> RealSparsePoly:
    """p times (x_1 + ... + x_n)^d via the multinomial expansion."""
    if d < 0:
        raise ValueError("power must be nonnegative")
    out: dict = {}
    deltas = [(delta, multinomial(d, delta)) for delta in compositions(d, p.n)]
    for alpha, c in p.items():
        for delta, w in deltas:
            key = add_index(alpha, delta)
            out[key] = out.get(key, Fraction(0)) + c * w
    return RealSparsePoly(p.n, out)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Dense Gaussian-rational rows of a coefficient matrix over a sorted basis."""

    basis: tuple
    rows: tuple


def coefficient_matrix(entries: dict) -> CoefficientMatrix:
    """Lay {(alpha, beta): value} out as rows over the sorted index set."""
    basis = tuple(sorted({a for key in entries for a in key}))
    pos = {b: i for i, b in enumerate(basis)}
    rows = [[GR_ZERO] * len(basis) for _ in basis]
    for (alpha, beta), v in entries.items():
        rows[pos[alpha]][pos[beta]] = v
    return CoefficientMatrix(basis, tuple(tuple(row) for row in rows))


def _shifted_matrix(r: HermitianPoly, weighted_deltas) -> CoefficientMatrix:
    """Coefficient matrix of the sum of w * r(alpha, beta) at (alpha + delta, beta + delta)."""
    entries: dict = {}
    for (alpha, beta), v in r.items():
        for delta, w in weighted_deltas:
            key = (add_index(alpha, delta), add_index(beta, delta))
            cur = entries.get(key, GR_ZERO) + v * w
            if cur.is_zero():
                entries.pop(key, None)
            else:
                entries[key] = cur
    return coefficient_matrix(entries)


def product_matrix(r: HermitianPoly, d: int):
    """Coefficient matrix of r * |z|^(2d), the multinomial expansion over Gaussian rationals."""
    return _shifted_matrix(r, [(delta, multinomial(d, delta)) for delta in compositions(d, r.n)])


def multiplier_product_matrix(r: HermitianPoly, exps):
    """Coefficient matrix of r * sum_j |z^{alpha_j}|^2 over Gaussian rationals."""
    return _shifted_matrix(r, [(tuple(delta), 1) for delta in exps])


def rotate_plane(r: HermitianPoly, c, s) -> HermitianPoly:
    """r(Uw) for the real rotation U = [[c, -s], [s, c]] of two variables, c^2 + s^2 = 1.

    U is unitary, so |Uw| = |w| and r(Uw) lies in exactly the classes r does.
    """
    rows = [{(1, 0): Fraction(c), (0, 1): -Fraction(s)}, {(1, 0): Fraction(s), (0, 1): Fraction(c)}]

    def expand(alpha):
        acc = {(0, 0): Fraction(1)}
        for row, e in zip(rows, alpha):
            for _ in range(e):
                acc = naive_mul(acc, row)
        return acc

    entries: dict = {}
    for (alpha, beta), v in r.items():
        for g, x in expand(alpha).items():
            for h, y in expand(beta).items():
                entries[(g, h)] = entries.get((g, h), GR_ZERO) + v * (x * y)
    return HermitianPoly(2, entries)


def poly_dict(p) -> dict:
    """Library polynomial -> plain dict, for oracle-side arithmetic."""
    return {a: c for a, c in p.items()}


def eig_signs_2x2(a, b_re, b_im, c):
    """Inertia of [[a, b], [conj(b), c]] from trace and determinant."""
    det = Fraction(a) * Fraction(c) - (Fraction(b_re) ** 2 + Fraction(b_im) ** 2)
    tr = Fraction(a) + Fraction(c)
    if det > 0:
        return (2, 0, 0) if tr > 0 else (0, 2, 0)
    if det < 0:
        return (1, 1, 0)
    if tr > 0:
        return (1, 0, 1)
    if tr < 0:
        return (0, 1, 1)
    return (0, 0, 2)


def lambda_example_min_d(lam, cap: int = 200):
    """Minimal power for the quartic example from the closed binomial test."""
    lam = Fraction(lam)
    for d in range(cap + 1):
        if all(comb(4 + d, j) - lam * comb(d, j - 2) >= 0 for j in range(2, d + 3)):
            return d
    return None


def all_sign_patterns(n: int, D: int):
    """Every POS/NEG/ZERO assignment on the degree-D lattice, as (pos, neg) sets."""
    from itertools import product

    from psicert.polycore import monomials_of_degree

    lattice = monomials_of_degree(n, D)
    for signs in product((1, -1, 0), repeat=len(lattice)):
        pos = frozenset(a for a, s in zip(lattice, signs) if s == 1)
        neg = frozenset(a for a, s in zip(lattice, signs) if s == -1)
        yield pos, neg


def _first_uncovered(pos, neg, deltas):
    """Smallest product monomial fed by `neg` and by no point of `pos`, or None."""
    fed = {add_index(a, delta) for a in neg for delta in deltas}
    for A in sorted(fed):
        cands = (tuple(x - y for x, y in zip(A, delta)) for delta in deltas)
        if not any(min(c) >= 0 and c in pos for c in cands):
            return A
    return None


def inflow_support_feasible(pat, d: int):
    """Covering condition by scanning every product monomial fed by a negative.

    Returns (True, None), or (False, A) for the smallest uncovered A.
    """
    witness = _first_uncovered(pat.pos, pat.neg, list(compositions(d, pat.n)))
    return (True, None) if witness is None else (False, witness)


def realize_signs(signs: dict, n: int, d: int) -> RealSparsePoly:
    """Uniform-magnitude realization of a raw sign map (point -> +1/-1/0), unchecked.

    Negative points get -1 and positive points M = 1 + the largest
    multinomial-weighted negative inflow into one product monomial, summed
    over tuple keys.  Nothing checks the covering condition, so an
    infeasible map gives a non-member.
    """
    deltas = list(compositions(d, n))
    inflow = {}
    for a, s in signs.items():
        if s < 0:
            for delta in deltas:
                key = add_index(a, delta)
                inflow[key] = inflow.get(key, 0) + multinomial(d, delta)
    M = 1 + max(inflow.values(), default=0)
    return RealSparsePoly(n, {a: M if s > 0 else -1 for a, s in signs.items() if s})


def scan_exhaustive(n: int, D: int, d: int, support):
    """First feasible POS/NEG pattern on `support` with the fewest positives.

    Scans `combinations` of the sorted support by size, so ties go to the
    lex-smallest positive set.  None when the support is empty.
    """
    from psicert.patterns import SignPattern

    support = sorted(tuple(a) for a in support)
    deltas = list(compositions(d, n))
    for size in range(1, len(support) + 1):
        for pos in combinations(support, size):
            pos = frozenset(pos)
            neg = frozenset(support) - pos
            if _first_uncovered(pos, neg, deltas) is None:
                return SignPattern(n, D, pos, neg)
    return None


@dataclass(frozen=True)
class RationalFactorization:
    """diag == transform* . original . transform, all exact."""

    diag: tuple  # of Fraction, original index order
    transform: tuple  # rows of the congruence matrix T
    inverse: tuple  # rows of T^-1 (kept for decompositions)
    pivot_log: tuple  # ordered pivot record, for reproducibility


def _identity(dim):
    return [
        [GR_ONE if i == j else GR_ZERO for j in range(dim)] for i in range(dim)
    ]


def quadratic_form(rows, v) -> GaussianRational:
    """v* M v over Gaussian rationals, M given by its rows; real when M is Hermitian."""
    acc = GR_ZERO
    for x, row in zip(v, rows):
        s = GR_ZERO
        for a, y in zip(row, v):
            s = s + a * y
        acc = acc + x.conjugate() * s
    return acc


def rational_congruence_factorization(rows) -> RationalFactorization:
    """Symmetric elimination with exact arithmetic, in index order.

    `rows` are the rows of a Hermitian matrix of Gaussian rationals.

    Pivot rule: take the indices in order.  If the diagonal entry k is zero
    and so is the rest of row k, k is a zero of the diagonal; if the row is
    not zero, add row/column j into row/column k, j the least index with a
    nonzero entry (k, j), by the first factor of 1, -1 and i that makes the
    new diagonal entry nonzero, and pivot on k.
    """
    dim = len(rows)
    W = [list(row) for row in rows]
    T = _identity(dim)
    Tinv = _identity(dim)
    log = []

    def apply_add(i: int, j: int, factor: GaussianRational):
        # congruence: column i += factor * column j, row i += conj(factor) * row j
        # (zero terms are skipped; they would add nothing)
        fc = factor.conjugate()
        for r in range(dim):
            if not W[r][j].is_zero():
                W[r][i] = W[r][i] + factor * W[r][j]
        for c in range(dim):
            if not W[j][c].is_zero():
                W[i][c] = W[i][c] + fc * W[j][c]
        for r in range(dim):
            if not T[r][j].is_zero():
                T[r][i] = T[r][i] + factor * T[r][j]
        for c in range(dim):
            if not Tinv[i][c].is_zero():
                Tinv[j][c] = Tinv[j][c] - factor * Tinv[i][c]

    for k in range(dim):
        if W[k][k].is_zero():
            j = next((j for j in range(k + 1, dim) if not W[k][j].is_zero()), None)
            if j is None:
                continue  # a zero row: a zero of the diagonal
            for factor, name in ((GR_ONE, "1"), (-GR_ONE, "-1"), (GR_I, "i")):
                if 2 * (factor * W[k][j]).re + W[j][j].re != 0:
                    break
            apply_add(k, j, factor)
            log.append(("bump", k, j, name))
        log.append(("pivot", k))
        pivot = W[k][k].re
        for i in range(k + 1, dim):
            if not W[i][k].is_zero():
                apply_add(i, k, -(W[i][k].conjugate()) / GaussianRational.of(pivot))

    diag = tuple(W[k][k].re for k in range(dim))
    return RationalFactorization(
        diag=diag,
        transform=tuple(tuple(r) for r in T),
        inverse=tuple(tuple(r) for r in Tinv),
        pivot_log=tuple(log),
    )


def rational_transform(fact) -> tuple:
    """Rows of T for a library CongruenceFactorization, over Gaussian rationals."""
    cols = [
        [GaussianRational(Fraction(a, s), Fraction(b, s)) for a, b in fact.integer_column(k)]
        for k, s in enumerate(fact.column_scales)
    ]
    return tuple(zip(*cols))


def rational_inverse(fact) -> tuple:
    """Rows of T^-1 for a library CongruenceFactorization, over Gaussian rationals."""
    rows = []
    for den, entries in fact.inverse_rows:
        row = [GR_ZERO] * len(fact.diag)
        for c, a, b in entries:
            row[c] = GaussianRational(Fraction(a, den), Fraction(b, den))
        rows.append(tuple(row))
    return tuple(rows)


def primitive_form(row, weight) -> tuple:
    """(s * row, weight / s^2) for the positive rational s making a nonzero row primitive.

    `row` holds Gaussian rationals; the result holds (re, im) int pairs with
    no common integer factor.  s is the lcm of the denominators over the gcd
    of the numerators.
    """
    parts = [q for z in row for q in (z.re, z.im)]
    s = Fraction(lcm(*(q.denominator for q in parts)), gcd(*(q.numerator for q in parts)))
    return tuple((int(z.re * s), int(z.im * s)) for z in row), weight / (s * s)


def rational_inertia(rows) -> tuple:
    """(n_plus, n_minus, n_zero) from the signs of the rational eliminator's diagonal."""
    diag = rational_congruence_factorization(rows).diag
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[GR_ZERO] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            a = A[i][k]
            if a.is_zero():
                continue
            for j in range(cols):
                out[i][j] = out[i][j] + a * B[k][j]
    return out


def mat_adjoint(A):
    if not A:
        return []
    return [
        [A[i][j].conjugate() for i in range(len(A))] for j in range(len(A[0]))
    ]


def signed_squares(basis, terms) -> HermitianPoly:
    """sum of weight * |row . Z|^2 over (row, weight) terms, over Gaussian rationals.

    Row entries are GaussianRational, or Gaussian integers as (re, im) pairs.
    """
    entries = {}
    for row, weight in terms:
        row = [z if isinstance(z, GaussianRational) else GaussianRational.of(*z) for z in row]
        nz = [(b, c) for b, c in zip(basis, row) if not c.is_zero()]
        for alpha, ca in nz:
            for beta, cb in nz:
                key = (alpha, beta)
                entries[key] = entries.get(key, GR_ZERO) + ca.conjugate() * cb * weight
    return HermitianPoly(len(basis[0]) if basis else 1, entries)


def dense_row(row, dim: int) -> tuple:
    """A reduction row, its nonzero entries (col, re, im), laid out as (re, im) pairs over dim columns."""
    out = [(0, 0)] * dim
    for c, re, im in row:
        out[c] = (re, im)
    return tuple(out)


def form_polynomial(form) -> HermitianPoly:
    """The polynomial the rows of a reduction DecomposedForm represent."""
    dim = len(form.basis)
    plus = [(dense_row(row, dim), w) for row, w in zip(form.plus_rows, form.plus_weights)]
    minus = [(dense_row(row, dim), -w) for row, w in zip(form.minus_rows, form.minus_weights)]
    return signed_squares(form.basis, [*plus, *minus])


def step_matrix(step) -> tuple:
    """A reduction step's t as a 2x2 matrix of GaussianRational: row k is (x_k, y_k) / d_k."""
    return tuple(
        tuple(GaussianRational(Fraction(re, d), Fraction(im, d)) for re, im in (x, y)) for x, y, d in step.t
    )


def plain_poly_parse(doc) -> dict:
    """alpha -> Fraction of a polynomial document, one Fraction per term.

    Repeated terms add up and zero sums are dropped.
    """
    terms: dict = {}
    for t in doc["terms"]:
        alpha = tuple(t["exp"])
        terms[alpha] = terms.get(alpha, Fraction(0)) + Fraction(str(t["coef"]))
    return {a: c for a, c in terms.items() if c}


def _parse(parsed: dict, text: str) -> str:
    """Record Fraction(text) as (numerator, denominator) under text, once per document."""
    if text not in parsed:
        f = Fraction(text)
        parsed[text] = f.numerator, f.denominator
    return text


def term_by_term_poly_from_json(doc) -> RealSparsePoly:
    """The original polynomial reader: each term's exponents checked and its text recorded in turn."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    n = _json_int(doc["n"])
    parsed: dict = {}
    read = [(_exponent_vector(t["exp"], n), _parse(parsed, str(t["coef"]))) for t in doc["terms"]]
    L, value = _rational_texts(parsed)
    table: dict = {}
    for alpha, text in read:
        c = value[text]
        if alpha in table:
            c += table[alpha]
        table[alpha] = c
    return RealSparsePoly._from_table(n, L, {a: c for a, c in table.items() if c})


def tuple_pigeonhole_certificate(p: RealSparsePoly) -> tuple:
    """(assignment, max_fiber, least_monomial) of the pigeonhole certificate, on exponent vectors.

    Membership at power 1 is read off the multinomial expansion.  A zero,
    non-homogeneous or non-member input raises NotInPsiD, a failed
    construction CertificateFailure.
    """
    if p.is_zero():
        raise NotInPsiD("zero polynomial has no certificate")
    if not p.is_homogeneous():
        raise NotInPsiD("certificate requires a homogeneous polynomial")
    if any(c < 0 for c in multiply_by_simplex_power_direct(p, 1).table.values()):
        raise NotInPsiD("certificate requires membership at power 1")
    pos = {a for a, c in p.table.items() if c > 0}
    neg = {a for a, c in p.table.items() if c < 0}
    assignment = []
    for alpha in sorted(neg):
        bumped = (alpha[0] + 1,) + alpha[1:]
        target = None
        for j in range(1, p.n):
            if bumped[j] == 0:
                continue
            cand = bumped[:j] + (bumped[j] - 1,) + bumped[j + 1 :]
            if cand in pos:
                target = cand
                break
        if target is None:
            raise CertificateFailure(f"no positive contributor for {alpha}")
        assignment.append((alpha, target))
    sizes: dict = {}
    for _, beta in assignment:
        sizes[beta] = sizes.get(beta, 0) + 1
    max_fiber = max(sizes.values(), default=0)
    least = min(pos | neg)
    if max_fiber > p.n - 1 or least not in pos or least in sizes:
        raise CertificateFailure("construction is inconsistent")
    return tuple(assignment), max_fiber, least


def certificate_document(cert) -> dict:
    """The `certificate` command's document for a PigeonholeCertificate, as a dict of lists."""
    return {
        "assignment": [{"from": list(a), "to": list(b)} for a, b in cert.assignment],
        "max_fiber": cert.max_fiber,
        "least_monomial": list(cert.least_monomial),
    }


def certificate_json(cert) -> str:
    """The `certificate --format json` line without its newline, written by the generic encoder."""
    return json.dumps(certificate_document(cert), sort_keys=True, check_circular=False)


def plain_hermitian_parse(doc) -> dict:
    """(alpha, beta) -> GaussianRational over both triangles of a Hermitian document.

    An identical repeat is accepted and a conflicting one raises NotHermitian;
    then a diagonal entry with an imaginary part, or an entry whose mirror is
    given and is not its conjugate (zeros included), raises NotHermitian;
    zero entries are dropped only after that check.
    """
    staged: dict = {}
    for e in doc["entries"]:
        key = (tuple(e["alpha"]), tuple(e["beta"]))
        value = GaussianRational(Fraction(str(e["re"])), Fraction(str(e.get("im", "0"))))
        if staged.get(key, value) != value:
            raise NotHermitian(f"conflicting duplicate entry at {key}")
        staged[key] = value
    out: dict = {}
    for (alpha, beta), v in staged.items():
        if alpha == beta and v.im:
            raise NotHermitian(f"diagonal entry at {alpha} is not real")
        if staged.get((beta, alpha), v.conjugate()) != v.conjugate():
            raise NotHermitian(f"entries at {(alpha, beta)} and {(beta, alpha)} are not conjugate")
        if not v.is_zero():
            out[(alpha, beta)] = v
            out[(beta, alpha)] = v.conjugate()
    return out


def term_by_term_hermitian_from_json(doc) -> HermitianPoly:
    """The original Hermitian reader: each entry's exponents checked and its texts recorded in turn.

    A repeated entry must equal the first, and the table must be Hermitian:
    every given entry, zeros included, is checked against its mirror before
    the zeros are dropped.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    n = _json_int(doc["n"])
    parsed: dict = {}
    staged: dict = {}
    for e in doc["entries"]:
        key = (_exponent_vector(e["alpha"], n), _exponent_vector(e["beta"], n))
        texts = (_parse(parsed, str(e["re"])), _parse(parsed, str(e.get("im", "0"))))
        first = staged.setdefault(key, texts)
        if first != texts and (parsed[first[0]], parsed[first[1]]) != (parsed[texts[0]], parsed[texts[1]]):
            raise NotHermitian(f"conflicting duplicate entry at {key}")
    L, value = _rational_texts(parsed)
    ints = {key: (value[re], value[im]) for key, (re, im) in staged.items()}
    table = _hermitian_closure(ints)
    return HermitianPoly._from_table(n, L, {key: v for key, v in table.items() if v != (0, 0)})
