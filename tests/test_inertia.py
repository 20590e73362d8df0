import json
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from members import hermitian_direct_sums, hermitian_matrices, plane_rotated
from oracles import (
    eig_signs_2x2,
    form_polynomial,
    mat_adjoint,
    mat_mul,
    quadratic_form,
    rational_congruence_factorization,
    rational_inverse,
    rational_transform,
)
from psicert import inertia as inertia_module
from psicert import psi
from psicert.errors import CertificateFailure, ExplicitLimit, NotHermitian, PsicertError
from psicert.generators import generate_pD
from psicert.inertia import (
    _bareiss,
    _integer_rows,
    congruence_factorization,
    inertia,
    psd_factorization,
    table_quadratic_form,
)
from psicert.polycore import (
    GR_ZERO,
    GaussianRational,
    HermitianPoly,
    RealSparsePoly,
    _hermitian_closure,
    hermitian_powers,
    real_to_diagonal,
    sign_counts,
)
from psicert.reduction import decompose


def G(re, im=0):
    return GaussianRational.of(re, im)


def _table(rows):
    """The HermitianPoly of a square matrix of exact entries, zeros kept, row i indexed by (i,).

    Built over L, the lcm of the entry denominators; the constructor checks
    symmetry and makes the scale minimal, and the engine checks the size.
    """
    rows = [[x if isinstance(x, GaussianRational) else G(x) for x in row] for row in rows]
    L = lcm(1, *(q.denominator for row in rows for x in row for q in (x.re, x.im)))
    table = {
        ((i,), (j,)): (int(x.re * L), int(x.im * L))
        for i, row in enumerate(rows)
        for j, x in enumerate(row)
    }
    return HermitianPoly._from_table(1, L, _hermitian_closure(table))


def _factor(rows):
    return congruence_factorization(_table(rows))


def _inertia(rows):
    return _factor(rows).inertia


def _psd(rows):
    """(True, None) when PSD; otherwise (False, witness) with witness* M witness < 0."""
    ok, cert = psi._psd_verdict(_table(rows))
    return (True, None) if ok else (False, [G(*z) for z in cert.vector])


def test_inertia_identity_and_diag():
    assert _inertia([[1, 0], [0, 1]]) == (2, 0, 0)
    assert _inertia([[1, 0], [0, -1]]) == (1, 1, 0)


def test_inertia_antidiagonal_matches_charpoly_oracle():
    # characteristic polynomial x^2 - 1 has one root of each sign
    assert eig_signs_2x2(0, 1, 0, 0) == (1, 1, 0)
    assert _inertia([[0, 1], [1, 0]]) == (1, 1, 0)


def test_inertia_complex_entries():
    M = [[G(2), G(0, 1)], [G(0, -1), G(2)]]
    # trace 4, det 3: both eigenvalues positive
    assert eig_signs_2x2(2, 0, 1, 2) == (2, 0, 0)
    assert _inertia(M) == (2, 0, 0)


def test_inertia_purely_imaginary_offdiag_zero_diagonal():
    M = [[0, G(0, 1)], [G(0, -1), 0]]
    assert eig_signs_2x2(0, 0, 1, 0) == (1, 1, 0)
    assert _inertia(M) == (1, 1, 0)


def test_not_hermitian_rejected():
    # the constructor rejects them, so no such table reaches the engine
    with pytest.raises(NotHermitian):
        _table([[1, 1], [2, 1]])
    with pytest.raises(NotHermitian):
        _table([[G(0, 1), 0], [0, 1]])


def test_dimension_cap(monkeypatch):
    monkeypatch.setenv("PSI_MAX_DIM", "3")
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ExplicitLimit):
        _factor(rows)
    monkeypatch.delenv("PSI_MAX_DIM")
    _factor(rows)  # fine under the hard cap
    for bad in ("abc", "2.5", "0", "-3"):
        monkeypatch.setenv("PSI_MAX_DIM", bad)
        with pytest.raises(PsicertError, match=f"PSI_MAX_DIM.*{bad}"):
            _factor(rows)


def test_integer_rows_check_the_cap_and_the_constructor_checks_symmetry(monkeypatch):
    a, b = (1, 0), (0, 1)
    table = {(a, a): (6, 0), (a, b): (2, 4), (b, a): (2, -4), (b, b): (-8, 0)}
    # gcd(12, entries) = 2 is divided out by the constructor: the rows of 6M with M = table / 12
    r = HermitianPoly._from_table(2, 12, _hermitian_closure(table))
    assert r.scale == 6
    assert _integer_rows(r) == ((b, a), [[-4, 1], [1, 3]], [[0, -2], [2, 0]], [0, 0])
    monkeypatch.setenv("PSI_MAX_DIM", "1")
    with pytest.raises(ExplicitLimit):
        _integer_rows(r)
    monkeypatch.delenv("PSI_MAX_DIM")
    with pytest.raises(NotHermitian):
        _hermitian_closure({**table, (b, a): (2, 4)})
    with pytest.raises(NotHermitian):
        _hermitian_closure({**table, (a, a): (6, 1)})
    # an entry given on one side only is closed by conjugation, not rejected
    assert _hermitian_closure({(a, b): (1, 2)}) == {(a, b): (1, 2), (b, a): (1, -2)}


def test_factorization_carries_the_sorted_basis_and_ignores_a_common_factor():
    a, b = (1, 0), (0, 1)
    table = {(a, a): (6, 0), (a, b): (2, 4), (b, a): (2, -4), (b, b): (-8, 0)}
    r = HermitianPoly._from_table(2, 12, table)
    fact = congruence_factorization(r)
    assert fact.basis == (b, a)
    # the same matrix with every entry and L tripled is reduced to an equal polynomial, which factors identically
    tripled_poly = HermitianPoly._from_table(2, 36, {k: (3 * x, 3 * y) for k, (x, y) in table.items()})
    assert tripled_poly == r
    tripled = congruence_factorization(tripled_poly)
    assert tripled == fact
    assert (tripled.basis, tripled.diag, tripled.pivot_log) == (fact.basis, fact.diag, fact.pivot_log)
    assert rational_transform(tripled) == rational_transform(fact)
    assert rational_inverse(tripled) == rational_inverse(fact)


def test_psd_examples():
    ok, witness = _psd([[1, 0, 0], [0, 0, 0], [0, 0, 2]])
    assert ok and witness is None
    ok, witness = _psd([[1, 0], [0, -1]])
    assert not ok
    assert quadratic_form([[G(1), G(0)], [G(0), G(-1)]], witness).re < 0
    # rank-one PSD: eigenvalues 0 and 2 by trace/det
    assert eig_signs_2x2(1, -1, 0, 1) == (1, 0, 1)
    ok, _ = _psd([[1, -1], [-1, 1]])
    assert ok


def test_factorization_round_trip_exact():
    M = [
        [G(2), G(1, 1), G(0)],
        [G(1, -1), G(-3), G(Fraction(1, 2))],
        [G(0), G(Fraction(1, 2)), G(0)],
    ]
    fact = _factor(M)
    T = [list(r) for r in rational_transform(fact)]
    rebuilt = mat_mul(mat_adjoint(T), mat_mul(M, T))
    for i in range(3):
        for j in range(3):
            expect = G(fact.diag[i]) if i == j else GR_ZERO
            assert rebuilt[i][j] == expect
    # transform inverse really is the inverse
    prod = mat_mul(T, [list(r) for r in rational_inverse(fact)])
    for i in range(3):
        for j in range(3):
            assert prod[i][j] == (G(1) if i == j else GR_ZERO)


def test_quadratic_form_imaginary_value_is_failure():
    # a corrupted product holding only one triangle of [[0, 1], [0, 0]] gives v* M v = i at v = (1, i)
    basis = ((0,), (1,))
    with pytest.raises(CertificateFailure):
        table_quadratic_form(HermitianPoly._from_table(1, 1, {basis: (1, 0)}), basis, [(1, 0), (0, 1)])


def test_psd_witness_that_does_not_reevaluate_is_failure(monkeypatch):
    # a value read as 0 instead of re-evaluated as -1 is not a witness
    monkeypatch.setattr(psi, "table_quadratic_form", lambda product, basis, v: Fraction(0))
    with pytest.raises(CertificateFailure):
        psi._psd_verdict(_table([[1, 0], [0, -1]]))


def test_factorization_diag_passthrough():
    fact = _factor([[4, 0], [0, -9]])
    assert sorted(fact.diag) == [-9, 4]
    ident = [[G(1), G(0)], [G(0), G(1)]]
    assert [list(r) for r in rational_transform(fact)] == ident


def test_factorization_determinism():
    M = [[0, G(2, 3)], [G(2, -3), 0]]
    a = _factor(M)
    b = _factor(M)
    assert a.pivot_log == b.pivot_log
    assert a.diag == b.diag


def _random_hermitian(rng, dim):
    rows = [[GR_ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = G(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        for j in range(i + 1, dim):
            v = G(
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
            )
            rows[i][j] = v
            rows[j][i] = v.conjugate()
    return rows


def _random_invertible(rng, dim):
    # product of elementary operations applied to the identity
    rows = [[G(1) if i == j else G(0) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = G(rng.randint(-2, 2), rng.randint(-1, 1))
        for k in range(dim):
            rows[i][k] = rows[i][k] + c * rows[j][k]
    return rows


@pytest.mark.parametrize("seed", range(8))
def test_sylvester_invariance_under_congruence(seed):
    rng = random.Random(seed)
    dim = rng.randint(2, 4)
    M = _random_hermitian(rng, dim)
    T = _random_invertible(rng, dim)
    congruent = mat_mul(mat_adjoint(T), mat_mul(M, T))
    assert _inertia(congruent) == _inertia(M)


@pytest.mark.parametrize("seed", range(6))
def test_inertia_additive_on_direct_sums(seed):
    rng = random.Random(100 + seed)
    A = _random_hermitian(rng, rng.randint(1, 3))
    B = _random_hermitian(rng, rng.randint(1, 3))
    dim = len(A) + len(B)
    rows = [[GR_ZERO] * dim for _ in range(dim)]
    for i in range(len(A)):
        for j in range(len(A)):
            rows[i][j] = A[i][j]
    for i in range(len(B)):
        for j in range(len(B)):
            rows[len(A) + i][len(A) + j] = B[i][j]
    ia, ib, it = _inertia(A), _inertia(B), _inertia(rows)
    assert it == tuple(x + y for x, y in zip(ia, ib))


@pytest.mark.parametrize("seed", range(10))
def test_psd_witness_is_sound(seed):
    rng = random.Random(200 + seed)
    M = _random_hermitian(rng, rng.randint(2, 4))
    ok, witness = _psd(M)
    if not ok:
        value = quadratic_form(M, witness)
        assert value.im == 0 and value.re < 0


def test_diagonal_bridge_agrees_with_sign_counts():
    p = RealSparsePoly(3, {(2, 0, 0): 3, (0, 1, 1): Fraction(-1, 7), (0, 0, 2): 1})
    pos, neg, _ = inertia(real_to_diagonal(p))
    sig = sign_counts(p)
    assert (pos, neg) == (sig.n_plus, sig.n_minus)


# the holomorphic (signed-squares) decomposition is reduction.decompose
def test_holomorphic_decomposition_trivial():
    r = HermitianPoly(2, {((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): -1})
    form = decompose(r)
    assert form.n_plus == 1 and form.n_minus == 1
    assert form.plus_weights == (1,) and form.minus_weights == (1,)
    assert form_polynomial(form) == r


def test_holomorphic_decomposition_zero():
    form = decompose(HermitianPoly(2, {}))
    assert form.plus_rows == () and form.minus_rows == ()


def test_holomorphic_decomposition_psd_two_by_two():
    r = HermitianPoly(
        2, {((1, 0), (1, 0)): 2, ((1, 0), (0, 1)): 1, ((0, 1), (0, 1)): 2}
    )
    form = decompose(r)
    assert form.n_plus == 2 and form.n_minus == 0
    assert form_polynomial(form) == r


@pytest.mark.parametrize("seed", range(8))
def test_holomorphic_decomposition_recomposes_exactly(seed):
    rng = random.Random(300 + seed)
    entries = {}
    idx = [(2, 0), (1, 1), (0, 2)]
    for a in idx:
        entries[(a, a)] = G(rng.randint(-3, 3))
    for i, a in enumerate(idx):
        for b in idx[i + 1 :]:
            entries[(a, b)] = G(rng.randint(-2, 2), rng.randint(-2, 2))
            entries[(b, a)] = entries[(a, b)].conjugate()
    r = HermitianPoly(2, entries)
    form = decompose(r)
    assert form_polynomial(form) == r
    pos, neg, _ = inertia(r)
    assert (form.n_plus, form.n_minus) == (pos, neg)


@given(hermitian_matrices())
@settings(max_examples=150, deadline=None)
def test_fraction_free_factorization_matches_rational_oracle(M):
    fact = _factor(M)
    ref = rational_congruence_factorization(M)
    assert fact.basis == tuple((i,) for i in range(len(M)))
    assert fact.pivot_log == ref.pivot_log
    assert fact.diag == ref.diag
    assert all(type(d) is Fraction for d in fact.diag)
    assert rational_transform(fact) == ref.transform
    assert rational_inverse(fact) == ref.inverse


def test_oracle_parity_covers_both_bump_factors():
    # zero diagonals force bumps: a real entry takes factor 1, an imaginary one factor i
    for off, factor in ((G(2, 3), "1"), (G(0, Fraction(1, 2)), "i")):
        M = [[GR_ZERO, off, G(1)], [off.conjugate(), GR_ZERO, GR_ZERO], [G(1), GR_ZERO, GR_ZERO]]
        fact = _factor(M)
        ref = rational_congruence_factorization(M)
        assert ("bump", 0, 1, factor) in fact.pivot_log
        assert (fact.pivot_log, fact.diag) == (ref.pivot_log, ref.diag)
        assert (rational_transform(fact), rational_inverse(fact)) == (ref.transform, ref.inverse)


# Pivots, columns and primitive witnesses recorded from the index-order
# elimination; when they were recorded, each column was checked against the
# rational oracle's transform and each witness evaluated again on the
# oracle's rows.  The names tell the paths the inputs took under the earlier
# max-|diagonal| rule: dense, bump-after-pivot, two-bump and zero-block
# inputs, squared-norm product tables, and `rotated-split-d0`, rotated
# pD(3, 4) at d = 0 (dimension 15 in blocks of 5, 4, 3, 1, 1, 1).
WITNESS_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "witness_reference.json").read_text()
)


@pytest.mark.parametrize("case", WITNESS_REFERENCE, ids=[c["name"] for c in WITNESS_REFERENCE])
def test_columns_and_witness_match_reference(case):
    table = {(tuple(a), tuple(b)): tuple(z) for (a, b), z in case["entries"]}
    scaled = HermitianPoly._from_table(len(case["entries"][0][0][0]), case["L"], _hermitian_closure(table))
    fact = congruence_factorization(scaled)
    assert [list(e) for e in fact.pivot_log] == case["pivot_log"]
    assert [str(d) for d in fact.diag] == case["diag"]
    assert [[list(z) for z in fact.integer_column(k)] for k in range(len(fact.diag))] == case["columns"]
    ok, witness = psi._psd_verdict(scaled)
    expect = case["witness"]
    assert not ok and expect is not None
    assert ([list(z) for z in witness.vector], str(witness.value)) == (expect["vector"], expect["value"])
    assert gcd(*chain.from_iterable(witness.vector)) == 1


# A zero diagonal entry 0 with row (0, a_01) is bumped by the first f of 1, -1, i making 2 Re(f a_01) + a_11
# nonzero: 1 for a_01 = 1, a_11 = 3; -1 when a_11 = -2 cancels 1; i when a_01 = 2i and a_11 = 0 cancel both.
# -i is never needed: 1 and -1 both fail only when Re(a_01) = a_11 = 0, and then i gives -2 Im(a_01) != 0.
_BUMP_BY = [
    ([[(0, 0), (1, 0)], [(1, 0), (3, 0)]], "1"),
    ([[(0, 0), (1, 0)], [(1, 0), (-2, 0)]], "-1"),
    ([[(0, 0), (0, 2)], [(0, -2), (0, 0)]], "i"),
]


@pytest.mark.parametrize("rows, factor", _BUMP_BY, ids=[name for _, name in _BUMP_BY])
def test_bump_factor_is_the_first_that_makes_a_pivot(rows, factor):
    M = [[G(*z) for z in row] for row in rows]
    fact = _factor(M)
    ref = rational_congruence_factorization(M)
    assert fact.pivot_log == ref.pivot_log == (("bump", 0, 1, factor), ("pivot", 0), ("pivot", 1))
    assert fact.diag == ref.diag and fact.diag[0] != 0


@st.composite
def hermitian_int_matrices(draw):
    """Rows of a Hermitian Gaussian-integer matrix, as (re, im) pairs, dimension 1..8.

    The diagonal is zero half the time, and otherwise zero at some indices;
    off-diagonal entries are zero, real, purely imaginary or general, so
    zero-diagonal blocks force bumps of factor 1 and i.
    """
    dim = draw(st.integers(1, 8))
    all_zero = draw(st.booleans())
    zero = [all_zero or draw(st.booleans()) for _ in range(dim)]
    part = st.integers(-4, 4)
    rows = [[(0, 0)] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = (0, 0) if zero[i] else (draw(part), 0)
        for j in range(i + 1, dim):
            x, y = draw(part), draw(part)
            kind = draw(st.sampled_from(("zero", "real", "imag", "both")))
            z = {"zero": (0, 0), "real": (x, 0), "imag": (0, y), "both": (x, y)}[kind]
            rows[i][j], rows[j][i] = z, (z[0], -z[1])
    return rows


@given(hermitian_int_matrices())
@example([[(0, 0), (2, 0), (0, 0), (0, 0)], [(2, 0), (0, 0), (0, 0), (0, 0)],
          [(0, 0), (0, 0), (0, 0), (0, 3)], [(0, 0), (0, 0), (0, -3), (0, 0)]])
@example([[(0, 0), (1, 1), (0, 2)], [(1, -1), (0, 0), (3, 0)], [(0, -2), (3, 0), (0, 0)]])
@example(_BUMP_BY[0][0])
@example(_BUMP_BY[1][0])
@example(_BUMP_BY[2][0])
@settings(max_examples=200, deadline=None)
def test_replayed_columns_match_the_oracle_transform(rows):
    M = [[G(*z) for z in row] for row in rows]
    fact = _factor(M)
    ref = rational_congruence_factorization(M)
    assert fact.pivot_log == ref.pivot_log
    dim, scales = len(rows), fact.column_scales
    # rows of T with column k times scales[k], as replayed
    T = [list(r) for r in zip(*([G(*z) for z in fact.integer_column(k)] for k in range(dim)))]
    assert T == [[ref.transform[r][k] * G(scales[k]) for k in range(dim)] for r in range(dim)]
    congruent = mat_mul(mat_adjoint(T), mat_mul(M, T))
    for a in range(dim):
        for b in range(dim):
            expect = G(fact.diag[a] * scales[a] ** 2) if a == b else GR_ZERO
            assert congruent[a][b] == expect


def test_replay_of_a_corrupted_step_is_failure():
    # pivots on 0 (p = 2), 1 (p = -8), 2; column 2 is replayed through both earlier pivots
    fact = _factor([[2, G(1, 1), 0], [G(1, -1), -3, 1], [0, 1, 5]])
    assert [step[:2] for step in fact.steps] == [(0, 2), (1, -8), (2, -42)]
    (q0, p0, row0), (q1, p1, row1) = fact.steps[:2]
    # the first pivot, or the second pivot row's entry at 2, off by one
    bad_row1 = tuple((c, a + 1, b) if c == 2 else (c, a, b) for c, a, b in row1)
    for s, step in ((0, (q0, p0 + 1, row0)), (1, (q1, p1, bad_row1))):
        corrupted = replace(fact, steps=(*fact.steps[:s], step, *fact.steps[s + 1 :]))
        with pytest.raises(CertificateFailure):
            corrupted.integer_column(2)


# A negative pivot minor: the imaginary block [[0, 3i], [-3i, 0]] is bumped by i into the pivot -6
_NEGATIVE_MINOR_I_BUMP = [[(0, 0), (0, 3), (0, 0)], [(0, -3), (0, 0), (0, 0)], [(0, 0), (0, 0), (-2, 0)]]
_NEGATIVE_MINORS_COMPLEX = [[(2, 0), (1, 1), (0, 0)], [(1, -1), (-3, 0), (1, 0)], [(0, 0), (1, 0), (5, 0)]]


def test_integer_pivots_cover_negative_minors_and_i_bumps():
    # the integer pivot pairs, their denominators negative after a negative pivot, read as the oracle's diagonal
    bumped = _factor([[G(*z) for z in row] for row in _NEGATIVE_MINOR_I_BUMP])
    assert ("bump", 0, 1, "i") in bumped.pivot_log
    complex_minors = _factor([[G(*z) for z in row] for row in _NEGATIVE_MINORS_COMPLEX])
    for fact in (bumped, complex_minors):
        assert any(den < 0 for _, den in fact.pivots)
        assert all(type(x) is int for pair in fact.pivots for x in pair)
        assert fact.diag == tuple(Fraction(num, den) for num, den in fact.pivots)


@given(hermitian_int_matrices(), st.integers(1, 6))
@example(_NEGATIVE_MINOR_I_BUMP, 1)
@example(_NEGATIVE_MINORS_COMPLEX, 4)
@settings(max_examples=200, deadline=None)
def test_integer_pivot_verdicts_match_the_oracle(rows, L):
    # inertia, the first negative pivot's vector and value, and diag, read off the integer pivots,
    # are the rational eliminator's on (rows) / L
    M = [[G(Fraction(x, L), Fraction(y, L)) for x, y in row] for row in rows]
    scaled = _int_table(rows, L)
    fact = congruence_factorization(scaled)
    ref = rational_congruence_factorization(M)
    assert fact.diag == ref.diag
    signs = [(d > 0) - (d < 0) for d in ref.diag]
    assert fact.inertia == (signs.count(1), signs.count(-1), signs.count(0))
    ok, cert = psi._psd_verdict(scaled)
    k = next((k for k, d in enumerate(ref.diag) if d < 0), None)
    if k is None:
        assert ok
        return
    assert not ok
    # the witness is the column at its scale over its content, a primitive vector
    vector, value = cert.vector, cert.value
    assert gcd(*chain.from_iterable(vector)) == 1
    scale = Fraction(fact.column_scales[k], gcd(*chain.from_iterable(fact.integer_column(k))))
    assert [G(*z) for z in vector] == [row[k] * G(scale) for row in ref.transform]
    assert value == quadratic_form(M, [G(*z) for z in vector]).re == scale**2 * ref.diag[k]


# -- blocks ----------------------------------------------------------------------


def _int_table(rows, L=1):
    """The HermitianPoly (rows) / L of a matrix of (re, im) int pairs, zeros kept, row i indexed by (i,)."""
    table = {((i,), (j,)): z for i, row in enumerate(rows) for j, z in enumerate(row)}
    return HermitianPoly._from_table(1, L, _hermitian_closure(table))


def _one_block(r):
    """The factorization of r with every index in one block: one pivot minor for the whole matrix."""
    basis, re, im, _ = _integer_rows(r)
    return _bareiss(basis, r.scale, re, im, [0] * len(basis))


@contextmanager
def _all_one_block():
    """Factor every matrix with every index in one block, in place of its connected components."""
    rows = inertia_module._integer_rows

    def one_label(r):
        basis, re, im, _ = rows(r)
        return basis, re, im, [0] * len(basis)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inertia_module, "_integer_rows", one_label)
        yield


def _same_factorization(fact, whole):
    # every integer datum the one-minor elimination leaves, but the block-scaled steps and inverse rows
    assert fact.basis == whole.basis
    assert fact.pivots == whole.pivots
    assert fact.column_scales == whole.column_scales
    assert fact.pivot_log == whole.pivot_log
    assert fact.diag == whole.diag
    assert [fact.integer_column(k) for k in range(len(fact.pivots))] == [
        whole.integer_column(k) for k in range(len(whole.pivots))
    ]


@given(hermitian_direct_sums())
@settings(max_examples=150, deadline=None)
def test_blocks_are_the_connected_components(case):
    # the row layout labels each index with the least index of its component, zero entries linking nothing
    rows, blocks = case
    covered = {i for block in blocks for i in block}
    expected = list(range(len(rows)))
    for block in blocks:
        for i in block:
            expected[i] = block[0]
    assert all(i in covered or not any(x or y for x, y in row) for i, row in enumerate(rows))
    assert _integer_rows(_int_table(rows))[3] == expected


@given(hermitian_direct_sums(), st.integers(1, 6))
@example(([[(0, 0), (0, 3), (0, 0)], [(0, -3), (0, 0), (0, 0)], [(0, 0), (0, 0), (-2, 0)]], [[0, 1], [2]]), 1)
@settings(max_examples=200, deadline=None)
def test_block_split_matches_the_whole_matrix_elimination(case, L):
    # at every size, a minor per block gives what one minor for the whole matrix gives, witness included
    rows, _ = case
    scaled = _int_table(rows, L)
    fact = congruence_factorization(scaled)
    split_verdict = psi._psd_verdict(scaled)
    _same_factorization(fact, _one_block(scaled))
    with _all_one_block():
        whole_verdict = psi._psd_verdict(scaled)
    ok, cert = split_verdict
    assert ok == whole_verdict[0]
    if not ok:
        assert cert == whole_verdict[1]


def _hermitian_rows(dim, upper):
    """Rows of the Hermitian matrix with the entries {(i, j): (re, im)}, i <= j, mirrored; zeros elsewhere."""
    rows = [[(0, 0)] * dim for _ in range(dim)]
    for (i, j), (x, y) in upper.items():
        rows[i][j], rows[j][i] = (x, y), (x, -y)
    return rows


# Blocks (0, 4, 7), (1, 8, 9, 10) and (3, 6), and the zero block (2, 5).  Pivoting 0 leaves 4 a zero diagonal
# entry, and pivoting 1 leaves 9 one, so in index order the steps run: pivot 0, bump (1, 8), pivot 1, bump (3, 6)
# by i, pivot 3, bump (4, 7), pivots 4, 6, 7, 8, bump (9, 10), pivots 9, 10; 2 and 5 are zeros of the diagonal.
# Rows 6, 7, 8 and 10 of T^-1 each take one earlier bump, (3, 6), (4, 7), (1, 8) and (9, 10), and find no
# entry for the others, which sit in other blocks or act on indices already pivoted.
_INTERLEAVED_BUMPS = _hermitian_rows(11, {
    (0, 0): (1, 0), (4, 4): (1, 0), (7, 7): (1, 0), (0, 4): (1, 0), (0, 7): (1, 0), (4, 7): (2, 0),
    (1, 8): (1, 0), (1, 9): (2, 0), (8, 10): (1, 0), (3, 6): (0, 3),
})


@given(hermitian_direct_sums(), st.integers(1, 4))
@example((_INTERLEAVED_BUMPS, [[0, 4, 7], [1, 8, 9, 10], [3, 6]]), 2)
@settings(max_examples=60, deadline=None)
def test_block_split_matches_the_rational_oracle(case, L):
    # every row of T^-1 derived from the steps, a block's rows skipping the other blocks' bumps, is the oracle's
    rows, _ = case
    M = [[G(Fraction(x, L), Fraction(y, L)) for x, y in row] for row in rows]
    fact = congruence_factorization(_int_table(rows, L))
    ref = rational_congruence_factorization(M)
    assert (fact.pivot_log, fact.diag) == (ref.pivot_log, ref.diag)
    assert rational_transform(fact) == ref.transform
    assert rational_inverse(fact) == ref.inverse


@given(hermitian_direct_sums(), st.integers(1, 4))
@example((_NEGATIVE_MINOR_I_BUMP, [[0, 1], [2]]), 1)
@example((_INTERLEAVED_BUMPS, [[0, 4, 7], [1, 8, 9, 10], [3, 6]]), 2)
@settings(max_examples=200, deadline=None)
def test_stopping_verdict_matches_the_full_inertia(case, L):
    # psd_factorization is congruence_factorization up to its first negative pivot, bumps and negative
    # minors included, and its witness is that pivot's column over its content
    rows, _ = case
    scaled = _int_table(rows, L)
    full, stopped = congruence_factorization(scaled), psd_factorization(scaled)
    k = next((k for k, (num, den) in enumerate(full.pivots) if num and (num > 0) != (den > 0)), None)
    ok, witness = psi._psd_verdict(scaled)
    if k is None:
        assert stopped == full and ok and witness == full
        return
    end = next(s for s, step in enumerate(full.steps) if len(step) == 3 and step[0] == k) + 1
    assert stopped == replace(full, pivots=full.pivots[: k + 1], steps=full.steps[:end])
    assert stopped.inertia[1] == 1 and stopped.integer_column(k) == full.integer_column(k)
    content = gcd(*chain.from_iterable(full.integer_column(k)))
    assert not ok and witness.vector == tuple((a // content, b // content) for a, b in full.integer_column(k))
    assert witness.value == table_quadratic_form(scaled, full.basis, witness.vector) < 0


def _counting_bareiss(monkeypatch):
    calls = []

    def counted(basis, L, re, im, labels, stop=False):
        calls.append((len(basis), sorted(Counter(labels).values(), reverse=True)))
        return _bareiss(basis, L, re, im, labels, stop)

    monkeypatch.setattr(inertia_module, "_bareiss", counted)
    return calls


def test_connected_input_takes_one_whole_elimination(monkeypatch):
    # every input, connected or a direct sum, small or large, is one elimination, labelled by its blocks
    dim = 14
    rows = [[(0, 0)] * dim for _ in range(dim)]
    for i in range(dim):
        rows[i][i] = (2 * (i % 3) - 1, 0)
        if i + 1 < dim:
            rows[i][i + 1], rows[i + 1][i] = (1, i % 2), (1, -(i % 2))
    calls = _counting_bareiss(monkeypatch)
    fact = congruence_factorization(_int_table(rows))
    assert calls == [(dim, [dim])]
    _same_factorization(fact, _one_block(_int_table(rows)))
    # a small direct sum and a large one, split into their blocks
    calls.clear()
    congruence_factorization(_int_table([[(1, 0), (0, 0)], [(0, 0), (-1, 0)]]))
    sum_rows = [[(0, 0)] * dim for _ in range(dim)]
    for i in range(dim):
        sum_rows[i][i] = (i - 5, 0)
    congruence_factorization(_int_table(sum_rows))
    assert calls == [(2, [1, 1]), (dim, [1] * dim)]


def test_rotated_dense_family_factors_block_by_block(monkeypatch):
    # pD(3, 4) rotated in the plane of z_1, z_2: its product matrix at d = 1 has dimension 21 in blocks
    # 6, 5, 4, 3, 1, 1, 1, each with its own minor in the one elimination, and the result is the one-minor one's
    r = plane_rotated(generate_pD(3, 4))
    assert any(im for _, im in r.table.values())
    scaled = next(islice(hermitian_powers(r), 1, None))
    basis, _, _, labels = _integer_rows(scaled)
    assert sorted(Counter(labels).values(), reverse=True) == [6, 5, 4, 3, 1, 1, 1]
    calls = _counting_bareiss(monkeypatch)
    fact = congruence_factorization(scaled)
    assert calls == [(21, [6, 5, 4, 3, 1, 1, 1])]
    _same_factorization(fact, _one_block(scaled))
    assert fact.inertia == (20, 0, 1)
    # the dimension cap counts the whole matrix, not its largest block
    monkeypatch.setenv("PSI_MAX_DIM", str(len(basis) - 1))
    with pytest.raises(ExplicitLimit):
        congruence_factorization(scaled)
    monkeypatch.delenv("PSI_MAX_DIM")
    # at d = 0 (dimension 15) it is not a member: the witness is the one-minor elimination's
    own = next(hermitian_powers(r))
    ok, witness = psi._psd_verdict(own)
    assert not ok and witness.value < 0
    with _all_one_block():
        assert psi._psd_verdict(own) == (False, witness)
