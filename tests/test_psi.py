import random
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from members import plane_rotated, random_psi1_member
from oracles import (
    multiplier_product_matrix,
    multiply_by_simplex_power_direct,
    naive_mul,
    naive_simplex_power,
    product_matrix,
    quadratic_form,
    rational_congruence_factorization,
    rational_inertia,
    rotate_plane,
)
from psicert.errors import CapExceeded, DuplicateMultiplierTerm
from psicert.generators import example_fig2, generate_lambda_example, generate_pD
from psicert.inertia import _integer_rows
from psicert.polycore import (
    GR_ZERO,
    GaussianRational,
    HermitianPoly,
    RealSparsePoly,
    diagonal_real_bridge,
    hermitian_multiplier_table,
    hermitian_powers,
    real_to_diagonal,
    simplex_power_lines,
)
from psicert.psi import (
    NegativeCoefficientWitness,
    NegativeDirectionWitness,
    in_psi,
    in_psi_diagonal,
    in_psi_general_multiplier,
    in_psi_hermitian,
    min_psi_index,
)


def P(n, terms):
    return RealSparsePoly(n, terms)


def test_diagonal_nonmember_with_witness():
    # (x1 - x2) * (x1 + x2)^3 has negative coefficients; least one at x2^4
    report = in_psi_diagonal(P(2, {(1, 0): 1, (0, 1): -1}), 3)
    assert not report.member
    w = report.certificate
    assert isinstance(w, NegativeCoefficientWitness)
    assert w.monomial == (0, 4) and w.value == -1
    # oracle: brute-force expansion agrees
    expanded = naive_mul({(1, 0): Fraction(1), (0, 1): Fraction(-1)}, naive_simplex_power(2, 3))
    assert expanded[(0, 4)] == -1


def test_diagonal_member_fig2():
    report = in_psi_diagonal(example_fig2(), 1)
    assert report.member
    product = report.certificate.product
    assert all(c > 0 or c == 0 for _, c in product.items())


def test_diagonal_nonneg_any_power_zero():
    p = P(2, {(1, 0): 2, (0, 0): Fraction(1, 3)})
    assert in_psi_diagonal(p, 0).member


def test_hermitian_diagonal_consistency():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(2, 3)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            terms[alpha] = Fraction(rng.randint(-3, 3))
        p = P(n, terms)
        r = real_to_diagonal(p)
        for d in range(0, 4):
            assert in_psi_hermitian(r, d).member == in_psi_diagonal(p, d).member


def test_hermitian_nonmember_example():
    r = real_to_diagonal(P(2, {(1, 0): 1, (0, 1): -1}))
    report = in_psi_hermitian(r, 1)
    assert not report.member
    # product is |z1|^4 - |z2|^4: one positive and one negative square,
    # nothing at z1 z2 (the cross coefficient cancels exactly)
    M = product_matrix(r, 1)
    assert M.basis == ((0, 2), (2, 0))
    assert rational_inertia(M.rows) == (1, 1, 0)


def test_hermitian_member_perfect_square():
    # |z1 - z2|^2 is a squared norm without help
    r = HermitianPoly(
        2,
        {
            ((1, 0), (1, 0)): 1,
            ((0, 1), (0, 1)): 1,
            ((1, 0), (0, 1)): -1,
            ((0, 1), (1, 0)): -1,
        },
    )
    assert in_psi_hermitian(r, 0).member
    # the zero table factors to an empty factorization, which is PSD, at every power
    zero = HermitianPoly(2, {})
    for d in range(3):
        assert in_psi_hermitian(zero, d).member and in_psi(zero, d).member


def test_hermitian_witness_is_sound():
    r = real_to_diagonal(P(2, {(2, 0): 1, (1, 1): -1}))
    report = in_psi_hermitian(r, 1)
    assert not report.member
    assert report.certificate.value < 0


def test_min_psi_index_nonneg_is_zero():
    assert min_psi_index(P(2, {(1, 0): 1, (0, 1): 2}), 4) == 0


def test_min_psi_index_cap():
    with pytest.raises(CapExceeded):
        min_psi_index(P(2, {(0, 0): 1}), 65)
    assert min_psi_index(P(2, {(1, 0): 1, (0, 1): -1}), 3) is None


def test_min_psi_index_lambda_example_against_binomial_oracle():
    from oracles import lambda_example_min_d

    for lam in (Fraction(8), Fraction(10), Fraction(12)):
        expected = lambda_example_min_d(lam)
        assert min_psi_index(generate_lambda_example(lam), 16) == expected


def test_min_psi_index_hermitian_route():
    r = real_to_diagonal(generate_lambda_example(8))
    assert min_psi_index(r, 4) == 1


def test_min_psi_index_nondiagonal_hermitian():
    # |z1 - z2|^2 needs no multiplier at all
    r = HermitianPoly(
        2,
        {
            ((1, 0), (1, 0)): 1,
            ((0, 1), (0, 1)): 1,
            ((1, 0), (0, 1)): -1,
            ((0, 1), (1, 0)): -1,
        },
    )
    assert min_psi_index(r, 4) == 0


def test_min_psi_index_rotated_lambda_examples_at_the_cap():
    from oracles import lambda_example_min_d

    for lam in (8, 12, 14):
        expected = lambda_example_min_d(lam)
        r = rotate_plane(real_to_diagonal(generate_lambda_example(lam)), Fraction(3, 5), Fraction(4, 5))
        assert not r.is_diagonal()
        assert min_psi_index(r, expected) == expected
        assert min_psi_index(r, expected - 1) is None
        assert in_psi(r, expected).member and not in_psi(r, expected - 1).member


def test_membership_nesting():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(2, 3)
        terms = {}
        for _ in range(rng.randint(2, 5)):
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            terms[alpha] = Fraction(rng.randint(-2, 4))
        p = P(n, terms)
        verdicts = [in_psi_diagonal(p, d).member for d in range(5)]
        for lo, hi in zip(verdicts, verdicts[1:]):
            assert (not lo) or hi  # member(d) implies member(d+1)


def test_general_multiplier_diagonal():
    p = P(2, {(1, 0): 1, (0, 1): -1})
    report = in_psi_general_multiplier(p, [(2, 0), (0, 2)])
    assert not report.member
    assert report.certificate.monomial == (0, 3)
    # all-nonnegative tolerates any multiplier
    q = P(2, {(2, 0): 1, (0, 1): 3})
    assert in_psi_general_multiplier(q, [(1, 1), (3, 0)]).member


def test_general_multiplier_units_match_power_one():
    p = P(3, {(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 2): 2})
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert (
        in_psi_general_multiplier(p, units).member
        == in_psi_diagonal(p, 1).member
    )


def test_general_multiplier_duplicate_rejected():
    with pytest.raises(DuplicateMultiplierTerm):
        in_psi_general_multiplier(P(2, {(0, 0): 1}), [(1, 0), (1, 0)])


def test_general_multiplier_hermitian_route():
    r = HermitianPoly(
        2,
        {
            ((1, 0), (1, 0)): 1,
            ((0, 1), (0, 1)): 1,
            ((1, 0), (0, 1)): GaussianRational.of(0, Fraction(1, 2)),
            ((0, 1), (1, 0)): GaussianRational.of(0, Fraction(-1, 2)),
        },
    )
    assert in_psi_general_multiplier(r, [(1, 0), (0, 1)]).member
    assert in_psi(r, 1).member


def test_dispatch():
    assert in_psi(P(2, {(1, 0): 1}), 0).member
    assert in_psi(real_to_diagonal(P(2, {(1, 0): 1})), 0).member
    with pytest.raises(TypeError):
        in_psi("nope", 1)


# -- integer diagonal route against the direct multinomial oracle ---------------


def _mixed_poly(n):
    """Non-integral, mixed-sign coefficients; some terms are cancelled on entry."""
    exps = st.tuples(*([st.integers(0, 3)] * n))
    coefs = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    return st.tuples(
        st.lists(st.tuples(exps, coefs), max_size=6), st.lists(st.booleans(), max_size=6)
    ).map(lambda drawn: _sum_terms(n, *drawn))


def _sum_terms(n, terms, cancel):
    acc: dict = {}
    for (alpha, c), undo in zip(terms, cancel + [False] * len(terms)):
        acc[alpha] = acc.get(alpha, Fraction(0)) + c
        if undo:
            acc[alpha] -= c
    return RealSparsePoly(n, acc)


mixed_polys = st.integers(1, 4).flatmap(_mixed_poly)


def _edge_poly(n):
    """Mixed-sign polynomials, not homogeneous, some with pure powers x_k^top.

    x_k^top with top the largest degree reaches the largest product
    coordinate, top + d, which is one below the packing base.
    """
    top = st.integers(0, 9)
    coefs = st.fractions(min_value=-5, max_value=5, max_denominator=12)

    def terms(t):
        spread = st.tuples(*([st.integers(0, t)] * n)).filter(lambda a: sum(a) <= t)
        pure = st.sampled_from([tuple(t * (i == k) for i in range(n)) for k in range(n)])
        return st.dictionaries(st.one_of(spread, pure), coefs, max_size=6)

    return top.flatmap(terms).map(lambda drawn: RealSparsePoly(n, drawn))


edge_polys = st.integers(1, 4).flatmap(_edge_poly)


def _least_negative(product):
    negatives = sorted(a for a, c in product.items() if c < 0)
    return (negatives[0], product.coeff(negatives[0])) if negatives else None


@settings(max_examples=300, deadline=None)
@given(st.one_of(mixed_polys, edge_polys), st.integers(0, 6))
@example(RealSparsePoly(1, {(3,): -1, (0,): 2}), 6)
@example(RealSparsePoly(3), 4)
@example(RealSparsePoly(3, {(9, 0, 0): 1, (0, 0, 9): -1, (1, 1, 0): 2}), 6)
def test_diagonal_verdict_matches_direct_oracle(p, d):
    expected = multiply_by_simplex_power_direct(p, d)
    assert simplex_power_lines(p, d).poly() == expected
    report = in_psi_diagonal(p, d)
    least = _least_negative(expected)
    assert report.member == (least is None)
    assert report.d == d
    if least is None:
        assert report.certificate.product == expected
    else:
        assert isinstance(report.certificate, NegativeCoefficientWitness)
        assert (report.certificate.monomial, report.certificate.value) == least


@settings(max_examples=100, deadline=None)
@given(mixed_polys, st.integers(0, 6))
def test_min_psi_index_matches_direct_oracle(p, cap):
    expected = next(
        (
            d
            for d in range(cap + 1)
            if _least_negative(multiply_by_simplex_power_direct(p, d)) is None
        ),
        None,
    )
    assert min_psi_index(p, cap) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            _mixed_poly(n),
            st.sets(st.tuples(*([st.integers(0, 2)] * n)), min_size=1, max_size=4),
        )
    )
)
def test_general_multiplier_real_matches_naive_product(case):
    p, exps = case
    exps = sorted(exps)
    expected = RealSparsePoly(
        p.n, naive_mul(dict(p.items()), {e: Fraction(1) for e in exps})
    )
    report = in_psi_general_multiplier(p, exps)
    least = _least_negative(expected)
    assert report.d is None and report.multiplier == tuple(exps)
    bridged = in_psi_general_multiplier(real_to_diagonal(p), exps)
    for rep in (report, bridged):
        assert rep.member == (least is None)
        if least is None:
            assert rep.certificate.product == expected
        else:
            assert (rep.certificate.monomial, rep.certificate.value) == least


def test_power_zero_builds_no_lines(monkeypatch):
    # power 0 is read off p's own table, by min_psi_index and by in_psi_diagonal alike
    import psicert.psi as psi
    from psicert.generators import generate_pD

    def refuse(*args):
        raise AssertionError("lines built for power 0")

    monkeypatch.setattr(psi, "diagonal_lines", refuse)
    monkeypatch.setattr(psi, "simplex_power_lines", refuse)
    member = generate_pD(6, 3)
    assert min_psi_index(member, 64) == 0
    report = in_psi_diagonal(member, 0)
    assert report.member and report.certificate.product is member
    witness = in_psi_diagonal(example_fig2(), 0).certificate
    assert (witness.monomial, witness.value) == _least_negative(example_fig2())


def test_min_psi_index_lambda_above_hard_cap_is_none():
    # the minimal power of lambda = 63/4 is 125, beyond HARD_POWER_CAP
    assert min_psi_index(generate_lambda_example(Fraction(63, 4)), 64) is None


def test_min_psi_index_long_walk_matches_binomial_oracle():
    from oracles import lambda_example_min_d

    lam = Fraction(31, 2)
    expected = lambda_example_min_d(lam)
    assert expected > 30
    assert min_psi_index(generate_lambda_example(lam), 64) == expected


@pytest.mark.parametrize(
    "lam", [-1, 0, 6, 12, 15, Fraction(31, 2), Fraction(202, 13), Fraction(63, 4), 16, 20]
)
def test_min_psi_index_matches_per_power_oracle_at_the_hard_cap(lam, tmp_path, capsys):
    # one multinomial expansion per power, up to the hard cap, against the packed walk;
    # the minimal powers are 0, 0, 0, 5, 29, 61, 65 (just above the cap), 125 and none
    import json

    from psicert.cli import run
    from psicert.polycore import poly_to_json

    p = generate_lambda_example(lam)
    expected = next(
        (d for d in range(65) if _least_negative(multiply_by_simplex_power_direct(p, d)) is None), None
    )
    assert min_psi_index(p, 64) == expected
    path = tmp_path / "lam.json"
    path.write_text(json.dumps(poly_to_json(p)))
    assert run(["min-d", "--poly", str(path), "--max-d", "64"]) == (1 if expected is None else 0)
    assert json.loads(capsys.readouterr().out)["min_d"] == expected


@settings(max_examples=60, deadline=None)
@given(mixed_polys, st.integers(0, 6))
def test_min_psi_index_diagonal_hermitian_equals_bridge(p, cap):
    r = real_to_diagonal(p)
    assert diagonal_real_bridge(r) == p
    assert min_psi_index(r, cap) == min_psi_index(p, cap)


def test_general_multiplier_hermitian_validation():
    r = HermitianPoly(2, {((1, 0), (0, 1)): 1})
    for bad in ([], [(1, 0, 0)], [(-1, 1)]):
        with pytest.raises(ValueError):
            in_psi_general_multiplier(r, bad)
    with pytest.raises(DuplicateMultiplierTerm):
        in_psi_general_multiplier(r, [(1, 0), (1, 0)])


# -- integer Hermitian route against the Gaussian-rational assembly ------------


@st.composite
def _hermitian_inputs(draw):
    """Hermitian tables in 1-3 variables with rational entries, some cancelled on entry.

    With `zero_diagonal` every diagonal entry is dropped, so every product
    matrix has a zero diagonal and the elimination must bump.
    """
    n = draw(st.integers(1, 3))
    index = st.tuples(*([st.integers(0, 1)] * n))
    part = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    zero_diagonal = draw(st.booleans())
    entries: dict = {}
    for _ in range(draw(st.integers(1, 5))):
        alpha, beta = draw(index), draw(index)
        if alpha == beta:
            if zero_diagonal:
                continue
            value = GaussianRational.of(draw(part))
        else:
            value = GaussianRational.of(draw(part), draw(part))
        cancelled = draw(st.booleans())
        for key, v in (((alpha, beta), value), ((beta, alpha), value.conjugate())):
            cur = entries.get(key, GR_ZERO) + v
            entries[key] = cur - v if cancelled else cur
    return HermitianPoly(n, entries)


def _assert_same_verdict(member, cert, M):
    """The verdict on M agrees with the rational eliminator of `oracles`.

    A witness is the oracle's transform column at its first negative pivot
    times a nonzero real scale (a pivot minor, of either sign), and its value
    is v* M v evaluated on M, which is that scale squared times the pivot.
    """
    ref = rational_congruence_factorization(M.rows)
    k = next((k for k, d in enumerate(ref.diag) if d < 0), None)
    assert member == (k is None)
    assert cert.basis == M.basis
    if k is None:
        assert cert.diag == ref.diag
        assert cert.pivot_log == ref.pivot_log
        return
    assert isinstance(cert, NegativeDirectionWitness)
    vector = [GaussianRational.of(*z) for z in cert.vector]
    column = [row[k] for row in ref.transform]
    scale = next(x / t for x, t in zip(vector, column) if not t.is_zero())
    assert scale.is_real() and scale.re != 0
    assert vector == [t * scale for t in column]
    value = quadratic_form(M.rows, vector)
    assert value.is_real() and cert.value == value.re == scale.re**2 * ref.diag[k]


@settings(max_examples=150, deadline=None)
@given(_hermitian_inputs(), st.integers(0, 3))
def test_hermitian_route_matches_rational_assembly(r, d):
    M = product_matrix(r, d)
    product = next(islice(hermitian_powers(r), d, None))
    basis, re, im, _ = _integer_rows(product)
    # the engine receives exactly the upper triangle of L * M, L = product.scale the lcm of M's denominators
    L = product.scale
    assert basis == M.basis
    assert L == lcm(*(q.denominator for row in M.rows for x in row for q in (x.re, x.im)))
    assert re == [[x.re * L if i <= j else 0 for j, x in enumerate(row)] for i, row in enumerate(M.rows)]
    assert im == [[x.im * L if i <= j else 0 for j, x in enumerate(row)] for i, row in enumerate(M.rows)]
    report = in_psi_hermitian(r, d)
    assert report.d == d
    if r.is_zero():
        assert report.member and not M.basis
        return
    _assert_same_verdict(report.member, report.certificate, M)


def _oracle_product(r: HermitianPoly, d: int) -> HermitianPoly:
    """r * |z|^(2d) as a HermitianPoly, read off the oracle's Gaussian-rational product matrix."""
    M = product_matrix(r, d)
    return HermitianPoly(r.n, {(a, b): x for a, row in zip(M.basis, M.rows) for b, x in zip(M.basis, row)})


@pytest.mark.parametrize(
    "r",
    [*(random_psi1_member(seed) for seed in (0, 3, 4, 5)), plane_rotated(generate_pD(3, 4))],
    ids=["member-0", "member-3", "member-4", "member-5", "rotated-pD(3,4)"],
)
def test_hermitian_products_are_minimal_and_match_the_oracle(r):
    # every power is a HermitianPoly over its minimal scale, r itself first; the multiplier pass over the
    # unit vectors is the power-1 pass
    assert any(im for _, im in r.table.values())
    powers = hermitian_powers(r)
    products = [next(powers) for _ in range(4)]
    assert products[0] is r
    for d, product in enumerate(products):
        assert product == _oracle_product(r, d)
        assert gcd(product.scale, *chain.from_iterable(product.table.values())) == 1
    units = [tuple(int(i == k) for i in range(r.n)) for k in range(r.n)]
    assert hermitian_multiplier_table(r, units) == products[1]


@settings(max_examples=100, deadline=None)
@given(
    _hermitian_inputs().flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.sets(st.tuples(*([st.integers(0, 2)] * r.n)), min_size=1, max_size=4),
        )
    )
)
def test_hermitian_multiplier_matches_rational_assembly(case):
    r, exps = case
    assume(not r.is_diagonal())
    exps = sorted(exps)
    report = in_psi_general_multiplier(r, exps)
    assert report.d is None and report.multiplier == tuple(exps)
    _assert_same_verdict(report.member, report.certificate, multiplier_product_matrix(r, exps))


@settings(max_examples=100, deadline=None)
@given(_hermitian_inputs(), st.integers(0, 3))
def test_nondiagonal_min_psi_index_matches_per_power_oracle(r, cap):
    assume(not r.is_diagonal())
    expected = next(
        (d for d in range(cap + 1) if rational_inertia(product_matrix(r, d).rows)[1] == 0), None
    )
    assert min_psi_index(r, cap) == expected
