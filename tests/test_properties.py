"""Cross-module invariants, mostly property-based."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from psicert.bounds import ratio_ceiling
from psicert.inertia import inertia
from psicert.patterns import SignPattern, support_feasible
from psicert.polycore import (
    RealSparsePoly,
    multiply_by_simplex_power,
    real_to_diagonal,
    sign_counts,
)
from psicert.psi import in_psi_diagonal, in_psi_hermitian


def _poly_strategy(n):
    return st.dictionaries(
        st.tuples(*([st.integers(0, 2)] * n)),
        st.fractions(min_value=-4, max_value=4, max_denominator=4),
        max_size=5,
    ).map(lambda terms: RealSparsePoly(n, terms))


small_polys = st.integers(2, 3).flatmap(_poly_strategy)


@given(small_polys)
@settings(max_examples=50, deadline=None)
def test_bridge_signature_matches_sign_counts(p):
    sig = sign_counts(p)
    if p.is_zero():
        return
    pos, neg, _zero = inertia(real_to_diagonal(p))
    assert (pos, neg) == (sig.n_plus, sig.n_minus)


@given(small_polys, st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_diagonal_and_matrix_routes_agree(p, d):
    if p.is_zero():
        return
    assert (
        in_psi_hermitian(real_to_diagonal(p), d).member
        == in_psi_diagonal(p, d).member
    )


@given(small_polys, st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_nonmember_witness_reverifies(p, d):
    report = in_psi_diagonal(p, d)
    if report.member:
        return
    witness = report.certificate
    product = multiply_by_simplex_power(p, d)
    assert product.coeff(witness.monomial) == witness.value
    assert witness.value < 0


@given(small_polys, st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_membership_is_monotone_in_power(p, d):
    if in_psi_diagonal(p, d).member:
        assert in_psi_diagonal(p, d + 1).member


@given(small_polys, st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_simplex_power_degree_shift(p, d):
    product = multiply_by_simplex_power(p, d)
    if p.is_zero():
        assert product.is_zero()
    else:
        assert product.degree == p.degree + d


def test_feasible_patterns_never_beat_the_ceiling():
    rng = random.Random(5)
    from psicert.polycore import monomials_of_degree

    for _ in range(80):
        n = rng.choice((2, 3))
        D = rng.randint(1, 4 if n == 3 else 6)
        d = rng.randint(1, 2)
        lattice = monomials_of_degree(n, D)
        pos, neg = set(), set()
        for a in lattice:
            roll = rng.random()
            if roll < 0.4:
                pos.add(a)
            elif roll < 0.7:
                neg.add(a)
        if not pos:
            continue
        pat = SignPattern(n, D, frozenset(pos), frozenset(neg))
        ok, _ = support_feasible(pat, d)
        if ok and neg:
            assert Fraction(len(neg), len(pos)) < ratio_ceiling(n, d)
