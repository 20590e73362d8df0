from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import all_sign_patterns, tuple_pigeonhole_certificate
from psicert.bounds import (
    pigeonhole_certificate,
    ratio_ceiling,
    verify_ratio_bound,
)
from psicert.errors import CertificateFailure, NotInPsiD
from psicert.generators import (
    example_fig1,
    example_fig2,
    generate_pD,
    generate_two_var,
)
from psicert.patterns import SignPattern, realize_magnitudes, realize_signs, support_feasible
from psicert.polycore import RealSparsePoly, SignaturePair, monomials_of_degree, sign_counts
from psicert.psi import in_psi_diagonal


def test_ratio_ceiling_values():
    assert ratio_ceiling(3, 1) == 2
    assert ratio_ceiling(2, 2) == 2  # binom(3,2) - 1
    assert ratio_ceiling(3, 2) == 5  # binom(4,2) - 1


def test_verify_ratio_bound_examples():
    rep = verify_ratio_bound(SignaturePair(7, 6), 3, 1)
    assert rep.bound == 2 and rep.satisfied and rep.strict
    rep = verify_ratio_bound(SignaturePair(4, 6), 2, 2)
    assert rep.bound == 2 and rep.satisfied
    assert verify_ratio_bound(SignaturePair(1, 0), 5, 3).satisfied
    # zero signature counts as satisfied; positive-free with negatives does not
    assert verify_ratio_bound(SignaturePair(0, 0), 2, 1).satisfied
    assert not verify_ratio_bound(SignaturePair(0, 3), 2, 1).satisfied
    # equality with the ceiling violates the strict bound
    assert not verify_ratio_bound(SignaturePair(1, 1), 2, 1).satisfied


def test_family_members_respect_ceiling():
    cases = [
        (example_fig2(), 3, 1),
        (generate_pD(3, 12), 3, 1),
        (generate_pD(2, 8), 2, 1),
        (generate_two_var(2, 3), 2, 2),
        (generate_two_var(3, 2), 2, 3),
    ]
    for p, n, d in cases:
        assert in_psi_diagonal(p, d).member
        assert verify_ratio_bound(sign_counts(p), n, d).satisfied


def test_exhaustive_small_lattices_obey_both_bounds():
    # every feasible two-variable pattern at power 1: ratio < 1 and
    # any negative forces at least two positives
    for D in range(0, 5):
        for pos, neg in all_sign_patterns(2, D):
            if not (pos or neg):
                continue
            pat = SignPattern(2, D, pos, neg)
            ok, _ = support_feasible(pat, 1)
            if not ok:
                continue
            if neg:
                assert len(pos) >= 2
                assert Fraction(len(neg), len(pos)) < 1
            p = realize_magnitudes(pat, 1)
            assert in_psi_diagonal(p, 1).member


def test_pigeonhole_fig1():
    cert = pigeonhole_certificate(example_fig1())
    assert len(cert.assignment) == 1
    assert cert.max_fiber == 1
    (alpha, beta), = cert.assignment
    assert alpha == (1, 1, 0)
    assert beta in {(2, 0, 0), (0, 2, 0), (1, 0, 1)}
    assert cert.least_monomial == (0, 2, 0)


def test_pigeonhole_fig2():
    cert = pigeonhole_certificate(example_fig2())
    assert len(cert.assignment) == 6
    assert cert.max_fiber <= 2
    sizes = cert.fiber_sizes()
    assert sizes.get(cert.least_monomial, 0) == 0


def test_pigeonhole_all_positive():
    p = RealSparsePoly(2, {(2, 0): 1, (0, 2): 3})
    cert = pigeonhole_certificate(p)
    assert cert.assignment == ()
    assert cert.max_fiber == 0


def test_pigeonhole_requires_membership_and_homogeneity():
    with pytest.raises(NotInPsiD):
        pigeonhole_certificate(RealSparsePoly(2, {(1, 0): 1, (0, 1): -1}))
    with pytest.raises(NotInPsiD):
        pigeonhole_certificate(RealSparsePoly(2, {(1, 0): 1, (0, 0): 1}))


def test_pigeonhole_zero_polynomial_is_not_in_psi_d():
    # a user input, not an invariant breach: NotInPsiD rather than CertificateFailure
    with pytest.raises(NotInPsiD, match="zero polynomial"):
        pigeonhole_certificate(RealSparsePoly(3, {}))


def test_pigeonhole_strict_count_consequence():
    # fibers of size <= n-1 plus an untouched least monomial force
    # N- < (n-1) N+ on every member tested
    for p in (example_fig1(), example_fig2(), generate_pD(3, 8), generate_pD(2, 6)):
        cert = pigeonhole_certificate(p)
        sig = sign_counts(p)
        n = p.n
        assert cert.max_fiber <= n - 1
        assert sig.n_minus <= (n - 1) * (sig.n_plus - 1)
        assert sig.n_minus < (n - 1) * sig.n_plus


def test_hermitian_members_respect_ceiling_via_inertia():
    # the general (non-diagonal) bound is checked on the coefficient matrix
    from members import random_psi1_member
    from psicert.inertia import inertia

    for seed in range(10):
        r = random_psi1_member(seed)
        pos, neg, _zero = inertia(r)
        assert verify_ratio_bound(SignaturePair(pos, neg), r.n, 1).satisfied


def test_hermitian_power_two_members_respect_ceiling():
    from psicert.inertia import inertia
    from members import hermitian_from_square
    from psicert.polycore import real_to_diagonal
    from psicert.psi import in_psi_hermitian

    base = real_to_diagonal(generate_two_var(2, 2))
    square = hermitian_from_square(
        2, {(6, 0): 1, (3, 3): Fraction(-1, 2), (0, 6): 1}
    )
    r = base + square
    assert in_psi_hermitian(r, 2).member
    pos, neg, _zero = inertia(r)
    assert neg > 0
    assert verify_ratio_bound(SignaturePair(pos, neg), 2, 2).satisfied


def test_pigeonhole_on_mirrored_member():
    # least support monomial must be positive even when the first variable
    # carries the negative term
    p = RealSparsePoly(2, {(2, 0): 1, (1, 1): -1, (0, 2): 1})
    cert = pigeonhole_certificate(p)
    assert cert.least_monomial == (0, 2)
    assert cert.fiber_sizes().get((0, 2), 0) == 0


def _certificate_outcome(build, p):
    """build(p) as (assignment, max_fiber, least_monomial), or the type of the exception it raised."""
    try:
        cert = build(p)
    except (NotInPsiD, CertificateFailure) as exc:
        return type(exc)
    return cert if isinstance(cert, tuple) else (cert.assignment, cert.max_fiber, cert.least_monomial)


def _relabel(p: RealSparsePoly, perm, scale) -> RealSparsePoly:
    return RealSparsePoly(p.n, {tuple(a[i] for i in perm): c * scale for a, c in p.items()})


_LATTICE_DEGREES = {1: 5, 2: 7, 3: 4, 4: 3}
_SCALES = [Fraction(1), Fraction(3, 7), Fraction(5)]
# negatives (1, 0, 1), and (1, 0, 3) and (3, 0, 1) among the pure fourth powers: each
# candidate at j = 2 borrows, and each target is at j = 3, (4, 0, 0) for (3, 0, 1)
_BORROW = {(0, 0, 2): 1, (0, 1, 1): 1, (0, 2, 0): 1, (1, 0, 1): -1, (1, 1, 0): -1, (2, 0, 0): 1}
_BORROW_TOP = {
    (4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1, (2, 0, 2): 1, (0, 1, 3): 1, (3, 1, 0): 1, (1, 0, 3): -1, (3, 0, 1): -1
}


@st.composite
def _certificate_inputs(draw):
    """Realized sign maps on a degree-D lattice (members when feasible), relabelled and rescaled.

    Some get a term of another degree, which makes them non-homogeneous.
    """
    n = draw(st.integers(1, 4))
    lattice = monomials_of_degree(n, draw(st.integers(0, _LATTICE_DEGREES[n])))
    signs = draw(st.lists(st.sampled_from((1, 1, -1, 0)), min_size=len(lattice), max_size=len(lattice)))
    p = realize_signs(dict(zip(lattice, signs)), n, 1)
    p = _relabel(p, draw(st.permutations(range(n))), draw(st.sampled_from(_SCALES)))
    if draw(st.integers(0, 5)) == 0:
        p = p + RealSparsePoly(n, {(0,) * n: draw(st.sampled_from((1, -1)))})
    return p


@settings(max_examples=300, deadline=None)
@given(_certificate_inputs())
@example(realize_signs(_BORROW, 3, 1))
@example(RealSparsePoly(3, {}))
@example(realize_signs(_BORROW_TOP, 3, 1))
@example(RealSparsePoly(3, {(0, 0, 4): 1, (3, 0, 1): -1, (4, 0, 0): 5, (3, 1, 0): 1}))
def test_pigeonhole_certificate_matches_tuple_oracle(p):
    assert _certificate_outcome(pigeonhole_certificate, p) == _certificate_outcome(tuple_pigeonhole_certificate, p)


@pytest.mark.parametrize(
    "p",
    [example_fig1(), example_fig2(), generate_pD(3, 12), generate_pD(3, 24), generate_pD(2, 8)],
    ids=["fig1", "fig2", "pD(3,12)", "pD(3,24)", "pD(2,8)"],
)
def test_pigeonhole_certificate_matches_tuple_oracle_on_families(p):
    for perm in permutations(range(p.n)):
        for scale in _SCALES:
            q = _relabel(p, perm, scale)
            cert = _certificate_outcome(pigeonhole_certificate, q)
            assert isinstance(cert, tuple)  # relabelling and positive scaling keep membership
            assert cert == _certificate_outcome(tuple_pigeonhole_certificate, q)


def test_pigeonhole_borrowed_candidates_miss():
    # alpha_2 = 0: the candidate alpha + e_1 - e_2 does not exist, and the packed search must skip it
    cert = pigeonhole_certificate(realize_signs(_BORROW, 3, 1))
    assert cert.assignment == (((1, 0, 1), (2, 0, 0)), ((1, 1, 0), (2, 0, 0)))
    cert = pigeonhole_certificate(realize_signs(_BORROW_TOP, 3, 1))
    assert cert.assignment == (((1, 0, 3), (2, 0, 2)), ((3, 0, 1), (4, 0, 0)))
    assert cert.least_monomial == (0, 0, 4)
