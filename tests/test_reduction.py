from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings

from members import (
    BUMPING_MEMBER,
    clashing_form,
    hermitian_direct_sums,
    hermitian_matrices,
    plane_rotated,
    random_psi1_member,
)
from oracles import (
    coefficient_matrix,
    dense_row,
    form_polynomial,
    primitive_form,
    rational_congruence_factorization,
    step_matrix,
)
from psicert import reduction
from psicert.errors import CertificateFailure, NotInPsiD
from psicert.generators import example_fig1, example_fig2, generate_pD, generate_two_var
from psicert.inertia import congruence_factorization, inertia
from psicert.polycore import GaussianRational, HermitianPoly, RealSparsePoly, real_to_diagonal, sign_counts
from psicert.psi import in_psi_hermitian
from psicert.reduction import (
    DecomposedForm,
    HyperbolicStep,
    decompose,
    is_partial_row_echelon,
    partial_row_echelon,
    reconstruction_error,
)

G = GaussianRational.of
ZERO = G(0)


def weighted_j_identity(step) -> bool:
    """t* diag(w', -v') t == diag(w, -v), multiplied out entry by entry."""
    (w, v), (w1, v1) = step.weights
    t, d = step_matrix(step), (w1, -v1)
    got = [
        [sum((t[k][i].conjugate() * t[k][j] * d[k] for k in range(2)), ZERO) for j in range(2)]
        for i in range(2)
    ]
    return got == [[G(w), ZERO], [ZERO, G(-v)]]


def apply_to_pivots(step, a1, b1):
    (t11, t12), (t21, t22) = step_matrix(step)
    return t11 * a1 + t12 * b1, t21 * a1 + t22 * b1


def cross_step(p, q, w=1, v=1) -> HyperbolicStep:
    """The checked cross-block step on Gaussian-integer pivots p, q (pairs (re, im))."""
    return reduction._cross_step(p, q, Fraction(w), Fraction(v), 0, (0, 0), None)[0]


def _assert_sparse_rows(form):
    """Every row holds strictly ascending columns of the basis, no (0, 0) entry, and integer content 1."""
    for row in form.plus_rows + form.minus_rows:
        cols = [c for c, _, _ in row]
        assert cols and all(a < b for a, b in zip(cols, cols[1:])) and 0 <= cols[0] and cols[-1] < len(form.basis)
        assert all(re or im for _, re, im in row)
        assert gcd(*(x for _, re, im in row for x in (re, im))) == 1


def test_hyperbolic_eliminate_reference_values():
    step = cross_step((2, 0), (1, 0))
    # mu = 1/2, c0 = 1 - 1/4 = 3/4, kappa = mu / c0 = 2/3
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert step_matrix(step) == ((G(4 * third), G(-2 * third)), (G(-half), G(1)))
    assert step.weights == ((1, 1), (Fraction(3, 4), Fraction(4, 3)))
    assert weighted_j_identity(step) and step.j_identity_holds()
    assert apply_to_pivots(step, G(2), G(1)) == (G(2), ZERO)


def test_hyperbolic_eliminate_j_identity_breach_is_failure(monkeypatch):
    monkeypatch.setattr(HyperbolicStep, "j_identity_holds", lambda self: False)
    with pytest.raises(CertificateFailure, match="J-identity"):
        cross_step((2, 0), (1, 0))


def test_hyperbolic_eliminate_identity_case():
    step = cross_step((1, 0), (0, 0))
    assert step_matrix(step) == ((G(1), ZERO), (ZERO, G(1)))
    assert step.weights == ((1, 1), (1, 1))


def test_hyperbolic_eliminate_boundary_rejected():
    # after the rescale the plus pivot dominates, so a step without dominance is an internal fault
    with pytest.raises(CertificateFailure):
        cross_step((1, 0), (1, 0))
    with pytest.raises(CertificateFailure):
        cross_step((1, 0), (2, 0))
    # dominance is weighted: 1 * 2^2 == 4 * 1^2
    with pytest.raises(CertificateFailure):
        cross_step((2, 0), (1, 0), w=1, v=4)
    assert weighted_j_identity(cross_step((1, 0), (2, 0), w=5, v=1))


def test_hyperbolic_eliminate_complex_pivots():
    # the pivots 2 + i and (1 - i) / 2, both scaled by 2
    p, q = (4, 2), (1, -1)
    for w, v in ((1, 1), (Fraction(3), Fraction(2, 7))):
        step = cross_step(p, q, w, v)
        assert weighted_j_identity(step) and step.j_identity_holds()
        assert apply_to_pivots(step, G(*p), G(*q)) == (G(*p), ZERO)


def test_j_identity_rejects_a_perturbed_step():
    # the check in ints agrees with the Gaussian-rational one when an entry, a denominator or a weight is off;
    # turning t12 by the phase i leaves both diagonal entries and breaks only the off-diagonal one
    step = cross_step((4, 2), (1, -1), Fraction(3), Fraction(2, 7))
    (x1, y1, d1), row2 = step.t
    (w, v), (w1, v1) = step.weights
    for bad in (
        replace(step, weights=((w, v), (2 * w1, v1))),
        replace(step, t=((x1, (y1[0] + 1, y1[1]), d1), row2)),
        replace(step, t=((x1, (y1[0], y1[1] + 1), d1), row2)),
        replace(step, t=((x1, y1, d1 + 1), row2)),
        replace(step, t=((x1, (-y1[1], y1[0]), d1), row2)),
    ):
        assert not bad.j_identity_holds() and not weighted_j_identity(bad)


@pytest.mark.parametrize("seed", range(6))
def test_lambda_scale_preserves_membership_and_signature(seed):
    # the rescale partial_row_echelon makes: the minus weights halve, and the target gains the other half
    r = random_psi1_member(seed)
    form = decompose(r)
    half = [(row, v / 2) for row, v in zip(form.minus_rows, form.minus_weights)]
    scaled = replace(
        form,
        minus_weights=tuple(v for _, v in half),
        target=r + reduction._squares(r.n, form.basis, half),
    )
    assert form_polynomial(scaled) == scaled.target
    assert in_psi_hermitian(scaled.target, 1).member
    if form.n_minus:
        pos0, neg0, _ = inertia(r)
        pos1, neg1, _ = inertia(scaled.target)
        assert (pos0, neg0) == (pos1, neg1)


def test_is_partial_row_echelon_basic():
    basis = ((0, 2), (1, 1), (2, 0))
    form = DecomposedForm((((0, 1, 0),), ((1, 1, 0),)), (Fraction(1),) * 2, (), (), basis)
    assert is_partial_row_echelon(form)
    form2 = DecomposedForm(
        (((0, 1, 0), (1, 2, 0)),), (Fraction(1),), (((0, 1, 0), (2, 1, 0)),), (Fraction(1),), basis
    )
    assert not is_partial_row_echelon(form2)  # both rows lead in column 0


def test_echelon_input_passes_through():
    r = real_to_diagonal(generate_two_var(1, 1))
    form = decompose(r)
    reduced, steps = partial_row_echelon(form)
    assert steps == []
    assert is_partial_row_echelon(reduced)
    plus_part = lambda f: form_polynomial(replace(f, minus_rows=(), minus_weights=()))
    assert plus_part(reduced) == plus_part(form)
    assert form_polynomial(reduced) == r == reduced.target


def test_requires_origin_membership():
    bad = real_to_diagonal(RealSparsePoly(2, {(1, 0): 1, (0, 1): -1}))
    form = decompose(bad)
    with pytest.raises(NotInPsiD):
        partial_row_echelon(form)
    orphan = DecomposedForm((((0, 1, 0),),), (Fraction(1),), (), (), ((1, 0), (0, 1)))
    with pytest.raises(NotInPsiD):
        partial_row_echelon(orphan)


def test_clashing_pivots_resolved_with_rescale_and_rotation():
    form = clashing_form()
    assert reconstruction_error(form) == 0  # mixing was exact
    assert form_polynomial(form) == form.target
    reduced, steps = partial_row_echelon(form)
    assert len(steps) == 1
    step = steps[0]
    # pivots 3 (plus) and 5 (minus), weights 1/16: 2^-k * 25 < 9 first at k = 2
    assert step.lambda_used == Fraction(1, 4)
    assert step.weights[0] == (Fraction(1, 16), Fraction(1, 64))
    assert weighted_j_identity(step) and step.j_identity_holds()
    assert is_partial_row_echelon(reduced)
    assert reduced.n_plus == 2 and reduced.n_minus == 1
    _assert_sparse_rows(reduced)
    assert reconstruction_error(reduced) == 0
    assert form_polynomial(reduced) == reduced.target
    # the target gained 3/4 of the minus part; its signature is kept
    pos, neg, _ = inertia(form_polynomial(reduced))
    assert (pos, neg) == (2, 1)


def test_rank_deficient_rows_break_loudly():
    form = decompose(real_to_diagonal(example_fig1()))
    bad = replace(
        form,
        plus_rows=form.plus_rows + form.plus_rows[:1],
        plus_weights=form.plus_weights + form.plus_weights[:1],
    )
    with pytest.raises(CertificateFailure, match="lost rank"):
        partial_row_echelon(bad)


def test_rows_missing_the_target_break_loudly(monkeypatch):
    r = random_psi1_member(1)
    doubled = decompose(r)
    doubled = replace(doubled, target=r + r)  # still a member, no longer what the rows represent
    assert reconstruction_error(doubled) == _largest_gap(doubled) > 0
    with pytest.raises(CertificateFailure, match="miss the target"):
        partial_row_echelon(doubled)
    monkeypatch.setattr(reduction, "is_partial_row_echelon", lambda form: False)
    with pytest.raises(CertificateFailure, match="leading columns"):
        partial_row_echelon(decompose(r))


def _largest_gap(form) -> Fraction:
    """The largest |re| or |im| of a coefficient of the form's polynomial minus its target, over Gaussian rationals."""
    got, want = form_polynomial(form), form.target
    gaps = (got.entry(a, b) - want.entry(a, b) for a, b in got.table.keys() | want.table.keys())
    return max((abs(x) for z in gaps for x in (z.re, z.im)), default=Fraction(0))


@pytest.mark.parametrize("seed", (0, 3, 4, 5, 7, 11))
def test_reconstruction_error_is_the_largest_coefficient_gap(seed):
    # rows with doubled weights represent 2r against the target r: the error is the oracle's largest gap, exactly
    r = random_psi1_member(seed)
    assert any(im for _, im in r.table.values())
    form = decompose(r)
    doubled = replace(
        form,
        plus_weights=tuple(2 * w for w in form.plus_weights),
        minus_weights=tuple(2 * v for v in form.minus_weights),
    )
    assert reconstruction_error(doubled) == _largest_gap(doubled) > 0
    assert reconstruction_error(form) == _largest_gap(form) == 0


@pytest.mark.parametrize("seed", range(12))
def test_random_suite_pipeline(seed):
    r = random_psi1_member(seed)
    form = decompose(r)
    assert form_polynomial(form) == r
    pos0, neg0, _ = inertia(r)
    reduced, steps = partial_row_echelon(form)
    assert is_partial_row_echelon(reduced)
    assert (reduced.n_plus, reduced.n_minus) == (pos0, neg0)
    assert reconstruction_error(reduced) == 0
    recomposed = form_polynomial(reduced)
    assert recomposed == reduced.target
    assert inertia(recomposed)[:2] == (pos0, neg0)
    for step in steps:
        assert weighted_j_identity(step)
        if step.lambda_used is not None:
            assert 0 < step.lambda_used < 1


def _bumps(r) -> int:
    return sum(1 for entry in congruence_factorization(r).pivot_log if entry[0] == "bump")


@given(hermitian_matrices())
@example([[G(-3), G(1), ZERO], [G(1), G(1), G(0, 2)], [ZERO, G(0, -2), G(2)]])  # negative pivot minor
@settings(max_examples=150, deadline=None)
def test_bump_free_squares_are_in_row_echelon_form(rows):
    # without a bump, row k of T^-1 is k's pivot row, which leads in column k
    r = HermitianPoly(1, {((i,), (j,)): x for i, row in enumerate(rows) for j, x in enumerate(row)})
    assume(not _bumps(r))
    assert is_partial_row_echelon(decompose(r))


@pytest.mark.parametrize("seed", range(12))
def test_bump_free_members_take_no_step(seed):
    # the decomposition of a member that takes no bump is already in partial row-echelon form
    r = random_psi1_member(seed)
    assert not _bumps(r)
    form = decompose(r)
    assert is_partial_row_echelon(form)
    reduced, steps = partial_row_echelon(form)
    assert steps == []
    assert (reduced.plus_rows, reduced.minus_rows) == (form.plus_rows, form.minus_rows)


def test_bumping_member_takes_a_cross_block_step():
    form = decompose(BUMPING_MEMBER)
    assert _bumps(BUMPING_MEMBER) == 1 and not is_partial_row_echelon(form)
    reduced, steps = partial_row_echelon(form)
    assert (reduced.n_plus, reduced.n_minus) == (2, 1) and len(steps) == 1
    assert weighted_j_identity(steps[0]) and reconstruction_error(reduced) == 0


@given(hermitian_matrices())
@example([[G(-3), G(1)], [G(1), G(1)]])  # negative pivot minor
@example([[ZERO, G(0, Fraction(1, 2)), G(2)], [G(0, Fraction(-1, 2)), ZERO, ZERO], [G(2), ZERO, ZERO]])  # bumps
@settings(max_examples=150, deadline=None)
def test_decompose_matches_primitive_oracle_inverse_rows(rows):
    # row k of the oracle's T^-1 with weight |diag[k]|, made primitive, in pivot order
    r = HermitianPoly(1, {((i,), (j,)): x for i, row in enumerate(rows) for j, x in enumerate(row)})
    M = coefficient_matrix(dict(r.items()))
    ref = rational_congruence_factorization(M.rows)
    plus = [primitive_form(row, d) for row, d in zip(ref.inverse, ref.diag) if d > 0]
    minus = [primitive_form(row, -d) for row, d in zip(ref.inverse, ref.diag) if d < 0]
    form = decompose(r)
    assert form.basis == M.basis and form.target == r
    dense = lambda rows: tuple(dense_row(row, len(form.basis)) for row in rows)
    assert (dense(form.plus_rows), form.plus_weights) == (tuple(x for x, _ in plus), tuple(w for _, w in plus))
    assert (dense(form.minus_rows), form.minus_weights) == (tuple(x for x, _ in minus), tuple(w for _, w in minus))
    _assert_sparse_rows(form)


def _no_factoring(scaled):
    raise AssertionError("a diagonal table was factored")


@pytest.mark.parametrize(
    "p", [example_fig1(), example_fig2(), generate_two_var(1, 3).times(Fraction(3, 7))], ids=["fig1", "fig2", "two-var"]
)
def test_decompose_reads_a_diagonal_table_off_without_factoring(p, monkeypatch):
    # the diagonal route gives the rows and weights the factorization of the diagonal matrix gives
    r = real_to_diagonal(p)
    M = coefficient_matrix(dict(r.items()))
    ref = rational_congruence_factorization(M.rows)
    plus = [primitive_form(row, d) for row, d in zip(ref.inverse, ref.diag) if d > 0]
    minus = [primitive_form(row, -d) for row, d in zip(ref.inverse, ref.diag) if d < 0]
    monkeypatch.setenv("PSI_MAX_DIM", "1")
    monkeypatch.setattr(reduction, "congruence_factorization", _no_factoring)
    form = decompose(r)
    assert form.basis == M.basis and form.target == r
    dense = lambda rows: tuple(dense_row(row, len(form.basis)) for row in rows)
    assert (dense(form.plus_rows), form.plus_weights) == (tuple(x for x, _ in plus), tuple(w for _, w in plus))
    assert (dense(form.minus_rows), form.minus_weights) == (tuple(x for x, _ in minus), tuple(w for _, w in minus))
    assert reconstruction_error(form) == 0
    reduced, steps = partial_row_echelon(form)
    assert steps == [] and (reduced.n_plus, reduced.n_minus) == (form.n_plus, form.n_minus)


def test_diagonal_non_member_is_refused_without_factoring(monkeypatch):
    monkeypatch.setenv("PSI_MAX_DIM", "1")
    monkeypatch.setattr(reduction, "congruence_factorization", _no_factoring)
    bad = real_to_diagonal(RealSparsePoly(2, {(2, 0): 1, (1, 1): -3, (0, 2): 1}))
    with pytest.raises(NotInPsiD):
        partial_row_echelon(decompose(bad))


# BUMPING_MEMBER with its off-diagonal entry turned by the phase i, as z_2 -> i z_2 turns it: a bumping member
# with imaginary entries
COMPLEX_BUMPING_MEMBER = HermitianPoly(
    2,
    {
        ((2, 0), (2, 0)): 1,
        ((0, 2), (0, 2)): 1,
        ((2, 0), (1, 1)): G(0, Fraction(1, 4)),
        ((1, 1), (2, 0)): G(0, Fraction(-1, 4)),
    },
)


@given(hermitian_direct_sums())
@settings(max_examples=100, deadline=None)
def test_decomposed_rows_of_direct_sums_are_sparse_and_primitive(case):
    rows, _ = case
    table = {((i,), (j,)): G(*z) for i, row in enumerate(rows) for j, z in enumerate(row) if z != (0, 0)}
    _assert_sparse_rows(decompose(HermitianPoly(1, table)))


@pytest.mark.parametrize(
    "r",
    [
        *(random_psi1_member(seed) for seed in range(12)),
        BUMPING_MEMBER,
        COMPLEX_BUMPING_MEMBER,
        plane_rotated(generate_pD(3, 4)),
        *(real_to_diagonal(p) for p in (example_fig1(), example_fig2(), generate_pD(3, 12))),
    ],
    ids=[
        *(f"member{seed}" for seed in range(12)),
        *("bumping", "complex-bumping", "rotated-pD(3,4)", "fig1", "fig2", "pD(3,12)"),
    ],
)
def test_reduced_rows_are_sparse_and_primitive(r):
    form = decompose(r)
    _assert_sparse_rows(form)
    reduced, _ = partial_row_echelon(form)
    _assert_sparse_rows(reduced)


def test_complex_bumping_member_takes_a_cross_block_step():
    assert _bumps(COMPLEX_BUMPING_MEMBER) == 1 and in_psi_hermitian(COMPLEX_BUMPING_MEMBER, 1).member
    reduced, steps = partial_row_echelon(decompose(COMPLEX_BUMPING_MEMBER))
    assert (reduced.n_plus, reduced.n_minus) == (2, 1) and len(steps) == 1
    assert any(im for _, _, im in reduced.plus_rows[0] + reduced.minus_rows[0])


def test_large_diagonal_table_reduces_without_a_step():
    # a diagonal table's squares are one-entry rows, each leading in its own column: nothing is laid out over the basis
    p = generate_pD(3, 36)
    reduced, steps = partial_row_echelon(decompose(real_to_diagonal(p)))
    sig = sign_counts(p)
    assert (reduced.n_plus, reduced.n_minus) == (sig.n_plus, sig.n_minus) and len(steps) == 0
