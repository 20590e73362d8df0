from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from members import clashing_form, hermitian_matrices, random_psi1_member
from oracles import coefficient_matrix, form_polynomial, primitive_form, rational_congruence_factorization
from psicert import reduction
from psicert.errors import (
    CertificateFailure,
    LambdaOutOfRange,
    NotInPsiD,
    PivotDominanceViolated,
)
from psicert.generators import example_fig1, generate_two_var
from psicert.inertia import inertia
from psicert.polycore import GaussianRational, HermitianPoly, RealSparsePoly, real_to_diagonal
from psicert.psi import in_psi_hermitian
from psicert.reduction import (
    DecomposedForm,
    HyperbolicStep,
    decompose,
    hyperbolic_eliminate,
    is_partial_row_echelon,
    lambda_scale,
    partial_row_echelon,
    reconstruction_error,
)

G = GaussianRational.of
ZERO = G(0)


def weighted_j_identity(step) -> bool:
    """t* diag(w', -v') t == diag(w, -v), multiplied out entry by entry."""
    (w, v), (w1, v1) = step.weights
    t, d = step.t, (w1, -v1)
    got = [
        [sum((t[k][i].conjugate() * t[k][j] * d[k] for k in range(2)), ZERO) for j in range(2)]
        for i in range(2)
    ]
    return got == [[G(w), ZERO], [ZERO, G(-v)]]


def apply_to_pivots(step, a1, b1):
    (t11, t12), (t21, t22) = step.t
    return t11 * a1 + t12 * b1, t21 * a1 + t22 * b1


def test_hyperbolic_eliminate_reference_values():
    step = hyperbolic_eliminate(2, 1)
    # mu = 1/2, c0 = 1 - 1/4 = 3/4, kappa = mu / c0 = 2/3
    third, half = Fraction(1, 3), Fraction(1, 2)
    assert step.t == ((G(4 * third), G(-2 * third)), (G(-half), G(1)))
    assert step.weights == ((1, 1), (Fraction(3, 4), Fraction(4, 3)))
    assert weighted_j_identity(step)
    assert apply_to_pivots(step, G(2), G(1)) == (G(2), ZERO)


def test_hyperbolic_eliminate_j_identity_breach_is_failure(monkeypatch):
    monkeypatch.setattr(HyperbolicStep, "j_identity_holds", lambda self: False)
    with pytest.raises(CertificateFailure):
        hyperbolic_eliminate(2, 1)


def test_hyperbolic_eliminate_identity_case():
    step = hyperbolic_eliminate(1, 0)
    assert step.t == ((G(1), ZERO), (ZERO, G(1)))
    assert step.weights == ((1, 1), (1, 1))


def test_hyperbolic_eliminate_boundary_rejected():
    with pytest.raises(PivotDominanceViolated):
        hyperbolic_eliminate(1, 1)
    with pytest.raises(PivotDominanceViolated):
        hyperbolic_eliminate(1, 2)
    # dominance is weighted: 1 * 2^2 == 4 * 1^2
    with pytest.raises(PivotDominanceViolated):
        hyperbolic_eliminate(2, 1, w=1, v=4)
    assert weighted_j_identity(hyperbolic_eliminate(1, 2, w=5, v=1))


def test_hyperbolic_eliminate_complex_pivots():
    a1, b1 = G(2, 1), G(Fraction(1, 2), Fraction(-1, 2))
    for w, v in ((1, 1), (Fraction(3), Fraction(2, 7))):
        step = hyperbolic_eliminate(a1, b1, w, v)
        assert weighted_j_identity(step)
        assert apply_to_pivots(step, a1, b1) == (a1, ZERO)


def test_lambda_scale_identity_and_degenerate():
    r = random_psi1_member(0)
    form = decompose(r)
    same = lambda_scale(form, 1)
    assert same.minus_rows == form.minus_rows
    assert same.minus_weights == form.minus_weights
    assert same.target == r
    dropped = lambda_scale(form, 0)
    assert dropped.n_minus == 0
    assert dropped.lambda_degenerate
    assert form_polynomial(dropped) == dropped.target


def test_lambda_scale_range_check():
    form = decompose(random_psi1_member(0))
    with pytest.raises(LambdaOutOfRange):
        lambda_scale(form, Fraction(3, 2))
    with pytest.raises(LambdaOutOfRange):
        lambda_scale(form, -1)


def test_lambda_scale_membership_loss_is_failure(monkeypatch):
    form = decompose(random_psi1_member(0))
    minus_square = HermitianPoly(form.target.n, {(form.basis[0], form.basis[0]): -1})
    monkeypatch.setattr(reduction, "_add_squares", lambda target, basis, terms: minus_square)
    with pytest.raises(CertificateFailure):
        lambda_scale(form, Fraction(1, 2))


@pytest.mark.parametrize("seed", range(6))
def test_lambda_scale_preserves_membership_and_signature(seed):
    r = random_psi1_member(seed)
    form = decompose(r)
    scaled = lambda_scale(form, Fraction(1, 2))
    assert scaled.minus_weights == tuple(v / 2 for v in form.minus_weights)
    assert form_polynomial(scaled) == scaled.target
    assert in_psi_hermitian(scaled.target, 1).member
    if form.n_minus:
        pos0, neg0, _ = inertia(r)
        pos1, neg1, _ = inertia(scaled.target)
        assert (pos0, neg0) == (pos1, neg1)


def test_is_partial_row_echelon_basic():
    basis = ((0, 2), (1, 1), (2, 0))
    one, two, zero = (1, 0), (2, 0), (0, 0)
    form = DecomposedForm(((one, zero, zero), (zero, one, zero)), (Fraction(1),) * 2, (), (), basis)
    assert is_partial_row_echelon(form)
    form2 = DecomposedForm(
        ((one, two, zero),), (Fraction(1),), ((one, zero, one),), (Fraction(1),), basis
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
    orphan = DecomposedForm((((1, 0), (0, 0)),), (Fraction(1),), (), (), ((1, 0), (0, 1)))
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
    assert reconstruction_error(doubled) > 0
    with pytest.raises(CertificateFailure, match="miss the target"):
        partial_row_echelon(doubled)
    monkeypatch.setattr(reduction, "is_partial_row_echelon", lambda form: False)
    with pytest.raises(CertificateFailure, match="leading columns"):
        partial_row_echelon(decompose(r))


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
    assert form.plus_rows == tuple(row for row, _ in plus)
    assert form.plus_weights == tuple(w for _, w in plus)
    assert form.minus_rows == tuple(row for row, _ in minus)
    assert form.minus_weights == tuple(w for _, w in minus)
