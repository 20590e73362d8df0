import math
from fractions import Fraction

import numpy as np
import pytest

from members import clashing_form, random_psi1_member
from psicert import reduction
from psicert.errors import (
    CertificateFailure,
    LambdaOutOfRange,
    NotInPsiD,
    PivotDominanceViolated,
)
from psicert.generators import generate_two_var
from psicert.inertia import inertia
from psicert.polycore import HermitianPoly, RealSparsePoly, real_to_diagonal
from psicert.psi import in_psi_hermitian
from psicert.reduction import (
    LOCAL_TOL,
    DecomposedForm,
    HyperbolicStep,
    decompose,
    hyperbolic_eliminate,
    is_partial_row_echelon,
    lambda_scale,
    partial_row_echelon,
    reconstruction_error,
)

J = np.diag([1.0, -1.0])


def test_hyperbolic_eliminate_reference_values():
    step = hyperbolic_eliminate(2, 1)
    (t11, t12), (t21, t22) = step.t
    assert math.isclose(t22.real, 2 / math.sqrt(3), rel_tol=1e-14)
    assert step.j_identity_error() <= LOCAL_TOL * abs(t22) ** 2
    T = np.array(step.t)
    out = T @ np.array([2.0, 1.0])
    assert abs(out[1]) <= 1e-14


def test_hyperbolic_eliminate_j_identity_breach_is_failure(monkeypatch):
    monkeypatch.setattr(HyperbolicStep, "j_identity_error", lambda self: 1.0)
    with pytest.raises(CertificateFailure):
        hyperbolic_eliminate(2, 1)


def test_hyperbolic_eliminate_identity_case():
    step = hyperbolic_eliminate(1, 0)
    assert np.allclose(np.array(step.t), np.eye(2))


def test_hyperbolic_eliminate_boundary_rejected():
    with pytest.raises(PivotDominanceViolated):
        hyperbolic_eliminate(1, 1)
    with pytest.raises(PivotDominanceViolated):
        hyperbolic_eliminate(1, 2)


def test_hyperbolic_eliminate_complex_pivots():
    step = hyperbolic_eliminate(2 + 1j, 0.5 - 0.5j)
    T = np.array(step.t)
    assert np.max(np.abs(T.conj().T @ J @ T - J)) <= 1e-12 * np.abs(T).max() ** 2
    out = T @ np.array([2 + 1j, 0.5 - 0.5j])
    assert abs(out[1]) <= 1e-14


def test_lambda_scale_identity_and_degenerate():
    r = random_psi1_member(0)
    form = decompose(r)
    same = lambda_scale(form, 1)
    assert np.allclose(same.minus_rows, form.minus_rows)
    assert same.origin == r
    dropped = lambda_scale(form, 0)
    assert dropped.n_minus == 0
    assert dropped.lambda_degenerate


def test_lambda_scale_range_check():
    form = decompose(random_psi1_member(0))
    with pytest.raises(LambdaOutOfRange):
        lambda_scale(form, Fraction(3, 2))
    with pytest.raises(LambdaOutOfRange):
        lambda_scale(form, -1)


def test_lambda_scale_membership_loss_is_failure(monkeypatch):
    form = decompose(random_psi1_member(0))
    minus_square = HermitianPoly(form.origin.n, {(form.basis[0], form.basis[0]): -1})
    monkeypatch.setattr(reduction, "recompose", lambda dec: minus_square)
    with pytest.raises(CertificateFailure):
        lambda_scale(form, Fraction(1, 2))


@pytest.mark.parametrize("seed", range(6))
def test_lambda_scale_preserves_membership_and_signature(seed):
    r = random_psi1_member(seed)
    form = decompose(r)
    scaled = lambda_scale(form, Fraction(1, 2))
    assert in_psi_hermitian(scaled.origin, 1).member
    if form.n_minus:
        pos0, neg0, _ = inertia(r)
        pos1, neg1, _ = inertia(scaled.origin)
        assert (pos0, neg0) == (pos1, neg1)


def test_is_partial_row_echelon_basic():
    basis = ((0, 2), (1, 1), (2, 0))
    form = DecomposedForm(
        plus_rows=np.eye(2, 3, dtype=complex),
        minus_rows=np.zeros((0, 3), dtype=complex),
        basis=basis,
    )
    assert is_partial_row_echelon(form)
    form2 = DecomposedForm(
        plus_rows=np.array([[1.0, 2.0, 0.0]], dtype=complex),
        minus_rows=np.array([[1.0, 0.0, 1.0]], dtype=complex),
        basis=basis,
    )
    assert not is_partial_row_echelon(form2)  # both rows lead in column 0


def test_echelon_input_passes_through():
    r = real_to_diagonal(generate_two_var(1, 1))
    form = decompose(r)
    reduced, steps = partial_row_echelon(form)
    assert steps == []
    assert is_partial_row_echelon(reduced)
    assert np.allclose(reduced.plus_rows @ reduced.plus_rows.conj().T,
                       form.plus_rows @ form.plus_rows.conj().T)


def test_requires_origin_membership():
    bad = real_to_diagonal(RealSparsePoly(2, {(1, 0): 1, (0, 1): -1}))
    form = decompose(bad)
    with pytest.raises(NotInPsiD):
        partial_row_echelon(form)
    orphan = DecomposedForm(
        plus_rows=np.eye(1, 2, dtype=complex),
        minus_rows=np.zeros((0, 2), dtype=complex),
        basis=((1, 0), (0, 1)),
    )
    with pytest.raises(NotInPsiD):
        partial_row_echelon(orphan)


def test_clashing_pivots_resolved_with_rescale_and_rotation():
    form = clashing_form()
    assert reconstruction_error(form) <= 1e-12  # mixing was exact
    reduced, steps = partial_row_echelon(form)
    assert len(steps) == 1
    step = steps[0]
    assert step.lambda_used is not None and 0 < step.lambda_used < 1
    assert step.j_identity_error() <= 1e-12 * max(
        1.0, float(np.abs(np.array(step.t)).max()) ** 2
    )
    assert is_partial_row_echelon(reduced)
    assert reduced.n_plus == 2 and reduced.n_minus == 1
    assert reconstruction_error(reduced) <= 1e-9
    # exact origin kept the signature
    pos, neg, _ = inertia(reduced.origin)
    assert (pos, neg) == (2, 1)


def test_rank_deficient_rows_break_loudly():
    from psicert.errors import NumericalBreakdown
    from psicert.generators import example_fig1

    r = real_to_diagonal(example_fig1())
    form = decompose(r)
    doubled = np.vstack([form.plus_rows, form.plus_rows[:1]])
    bad = DecomposedForm(
        plus_rows=doubled,
        minus_rows=form.minus_rows,
        basis=form.basis,
        origin=form.origin,
        exact=form.exact,
        target=form.target,
    )
    with pytest.raises(NumericalBreakdown):
        partial_row_echelon(bad)


@pytest.mark.parametrize("seed", range(12))
def test_random_suite_pipeline(seed):
    r = random_psi1_member(seed)
    form = decompose(r)
    pos0, neg0, _ = inertia(r)
    reduced, steps = partial_row_echelon(form)
    assert is_partial_row_echelon(reduced)
    assert (reduced.n_plus, reduced.n_minus) == (pos0, neg0)
    assert reconstruction_error(reduced) <= 1e-9
    for step in steps:
        T = np.array(step.t)
        assert np.max(np.abs(T.conj().T @ J @ T - J)) <= 1e-12 * max(
            1.0, float(np.abs(T).max()) ** 2
        )
    # float inertia of the reduced reconstruction matches the exact signature
    H = reduced.hermitian_float()
    eigs = np.linalg.eigvalsh(H)
    tol = 1e-8 * max(1.0, float(np.max(np.abs(eigs))))
    assert (int((eigs > tol).sum()), int((eigs < -tol).sum())) == (pos0, neg0)
