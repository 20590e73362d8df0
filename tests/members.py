"""Seeded generators of exact power-1 members used across the test suite.

Also the hypothesis strategy for small Hermitian matrices shared by the
parity tests.  Members are sums of a known diagonal member (with a negative square) and a
few random holomorphic squares, which stays in the class because the
multiplier distributes over sums.  Every instance is re-verified exactly.
"""

import random
from fractions import Fraction

from hypothesis import strategies as st

from psicert.generators import example_fig1, generate_two_var
from psicert.polycore import (
    GR_ZERO,
    GaussianRational,
    HermitianPoly,
    RealSparsePoly,
    _as_gaussian,
    real_to_diagonal,
)
from psicert.psi import in_psi_hermitian
from psicert.reduction import DecomposedForm, decompose


def _permute_poly(p: RealSparsePoly, perm) -> RealSparsePoly:
    return RealSparsePoly(
        p.n, {tuple(a[perm[i]] for i in range(p.n)): c for a, c in p.items()}
    )


def hermitian_from_square(n: int, coeffs: dict) -> HermitianPoly:
    """|f(z)|^2 for the holomorphic polynomial f with the given coefficients."""
    items = [(tuple(a), _as_gaussian(c)) for a, c in coeffs.items()]
    return HermitianPoly(n, {(alpha, beta): ca.conjugate() * cb for alpha, ca in items for beta, cb in items})


def random_psi1_member(seed: int) -> HermitianPoly:
    """Deterministic member at power 1 with coefficient-matrix size <= 10."""
    rng = random.Random(seed)
    n = 2 if seed % 2 == 0 else 3
    if n == 2:
        base = generate_two_var(1, rng.choice((1, 2)))  # degree 2 or 4
    else:
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)]
        base = _permute_poly(example_fig1(), rng.choice(perms))
    D = base.degree
    scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    r = real_to_diagonal(base.times(scale))

    from psicert.polycore import monomials_of_degree

    basis = monomials_of_degree(n, D)
    for _ in range(rng.randint(0, 2)):
        coeffs = {}
        for mono in basis:
            if rng.random() < 0.5:
                coeffs[mono] = GaussianRational.of(
                    rng.randint(-2, 2), rng.randint(-1, 1)
                )
        square = hermitian_from_square(n, coeffs)
        if not square.is_zero():
            r = r + square.times(Fraction(rng.randint(1, 2), rng.randint(1, 3)))

    assert in_psi_hermitian(r, 1).member
    return r


def clashing_form() -> DecomposedForm:
    """A member whose stacked rows have a guaranteed pivot clash.

    The rational matrix [[5/4, 3/4], [3/4, 5/4]] preserves the (1,-1) inner
    product exactly ((5/4)^2 - (3/4)^2 = 1), so mixing one positive and the
    negative row of equal weight with it leaves the represented polynomial
    untouched while making both rows lead in the same column with the
    negative pivot larger.  The mixed rows are kept as 4 times themselves,
    with weight 1/16.
    """
    base = generate_two_var(1, 1)  # x^2 - xy + y^2
    form = decompose(real_to_diagonal(base))  # basis ((0,2), (1,1), (2,0)), unit rows
    assert set(form.plus_weights + form.minus_weights) == {1}
    plus = list(form.plus_rows)
    (b,) = form.minus_rows
    # mix the plus row leading where the minus row leads after mixing
    mix_idx = max(range(len(plus)), key=lambda i: abs(plus[i][2][0]))
    a = plus[mix_idx]
    plus[mix_idx] = tuple((5 * x + 3 * u, 5 * y + 3 * t) for (x, y), (u, t) in zip(a, b))
    minus = tuple((3 * x + 5 * u, 3 * y + 5 * t) for (x, y), (u, t) in zip(a, b))
    weights = list(form.plus_weights)
    weights[mix_idx] = Fraction(1, 16)
    return DecomposedForm(
        plus_rows=tuple(plus),
        plus_weights=tuple(weights),
        minus_rows=(minus,),
        minus_weights=(Fraction(1, 16),),
        basis=form.basis,
        target=form.target,
    )


def _entry(zero_prob):
    part = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    nonzero = st.builds(GaussianRational.of, part, st.one_of(st.just(0), part))
    return st.one_of(st.just(GR_ZERO), nonzero) if zero_prob else nonzero


@st.composite
def hermitian_matrices(draw):
    """Rows of a Hermitian matrix of Gaussian rationals, dimension 0..9, zero diagonal half the time."""
    dim = draw(st.integers(0, 9))
    zero_diagonal = draw(st.booleans())
    rows = [[GR_ZERO] * dim for _ in range(dim)]
    for i in range(dim):
        if not zero_diagonal:
            rows[i][i] = GaussianRational.of(draw(st.fractions(min_value=-4, max_value=4, max_denominator=3)))
        for j in range(i + 1, dim):
            rows[i][j] = draw(_entry(zero_prob=True))
            rows[j][i] = rows[i][j].conjugate()
    return rows
