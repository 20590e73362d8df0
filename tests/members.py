"""Seeded generators of exact power-1 members used across the test suite.

Also the hypothesis strategies for small Hermitian matrices shared by the
parity tests, for permuted direct sums of Hermitian blocks, and for
pigeonhole-certificate inputs shared by the bounds and CLI tests.  Members
are sums of a known diagonal member (with a negative square) and a few
random holomorphic squares, which stays in the class because the
multiplier distributes over sums.  Every instance is re-verified exactly.
"""

import random
from fractions import Fraction

from hypothesis import strategies as st

from oracles import realize_signs
from psicert.generators import example_fig1, generate_two_var
from psicert.polycore import (
    GR_ZERO,
    GaussianRational,
    HermitianPoly,
    RealSparsePoly,
    _as_gaussian,
    monomials_of_degree,
    real_to_diagonal,
)
from psicert.psi import in_psi_hermitian
from psicert.reduction import DecomposedForm, decompose


def relabel(p: RealSparsePoly, perm, scale=1) -> RealSparsePoly:
    """p with its variables permuted (variable i of the result is perm[i] of p), times scale."""
    return RealSparsePoly(p.n, {tuple(a[i] for i in perm): c * scale for a, c in p.items()})


def hermitian_from_square(n: int, coeffs: dict) -> HermitianPoly:
    """|f(z)|^2 for the holomorphic polynomial f with the given coefficients."""
    items = [(tuple(a), _as_gaussian(c)) for a, c in coeffs.items()]
    return HermitianPoly(n, {(alpha, beta): ca.conjugate() * cb for alpha, ca in items for beta, cb in items})


def plane_rotated(p: RealSparsePoly, phase=GaussianRational.of(Fraction(3, 5), Fraction(4, 5))) -> HermitianPoly:
    """r(Uz) for the diagonal r = sum_a c_a |z^a|^2 and a unitary U acting on z_1, z_2 only.

    U multiplies z_2 by the unit `phase` and then rotates the plane of z_1,
    z_2 by the (3, 4, 5) triangle, so the table has imaginary parts (a
    phase on a row of U would cancel in every |f|^2).  U is unitary, so
    r(Uz) lies in exactly the classes r does; it keeps each of a_3, ...,
    a_n, so its coefficient matrix, and the product matrix at every power,
    falls into blocks.
    """
    n, c, s = p.n, GaussianRational.of(Fraction(3, 5)), GaussianRational.of(Fraction(4, 5))
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    rows = [{unit[0]: c, unit[1]: -s * phase}, {unit[0]: s, unit[1]: c * phase}]
    rows += [{unit[k]: GaussianRational.of(1)} for k in range(2, n)]
    r = HermitianPoly(n, {})
    for alpha, coef in p.items():
        f = {(0,) * n: GaussianRational.of(1)}
        for row, e in zip(rows, alpha):
            for _ in range(e):
                out = {}
                for a, x in f.items():
                    for b, y in row.items():
                        key = tuple(u + v for u, v in zip(a, b))
                        out[key] = out.get(key, GR_ZERO) + x * y
                f = out
        r = r + hermitian_from_square(n, f).times(coef)
    return r


def random_psi1_member(seed: int) -> HermitianPoly:
    """Deterministic member at power 1 with coefficient-matrix size <= 10."""
    rng = random.Random(seed)
    n = 2 if seed % 2 == 0 else 3
    if n == 2:
        base = generate_two_var(1, rng.choice((1, 2)))  # degree 2 or 4
    else:
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1)]
        base = relabel(example_fig1(), rng.choice(perms))
    D = base.degree
    scale = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    r = real_to_diagonal(base.times(scale))

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

    if not in_psi_hermitian(r, 1).member:
        raise AssertionError(f"seed {seed} built a non-member")
    return r


# A member at power 1 with signature (2, 1) whose zero diagonal entry at (1, 1), between (0, 2) and (2, 0) in index
# order, is bumped, so its signed squares are not yet in row-echelon form
BUMPING_MEMBER = HermitianPoly(
    2, {((2, 0), (2, 0)): 1, ((0, 2), (0, 2)): 1, ((2, 0), (1, 1)): Fraction(1, 4), ((1, 1), (2, 0)): Fraction(1, 4)}
)


def clashing_form() -> DecomposedForm:
    """A member whose stacked rows have a guaranteed pivot clash.

    The rational matrix [[5/4, 3/4], [3/4, 5/4]] preserves the (1,-1) inner
    product exactly ((5/4)^2 - (3/4)^2 = 1), so mixing one positive and the
    negative row of equal weight with it leaves the represented polynomial
    untouched while making both rows lead in the same column with the
    negative pivot larger.  The mixed rows are kept as 4 times themselves,
    with weight 1/16; rows are sparse, nonzero (col, re, im) entries.
    """
    base = generate_two_var(1, 1)  # x^2 - xy + y^2
    form = decompose(real_to_diagonal(base))  # basis ((0,2), (1,1), (2,0)), unit rows
    if set(form.plus_weights + form.minus_weights) != {1}:
        raise AssertionError("the two-variable base no longer decomposes into unit-weight rows")
    plus = list(form.plus_rows)
    (((b, _, _),),) = form.minus_rows  # the unit row e_b, b == 1
    # mix the plus row e_a right of e_b, so both mixed rows lead in column b
    mix_idx = next(i for i, ((a, _, _),) in enumerate(plus) if a > b)
    a = plus[mix_idx][0][0]
    plus[mix_idx] = ((b, 3, 0), (a, 5, 0))
    minus = ((b, 5, 0), (a, 3, 0))
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


@st.composite
def hermitian_direct_sums(draw):
    """(rows, blocks): a permuted direct sum of 1 to 5 Hermitian Gaussian-integer blocks.

    rows are (re, im) int pairs.  A block is all zero, has a zero diagonal
    (so the elimination bumps) or a diagonal of both signs (so pivot minors
    turn negative); its off-diagonal entries are real, purely imaginary or
    both, and a chain of nonzero ones keeps it connected.  The blocks'
    indices are shuffled together; `blocks` lists each nonzero block's
    indices, ascending.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    order = draw(st.permutations(range(sum(sizes))))
    dim = len(order)
    rows = [[(0, 0)] * dim for _ in range(dim)]
    part = st.integers(-4, 4).filter(bool)
    entry = st.one_of(
        st.tuples(part, st.just(0)), st.tuples(st.just(0), part), st.tuples(part, part)
    )
    blocks, start = [], 0
    for size in sizes:
        idx = order[start : start + size]
        start += size
        kind = draw(st.sampled_from(("zero", "zero diagonal", "signed diagonal")))
        if kind == "zero":
            continue
        blocks.append(sorted(idx))
        for a, i in enumerate(idx):
            if kind == "signed diagonal":
                rows[i][i] = (draw(st.integers(-5, 5)), 0)
            for b, j in enumerate(idx[a + 1 :], a + 1):
                z = draw(entry) if b == a + 1 else draw(st.one_of(st.just((0, 0)), entry))
                rows[i][j], rows[j][i] = z, (z[0], -z[1])
    return rows, blocks


_LATTICE_DEGREES = {1: 5, 2: 7, 3: 4, 4: 3}
CERTIFICATE_SCALES = [Fraction(1), Fraction(3, 7), Fraction(5)]


@st.composite
def certificate_inputs(draw):
    """Realized sign maps on a degree-D lattice in 1 to 4 variables (members when feasible), relabelled and rescaled.

    Some get a term of another degree, which makes them non-homogeneous.
    """
    n = draw(st.integers(1, 4))
    lattice = monomials_of_degree(n, draw(st.integers(0, _LATTICE_DEGREES[n])))
    signs = draw(st.lists(st.sampled_from((1, 1, -1, 0)), min_size=len(lattice), max_size=len(lattice)))
    p = realize_signs(dict(zip(lattice, signs)), n, 1)
    p = relabel(p, draw(st.permutations(range(n))), draw(st.sampled_from(CERTIFICATE_SCALES)))
    if draw(st.integers(0, 5)) == 0:
        p = p + RealSparsePoly(n, {(0,) * n: draw(st.sampled_from((1, -1)))})
    return p
