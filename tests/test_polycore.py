import json
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from members import hermitian_direct_sums, hermitian_matrices
from oracles import (
    multiplier_product_matrix,
    multiply_by_simplex_power_direct,
    naive_mul,
    naive_simplex_power,
    plain_hermitian_parse,
    plain_poly_parse,
    poly_dict,
    product_matrix,
    term_by_term_hermitian_from_json,
    term_by_term_poly_from_json,
)
from psicert.errors import CertificateFailure, DuplicateMultiplierTerm, ExplicitLimit, NotDiagonal, NotHermitian
from psicert.generators import example_fig2, generate_pD
from psicert.polycore import (
    GR_ZERO,
    LINE_BITS_CAP,
    DiagonalLines,
    GaussianRational,
    HermitianPoly,
    RealSparsePoly,
    _ratio,
    diagonal_lines,
    diagonal_real_bridge,
    hermitian_from_json,
    hermitian_multiplier_table,
    hermitian_powers,
    hermitian_to_json,
    monomials_of_degree,
    multiplier_lines,
    multiply_by_simplex_power,
    packing,
    poly_from_json,
    poly_to_json,
    real_to_diagonal,
    sign_counts,
    simplex_power_lines,
)
from psicert.reduction import _squares, decompose


def P(n, terms):
    return RealSparsePoly(n, terms)


def diagonal_product(p, s):
    """p times sum_j x^{alpha_j}, decoded from the lines of the diagonal multiplier route."""
    return multiplier_lines(p, s).poly()


# -- strategies ---------------------------------------------------------------

def _poly_strategy(n):
    return st.dictionaries(
        st.tuples(*([st.integers(0, 3)] * n)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        max_size=6,
    ).map(lambda terms: RealSparsePoly(n, terms))


small_polys = st.integers(1, 3).flatmap(_poly_strategy)

same_arity_pairs = st.integers(1, 3).flatmap(
    lambda n: st.tuples(_poly_strategy(n), _poly_strategy(n))
)


# -- basic representation -----------------------------------------------------


def test_zero_pruning_and_degree():
    p = P(2, {(1, 0): 1, (0, 2): 0})
    assert p.support == {(1, 0)}
    assert p.degree == 1
    assert P(2, {}).degree is None
    assert P(2, {}).is_zero()


def test_arity_validation():
    with pytest.raises(ValueError):
        P(2, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        P(2, {(-1, 0): 1})


def test_simplex_power_trivial_cases():
    # difference of squares
    p = P(2, {(1, 0): 1, (0, 1): -1})
    assert multiply_by_simplex_power(p, 1) == P(2, {(2, 0): 1, (0, 2): -1})
    # binomial square
    one = P(2, {(0, 0): 1})
    assert multiply_by_simplex_power(one, 2) == P(
        2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    )


def test_simplex_power_fig2_nonnegative():
    product = multiply_by_simplex_power(example_fig2(), 1)
    assert all(c >= 0 for _, c in product.items())


def test_simplex_power_matches_naive_oracle():
    p = P(3, {(2, 0, 0): 1, (0, 1, 1): Fraction(-3, 2), (1, 1, 0): 7})
    for d in range(4):
        expected = naive_mul(poly_dict(p), naive_simplex_power(3, d))
        got = multiply_by_simplex_power(p, d)
        assert poly_dict(got) == expected


@given(small_polys, st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_convolution_and_direct_routes_agree(p, d):
    assert multiply_by_simplex_power(p, d) == multiply_by_simplex_power_direct(p, d)


@given(same_arity_pairs, st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_simplex_power_is_linear(pair, d):
    p, q = pair
    left = multiply_by_simplex_power(p + q, d)
    right = multiply_by_simplex_power(p, d) + multiply_by_simplex_power(q, d)
    assert left == right


@given(small_polys, st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_iterated_single_power_equals_one_shot(p, d):
    step = p
    for _ in range(d):
        step = multiply_by_simplex_power(step, 1)
    assert step == multiply_by_simplex_power(p, d)


@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_homogeneous_support_shifts_by_d(n, D, d):
    terms = {a: Fraction(1) for a in monomials_of_degree(n, D)}
    p = RealSparsePoly(n, terms)
    out = multiply_by_simplex_power(p, d)
    assert all(sum(a) == D + d for a in out.support)


def _digit_code(digits, base):
    # the oracle for every packed key: sum of digit_i * base**(m-1-i), most significant digit first
    return sum(x * base ** (len(digits) - 1 - i) for i, x in enumerate(digits))


def _vectors_within(n, top):
    # exponent vectors of arity n and total degree at most top: each coordinate clipped to what is left
    def clip(xs):
        out = []
        for x in xs:
            out.append(min(x, top - sum(out)))
        return tuple(out)

    return st.lists(st.integers(0, top), min_size=n, max_size=n).map(clip)


@st.composite
def _codec_cases(draw):
    n, top, d = draw(st.integers(1, 5)), draw(st.integers(0, 6)), draw(st.integers(0, 3))
    vectors = draw(st.lists(_vectors_within(n, top), max_size=8, unique=True))
    deltas = draw(st.lists(_vectors_within(n, d), min_size=1, max_size=4))
    return n, top, d, vectors, deltas


@given(_codec_cases())
@settings(max_examples=150, deadline=None)
@example((3, 0, 0, [(0, 0, 0)], [(0, 0, 0)]))
@example((5, 6, 3, [(6, 0, 0, 0, 0), (0, 0, 0, 0, 6)], [(0, 0, 0, 0, 3)]))
def test_packing_codec_matches_the_digit_oracle(case):
    n, top, d, vectors, deltas = case
    encode, decode = packing(top, n, d)
    base = top + d + 1
    codes = encode(vectors)
    assert codes == [_digit_code(a, base) for a in vectors]
    assert decode(codes) == vectors
    assert sorted(codes) == encode(sorted(vectors))
    for a, code in zip(vectors, codes):
        moved = [tuple(x + y for x, y in zip(a, delta)) for delta in deltas]
        assert encode(moved) == [code + step for step in encode(deltas)]
    assert encode([]) == [] and decode([]) == []


@given(st.integers(1, 6).flatmap(_poly_strategy), st.integers(0, 4), st.integers(1, 50))
@settings(max_examples=100, deadline=None)
def test_line_keys_are_the_folded_digit_codes(p, room, gain):
    # a line key packs (a_1, ..., a_{n-2}, a_{n-1} + a_n), base room + 1 above every folded digit
    n = p.n
    folds = [a if n == 1 else (*a[:-2], a[-2] + a[-1]) for a in p.table]
    base = max((max(f) for f in folds), default=0) + room + 1
    lines = diagonal_lines(p, room, gain)
    assert lines.base == base
    assert sorted(lines.lines) == sorted({_digit_code(f, base) for f in folds})


def test_diagonal_multiplier_examples():
    p = P(2, {(1, 0): 1})
    assert diagonal_product(p, [(1, 0), (0, 1)]) == P(
        2, {(2, 0): 1, (1, 1): 1}
    )
    q = P(2, {(1, 0): 1, (0, 1): -1})
    assert diagonal_product(q, [(2, 0)]) == P(
        2, {(3, 0): 1, (2, 1): -1}
    )
    one = P(2, {(0, 0): 1})
    assert diagonal_product(one, [(1, 1), (2, 0)]) == P(
        2, {(1, 1): 1, (2, 0): 1}
    )


def test_diagonal_multiplier_rejects_duplicates():
    with pytest.raises(DuplicateMultiplierTerm):
        diagonal_product(P(2, {(0, 0): 1}), [(1, 0), (1, 0)])


def test_unit_multiplier_equals_simplex_power():
    p = P(3, {(1, 0, 2): 3, (0, 1, 0): -2})
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert diagonal_product(p, units) == multiply_by_simplex_power(p, 1)


# -- the line engine -----------------------------------------------------------


def _wide_poly(n):
    # mixed degrees, and coefficients from small to well above 2**64, over small denominators
    coef = st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 6)),
    )
    return st.dictionaries(st.tuples(*([st.integers(0, 2)] * n)), coef, max_size=5).map(
        lambda terms: RealSparsePoly(n, terms)
    )


def _least_negative(product):
    negatives = sorted(a for a, c in product.table.items() if c < 0)
    return (negatives[0], product.coeff(negatives[0])) if negatives else None


def _assert_lines_hold(lines, expected):
    # the decoded product, the verdict and the least negative monomial with its exact value
    assert lines.poly() == expected
    least = _least_negative(expected)
    assert lines.is_nonnegative() == (least is None)
    got = lines.least_negative()
    assert (None if got is None else (got[0], Fraction(got[1], lines.scale))) == least


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_wide_poly(n), st.integers(0, 8))))
@example((RealSparsePoly(4), 5))
@example((RealSparsePoly(2, {(0, 0): 2**70, (1, 1): -(2**66) - 1}), 8))
@example((RealSparsePoly(1, {(2,): -3, (0,): 2**65}), 8))
@example((generate_pD(3, 12), 2))
def test_line_engine_matches_direct_oracle(case):
    p, d = case
    lines = simplex_power_lines(p, d)
    _assert_lines_hold(lines, multiply_by_simplex_power_direct(p, d))
    # the walk of min-d: lines built once for d and multiplied one factor at a time
    walked, lines = [], diagonal_lines(p, d, p.n**d)
    for _ in range(d):
        lines = lines.times_simplex()
        walked.append(lines.is_nonnegative())
    assert walked == [_least_negative(multiply_by_simplex_power_direct(p, k)) is None for k in range(1, d + 1)]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            _wide_poly(n), st.sets(st.tuples(*([st.integers(0, 2)] * n)), min_size=1, max_size=4)
        )
    )
)
@example((RealSparsePoly(3), {(0, 0, 0), (1, 0, 2)}))
def test_line_engine_matches_naive_multiplier_product(case):
    p, exps = case
    expected = RealSparsePoly(p.n, naive_mul(poly_dict(p), {e: Fraction(1) for e in exps}))
    _assert_lines_hold(multiplier_lines(p, sorted(exps)), expected)


def test_line_outside_its_slots_raises():
    # slots of 2 bits hold |c| <= 1; six simplex factors on 1 give binomials up to 20, which
    # outgrow the top slot: every reader raises, by an explicit check that python -O keeps
    wide = diagonal_lines(P(2, {(0, 0): 1}), 6, 2**6)
    narrow = DiagonalLines(2, 1, wide.base, 2, wide.top, wide.room, wide.gain, wide.lines)
    for _ in range(6):
        narrow = narrow.times_simplex()
    for read in (narrow.is_nonnegative, narrow.least_negative, narrow.poly):
        with pytest.raises(CertificateFailure):
            read()
    # the width the builder chose holds every power it was built for, and no more
    lines = wide
    for _ in range(6):
        lines = lines.times_simplex()
    assert lines.poly() == multiply_by_simplex_power_direct(P(2, {(0, 0): 1}), 6)
    with pytest.raises(ValueError):
        lines.times_simplex()


@pytest.mark.parametrize(
    "terms",
    [
        # one line of 10**5 + 1 slots
        {(10**5, 0): 1, (0, 10**5): 1, (5 * 10**4, 5 * 10**4): -1},
        # three lines of tail degrees 0, 5 * 10**4 and 10**5, each holding one term
        {(10**5, 0, 0): 1, (0, 0, 10**5): 1, (5 * 10**4, 0, 5 * 10**4): -1},
    ],
)
def test_sparse_high_degree_lines_stay_small(terms):
    # a few terms of degree 10**5: the lines and their sign masks grow with the degree, not its square
    p = RealSparsePoly(len(next(iter(terms))), terms)
    tracemalloc.start()
    try:
        lines = simplex_power_lines(p, 1)
        nonnegative, least = lines.is_nonnegative(), lines.least_negative()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22, peak
    assert not nonnegative
    assert least == _least_negative(multiply_by_simplex_power_direct(p, 1))


def _sparse_high_degree(n):
    # a few terms of degree up to 3 000 in each variable, so a line holds long runs of zero slots
    coef = st.integers(-(2**70), 2**70).filter(bool)
    return st.dictionaries(st.tuples(*([st.integers(0, 3000)] * n)), coef, min_size=1, max_size=4).map(
        lambda terms: RealSparsePoly(n, terms)
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_sparse_high_degree(n), st.integers(0, 2))))
@example((RealSparsePoly(2, {(20000, 0): 1, (0, 20000): 1}), 1))
@example((RealSparsePoly(1, {(10**4,): -3}), 2))
@example((generate_pD(3, 40), 1))
@example((generate_pD(4, 6), 2))
def test_decode_matches_direct_oracle_on_sparse_and_dense_lines(case):
    # poly() jumps between a line's nonzero slots: sparse lines of thousands of slots and
    # dense pD lines decode to the direct product
    p, d = case
    lines = simplex_power_lines(p, d)
    assert lines.poly() == multiply_by_simplex_power_direct(p, d)
    assert lines.degrees() == {sum(a) + d for a in p.table}


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_wide_poly(n), st.integers(0, 3))))
@example((RealSparsePoly(3), 1))
def test_line_degrees_are_the_product_degrees(case):
    # one degree per line, read off its key: the degrees of p, each raised by d
    p, d = case
    assert simplex_power_lines(p, d).degrees() == {sum(a) + d for a in p.table}


def test_sign_counts():
    fig1 = P(3, {(2, 0, 0): 1, (0, 2, 0): 1, (1, 0, 1): 1, (1, 1, 0): -1})
    assert sign_counts(fig1) == sign_counts(fig1)
    assert (sign_counts(fig1).n_plus, sign_counts(fig1).n_minus) == (3, 1)
    sig2 = sign_counts(example_fig2())
    assert (sig2.n_plus, sig2.n_minus) == (7, 6)
    assert sign_counts(P(2, {})).rank == 0


# -- bridge -------------------------------------------------------------------


def test_bridge_examples():
    r = HermitianPoly(
        2, {((1, 0), (1, 0)): 1, ((0, 1), (0, 1)): 1}
    )
    assert diagonal_real_bridge(r) == P(2, {(1, 0): 1, (0, 1): 1})
    p = P(2, {(1, 1): -1})
    rt = real_to_diagonal(p)
    assert rt.entry((1, 1), (1, 1)) == GaussianRational.of(-1)
    q = P(2, {(2, 0): 1, (0, 2): -1})
    assert diagonal_real_bridge(real_to_diagonal(q)) == q


def test_bridge_rejects_off_diagonal():
    r = HermitianPoly(2, {((1, 0), (0, 1)): GaussianRational.of(1, 1)})
    with pytest.raises(NotDiagonal):
        diagonal_real_bridge(r)


def test_hermitian_symmetry_enforced():
    with pytest.raises(NotHermitian):
        HermitianPoly(
            2,
            {
                ((1, 0), (0, 1)): GaussianRational.of(1, 0),
                ((0, 1), (1, 0)): GaussianRational.of(2, 0),
            },
        )
    with pytest.raises(NotHermitian):
        HermitianPoly(2, {((1, 0), (1, 0)): GaussianRational.of(0, 1)})


def test_gaussian_rational_arithmetic():
    a = GaussianRational.of(Fraction(1, 2), -1)
    b = GaussianRational.of(3, Fraction(2, 5))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a / b) * b == a
    assert a.abs2() == Fraction(1, 4) + 1


# -- JSON ---------------------------------------------------------------------


def test_poly_json_round_trip():
    p = P(3, {(2, 1, 3): -1, (0, 0, 1): Fraction(7, 3)})
    doc = poly_to_json(p)
    assert doc["n"] == 3
    assert poly_from_json(json.dumps(doc)) == p


@given(small_polys)
@settings(max_examples=60, deadline=None)
def test_json_writers_print_fraction_strings(p):
    doc = poly_to_json(p)
    assert [(tuple(t["exp"]), t["coef"]) for t in doc["terms"]] == [(a, str(c)) for a, c in sorted(p.items())]
    zero, unit = (0,) * p.n, (1,) + (0,) * (p.n - 1)
    off_diagonal = {(zero, unit): GaussianRational.of(Fraction(1, 6), Fraction(-2, 4))}
    r = real_to_diagonal(p) + HermitianPoly(p.n, off_diagonal)
    want = [(a, b, str(v.re), str(v.im)) for (a, b), v in sorted(r.items()) if a <= b]
    got = [(tuple(e["alpha"]), tuple(e["beta"]), e["re"], e["im"]) for e in hermitian_to_json(r)["entries"]]
    assert got == want


def test_poly_json_exact_strings():
    doc = {"n": 2, "terms": [{"exp": [1, 1], "coef": "-2/3"}]}
    assert poly_from_json(doc).coeff((1, 1)) == Fraction(-2, 3)


def test_hermitian_json_round_trip():
    r = HermitianPoly(
        2,
        {
            ((1, 0), (0, 1)): GaussianRational.of(Fraction(1, 2), -1),
            ((1, 0), (1, 0)): GaussianRational.of(2),
        },
    )
    assert hermitian_from_json(json.dumps(hermitian_to_json(r))) == r


def test_hermitian_json_rejects_violations():
    doc = {
        "n": 2,
        "entries": [
            {"alpha": [1, 0], "beta": [0, 1], "re": "1", "im": "0"},
            {"alpha": [0, 1], "beta": [1, 0], "re": "1", "im": "1"},
        ],
    }
    with pytest.raises(NotHermitian):
        hermitian_from_json(doc)


@pytest.mark.parametrize("mirror", [{"re": "0"}, {"re": "0", "im": "0"}, {"re": "-0/5", "im": "0.0"}])
def test_zero_mirror_of_a_nonzero_entry_is_not_hermitian(mirror):
    # [[1, 1], [0, 1]] is not Hermitian: the zero must not be dropped before its mirror is compared
    a, b = [1, 0], [0, 1]
    entries = [{"alpha": alpha, "beta": beta, "re": "1"} for alpha, beta in ((a, a), (b, b), (a, b))]
    doc = {"n": 2, "entries": [*entries, {"alpha": b, "beta": a, **mirror}]}
    for given_doc in (doc, json.dumps(doc)):
        with pytest.raises(NotHermitian, match="not conjugate"):
            hermitian_from_json(given_doc)
    with pytest.raises(NotHermitian, match="not conjugate"):
        HermitianPoly(2, {((1, 0), (0, 1)): 1, ((0, 1), (1, 0)): 0})
    with pytest.raises(NotHermitian, match="not conjugate"):
        HermitianPoly(2, {((1, 0), (0, 1)): GaussianRational.of(0, 1), ((0, 1), (1, 0)): GR_ZERO})
    with pytest.raises(NotHermitian, match="not conjugate"):
        hermitian_from_json({"n": 1, "entries": [{"alpha": [1], "beta": [0], "re": "0", "im": "1/2"},
                                                 {"alpha": [0], "beta": [1], "re": "0"}]})


@pytest.mark.parametrize("re, im", [("0", "0"), ("1", "0"), ("-3/4", "0"), ("1/2", "-2"), ("0", "5")])
def test_conjugate_pairs_given_on_both_sides_read_as_one_side(re, im):
    # a pair given as conjugates, zeros included, reads as its upper entry alone
    a, b = [1, 0], [0, 1]
    diagonal = {"alpha": a, "beta": a, "re": "1"}
    upper = {"alpha": a, "beta": b, "re": re, "im": im}
    mirror = {"alpha": b, "beta": a, "re": re, "im": str(-Fraction(im))}
    one = hermitian_from_json({"n": 2, "entries": [diagonal, upper]})
    assert one == HermitianPoly(2, {((1, 0), (1, 0)): 1, ((1, 0), (0, 1)): GaussianRational.of(re, im)})
    assert len(one.table) == (1 if re == im == "0" else 2)
    for entries in ([diagonal, upper, mirror], [diagonal, mirror, upper], [diagonal, mirror]):
        for doc in ({"n": 2, "entries": entries}, json.dumps({"n": 2, "entries": entries})):
            assert hermitian_from_json(doc) == one
    value = GaussianRational.of(re, im)
    both = {((1, 0), (1, 0)): 1, ((1, 0), (0, 1)): value, ((0, 1), (1, 0)): value.conjugate()}
    assert HermitianPoly(2, both) == one


def test_lines_past_the_bit_cap_are_refused_before_they_are_built():
    # (top + room + 1) * width bits per line and per mask: an exponent of 10**12 asks for terabits
    big = P(2, {(10**12, 0): 1, (0, 10**12): 1})
    with pytest.raises(ExplicitLimit, match="bits"):
        diagonal_lines(big, 1, 2)
    with pytest.raises(ExplicitLimit):
        simplex_power_lines(big, 1)
    with pytest.raises(ExplicitLimit):
        multiplier_lines(big, [(1, 0), (0, 1)])
    # the largest lines the cap allows are built
    width = 3  # coefficients 1, coefficient sum 2: 2 bits and a sign bit
    top = LINE_BITS_CAP // width - 2
    edge = P(2, {(top, 0): 1, (0, top): 1})
    assert diagonal_lines(edge, 1, 2).width == width
    with pytest.raises(ExplicitLimit):
        diagonal_lines(P(2, {(top + 1, 0): 1, (0, top + 1): 1}), 1, 2)


_READER_TEXTS = ["1", "-1", "3/4", "0", "2/6", "-1/3", "0.5", " 1/2 ", "1e3", "-0", "2/4", 0.1, 2, -5]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.tuples(st.tuples(*([st.integers(0, 2)] * n)), st.sampled_from(_READER_TEXTS)),
            max_size=12,
        ).map(lambda terms: {"n": n, "terms": [{"exp": list(a), "coef": c} for a, c in terms]})
    )
)
def test_poly_from_json_repeated_terms_match_plain_parse(doc):
    assert dict(poly_from_json(json.dumps(doc)).items()) == plain_poly_parse(doc)
    assert dict(poly_from_json(doc).items()) == plain_poly_parse(doc)


_BAD_EXPONENTS = [True, False, 1.0, 0.5, "1", -1, -2, None]
_BAD_TEXTS = ["1/0", "abc", "1/2/3", "", None, True]


@st.composite
def _reader_documents(draw):
    """Polynomial documents with repeated exponents, some with one or two faulty terms."""
    n = draw(st.integers(1, 3))
    terms = draw(
        st.lists(st.tuples(st.tuples(*([st.integers(0, 2)] * n)), st.sampled_from([*_READER_TEXTS, "1/2"])), max_size=12)
    )
    terms = [{"exp": list(a), "coef": c} for a, c in terms]
    for k in draw(st.lists(st.integers(0, len(terms) - 1), max_size=2, unique=True)) if terms else ():
        term = dict(terms[k])
        fault = draw(st.sampled_from(["exponent", "arity", "scalar", "text", "key"]))
        if fault == "exponent":
            term["exp"] = list(term["exp"])
            term["exp"][draw(st.integers(0, n - 1))] = draw(st.sampled_from(_BAD_EXPONENTS))
        elif fault == "arity":
            term["exp"] = term["exp"] + [0] if draw(st.booleans()) else term["exp"][:-1]
        elif fault == "scalar":
            term["exp"] = draw(st.sampled_from([0, 1, None]))
        elif fault == "text":
            term["coef"] = draw(st.sampled_from(_BAD_TEXTS))
        else:
            del term[draw(st.sampled_from(["exp", "coef"]))]
        terms[k] = term
    return {"n": n, "terms": terms}


def _reader_outcome(read, doc):
    """(n, scale, table) of read(doc), or the type and message of the error it raised."""
    try:
        p = read(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, NotHermitian) as exc:
        return type(exc), str(exc)
    return p.n, p.scale, p.table


@settings(max_examples=400, deadline=None)
@given(_reader_documents())
@example({"n": 2, "terms": [{"exp": [1, 0], "coef": "1/2"}, {"exp": [1, 0], "coef": "-0.5"}]})
@example({"n": 2, "terms": [{"exp": [1, 0], "coef": "1/0"}, {"exp": [1, -1], "coef": "1"}]})
@example({"n": 2, "terms": [{"exp": [1, 0]}, {"coef": "1"}]})
def test_poly_from_json_matches_term_by_term_reader(doc):
    # same table, or the same error as the first faulty term raises when read on its own
    for form in (doc, json.dumps(doc)):
        assert _reader_outcome(poly_from_json, form) == _reader_outcome(term_by_term_poly_from_json, form)


@st.composite
def _hermitian_reader_documents(draw):
    """Hermitian documents with repeated keys, some with one or two faulty entries."""
    n = draw(st.integers(1, 2))
    index = st.tuples(*([st.integers(0, 1)] * n))
    texts = st.sampled_from([*_READER_TEXTS, "1/2"])
    raw = draw(st.lists(st.tuples(index, index, texts, st.sampled_from([None, "0", "-0", "1/2", "-1"])), max_size=10))
    entries = []
    for alpha, beta, re, im in raw:
        e = {"alpha": list(alpha), "beta": list(beta), "re": re}
        if im is not None:
            e["im"] = im
        entries.append(e)
    for k in draw(st.lists(st.integers(0, len(entries) - 1), max_size=2, unique=True)) if entries else ():
        e = dict(entries[k])
        fault = draw(st.sampled_from(["exponent", "arity", "scalar", "text", "key"]))
        side = draw(st.sampled_from(["alpha", "beta"]))
        if fault == "exponent":
            e[side] = list(e[side])
            e[side][draw(st.integers(0, n - 1))] = draw(st.sampled_from(_BAD_EXPONENTS))
        elif fault == "arity":
            e[side] = e[side] + [0] if draw(st.booleans()) else e[side][:-1]
        elif fault == "scalar":
            e[side] = draw(st.sampled_from([0, 1, None]))
        elif fault == "text":
            e[draw(st.sampled_from(["re", "im"]))] = draw(st.sampled_from(_BAD_TEXTS))
        else:
            e.pop(draw(st.sampled_from(["alpha", "beta", "re"])))
        entries[k] = e
    return {"n": n, "entries": entries}


@settings(max_examples=400, deadline=None)
@given(_hermitian_reader_documents())
@example({"n": 1, "entries": [{"alpha": [0], "beta": [1], "re": "1", "im": "abc"},
                              {"alpha": [1], "beta": [1], "re": "1/0"}]})
@example({"n": 1, "entries": [{"alpha": [1], "beta": [1], "re": "2", "im": "1/0"},
                              {"alpha": [0], "beta": [0], "re": "x"}]})
@example({"n": 1, "entries": [{"alpha": [1], "beta": [0], "re": "1", "im": "1"},
                              {"alpha": [1], "beta": [0], "re": "1", "im": "-1"},
                              {"alpha": [0], "beta": [0], "re": "1/0"}]})
@example({"n": 1, "entries": [{"alpha": [1], "beta": [0], "re": "1/2", "im": "1"},
                              {"alpha": [1], "beta": [0], "re": "2/4", "im": "1.0"},
                              {"alpha": [0], "beta": [1], "re": "0.5", "im": "-1"}]})
@example({"n": 2, "entries": [{"alpha": [1, 0], "beta": [0, 1], "re": "1", "im": "2"},
                              {"alpha": [0, 1], "beta": [1, 0], "re": "1", "im": "2"}]})
@example({"n": 1, "entries": [{"alpha": [1], "beta": [1], "re": "1", "im": "bad"}, {"alpha": [1], "re": "1"}]})
def test_hermitian_from_json_matches_term_by_term_reader(doc):
    # same table, or the same error as the first faulty entry raises when entries are read one by one
    for form in (doc, json.dumps(doc)):
        assert _reader_outcome(hermitian_from_json, form) == _reader_outcome(term_by_term_hermitian_from_json, form)


_RATIO_CORPUS = [
    "-0", "007/014", "+3", " 1/2 ", "1_000", "\u0663", "\u00b2", "-", "--1", "1/-2", "3/", "/2", "1/0", "",
    "12/8", "-12/8", "0/5", "0", "-7", "5e-1", "1" * 4400, "2/" + "3" * 4400,
]


@pytest.mark.parametrize("text", _RATIO_CORPUS, ids=[repr(t[:12]) for t in _RATIO_CORPUS])
def test_ratio_is_the_fraction_ratio(text):
    try:
        want = Fraction(text).as_integer_ratio()
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as got:
            _ratio(text)
        assert str(got.value) == str(exc)
    else:
        got = _ratio(text)
        assert got == want and all(type(x) is int for x in got)


def test_json_readers_require_their_key():
    # a document of the other kind is an error, not the zero polynomial
    with pytest.raises(KeyError, match="terms"):
        poly_from_json({"n": 2, "entries": []})
    with pytest.raises(KeyError, match="entries"):
        hermitian_from_json({"n": 2, "terms": []})
    zero = P(2, {})
    assert poly_from_json(poly_to_json(zero)) == zero
    assert hermitian_from_json(hermitian_to_json(HermitianPoly(2, {}))) == HermitianPoly(2, {})


_RATIONAL_TEXTS = ["1", "-1", "3/4", "-3/4", "0", "2/6", "-1/3", "5"]
_NONCANONICAL_TEXTS = [" 1/2 ", "0.5", "1e3", "+3", "-0.25"]


def test_readers_parse_each_distinct_text_once(monkeypatch):
    # each distinct text is read once by _ratio, and only a text outside [-]digits[/digits] builds a Fraction
    import psicert.polycore as polycore

    read, built = [], []
    ratio = polycore._ratio

    def counting_ratio(text):
        read.append(text)
        return ratio(text)

    class Counting(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(polycore, "_ratio", counting_ratio)
    monkeypatch.setattr(polycore, "Fraction", Counting)
    distinct = _RATIONAL_TEXTS + _NONCANONICAL_TEXTS
    texts = list(enumerate(distinct * 2))
    poly_from_json({"n": 1, "terms": [{"exp": [k], "coef": text} for k, text in texts]})
    assert sorted(read) == sorted(distinct)
    assert sorted(built) == sorted((text,) for text in _NONCANONICAL_TEXTS)
    read.clear()
    built.clear()
    entries = [{"alpha": [k], "beta": [k], "re": text, "im": "0"} for k, text in texts]
    hermitian_from_json({"n": 1, "entries": entries})
    assert sorted(read) == sorted({*distinct, "0"})
    assert sorted(built) == sorted((text,) for text in _NONCANONICAL_TEXTS)


def _hermitian_documents(n):
    index = st.tuples(*([st.integers(0, 1)] * n))
    entry = st.tuples(
        index, index, st.sampled_from(_READER_TEXTS), st.sampled_from([None, "0", "-0", *_READER_TEXTS])
    )

    def doc(entries):
        out = []
        for alpha, beta, re, im in entries:
            e = {"alpha": list(alpha), "beta": list(beta), "re": re}
            if im is not None:
                e["im"] = im
            out.append(e)
        return {"n": n, "entries": out}

    return st.lists(entry, max_size=10).map(doc)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(_hermitian_documents))
def test_hermitian_from_json_repeated_strings_match_plain_parse(doc):
    # identical repeats pass; conflicting repeats and asymmetric tables raise NotHermitian in both
    try:
        want = plain_hermitian_parse(doc)
    except NotHermitian:
        for given_doc in (json.dumps(doc), doc):
            with pytest.raises(NotHermitian):
                hermitian_from_json(given_doc)
        return
    assert dict(hermitian_from_json(json.dumps(doc)).items()) == want
    assert dict(hermitian_from_json(doc).items()) == want


# -- one stored triangle ------------------------------------------------------


def _both_triangles(r: HermitianPoly) -> dict:
    """r's entries over both triangles, once r is seen to store keys alpha <= beta only and to read both ways."""
    assert all(alpha <= beta for alpha, beta in r.table)
    pairs = r.items()
    both = dict(pairs)
    assert len(both) == len(pairs) and {key for key in both if key[0] <= key[1]} == set(r.table)
    for (alpha, beta), v in pairs:
        assert not v.is_zero() and r.entry(alpha, beta) == v
        assert r.entry(beta, alpha) == r.entry(alpha, beta).conjugate() == both[(beta, alpha)]
    return both


def _matrix_entries(M) -> dict:
    return {(a, b): x for a, row in zip(M.basis, M.rows) for b, x in zip(M.basis, row) if not x.is_zero()}


_GAUSSIAN_INT_SUMS = hermitian_direct_sums().map(lambda case: [[GaussianRational.of(*z) for z in r] for r in case[0]])


@st.composite
def _hermitian_cases(draw):
    """(both, upper, lower, mixed): the nonzero entries of one Hermitian matrix, in two variables.

    Index i is (i // 3, i % 3).  `mixed` gives each off-diagonal entry on a
    drawn side, as itself or as its conjugate at the mirror key.
    """
    rows = draw(st.one_of(hermitian_matrices(), _GAUSSIAN_INT_SUMS))
    idx = [(i // 3, i % 3) for i in range(len(rows))]
    both = {(idx[i], idx[j]): x for i, row in enumerate(rows) for j, x in enumerate(row) if not x.is_zero()}
    upper = {key: x for key, x in both.items() if key[0] <= key[1]}
    lower = {key: x for key, x in both.items() if key[0] >= key[1]}
    mixed = {}
    for (a, b), x in upper.items():
        if a == b or draw(st.booleans()):
            mixed[(a, b)] = x
        else:
            mixed[(b, a)] = x.conjugate()
    return both, upper, lower, mixed


@settings(max_examples=80, deadline=None)
@given(_hermitian_cases(), _hermitian_cases(), st.integers(0, 2), st.fractions(-3, 3, max_denominator=4),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3, unique=True))
def test_every_hermitian_table_holds_one_triangle(case, other, d, c, exps):
    both, upper, lower, mixed = case
    r = HermitianPoly(2, both)
    assert HermitianPoly(2, upper) == HermitianPoly(2, lower) == HermitianPoly(2, mixed) == r
    assert _both_triangles(r) == both
    s = HermitianPoly(2, other[0])
    total = {key: r.entry(*key) + s.entry(*key) for key in {*both, *other[0]}}
    assert _both_triangles(r + s) == {key: v for key, v in total.items() if not v.is_zero()}
    assert _both_triangles(r.times(c)) == ({key: v * GaussianRational.of(c) for key, v in both.items()} if c else {})
    for k, product in enumerate(islice(hermitian_powers(r), d + 1)):
        assert _both_triangles(product) == _matrix_entries(product_matrix(r, k))
    assert _both_triangles(hermitian_multiplier_table(r, exps)) == _matrix_entries(multiplier_product_matrix(r, exps))
    form = decompose(r)
    terms = [*zip(form.plus_rows, form.plus_weights), *((row, -w) for row, w in zip(form.minus_rows, form.minus_weights))]
    if terms:
        assert _both_triangles(_squares(2, form.basis, terms)) == both


@settings(max_examples=200, deadline=None)
@given(_hermitian_reader_documents())
def test_read_hermitian_tables_hold_one_triangle(doc):
    # a readable document is stored as one triangle that reads back as the plain parse, and writes back as itself
    try:
        r = hermitian_from_json(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, NotHermitian):
        return
    assert _both_triangles(r) == plain_hermitian_parse(doc)
    assert hermitian_from_json(hermitian_to_json(r)) == r


# -- reader behaviour: the Fraction grammar, duplicates, canonical form ----------

_GRAMMAR = [
    ("0.5", Fraction(1, 2)),
    (" 1/2 ", Fraction(1, 2)),
    ("1e3", Fraction(1000)),
    ("-0", Fraction(0)),
    (0.1, Fraction(1, 10)),
    (-3, Fraction(-3)),
    ("2/4", Fraction(1, 2)),
]


@pytest.mark.parametrize("text, value", _GRAMMAR, ids=[repr(t) for t, _ in _GRAMMAR])
def test_readers_keep_the_fraction_grammar(text, value):
    p = poly_from_json(json.dumps({"n": 2, "terms": [{"exp": [1, 0], "coef": text}]}))
    assert p.coeff((1, 0)) == value
    assert len(p) == (1 if value else 0)
    doc = {"n": 2, "entries": [{"alpha": [1, 0], "beta": [0, 1], "re": text, "im": text}]}
    r = hermitian_from_json(json.dumps(doc))
    assert r.entry((1, 0), (0, 1)) == GaussianRational(value, value)
    assert r.entry((0, 1), (1, 0)) == GaussianRational(value, -value)


@pytest.mark.parametrize("text", ["1/0", "abc", "1/2/3", True, None])
def test_readers_reject_what_fraction_rejects(text):
    with pytest.raises((ValueError, ZeroDivisionError)):
        poly_from_json({"n": 1, "terms": [{"exp": [1], "coef": text}]})
    with pytest.raises((ValueError, ZeroDivisionError)):
        hermitian_from_json({"n": 1, "entries": [{"alpha": [1], "beta": [1], "re": text}]})


def test_poly_reader_sums_repeated_terms():
    terms = [((1, 0), "1/2"), ((0, 1), "1"), ((1, 0), "1/3"), ((0, 1), "-1"), ((1, 1), "2/4")]
    doc = {"n": 2, "terms": [{"exp": list(a), "coef": c} for a, c in terms]}
    assert poly_from_json(doc) == P(2, {(1, 0): Fraction(5, 6), (1, 1): Fraction(1, 2)})


def test_hermitian_reader_accepts_identical_repeats_only():
    key = {"alpha": [1, 0], "beta": [0, 1]}
    same = [dict(key, re="1/2", im="1"), dict(key, re="2/4", im="1.0")]
    assert hermitian_from_json({"n": 2, "entries": same}) == HermitianPoly(
        2, {((1, 0), (0, 1)): GaussianRational.of(Fraction(1, 2), 1)}
    )
    conflicting = [dict(key, re="1/2", im="1"), dict(key, re="1/2", im="-1")]
    with pytest.raises(NotHermitian):
        hermitian_from_json({"n": 2, "entries": conflicting})


def test_equal_rationals_read_as_equal_polynomials():
    def poly(c):
        return poly_from_json({"n": 2, "terms": [{"exp": [2, 0], "coef": c}, {"exp": [0, 1], "coef": "3"}]})

    def herm(c):
        return hermitian_from_json({"n": 1, "entries": [{"alpha": [1], "beta": [0], "re": c, "im": c}]})

    for read in (poly, herm):
        half, also = read("1/2"), read("2/4")
        assert half == also and hash(half) == hash(also)
        assert half.scale == also.scale == 2
        assert half != "1/2" and half != read("1")


def test_simplex_power_table_is_scaled_product():
    p = P(2, {(1, 0): Fraction(1, 6), (0, 1): Fraction(-3, 4)})
    lines = simplex_power_lines(p, 2)
    assert lines.scale == 12
    assert all(isinstance(line, int) for line in lines.lines.values())
    product = lines.poly()
    assert product.scale == 12 and all(isinstance(c, int) for c in product.table.values())
    assert product == multiply_by_simplex_power_direct(p, 2)
    with pytest.raises(ValueError):
        simplex_power_lines(p, -1)
