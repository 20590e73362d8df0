import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    multiply_by_simplex_power_direct,
    naive_mul,
    naive_simplex_power,
    plain_hermitian_parse,
    plain_poly_parse,
    poly_dict,
    term_by_term_poly_from_json,
)
from psicert.errors import DuplicateMultiplierTerm, NotDiagonal, NotHermitian
from psicert.generators import example_fig2
from psicert.polycore import (
    GaussianRational,
    HermitianPoly,
    RealSparsePoly,
    diagonal_multiplier_table,
    diagonal_real_bridge,
    hermitian_from_json,
    hermitian_to_json,
    monomials_of_degree,
    multiply_by_simplex_power,
    packed_simplex_power,
    poly_from_json,
    poly_to_json,
    real_to_diagonal,
    sign_counts,
    unpack_table,
)


def P(n, terms):
    return RealSparsePoly(n, terms)


def diagonal_product(p, s):
    """p times sum_j x^{alpha_j}, read off the packed table of the diagonal multiplier route."""
    return RealSparsePoly._from_table(p.n, *unpack_table(*diagonal_multiplier_table(p, s)))


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
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
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


def test_readers_parse_each_distinct_text_once(monkeypatch):
    import psicert.polycore as polycore

    calls = []

    class Counting(Fraction):
        def __new__(cls, *args):
            calls.append(args)
            return super().__new__(cls, *args)

    monkeypatch.setattr(polycore, "Fraction", Counting)
    texts = list(enumerate(_RATIONAL_TEXTS * 2))
    poly_from_json({"n": 1, "terms": [{"exp": [k], "coef": text} for k, text in texts]})
    assert sorted(calls) == sorted((text,) for text in _RATIONAL_TEXTS)
    calls.clear()
    entries = [{"alpha": [k], "beta": [k], "re": text, "im": "0"} for k, text in texts]
    hermitian_from_json({"n": 1, "entries": entries})
    assert sorted(calls) == sorted((text,) for text in _RATIONAL_TEXTS)


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
    L, table = unpack_table(*packed_simplex_power(p, 2))
    assert L == 12
    assert all(isinstance(c, int) for c in table.values())
    product = RealSparsePoly(2, {a: Fraction(c, L) for a, c in table.items()})
    assert product == multiply_by_simplex_power_direct(p, 2)
    with pytest.raises(ValueError):
        packed_simplex_power(p, -1)
