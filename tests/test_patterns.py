import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import all_sign_patterns, inflow_support_feasible, realize_signs, scan_exhaustive
from psicert import patterns
from psicert.bounds import ratio_ceiling
from psicert.cli import run
from psicert.errors import BudgetExhausted, ExplicitLimit, Infeasible
from psicert.generators import example_fig1, example_fig2, generate_pD
from psicert.patterns import (
    EXHAUSTIVE_POINT_CAP,
    Sign,
    SignPattern,
    Strategy,
    _Cover,
    _finish,
    pattern_from_json,
    pattern_from_poly,
    pattern_to_json,
    realize_magnitudes,
    search_max_ratio,
    support_feasible,
)
from psicert.polycore import compositions, monomials_of_degree, poly_to_json, sign_counts
from psicert.psi import in_psi_diagonal


_BAD_PATTERNS = {
    "wrong-arity": {"n": 2, "D": 2, "pos": [[1, 1, 0]], "neg": []},
    "negative-coordinate": {"n": 2, "D": 2, "pos": [[3, -1]], "neg": []},
    "wrong-degree": {"n": 2, "D": 3, "pos": [[1, 1]], "neg": []},
    "both-signs": {"n": 2, "D": 2, "pos": [[1, 1], [2, 0]], "neg": [[1, 1]]},
}


def test_pattern_validation():
    # points from outside the program are checked; only patterns built internally skip it
    for doc in _BAD_PATTERNS.values():
        with pytest.raises(ValueError):
            SignPattern(doc["n"], doc["D"], frozenset(map(tuple, doc["pos"])), frozenset(map(tuple, doc["neg"])))
        with pytest.raises(ValueError):
            pattern_from_json(doc)


@pytest.mark.parametrize("point", [(1.0, 1.0), (True, True)], ids=["float", "bool"])
def test_pattern_points_must_be_ints(point):
    # one point check for both doors: pattern_to_json would write [1.0, 1.0], which pattern_from_json rejects
    for pos, neg in (({point}, ()), ((), {point})):
        with pytest.raises(ValueError, match="is not an integer"):
            SignPattern(2, 2, pos, neg)


def test_pattern_signs_total():
    pat = SignPattern(2, 2, frozenset({(2, 0)}), frozenset({(1, 1)}))
    assert pat.sign((2, 0)) is Sign.POS
    assert pat.sign((1, 1)) is Sign.NEG
    assert pat.sign((0, 2)) is Sign.ZERO


def test_single_negative_without_positive_infeasible():
    pat = SignPattern(2, 2, frozenset(), frozenset({(1, 1)}))
    ok, witness = support_feasible(pat, 1)
    assert not ok
    assert witness in {(2, 1), (1, 2)}


def test_fig1_and_fig2_patterns_feasible():
    for poly in (example_fig1(), example_fig2()):
        pat = pattern_from_poly(poly)
        ok, _ = support_feasible(pat, 1)
        assert ok


def test_realize_matches_signs_and_membership():
    pat = pattern_from_poly(example_fig1())
    p = realize_magnitudes(pat, 1)
    assert pattern_from_poly(p) == pat
    assert in_psi_diagonal(p, 1).member


def test_realize_all_positive_uses_unit_magnitude():
    lattice = monomials_of_degree(2, 3)
    pat = SignPattern(2, 3, frozenset(lattice), frozenset())
    p = realize_magnitudes(pat, 1)
    assert all(c == 1 for _, c in p.items())


def test_realize_infeasible_raises():
    pat = SignPattern(2, 2, frozenset(), frozenset({(2, 0)}))
    with pytest.raises(Infeasible):
        realize_magnitudes(pat, 1)


def test_feasibility_equals_realizability_on_tiny_lattices():
    # covering condition holds iff some magnitude assignment is a member;
    # the negative direction is immediate (a fully negative product
    # coefficient survives any choice of magnitudes)
    for D in (1, 2, 3):
        for pos, neg in all_sign_patterns(2, D):
            if not neg and not pos:
                continue
            pat = SignPattern(2, D, pos, neg)
            ok, _ = support_feasible(pat, 1)
            if ok:
                assert in_psi_diagonal(realize_magnitudes(pat, 1), 1).member
            elif neg:
                # magnitudes cannot rescue an uncovered product monomial
                signs = {a: Fraction(3) for a in pos}
                signs.update({a: Fraction(-1, 5) for a in neg})
                from psicert.polycore import RealSparsePoly, multiply_by_simplex_power

                p = RealSparsePoly(2, signs)
                product = multiply_by_simplex_power(p, 1)
                assert any(c < 0 for _, c in product.items())


def test_pattern_json_round_trip():
    pat = pattern_from_poly(example_fig2())
    doc = pattern_to_json(pat)
    assert pattern_from_json(json.dumps(doc)) == pat


# -- search ---------------------------------------------------------------------


def test_exhaustive_two_var_optimum():
    result = search_max_ratio(2, 4, 1, strategy=Strategy.EXHAUSTIVE)
    assert result.ratio == Fraction(2, 3)
    assert result.ratio < ratio_ceiling(2, 1)
    assert in_psi_diagonal(result.realized, 1).member
    # alternating pattern is the lex-smallest optimum
    assert sorted(result.best.pos) == [(0, 4), (2, 2), (4, 0)]


def test_exhaustive_is_deterministic():
    a = search_max_ratio(2, 3, 1, strategy=Strategy.EXHAUSTIVE)
    b = search_max_ratio(2, 3, 1, strategy=Strategy.EXHAUSTIVE)
    assert a.best == b.best and a.evaluations == b.evaluations


def test_exhaustive_cap():
    with pytest.raises(ExplicitLimit):
        search_max_ratio(3, 6, 1, strategy=Strategy.EXHAUSTIVE)  # 28 points


def test_exhaustive_on_restricted_support_matches_fig2():
    support = sorted(example_fig2().support)
    result = search_max_ratio(3, 6, 1, strategy=Strategy.EXHAUSTIVE, support=support)
    assert result.ratio >= Fraction(6, 7)
    assert in_psi_diagonal(result.realized, 1).member


def test_greedy_two_var():
    result = search_max_ratio(2, 4, 1, strategy=Strategy.GREEDY, budget=10_000)
    assert result.ratio == Fraction(2, 3)
    assert in_psi_diagonal(result.realized, 1).member


def test_local_beats_or_matches_seed_pattern():
    seed_ratio = sign_counts(generate_pD(2, 5)).ratio
    result = search_max_ratio(2, 5, 1, strategy=Strategy.LOCAL, budget=20_000, seed=0)
    assert result.ratio >= seed_ratio
    assert in_psi_diagonal(result.realized, 1).member


def test_local_is_deterministic():
    a = search_max_ratio(2, 4, 1, strategy=Strategy.LOCAL, budget=5_000, seed=3)
    b = search_max_ratio(2, 4, 1, strategy=Strategy.LOCAL, budget=5_000, seed=3)
    assert a.best == b.best and a.ratio == b.ratio and a.evaluations == b.evaluations


def test_search_results_respect_ceiling():
    for n, D, d in ((2, 3, 1), (2, 4, 1), (2, 4, 2)):
        result = search_max_ratio(n, D, d, strategy=Strategy.EXHAUSTIVE)
        assert result.ratio < ratio_ceiling(n, d)


def test_strategy_accepts_strings():
    result = search_max_ratio(2, 3, 1, strategy="exhaustive")
    assert result.strategy is Strategy.EXHAUSTIVE


def test_local_full_lattice_climbs_toward_known_optimum():
    # starts from the dense-family skeleton (ratio 3/11) and climbs; the
    # 6/7 optimum needs coordinated moves, so a plateau below it is expected
    result = search_max_ratio(3, 6, 1, strategy=Strategy.LOCAL, budget=100_000, seed=0)
    assert result.ratio >= Fraction(4, 5)
    assert in_psi_diagonal(result.realized, 1).member


def test_greedy_out_of_budget_returns_its_best_so_far():
    result = search_max_ratio(2, 5, 1, strategy=Strategy.GREEDY, budget=2)
    assert result.budget_exhausted and result.evaluations == 2
    assert in_psi_diagonal(result.realized, 1).member
    assert not search_max_ratio(2, 5, 1, strategy=Strategy.GREEDY).budget_exhausted


def test_local_search_that_finds_nothing_raises_with_no_result():
    with pytest.raises(BudgetExhausted) as info:
        search_max_ratio(3, 5, 1, strategy=Strategy.LOCAL, budget=50, seed=9)
    assert not hasattr(info.value, "best")


@pytest.mark.parametrize("strategy", list(Strategy))
def test_empty_support_is_infeasible(strategy):
    with pytest.raises(Infeasible):
        search_max_ratio(3, 5, 1, strategy=strategy, support=[])


@pytest.mark.parametrize(
    "n, D, d, optimum",
    [(2, 20, 1, Fraction(10, 11)), (3, 5, 2, Fraction(13, 8)), (2, 16, 2, Fraction(10, 7))],
)
def test_exhaustive_former_slow_cases(n, D, d, optimum):
    start = time.perf_counter()
    result = search_max_ratio(n, D, d, strategy=Strategy.EXHAUSTIVE)
    assert time.perf_counter() - start < 5.0
    assert result.ratio == optimum
    assert in_psi_diagonal(result.realized, d).member


# -- one cover per search: the result is checked and realized on it -------------


_ONE_COVER = {
    "exhaustive": ["--n", "2", "--D", "8", "--d", "1"],
    "exhaustive-restricted": ["--n", "3", "--D", "6", "--d", "1", "--support", "SUPPORT"],
    "greedy": ["--n", "3", "--D", "5", "--d", "2", "--strategy", "greedy"],
    "greedy-exhausted": ["--n", "3", "--D", "6", "--d", "1", "--strategy", "greedy", "--budget", "7"],
    "local": ["--n", "2", "--D", "5", "--d", "1", "--strategy", "local", "--budget", "20000"],
    "local-exhausted": ["--n", "4", "--D", "3", "--d", "1", "--strategy", "local", "--budget", "500",
                        "--seed", "761211"],
}


def _geometry_caches() -> list:
    """Every memoized function of the package, once each."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "psicert" or name.startswith("psicert."):
            for fn in vars(module).values():
                if callable(getattr(fn, "cache_clear", None)):
                    found[id(fn)] = fn
    return list(found.values())


@pytest.fixture
def cold_caches():
    """Empty every geometry cache before the test and after it."""
    for fn in _geometry_caches():
        fn.cache_clear()
    yield
    for fn in _geometry_caches():
        fn.cache_clear()


def test_geometry_caches_are_the_known_ones():
    names = sorted(f"{fn.__module__}.{fn.__qualname__}" for fn in _geometry_caches())
    assert names == [
        "psicert.patterns._local_geometry",
        "psicert.patterns._shared_cover",
        "psicert.polycore.monomials_of_degree",
    ]


@pytest.mark.parametrize("case", sorted(_ONE_COVER))
def test_search_command_builds_one_cover(case, tmp_path, monkeypatch, capsys, cold_caches):
    # with the caches empty the first run builds its one cover; an identical second run reuses
    # it, unless it has more points than the covers that are shared
    support = tmp_path / "support.json"
    support.write_text(json.dumps(pattern_to_json(pattern_from_poly(example_fig2()))))
    built = []

    class Counted(_Cover):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(patterns, "_Cover", Counted)
    argv = ["search", *(str(support) if a == "SUPPORT" else a for a in _ONE_COVER[case])]
    assert run(argv) == 0, capsys.readouterr().err
    first = capsys.readouterr().out
    assert json.loads(first)["budget_exhausted"] == case.endswith("-exhausted")
    assert len(built) == 1
    assert run(argv) == 0
    assert capsys.readouterr().out == first
    assert len(built) == (1 if len(built[0][0]) <= EXHAUSTIVE_POINT_CAP else 2)


def _cache_commands(tmp_path) -> list:
    """Search commands of every strategy and budget outcome, and diagrams of every style, as argvs."""
    support = tmp_path / "support.json"
    support.write_text(json.dumps(pattern_to_json(pattern_from_poly(example_fig2()))))
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"n": 2, "D": 20, "pos": [[20 - k, k] for k in range(0, 12, 2)],
                                 "neg": [[20 - k, k] for k in range(1, 12, 2)]}))
    commands = [["search", *(str(support) if a == "SUPPORT" else a for a in argv)] for argv in _ONE_COVER.values()]
    commands += [
        ["search", "--n", "3", "--D", "6", "--d", "2", "--strategy", "local", "--support", str(support),
         "--budget", "3000", "--seed", "4"],
        ["search", "--n", "2", "--D", "20", "--d", "1", "--support", str(small)],
        ["search", "--n", "2", "--D", "20", "--d", "1", "--strategy", "greedy", "--support", str(small)],
        ["search", "--n", "3", "--D", "4", "--d", "2"],
        ["search", "--n", "3", "--D", "5", "--d", "1", "--strategy", "local", "--budget", "40", "--seed", "2"],
        ["search", "--n", "1", "--D", "3", "--d", "1", "--strategy", "local"],
    ]
    for pat in (support, small):
        commands += [
            ["diagram", "--pattern", str(pat), "--style", "ascii"],
            ["diagram", "--pattern", str(pat), "--style", "svg"],
            ["diagram", "--pattern", str(pat), "--style", "svg", "--show-simplices"],
        ]
    fig1 = tmp_path / "fig1.json"
    fig1.write_text(json.dumps(poly_to_json(example_fig1())))
    commands.append(["diagram", "--poly", str(fig1), "--style", "svg", "--show-simplices"])
    return commands


def test_warm_caches_print_what_cold_caches_print(tmp_path, capsys, cold_caches):
    # every command twice, in two orders, so each meets caches filled by other (n, D, d), then
    # once more with every cache emptied first: all three runs print the same bytes
    commands = _cache_commands(tmp_path)

    def run_all(order, clear):
        outs = {}
        for i in order:
            if clear:
                for fn in _geometry_caches():
                    fn.cache_clear()
            rc = run(commands[i])
            captured = capsys.readouterr()
            outs[i] = (rc, captured.out, captured.err)
        return outs

    first = run_all(range(len(commands)), False)
    second = run_all(reversed(range(len(commands))), False)
    cold = run_all(range(len(commands)), True)
    assert first == second == cold
    assert {rc for rc, _, _ in first.values()} == {0, 1}


def test_geometry_caches_stay_within_their_bounds(cold_caches):
    keys = [(n, D) for n in (2, 3) for D in range(1, 26)]
    for n, D in keys:
        monomials_of_degree(n, D)
        patterns._local_geometry(n, D)
        patterns._cover(monomials_of_degree(n, D)[:3], n, 1)
    for fn in _geometry_caches():
        info = fn.cache_info()
        assert info.maxsize < len(keys)
        assert info.currsize == info.maxsize, fn


def test_geometry_past_the_point_cap_is_not_kept(cold_caches):
    # covers and local-search maps grow with the point count; past the cap they live for one call
    lattice = monomials_of_degree(3, 6)
    assert len(lattice) > EXHAUSTIVE_POINT_CAP
    assert patterns._cover(lattice, 3, 1) is not patterns._cover(lattice, 3, 1)
    search_max_ratio(3, 6, 1, strategy=Strategy.LOCAL, budget=20_000, seed=1)
    search_max_ratio(3, 6, 1, strategy=Strategy.GREEDY)
    assert patterns._shared_cover.cache_info().currsize == 0
    assert patterns._local_geometry.cache_info().currsize == 0
    small = lattice[:EXHAUSTIVE_POINT_CAP]
    assert patterns._cover(small, 3, 1) is patterns._cover(small, 3, 1)


def test_the_shared_lattice_is_immutable(cold_caches):
    lattice = monomials_of_degree(3, 4)
    assert isinstance(lattice, tuple) and monomials_of_degree(3, 4) is lattice
    assert lattice == tuple(sorted(compositions(4, 3)))


_SMALL_LATTICES = [(n, D) for n in range(1, 5) for D in range(7) if len(monomials_of_degree(n, D)) <= 15]


@given(
    st.sampled_from(_SMALL_LATTICES),
    st.integers(1, 3),
    st.sampled_from(list(Strategy)),
    st.integers(1, 3000),
    st.integers(0, 99),
)
@settings(max_examples=150, deadline=None)
def test_search_result_is_the_checked_realization(lattice, d, strategy, budget, seed):
    n, D = lattice
    try:
        result = search_max_ratio(n, D, d, strategy=strategy, budget=budget, seed=seed)
    except BudgetExhausted:  # a local search that found nothing
        return
    assert result.best == SignPattern(n, D, result.best.pos, result.best.neg)
    assert result.realized == realize_magnitudes(result.best, d)


# -- parity with the per-candidate scan (tests/oracles.py) -----------------------


FULL_LATTICES = [
    (n, D, d)
    for d in (1, 2, 3)
    for n in range(1, 7)
    for D in range(4 if n == 1 else 16)
    if len(monomials_of_degree(n, D)) <= 16
]


@pytest.mark.parametrize("n, D, d", FULL_LATTICES)
def test_exhaustive_matches_scan_on_full_lattices(n, D, d):
    result = search_max_ratio(n, D, d, strategy=Strategy.EXHAUSTIVE)
    assert result.best == scan_exhaustive(n, D, d, monomials_of_degree(n, D))


@st.composite
def restricted_supports(draw):
    n = draw(st.integers(2, 4))
    D = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    lattice = monomials_of_degree(n, D)
    size = draw(st.integers(1, min(12, len(lattice))))
    support = draw(st.lists(st.sampled_from(lattice), min_size=size, max_size=size, unique=True))
    return n, D, d, support


@given(restricted_supports())
@settings(max_examples=80, deadline=None)
def test_exhaustive_matches_scan_on_restricted_supports(case):
    n, D, d, support = case
    result = search_max_ratio(n, D, d, strategy=Strategy.EXHAUSTIVE, support=support)
    assert result.best == scan_exhaustive(n, D, d, support)


@st.composite
def patterns_with_zeros(draw):
    n = draw(st.integers(1, 4))
    D = draw(st.integers(0, 5))
    lattice = monomials_of_degree(n, D)
    signs = draw(st.lists(st.sampled_from((1, -1, 0)), min_size=len(lattice), max_size=len(lattice)))
    pos = frozenset(a for a, s in zip(lattice, signs) if s == 1)
    neg = frozenset(a for a, s in zip(lattice, signs) if s == -1)
    return SignPattern(n, D, pos, neg)


@given(patterns_with_zeros(), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_support_feasible_matches_inflow_scan(pat, d):
    assert support_feasible(pat, d) == inflow_support_feasible(pat, d)


@given(patterns_with_zeros(), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_finish_on_a_lattice_cover_matches_the_support_check(pat, d):
    # local search finishes on a cover over the whole lattice, where the
    # points off the pattern carry no bit: verdict, witness and member are
    # those of the support alone, and the realization of the separate packing
    n, D = pat.n, pat.D
    cover = _Cover(monomials_of_degree(n, D), n, d)
    pos, neg = cover.bits(pat.pos), cover.bits(pat.neg)
    ok, witness = support_feasible(pat, d)
    if not ok:
        message = f"no realization exists; uncovered product monomial {witness}"
        for finish in (lambda: _finish(cover, D, pos, neg, 0, Strategy.LOCAL), lambda: realize_magnitudes(pat, d)):
            with pytest.raises(Infeasible) as info:
                finish()
            assert str(info.value) == message
        return
    result = _finish(cover, D, pos, neg, 0, Strategy.LOCAL)
    assert result.best == pat
    signs = dict.fromkeys(pat.pos, 1)
    signs.update(dict.fromkeys(pat.neg, -1))
    assert result.realized == realize_signs(signs, n, d) == realize_magnitudes(pat, d)


@st.composite
def feasible_masks(draw):
    """(cover, pos, neg): a feasible pattern with zeros on a drawn point set.

    Negatives are drawn first and kept only where every mask through them
    meets the positives, which makes the pattern feasible.
    """
    n = draw(st.integers(1, 4))
    D = draw(st.integers(0, 5))
    d = draw(st.integers(1, 3))
    lattice = monomials_of_degree(n, D)
    points = draw(st.lists(st.sampled_from(lattice), min_size=1, unique=True))
    cover = _Cover(sorted(points), n, d)
    signs = draw(st.lists(st.sampled_from((1, -1, 0)), min_size=len(points), max_size=len(points)))
    pos = sum(1 << k for k, s in enumerate(signs) if s == 1)
    neg = sum(
        1 << k for k, s in enumerate(signs)
        if s == -1 and all(m & pos for m in cover.masks.values() if m >> k & 1)
    )
    assert cover.feasible(pos, neg)
    return cover, pos, neg


@given(feasible_masks())
@settings(max_examples=300, deadline=None)
def test_incremental_check_matches_full_check(case):
    cover, pos, neg = case
    for k in range(len(cover.bit)):
        b = 1 << k
        rest_pos, rest_neg = pos & ~b, neg & ~b
        for moved in ((rest_pos | b, rest_neg), (rest_pos, rest_neg | b), (rest_pos, rest_neg)):
            if moved != (pos, neg):
                assert cover.feasible_move(*moved, k) == cover.feasible(*moved)


@st.composite
def patterns_on_point_sets(draw):
    """(cover, D, pos, neg): a pattern with zeros on a drawn point set, feasible or not."""
    n = draw(st.integers(1, 4))
    D = draw(st.integers(0, 5))
    d = draw(st.integers(1, 3))
    lattice = monomials_of_degree(n, D)
    points = draw(st.lists(st.sampled_from(lattice), min_size=1, max_size=12, unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1, 0)), min_size=len(points), max_size=len(points)))
    pos = sum(1 << k for k, s in enumerate(signs) if s == 1)
    neg = sum(1 << k for k, s in enumerate(signs) if s == -1)
    return _Cover(sorted(points), n, d), D, pos, neg


@given(patterns_on_point_sets())
@settings(max_examples=200, deadline=None)
def test_cover_checks_match_the_inflow_scan(case):
    # both bitmask loops against the per-monomial scan of tests/oracles.py:
    # the full check on the drawn pattern, the single-point check on every
    # move away from a feasible pattern drawn alongside it
    cover, D, pos, neg = case

    def scan(p, q):
        return inflow_support_feasible(SignPattern(cover.n, D, cover.points(p), cover.points(q)), cover.d)

    ok, witness = scan(pos, neg)
    assert cover.feasible(pos, neg) is ok
    assert (cover.witness(pos, neg) is None) is ok
    assert cover.witness(pos, neg) == witness
    # keep the negatives whose every mask meets pos: a feasible pattern
    neg = sum(1 << k for k, masks in enumerate(cover.through) if neg >> k & 1 and all(m & pos for m in masks))
    assert scan(pos, neg) == (True, None)
    for k in range(len(cover.bit)):
        b = 1 << k
        rest_pos, rest_neg = pos & ~b, neg & ~b
        for moved in ((rest_pos | b, rest_neg), (rest_pos, rest_neg | b), (rest_pos, rest_neg)):
            if moved != (pos, neg):
                assert cover.feasible_move(*moved, k) is scan(*moved)[0]


# Results recorded from the implementation that tested every candidate with
# the negative-inflow scan; greedy and local must reproduce them exactly.
SEARCH_REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "search_reference.json").read_text()
)


@pytest.mark.parametrize(
    "case",
    SEARCH_REFERENCE,
    ids=[
        f"{c['strategy']}-{c['n']}-{c['D']}-{c['d']}-b{c['budget']}-s{c['seed']}"
        + ("-restricted" if "support" in c else "")
        for c in SEARCH_REFERENCE
    ],
)
def test_greedy_and_local_match_reference(case):
    support = case.get("support")
    if support is not None:
        support = [tuple(a) for a in support]
    try:
        result = search_max_ratio(
            case["n"], case["D"], case["d"], strategy=case["strategy"],
            budget=case["budget"], seed=case["seed"], support=support,
        )
        exhausted = result.budget_exhausted
    except BudgetExhausted:
        result, exhausted = None, True
    assert exhausted == case["exhausted"]
    if case["pos"] is None:
        assert result is None
        return
    assert sorted(result.best.pos) == [tuple(a) for a in case["pos"]]
    assert result.best == SignPattern(case["n"], case["D"], result.best.pos, result.best.neg)
    assert sorted(result.best.neg) == [tuple(a) for a in case["neg"]]
    assert str(result.ratio) == case["ratio"]
    assert result.evaluations == case["evaluations"]
