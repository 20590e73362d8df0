from fractions import Fraction

import pytest

from oracles import naive_mul, naive_simplex_power, poly_dict, realize_signs
from psicert import generators
from psicert.cli import run
from psicert.errors import (
    DegreeMismatch,
    DomainTooSmall,
    Infeasible,
    ParamsInfeasible,
)
from psicert.generators import (
    dehomogenize,
    example_fig1,
    example_fig2,
    find_qk_epsilon,
    gamma,
    generate_fig2_family,
    generate_inductive,
    generate_lambda_example,
    generate_pD,
    generate_qk,
    generate_two_var,
    homogenize,
    lambda_in_positive_regime,
    pD_ratio_lower_bound,
)
from psicert.polycore import monomials_of_degree, sign_counts
from psicert.psi import in_psi_diagonal, min_psi_index


def ratio(p):
    return sign_counts(p).ratio


# -- gamma and the dense family ----------------------------------------------


def test_gamma_values():
    assert gamma((1, 1, 4), 6, 3) == 2
    assert gamma((2, 1, 3), 6, 3) == -1
    assert gamma((6, 0, 0), 6, 3) == 2


def test_gamma_validation():
    with pytest.raises(DegreeMismatch):
        gamma((1, 1), 3, 2)
    with pytest.raises(DegreeMismatch):
        gamma((1, 1, 1), 6, 3)


def test_generate_pD_support_and_membership():
    p = generate_pD(3, 6)
    assert len(p.support) == len(monomials_of_degree(3, 6)) == 28
    assert in_psi_diagonal(p, 1).member


@pytest.mark.parametrize("n, D", [(2, 1), (2, 7), (3, 1), (3, 6), (3, 13), (4, 5), (5, 4), (6, 3)])
def test_generate_pD_follows_gamma(n, D):
    # the family's own loop applies gamma's rule without gamma's argument checks
    expected = {a: gamma(a, D, n) for a in monomials_of_degree(n, D)}
    assert poly_dict(generate_pD(n, D)) == {a: Fraction(c) for a, c in expected.items()}


def test_generate_pD_small_two_var():
    p = generate_pD(2, 3)
    assert len(p.support) == 4
    product = naive_mul(poly_dict(p), naive_simplex_power(2, 1))
    assert all(c >= 0 for c in product.values())


def test_generate_pD_negative_count_bound():
    # interior negative count dominates (n-1)/n * C(D-n, n-1)
    from math import comb

    p = generate_pD(3, 20)
    sig = sign_counts(p)
    assert sig.n_minus >= Fraction(2, 3) * comb(17, 2)


def test_ratio_lower_bound_formula():
    val = pD_ratio_lower_bound(2, 9)
    assert 0 < val < 1
    with pytest.raises(DomainTooSmall):
        pD_ratio_lower_bound(3, 9)
    # monotone in D for fixed n
    vals = [pD_ratio_lower_bound(3, D) for D in range(10, 61)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # approaches n-1 from below for large D
    assert abs(pD_ratio_lower_bound(3, 1200) - 2) < Fraction(1, 20)


def test_measured_ratio_beats_lower_bound():
    for D in (10, 14, 20):
        assert ratio(generate_pD(3, D)) >= pD_ratio_lower_bound(3, D)


# -- the Figure-2 family -------------------------------------------------------


def test_fig2_family_is_figure_2():
    assert generate_fig2_family(3, 6) == example_fig2()


@pytest.mark.parametrize(
    "n, D",
    [(2, D) for D in range(1, 9)]
    + [(3, D) for D in range(2, 13)]
    + [(4, D) for D in range(3, 9)],
)
def test_fig2_family_membership_and_boundary(n, D):
    p = generate_fig2_family(n, D)
    assert not p.is_zero()
    assert in_psi_diagonal(p, 1).member
    assert all(c > 0 for a, c in p.items() if 0 in a)
    assert all(a.count(0) <= 1 for a in p.support)


def test_fig2_family_validation():
    with pytest.raises(ParamsInfeasible):
        generate_fig2_family(1, 4)
    with pytest.raises(ParamsInfeasible):
        generate_fig2_family(3, 0)
    # below D = n - 1 every point has two zero coordinates: the family would be the zero polynomial
    for n, D in ((3, 1), (4, 1), (4, 2), (5, 3)):
        with pytest.raises(ParamsInfeasible, match="empty below degree"):
            generate_fig2_family(n, D)
    for n in range(2, 6):
        for D in range(n - 1, 9):
            assert not generate_fig2_family(n, D).is_zero()


# -- two-variable family -------------------------------------------------------


def test_two_var_shape_and_ratio():
    p = generate_two_var(2, 3)  # D = 9
    sig = sign_counts(p)
    assert (sig.n_plus, sig.n_minus) == (4, 6)
    D = 9
    assert sig.ratio == Fraction(2 * D, D + 2 + 1) == Fraction(3, 2)
    assert in_psi_diagonal(p, 2).member


def test_two_var_alternating_case():
    p = generate_two_var(1, 2)
    coeffs = [p.coeff((4 - j, j)) for j in range(5)]
    assert coeffs == [1, -1, 1, -1, 1]
    assert in_psi_diagonal(p, 1).member


def test_two_var_membership_at_claimed_power():
    for d, m in ((1, 3), (2, 2), (3, 2)):
        p = generate_two_var(d, m)
        assert in_psi_diagonal(p, d).member
        D = (d + 1) * m
        assert ratio(p) == Fraction(d * D, D + d + 1)


def test_two_var_not_member_below_claimed_power():
    # one multiplier factor fewer leaves a negative coefficient
    for d, m in ((2, 2), (3, 2)):
        p = generate_two_var(d, m)
        assert not in_psi_diagonal(p, d - 1).member


# -- layered (inductive) family ------------------------------------------------


def test_inductive_membership_and_ratio_small():
    p = generate_inductive(3, 3, 12, nu=1, homogenize=True)
    assert p.is_homogeneous()
    assert in_psi_diagonal(p, 3).member
    assert ratio(p) > Fraction(3, 2)


def test_inductive_nu_zero():
    p = generate_inductive(3, 2, 10, nu=0, homogenize=True)
    assert in_psi_diagonal(p, 2).member


def test_inductive_auto_nu_matches_floor_split():
    auto = generate_inductive(3, 4, 12, homogenize=True)
    explicit = generate_inductive(3, 4, 12, nu=2, homogenize=True)
    assert auto == explicit


def test_inductive_four_vars():
    p = generate_inductive(4, 3, 8, nu=1, homogenize=True)
    assert in_psi_diagonal(p, 3).member


def test_inductive_dehomogenized_default():
    dehom = generate_inductive(3, 2, 6, nu=0)
    assert dehom.n == 2
    hom = generate_inductive(3, 2, 6, nu=0, homogenize=True)
    assert dehomogenize(hom) == dehom
    assert homogenize(dehom) == hom


def test_inductive_ratio_grows_with_k():
    ks = (6, 12, 24, 48, 96)
    rs = [ratio(generate_inductive(3, 4, k, nu=2, homogenize=True)) for k in ks]
    assert all(a < b for a, b in zip(rs, rs[1:]))
    # approaches nu + (nu+1) * (measured base ratio) from below; the gap
    # shrinks monotonically (the pulled-back negative layers cost a
    # vanishing share of the count as the box grows)
    gaps = []
    for k, r in zip(ks, rs):
        base = generate_two_var(2, max(2, k // 3))
        target = 2 + 3 * ratio(base)
        assert r < target
        gaps.append(target - r)
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < Fraction(13, 10)


@pytest.mark.parametrize(
    "n, d, k, nu",
    [(3, 1, 4, None), (3, 2, 6, 0), (3, 3, 12, 1), (3, 4, 8, None), (4, 2, 4, None), (4, 3, 8, 1)],
)
def test_inductive_is_the_unchecked_realization_of_its_signs(n, d, k, nu):
    # the checked realization gives the layered signs the magnitudes of the unchecked rule
    signs = generators._layered_signs(n - 1, d, nu, k)
    D = max(map(sum, signs))
    homog = {p + (D - sum(p),): s for p, s in signs.items()}
    assert generate_inductive(n, d, k, nu, homogenize=True) == realize_signs(homog, n, d)


def test_inductive_checks_its_layered_signs(monkeypatch, capsys):
    # one negative that no positive covers: (2, 1, 0) is fed by (1, 1, 0) alone
    monkeypatch.setattr(generators, "_layered_signs", lambda m, d, nu, k: {(0, 0): 1, (1, 1): -1})
    with pytest.raises(Infeasible, match="no realization exists"):
        generate_inductive(3, 1, 4)
    assert run(["generate", "inductive", "--n", "3", "--d", "1", "--k", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "no realization exists" in err


def test_inductive_validation():
    with pytest.raises(ParamsInfeasible):
        generate_inductive(2, 3, 10, nu=1)
    with pytest.raises(ParamsInfeasible):
        generate_inductive(3, 3, 10, nu=3)
    with pytest.raises(ParamsInfeasible):
        generate_inductive(3, 3, 3, nu=1)


# -- separating family ----------------------------------------------------------


def test_qk_structure():
    p = generate_qk(3, 2, Fraction(1, 4))
    assert p.coeff((2, 0, 0)) == 1
    assert p.coeff((0, 2, 0)) == 1
    assert p.coeff((0, 1, 1)) == 1
    assert p.coeff((1, 1, 0)) == Fraction(-1, 4)
    assert len(p.support) == 4


def test_qk_auto_epsilon_reports_power():
    rep = find_qk_epsilon(3, 2)
    assert rep.power == 1
    assert rep.epsilon == 1
    assert in_psi_diagonal(rep.poly, rep.power).member


def test_qk_min_index_strictly_increases():
    found = []
    for k in (2, 3, 4):
        rep = find_qk_epsilon(3, k)
        found.append(min_psi_index(rep.poly, 8))
    assert found == sorted(found)
    assert len(set(found)) == len(found)


def test_qk_nonmembership_persists_for_small_epsilon():
    for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 8)):
        p = generate_qk(3, 3, eps)
        assert not in_psi_diagonal(p, 1).member


def test_qk_validation():
    with pytest.raises(ParamsInfeasible):
        generate_qk(2, 3, 1)
    with pytest.raises(ParamsInfeasible):
        generate_qk(3, 1, 1)
    with pytest.raises(ParamsInfeasible):
        generate_qk(3, 3, 0)


# -- quartic example -------------------------------------------------------------


def test_lambda_zero_and_boundary():
    p0 = generate_lambda_example(0)
    assert in_psi_diagonal(p0, 0).member
    p6 = generate_lambda_example(6)
    assert p6.coeff((2, 2)) == 0
    assert in_psi_diagonal(p6, 0).member


def test_lambda_regime_flag():
    assert lambda_in_positive_regime(Fraction(63, 4))
    assert not lambda_in_positive_regime(16)


def test_lambda_min_index_monotone():
    values = [
        min_psi_index(generate_lambda_example(lam), 8)
        for lam in (Fraction(8), Fraction(10), Fraction(12))
    ]
    assert values == [1, 1, 5]


# -- fixed examples ---------------------------------------------------------------


def test_fig2_constants():
    p = example_fig2()
    sig = sign_counts(p)
    assert (sig.n_plus, sig.n_minus) == (7, 6)
    assert p.is_homogeneous() and p.degree == 6
    assert in_psi_diagonal(p, 1).member
    assert p.coeff((1, 1, 4)) == 2 and p.coeff((2, 1, 3)) == -1


def test_fig1_constants():
    p = example_fig1()
    sig = sign_counts(p)
    assert (sig.n_plus, sig.n_minus) == (3, 1)
    assert in_psi_diagonal(p, 1).member
