"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Criterion 2 measures the ratio trend on the paper's Figure-2 family
(generate_fig2_family, equal to example_fig2 at n=3, D=6), whose boundary
keeps only the on-residue points with a single zero coordinate.  Its exact
ratios at n=3 are 9/7, 84/53, 360/203 and 1488/791 (about 1.881) for
D = 12, 24, 48, 96.  The full-support variant generate_pD puts n-1 on every
boundary point and reaches only 2976/1777 (about 1.675) at D=96, so it is
not the family the checkpoint describes.
"""

import time
from fractions import Fraction

from conftest import record_criterion
from members import random_psi1_member
from oracles import all_sign_patterns, form_polynomial, step_matrix
from psicert.bounds import pigeonhole_certificate
from psicert.generators import (
    example_fig1,
    example_fig2,
    find_qk_epsilon,
    generate_fig2_family,
    generate_inductive,
    generate_lambda_example,
    generate_pD,
    generate_two_var,
)
from psicert.inertia import inertia
from psicert.patterns import (
    SignPattern,
    Strategy,
    search_max_ratio,
    support_feasible,
)
from psicert.polycore import sign_counts
from psicert.psi import in_psi_diagonal, min_psi_index
from psicert.reduction import (
    decompose,
    is_partial_row_echelon,
    partial_row_echelon,
    reconstruction_error,
)


def test_criterion_1_fig2_reproduction():
    start = time.perf_counter()
    p = example_fig2()
    sig = sign_counts(p)
    ok = (
        (sig.n_plus, sig.n_minus) == (7, 6)
        and p.is_homogeneous()
        and p.degree == 6
        and in_psi_diagonal(p, 1).member
        and sig.ratio == Fraction(6, 7)
        and sig.ratio < 2
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    record_criterion(1, ok, f"signature {sig.n_plus},{sig.n_minus} in {elapsed:.2f}s")
    assert ok


def test_criterion_2_dense_family_trend():
    start = time.perf_counter()
    ratios = []
    for D in (12, 24, 48, 96):
        p = generate_fig2_family(3, D)
        assert in_psi_diagonal(p, 1).member
        ratios.append(sign_counts(p).ratio)
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - start
    checkpoint = ratios[-1] > Fraction(18, 10)
    ok = increasing and checkpoint and elapsed < 30.0
    record_criterion(
        2,
        ok,
        f"ratios {[str(r) for r in ratios]}; D=96 ratio {float(ratios[-1]):.4f} "
        f"vs checkpoint 1.8; {elapsed:.1f}s",
    )
    assert increasing and elapsed < 30.0
    assert checkpoint, (
        f"degree-96 ratio of the Figure-2 family is {ratios[-1]} = "
        f"{float(ratios[-1]):.4f}, not above 1.8; the family should give 1488/791"
    )


def test_criterion_3_two_var_exactness():
    ok = True
    details = []
    for d, m in ((1, 3), (2, 3), (3, 2)):
        p = generate_two_var(d, m)
        D = (d + 1) * m
        expected = Fraction(d * D, D + d + 1)
        member = in_psi_diagonal(p, d).member
        exact = sign_counts(p).ratio == expected
        details.append(f"(d={d},m={m}):{sign_counts(p).ratio}")
        ok = ok and member and exact
    record_criterion(3, ok, "; ".join(details))
    assert ok


def test_criterion_4_exhaustive_ceilings_two_vars():
    start = time.perf_counter()
    ok = True
    checked = 0
    for D in range(0, 6):
        for pos, neg in all_sign_patterns(2, D):
            if not pos and not neg:
                continue
            pat = SignPattern(2, D, pos, neg)
            feasible, _ = support_feasible(pat, 1)
            if not feasible:
                continue
            checked += 1
            if neg:
                ok = ok and len(pos) >= 2
                ok = ok and Fraction(len(neg), len(pos)) < 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    record_criterion(4, ok, f"{checked} feasible patterns in {elapsed:.1f}s")
    assert ok


def _psi1_family_members():
    members = [example_fig1(), example_fig2()]
    members += [generate_pD(2, D) for D in (4, 7, 12)]
    members += [generate_pD(3, D) for D in (8, 13, 20)]
    members += [generate_pD(4, D) for D in (6, 9)]
    members += [generate_two_var(1, m) for m in (2, 4, 7)]
    members += [generate_lambda_example(lam) for lam in (0, 6, 10)]
    members.append(find_qk_epsilon(3, 2).poly)
    members.append(generate_inductive(3, 1, 6, nu=0, homogenize=True))
    members.append(generate_inductive(4, 1, 6, nu=0, homogenize=True))
    return members


def test_criterion_5_pigeonhole_certificates():
    candidates = _psi1_family_members()
    tested = 0
    ok = True
    for p in candidates:
        if p.n > 4 or p.degree > 20:
            continue
        if not in_psi_diagonal(p, 1).member:
            continue
        tested += 1
        cert = pigeonhole_certificate(p)
        ok = ok and cert.max_fiber <= p.n - 1
        ok = ok and cert.fiber_sizes().get(cert.least_monomial, 0) == 0
        ok = ok and len(cert.assignment) == sign_counts(p).n_minus
    ok = ok and tested >= 12
    record_criterion(5, ok, f"{tested} members certified")
    assert ok


def test_criterion_6_separating_chain():
    indices = []
    for k in (2, 3, 4, 5):
        rep = find_qk_epsilon(3, k)
        indices.append(min_psi_index(rep.poly, 8))
    ok = all(a is not None for a in indices) and all(
        a < b for a, b in zip(indices, indices[1:])
    )
    record_criterion(6, ok, f"minimal powers {indices}")
    assert ok


def test_criterion_7_lambda_monotonicity():
    values = []
    for lam in (Fraction(8), Fraction(12), Fraction(15), Fraction(63, 4)):
        values.append(min_psi_index(generate_lambda_example(lam), 64))
    # "not found within the cap" sits above every finite value
    ranks = [v if v is not None else float("inf") for v in values]
    nondecreasing = all(a <= b for a, b in zip(ranks, ranks[1:]))
    above_one = all(r >= 1 for r in ranks)
    ok = nondecreasing and above_one
    record_criterion(7, ok, f"minimal powers {values} (None = above cap 64)")
    assert ok


def test_criterion_8_reduction_pipeline():
    failures = []
    for seed in range(100):
        r = random_psi1_member(seed)
        form = decompose(r)
        pos0, neg0, _ = inertia(r)
        reduced, steps = partial_row_echelon(form)
        if not is_partial_row_echelon(reduced):
            failures.append((seed, "echelon"))
        if (reduced.n_plus, reduced.n_minus) != (pos0, neg0):
            failures.append((seed, "signature"))
        recomposed = form_polynomial(reduced)
        if reconstruction_error(reduced) != 0 or recomposed != reduced.target:
            failures.append((seed, "reconstruction"))
        if inertia(recomposed)[:2] != (pos0, neg0):
            failures.append((seed, "inertia"))
        for step in steps:
            # t* diag(w', -v') t == diag(w, -v), entry by entry
            (w, v), (w1, v1) = step.weights
            (t11, t12), (t21, t22) = step_matrix(step)
            if (
                t11.abs2() * w1 - t21.abs2() * v1 != w
                or t12.abs2() * w1 - t22.abs2() * v1 != -v
                or not (t11.conjugate() * t12 * w1 - t21.conjugate() * t22 * v1).is_zero()
            ):
                failures.append((seed, "j-identity"))
    ok = not failures
    record_criterion(8, ok, f"100 members, failures: {failures[:3]}")
    assert ok, failures


def test_criterion_9_inductive_member():
    start = time.perf_counter()
    p = generate_inductive(3, 4, 30, nu=2, homogenize=True)
    member = in_psi_diagonal(p, 4).member
    ratio = sign_counts(p).ratio
    elapsed = time.perf_counter() - start
    ok = member and ratio >= 2 and elapsed < 60.0
    record_criterion(9, ok, f"ratio {float(ratio):.3f} in {elapsed:.1f}s")
    assert ok


def test_criterion_10_search_parity():
    support = sorted(example_fig2().support)
    result = search_max_ratio(
        3, 6, 1, strategy=Strategy.EXHAUSTIVE, support=support
    )
    ok = result.ratio >= Fraction(6, 7)
    ok = ok and in_psi_diagonal(result.realized, 1).member
    record_criterion(10, ok, f"ratio {result.ratio} over the 13-point support")
    assert ok
