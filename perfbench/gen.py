"""Seeded inputs and expected results for the three workloads.

Each workload builder takes a seed and returns (files, jobs, cheapest).
`files` maps a file name to the JSON document the program will read; `jobs`
is one pass of CLI commands, each with the exit code and facts the checker
expects; `cheapest` is the job timed in fresh processes.
Expected results come from constructions whose answers are known (closed
forms, unitary invariance, Sylvester's law) or from the oracles in
`exact.py`, never from psicert.

The seed varies instances inside fixed cost classes (variable relabelling,
positive rescaling, lambda draws within a band of minimal powers, rotation
planes and phases, supports with a fixed optimum size) so that a pass costs
about the same on any seed.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import exact
from exact import GONE, GZERO, gadd, gconj, gmul

HERE = Path(__file__).resolve().parent
# positive rescalings; all non-integral, since integral Fractions take a faster path
SCALES = (Fraction(3, 2), Fraction(5, 3), Fraction(7, 4), Fraction(9, 5))
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


# --- documents ---------------------------------------------------------------


def poly_doc(n: int, p: dict) -> dict:
    return {"n": n, "terms": [{"exp": list(a), "coef": str(c)} for a, c in sorted(p.items())]}


def herm_doc(n: int, entries: dict) -> dict:
    return {
        "n": n,
        "entries": [
            {"alpha": list(a), "beta": list(b), "re": str(v[0]), "im": str(v[1])}
            for (a, b), v in sorted(entries.items())
            if a <= b
        ],
    }


def pattern_doc(n: int, D: int, pos, neg) -> dict:
    return {"n": n, "D": D, "pos": [list(a) for a in sorted(pos)], "neg": [list(a) for a in sorted(neg)]}


def permute(p: dict, perm) -> dict:
    return {tuple(a[i] for i in perm): c for a, c in p.items()}


def scaled(p: dict, c: Fraction) -> dict:
    return {a: v * c for a, v in p.items()}


def sign_pair(p: dict) -> tuple:
    return (sum(1 for c in p.values() if c > 0), sum(1 for c in p.values() if c < 0))


def draw_lambda(rng: random.Random, lo: int, hi, q: int, cap: int = 64) -> Fraction:
    """A lambda = p/q in (0, 16) whose minimal power lies in [lo, hi], or
    above `cap` when hi is None.  The caller fixes q, which fixes the bit
    length of the coefficients and so the cost class."""
    while True:
        p = rng.randint(1, 16 * q - 1)
        if gcd(p, q) != 1:
            continue
        lam = Fraction(p, q)
        mp = exact.lambda_min_power(lam, cap if hi is None else hi)
        if hi is None and mp is None:
            return lam
        if hi is not None and mp is not None and lo <= mp:
            return lam


class Builder:
    """Collects files and jobs for one pass."""

    def __init__(self, seed: int, tag: int):
        self.rng = random.Random(seed * 7919 + tag)
        self.files: dict = {}
        self.jobs: list = []
        self.scales = 0

    def scale(self) -> Fraction:
        """The next positive rescaling, cycling through SCALES in job order, not by seed."""
        self.scales += 1
        return SCALES[self.scales % len(SCALES)]

    def file(self, stem: str, doc: dict) -> str:
        name = f"{stem}-{len(self.files)}.json"
        self.files[name] = doc
        return name

    def job(self, argv, kind: str, rc: int = 0, add: bool = True, **expect) -> dict:
        job = {"argv": [str(a) for a in argv], "kind": kind, "rc": rc, "expect": expect}
        if add:
            self.jobs.append(job)
        return job


# --- diag-families -----------------------------------------------------------


def diag_families(seed: int):
    b = Builder(seed, 1)
    rng = b.rng

    def poly_file(stem, n, p):
        return b.file(stem, poly_doc(n, p))

    # generators: the command's output is compared with the family's rule
    for n, D in ((3, 48), (4, 10)):
        b.job(["generate", "pd", "--n", n, "--D", D], "generate", terms=exact.dense_family(n, D), n=n)
    for d, m in ((1, 6), (2, 4)):
        b.job(["generate", "two-var", "--d", d, "--m", m], "generate", terms=exact.two_var_family(d, m), n=2)
    for n, d, k in ((3, 2, 6), (4, 2, 4)):
        b.job(["generate", "inductive", "--n", n, "--d", d, "--k", k, "--homogenize"], "member-output", n=n, d=d)
    for n, k in ((3, 3), (4, 3)):
        eps, _ = exact.qk_expected(n, k)
        b.job(["generate", "qk", "--n", n, "--k", k], "generate", terms=exact.qk_family(n, k, eps), n=n)
    for lo, hi, q in ((0, 0, 3), (2, 5, 5), (13, 30, 16)):
        lam = draw_lambda(rng, lo, hi, q)
        b.job(["generate", "lambda", "--lam", lam], "generate", terms=exact.lambda_family(lam), n=2)

    # dense family members, relabelled by the seed and rescaled
    def dense(D):
        perm = rng.sample(range(3), 3)
        return scaled(permute(exact.dense_family(3, D), perm), b.scale())

    # pD(3, 84..96) jobs and the lambda band (40, 44) below cost about the
    # same; they hold the 90th percentile, so it does not rest on one job
    for D, d in ((40, 1), (96, 1), (18, 2), (12, 3)):
        p = dense(D)
        b.job(["check-psi", "--poly", poly_file("pd", 3, p), "--d", d], "check-poly", poly=p, n=3, d=d, member=True)
    for D in (30, 60):
        p = dense(D)
        b.job(["verify-bounds", "--poly", poly_file("pd", 3, p), "--d", 1], "bounds", poly=p, n=3, d=1)
    for D in (24, 84, 96, 96):
        p = dense(D)
        b.job(["certificate", "--poly", poly_file("pd", 3, p)], "certificate", poly=p, n=3)

    fig2 = {a: Fraction(2) for a in ((1, 1, 4), (3, 0, 3), (0, 3, 3), (2, 2, 2), (4, 1, 1), (1, 4, 1), (3, 3, 0))}
    fig2.update({a: Fraction(-1) for a in ((2, 1, 3), (1, 2, 3), (3, 1, 2), (1, 3, 2), (3, 2, 1), (2, 3, 1))})
    fig2 = scaled(fig2, b.scale())
    f = poly_file("fig2", 3, fig2)
    b.job(["check-psi", "--poly", f, "--d", 1], "check-poly", poly=fig2, n=3, d=1, member=True)
    b.job(["verify-bounds", "--poly", f, "--d", 1], "bounds", poly=fig2, n=3, d=1)
    b.job(["certificate", "--poly", f], "certificate", poly=fig2, n=3)

    # two-variable family: members at power d, not at d-1, general multipliers
    for d, m in ((1, 4), (2, 3), (2, 5), (3, 2)):
        p = scaled(exact.two_var_family(d, m), b.scale())
        f = poly_file("tv", 2, p)
        mp = exact.min_power(p, 2, 16)
        for dd in (mp - 1, mp):
            member = exact.is_nonnegative(exact.simplex_product(p, 2, dd))
            b.job(["check-psi", "--poly", f, "--d", dd], "check-poly", rc=0 if member else 1, poly=p, n=2, d=dd, member=member)
        b.job(["min-d", "--poly", f, "--max-d", 16], "min-d", min_d=mp)
        b.job(["verify-bounds", "--poly", f, "--d", d], "bounds", poly=p, n=2, d=d)
        exps = sorted(rng.sample(exact.lattice(2, d + 1), d + 1))
        member = exact.is_nonnegative(exact.naive_mul(p, {e: 1 for e in exps}))
        mult = b.file("mult", {"n": 2, "exps": [list(e) for e in exps]})
        b.job(["check-psi", "--poly", f, "--d", 0, "--multiplier", mult], "check-poly", rc=0 if member else 1,
              poly=p, n=2, mult=exps, member=member)

    # quartic lambda-examples: closed-form minimal powers across (0, 16);
    # the last band lies above the cap, where min-d exhausts all 65 powers
    p = exact.lambda_family(draw_lambda(rng, 1, 1, 4))
    f = poly_file("lam", 2, p)
    b.job(["check-psi", "--poly", f, "--d", 0], "check-poly", rc=1, poly=p, n=2, d=0, member=False)
    b.job(["check-psi", "--poly", f, "--d", 1], "check-poly", poly=p, n=2, d=1, member=True)
    bands = [(0, 0, 3), (1, 2, 5), (3, 6, 7), (7, 14, 8), (20, 24, 16), (40, 44, 32)]
    bands += [(0, None, q) for q in (16, 64, 128)]
    for lo, hi, q in bands:
        lam = draw_lambda(rng, lo, hi, q)
        f = poly_file("lam", 2, exact.lambda_family(lam))
        found = exact.lambda_min_power(lam, 64)
        b.job(["min-d", "--poly", f, "--max-d", 64], "min-d", rc=0 if found is not None else 1, min_d=found)
    lam = draw_lambda(rng, 0, 0, 2)
    cheapest = b.job(["generate", "lambda", "--lam", lam], "generate", add=False, terms=exact.lambda_family(lam), n=2)
    return b.files, b.jobs, cheapest


# --- herm-membership ---------------------------------------------------------


def givens(n: int, i: int, j: int, triple, phase) -> list:
    """Rational unitary: a Pythagorean-triple rotation in plane (i, j), then
    row j multiplied by the unit Gaussian rational `phase`."""
    a, b, h = triple
    U = [[GONE if r == c else GZERO for c in range(n)] for r in range(n)]
    U[i][i] = U[j][j] = (Fraction(a, h), Fraction(0))
    U[i][j] = (Fraction(-b, h), Fraction(0))
    U[j][i] = (Fraction(b, h), Fraction(0))
    U[j] = [gmul(phase, x) for x in U[j]]
    return U


def matmul(A, B) -> list:
    n = len(A)
    out = []
    for r in range(n):
        row = []
        for c in range(n):
            acc = GZERO
            for k in range(n):
                acc = gadd(acc, gmul(A[r][k], B[k][c]))
            row.append(acc)
        out.append(row)
    return out


def gpoly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple(u + v for u, v in zip(a, b))
            out[key] = gadd(out.get(key, GZERO), gmul(x, y))
    return {k: v for k, v in out.items() if v != GZERO}


def substitute(p: dict, n: int, U) -> dict:
    """Hermitian table of r(Uz) for the diagonal r = sum_a c_a |z^a|^2.

    r(Uz) = sum_a c_a |f_a(z)|^2 with f_a = prod_k ((Uz)_k)^(a_k); entry
    (beta, gamma) is the coefficient of conj(z)^beta z^gamma.
    """
    linear = [
        {exact.unit(n, j): U[k][j] for j in range(n) if U[k][j] != GZERO} for k in range(n)
    ]
    entries: dict = {}
    for alpha, c in p.items():
        f = {tuple([0] * n): GONE}
        for k in range(n):
            for _ in range(alpha[k]):
                f = gpoly_mul(f, linear[k])
        for beta, fb in f.items():
            for gam, fg in f.items():
                v = gmul(gconj(fb), fg)
                key = (beta, gam)
                entries[key] = gadd(entries.get(key, GZERO), (v[0] * c, v[1] * c))
    return {k: v for k, v in entries.items() if v != GZERO}


def rational_unitary(rng: random.Random, n: int, triple) -> list:
    """One Pythagorean-triple rotation in a seeded plane with a seeded unit phase."""
    i, j = sorted(rng.sample(range(n), 2))
    a, b, h = TRIPLES[0]
    phase = (Fraction(rng.choice((a, -a)), h), Fraction(rng.choice((b, -b)), h))
    return givens(n, i, j, triple, phase)


def herm_membership(seed: int):
    b = Builder(seed, 2)
    rng = b.rng
    bases = [
        ("fig1", 3, {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (1, 0, 1): Fraction(1), (1, 1, 0): Fraction(-1)}),
        ("pd33", 3, exact.dense_family(3, 3)),
        ("pd34", 3, exact.dense_family(3, 4)),
        ("pd42", 4, exact.dense_family(4, 2)),
        ("tv11", 2, exact.two_var_family(1, 1)),
        ("tv12", 2, exact.two_var_family(1, 2)),
        ("tv21", 2, exact.two_var_family(2, 1)),
        ("tv22", 2, exact.two_var_family(2, 2)),
    ]
    for lo, hi, q in ((0, 0, 3), (1, 1, 4), (3, 3, 5), (5, 5, 8)):
        bases.append((f"lam{lo}", 2, exact.lambda_family(draw_lambda(rng, lo, hi, q))))
    cheapest = None
    for idx, (name, n, base) in enumerate(bases):
        # two instances per base; the rotation triples cycle so that every
        # denominator meets every base size over the workload
        for copy in range(2):
            triple = TRIPLES[(idx + copy) % len(TRIPLES)]
            p = scaled(permute(base, rng.sample(range(n), n)), b.scale())
            U = rational_unitary(rng, n, triple)
            table = substitute(p, n, U)
            f = b.file(name, herm_doc(n, table))
            sig = sign_pair(p)
            mp = exact.min_power(p, n, 8)
            b.job(["signature", "--herm", f], "signature", signature=sig)
            if mp > 0:
                b.job(["check-psi", "--herm", f, "--d", mp - 1], "check-herm", rc=1, table=table, n=n, d=mp - 1, member=False)
            b.job(["check-psi", "--herm", f, "--d", mp], "check-herm", table=table, n=n, d=mp, member=True)
            if n == 2:
                b.job(["min-d", "--herm", f, "--max-d", 8], "min-d", min_d=mp)
            if mp <= 1 and (n == 2 or copy == 0):
                b.job(["reduce", "--herm", f], "reduce", signature=sig, tol=1e-9)
            if cheapest is None:
                cheapest = b.job(["signature", "--herm", f], "signature", add=False, signature=sig)
    return b.files, b.jobs, cheapest


# --- pattern-search ----------------------------------------------------------

EXHAUSTIVE = ((2, 10, 1), (2, 12, 1), (2, 12, 2), (2, 12, 3), (3, 3, 1), (3, 3, 2), (3, 4, 2), (3, 4, 3))
GREEDY = ((2, 12, 2), (2, 16, 1), (2, 20, 1), (3, 4, 1), (3, 5, 1), (3, 5, 2), (3, 6, 1), (3, 7, 2), (4, 3, 1))
LOCAL = ((3, 5, 1), (4, 3, 1), (2, 20, 1))
# (lattice, support size, optimum positive count): a restricted support is
# the ball of lattice points nearest a seeded centre, redrawn until its
# minimum hitting set has the listed size, which fixes the cost class
RESTRICTED = (((3, 5, 1), 10, 7), ((3, 8, 1), 10, 7), ((2, 20, 1), 10, 6), ((3, 5, 2), 10, 6), ((3, 7, 2), 10, 6))


def load_optima() -> dict:
    doc = json.loads((HERE / "optima.json").read_text())
    return {(r["n"], r["D"], r["d"]): r for r in doc}


def pattern_search(seed: int):
    b = Builder(seed, 3)
    rng = b.rng
    optima = load_optima()

    def search(n, D, d, strategy, reference, extra=(), support=None):
        argv = ["search", "--n", n, "--D", D, "--d", d, "--strategy", strategy, *extra]
        b.job(argv, "search", n=n, D=D, d=d, strategy=strategy, reference=reference, support=support)

    for n, D, d in EXHAUSTIVE:
        search(n, D, d, "exhaustive", Fraction(optima[(n, D, d)]["full"]))
    for n, D, d in GREEDY:
        search(n, D, d, "greedy", Fraction(optima[(n, D, d)]["full"]))
    for n, D, d in LOCAL:
        search(n, D, d, "local", Fraction(optima[(n, D, d)]["any"]), extra=["--seed", rng.randrange(10**6)])
    for (n, D, d), size, k in RESTRICTED:
        points = exact.lattice(n, D)
        while True:
            centre = rng.choice(points)
            near = sorted(points, key=lambda a: (sum(abs(x - y) for x, y in zip(a, centre)), rng.random()))
            support = sorted(near[:size])
            pos = exact.min_hitting_set(exact.hitting_sets(support, n, d), size)
            if len(exact.bits(pos)) == k:
                break
        f = b.file("support", pattern_doc(n, D, support, []))
        search(n, D, d, "exhaustive", Fraction(size - k, k), extra=["--support", f], support=support)

    # diagrams of known-optimal patterns and of a dense-family member, in
    # both styles; these cheap fixed-cost jobs put the median on fixed inputs
    for key, kind in (((3, 4, 2), "any"), ((3, 5, 1), "any"), ((2, 12, 1), "full"), ((3, 4, 1), "any")):
        rec = optima[key]
        n, D = key[0], key[1]
        pos = [tuple(a) for a in rec[f"{kind}_pos"]]
        neg = [tuple(a) for a in rec["any_neg"]] if kind == "any" else sorted(set(exact.lattice(n, D)) - set(pos))
        perm = rng.sample(range(n), n)
        pos = [tuple(a[i] for i in perm) for a in pos]
        neg = [tuple(a[i] for i in perm) for a in neg]
        f = b.file("pattern", pattern_doc(n, D, pos, neg))
        b.job(["diagram", "--pattern", f, "--style", "svg", "--show-simplices"], "diagram",
              n=n, D=D, pos=len(pos), neg=len(neg), style="svg")
        b.job(["diagram", "--pattern", f, "--style", "ascii"], "diagram", n=n, D=D, pos=len(pos), neg=len(neg), style="ascii")
    D = rng.choice((10, 11, 12))
    p = exact.dense_family(3, D)
    f = b.file("pd", poly_doc(3, p))
    pos, neg = sign_pair(p)
    for style in ("svg", "ascii"):
        b.job(["diagram", "--poly", f, "--style", style], "diagram", n=3, D=D, pos=pos, neg=neg, style=style)
    points = exact.lattice(2, 6)
    k = len(exact.bits(exact.min_hitting_set(exact.hitting_sets(points, 2, 1), len(points))))
    cheapest = b.job(["search", "--n", 2, "--D", 6, "--d", 1], "search", add=False, n=2, D=6, d=1,
                     strategy="exhaustive", reference=Fraction(len(points) - k, k), support=None)
    return b.files, b.jobs, cheapest


WORKLOADS = {
    "diag-families": diag_families,
    "herm-membership": herm_membership,
    "pattern-search": pattern_search,
}
