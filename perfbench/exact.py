"""Exact arithmetic for the benchmark's own oracles and checker.

Nothing here imports psicert: expected answers and output checks must not
come from the code under test.  Polynomials are plain dicts from exponent
tuples to Fractions, Gaussian rationals are (re, im) pairs of Fractions, and
sign-pattern questions are answered on bitmasks.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

GZERO = (Fraction(0), Fraction(0))
GONE = (Fraction(1), Fraction(0))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def gconj(a):
    return (a[0], -a[1])


def lattice(n: int, D: int) -> list:
    """All degree-D exponent vectors in n variables, sorted."""
    if n == 1:
        return [(D,)]
    return sorted((i,) + rest for i in range(D + 1) for rest in lattice(n - 1, D - i))


def unit(n: int, k: int) -> tuple:
    return tuple(1 if i == k else 0 for i in range(n))


def naive_mul(a: dict, b: dict) -> dict:
    """Product of two exponent -> coefficient dicts, zero terms dropped."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v != 0}


def times_linear_sum(p: dict, n: int) -> dict:
    """p * (x_1 + ... + x_n), the step of the incremental Polya product."""
    return naive_mul(p, {unit(n, k): 1 for k in range(n)})


def simplex_product(p: dict, n: int, d: int) -> dict:
    for _ in range(d):
        p = times_linear_sum(p, n)
    return p


def is_nonnegative(p: dict) -> bool:
    return all(c >= 0 for c in p.values())


def min_power(p: dict, n: int, cap: int):
    """Smallest d <= cap with p * (sum x)^d coefficientwise nonnegative, else None."""
    for d in range(cap + 1):
        if is_nonnegative(p):
            return d
        if d < cap:
            p = times_linear_sum(p, n)
    return None


def lambda_min_power(lam: Fraction, cap: int = 400):
    """Closed-form binomial test for (x+y)^4 - lam x^2 y^2.

    The coefficient of x^(4+d-j) y^j in the product is C(4+d, j) - lam C(d, j-2).
    """
    for d in range(cap + 1):
        if all(comb(4 + d, j) - lam * comb(d, j - 2) >= 0 for j in range(2, d + 3)):
            return d
    return None


def gamma(alpha: tuple, D: int, n: int) -> int:
    """Dense-family coefficient rule: n-1 on the boundary and on one residue class."""
    if min(alpha) == 0:
        return n - 1
    weighted = sum((k + 1) * alpha[k] for k in range(n - 1))
    return n - 1 if (weighted - D) % n == 0 else -1


def dense_family(n: int, D: int) -> dict:
    return {a: Fraction(gamma(a, D, n)) for a in lattice(n, D)}


def two_var_family(d: int, m: int) -> dict:
    D = (d + 1) * m
    return {(D - j, j): Fraction(2**d - 1 if j % (d + 1) == 0 else -1) for j in range(D + 1)}


def lambda_family(lam: Fraction) -> dict:
    p = {(4 - j, j): Fraction(comb(4, j)) for j in range(5)}
    p[(2, 2)] -= lam
    return {a: c for a, c in p.items() if c != 0}


def qk_family(n: int, k: int, eps: Fraction) -> dict:
    p = {}
    first = [0] * n
    first[0] = k
    p[tuple(first)] = Fraction(1)
    second = [0] * n
    second[1] = k
    p[tuple(second)] = Fraction(1)
    for j in range(2, n):
        key = [0] * n
        key[1], key[j] = k - 1, 1
        p[tuple(key)] = Fraction(1)
    neg = [0] * n
    neg[0], neg[1] = 1, k - 1
    p[tuple(neg)] = p.get(tuple(neg), Fraction(0)) - eps
    return p


def qk_expected(n: int, k: int):
    """(epsilon, power): the largest 2^-j, j <= 20, admitting membership at
    power k-1, else at power k."""
    for power in (k - 1, k):
        eps = Fraction(1)
        while eps >= Fraction(1, 2**20):
            if is_nonnegative(simplex_product(qk_family(n, k, eps), n, power)):
                return eps, power
            eps /= 2
    return None


def ratio_ceiling(n: int, d: int) -> Fraction:
    return Fraction(n - 1) if d == 1 else Fraction(comb(n - 1 + d, d) - 1)


# --- sign patterns on bitmasks ---------------------------------------------


def contributor_masks(points: list, n: int, d: int) -> dict:
    """For each product monomial A of degree D+d: bitmask of points a with A - a in Delta_d."""
    index = {a: i for i, a in enumerate(points)}
    out: dict = {}
    for a in points:
        for delta in lattice(n, d):
            A = tuple(x + y for x, y in zip(a, delta))
            out[A] = out.get(A, 0) | (1 << index[a])
    return out


def hitting_sets(points: list, n: int, d: int) -> list:
    """Distinct covering constraints: a pattern on the whole point set is
    feasible exactly when its positive set meets every mask in this list."""
    return sorted(set(contributor_masks(points, n, d).values()))


def min_hitting_set(masks: list, size: int) -> int:
    """Smallest bitmask over `size` points meeting every mask, by branch and bound.

    Branches on the unhit mask with fewest points, excluding earlier branch
    points from later branches; a packing of pairwise disjoint unhit masks
    is the lower bound.
    """
    best = [(1 << size) - 1, size]

    def packing(unhit):
        used, count = 0, 0
        for m in sorted(unhit, key=_popcount):
            if not m & used:
                used |= m
                count += 1
        return count

    def rec(chosen, count, unhit):
        if not unhit:
            if count < best[1]:
                best[:] = [chosen, count]
            return
        if count + packing(unhit) >= best[1]:
            return
        m = min(unhit, key=_popcount)
        excluded = 0
        for i in bits(m):
            rest = []
            for u in unhit:
                if not (u >> i) & 1:
                    u &= ~excluded
                    if not u:
                        break
                    rest.append(u)
            else:
                rec(chosen | (1 << i), count + 1, rest)
            excluded |= 1 << i

    rec(0, 0, sorted(set(masks)))
    return best[0]


def _popcount(m: int) -> int:
    return bin(m).count("1")


def bits(mask: int) -> list:
    out, i = [], 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out
