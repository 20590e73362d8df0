"""Exact sparse polynomial arithmetic and the Hermitian coefficient table.

Real polynomials live on the nonnegative orthant with exact rational
coefficients; Hermitian polynomials are stored as coefficient tables over
Gaussian rationals indexed by pairs of exponent vectors.  Diagonal Hermitian
polynomials and real polynomials are interchangeable via the substitution
x_k = |z_k|^2, and everything here is immutable after construction.

All coefficient arithmetic is exact: no floats enter this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from .errors import DuplicateMultiplierTerm, NotDiagonal, NotHermitian

MultiIndex = tuple  # exponent vector: tuple of nonnegative ints

# Monomial order used everywhere: plain tuple comparison on exponent vectors,
# first variable most significant.  It is total and multiplicative.


def total_degree(alpha: MultiIndex) -> int:
    return sum(alpha)


def add_index(alpha: MultiIndex, beta: MultiIndex) -> MultiIndex:
    return tuple(a + b for a, b in zip(alpha, beta))


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`, in a fixed order."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if parts == 1:
        yield (total,)
        return
    for cut in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for c in cut:
            out.append(c - prev - 1)
            prev = c
        out.append(total + parts - 2 - prev)
        yield tuple(out)


def monomials_of_degree(n: int, degree: int) -> list[MultiIndex]:
    """All degree-`degree` exponent vectors in `n` variables, sorted."""
    return sorted(compositions(degree, n))


def multinomial(d: int, delta: MultiIndex) -> int:
    """d! / prod(delta_i!) for sum(delta) == d."""
    if sum(delta) != d:
        raise ValueError("parts must sum to d")
    out, left = 1, d
    for x in delta:
        out *= comb(left, x)
        left -= x
    return out


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(_as_fraction(re), _as_fraction(im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def abs2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other) -> "GaussianRational":
        other = _as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other) -> "GaussianRational":
        other = _as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianRational":
        other = _as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other) -> "GaussianRational":
        other = _as_gaussian(other)
        den = other.abs2()
        if den == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        num = self * other.conjugate()
        return GaussianRational(num.re / den, num.im / den)

    def __repr__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


GR_ZERO = GaussianRational(Fraction(0), Fraction(0))
GR_ONE = GaussianRational(Fraction(1), Fraction(0))
GR_I = GaussianRational(Fraction(0), Fraction(1))


def _as_gaussian(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    raise TypeError(f"not an exact complex rational: {value!r}")


@dataclass(frozen=True)
class SignaturePair:
    """Counts of positive and negative squares in a minimal decomposition."""

    n_plus: int
    n_minus: int

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def ratio(self) -> Fraction | None:
        """N-/N+, or None when there are no positive squares."""
        if self.n_plus == 0:
            return None
        return Fraction(self.n_minus, self.n_plus)


class RealSparsePoly:
    """Finitely supported map from exponent vectors to exact rationals.

    Zero coefficients are never stored.  Instances are immutable; all
    arithmetic returns new objects.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for alpha, c in (terms or {}).items():
            alpha = tuple(alpha)
            if len(alpha) != n:
                raise ValueError(f"exponent vector {alpha} does not have arity {n}")
            if any(a < 0 for a in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            c = _as_fraction(c)
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("RealSparsePoly is immutable")

    def items(self):
        return self._terms.items()

    def coeff(self, alpha: MultiIndex) -> Fraction:
        return self._terms.get(tuple(alpha), Fraction(0))

    @property
    def support(self) -> frozenset:
        return frozenset(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self._terms:
            return None
        return max(total_degree(a) for a in self._terms)

    def is_homogeneous(self) -> bool:
        degs = {total_degree(a) for a in self._terms}
        return len(degs) <= 1

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RealSparsePoly)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self._terms.items())))

    def __add__(self, other: "RealSparsePoly") -> "RealSparsePoly":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        out = dict(self._terms)
        for a, c in other.items():
            out[a] = out.get(a, Fraction(0)) + c
        return RealSparsePoly(self.n, out)

    def __neg__(self) -> "RealSparsePoly":
        return RealSparsePoly(self.n, {a: -c for a, c in self._terms.items()})

    def __sub__(self, other: "RealSparsePoly") -> "RealSparsePoly":
        return self + (-other)

    def scale(self, c) -> "RealSparsePoly":
        c = _as_fraction(c)
        return RealSparsePoly(self.n, {a: c * v for a, v in self._terms.items()})

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for alpha in sorted(self._terms):
            c = self._terms[alpha]
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(alpha)
                if e
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"RealSparsePoly(n={self.n}, terms={len(self._terms)})"


def integer_table(p: RealSparsePoly) -> tuple:
    """(L, table): L the lcm of p's coefficient denominators, table = L*p as ints.

    L is positive, so every coefficient keeps its sign.
    """
    L = 1
    for _, c in p.items():
        den = c.denominator
        L = L // gcd(L, den) * den
    return L, {a: c.numerator * (L // c.denominator) for a, c in p.items()}


def poly_from_table(n: int, L: int, table: dict) -> RealSparsePoly:
    """The polynomial table / L, for an integer table from `integer_table`."""
    return RealSparsePoly(n, {a: Fraction(c, L) for a, c in table.items()})


def simplex_powers(p: RealSparsePoly):
    """Yield (L, table) for d = 0, 1, 2, ...: table / L = p * (x_1 + ... + x_n)^d.

    L is fixed by `integer_table(p)`; each step is one convolution pass
    over Python ints, and zero coefficients are dropped.
    """
    L, table = integer_table(p)
    shifts = range(p.n)
    while True:
        yield L, table
        nxt: dict = {}
        get = nxt.get
        for alpha, c in table.items():
            for k in shifts:
                key = alpha[:k] + (alpha[k] + 1,) + alpha[k + 1 :]
                nxt[key] = get(key, 0) + c
        table = {a: c for a, c in nxt.items() if c}


def simplex_power_table(p: RealSparsePoly, d: int) -> tuple:
    """(L, table) with table / L = p * (x_1 + ... + x_n)^d."""
    if d < 0:
        raise ValueError("power must be nonnegative")
    powers = simplex_powers(p)
    for _ in range(d):
        next(powers)
    return next(powers)


def multiply_by_simplex_power(p: RealSparsePoly, d: int) -> RealSparsePoly:
    """p times (x_1 + ... + x_n)^d, computed by d exact convolution passes."""
    return poly_from_table(p.n, *simplex_power_table(p, d))


def multiplier_exponents(s, n: int) -> list:
    """The exponent vectors alpha_j of a multiplier sum_j x^{alpha_j}, checked.

    They must be nonempty, distinct, of arity n and nonnegative.
    """
    exps = [tuple(a) for a in s]
    if not exps:
        raise ValueError("multiplier must be nonempty")
    if len(set(exps)) != len(exps):
        raise DuplicateMultiplierTerm(f"repeated exponent vector in {exps}")
    for a in exps:
        if len(a) != n:
            raise ValueError(f"multiplier term {a} does not have arity {n}")
        if any(x < 0 for x in a):
            raise ValueError(f"negative exponent in multiplier term {a}")
    return exps


def diagonal_multiplier_table(p: RealSparsePoly, s) -> tuple:
    """(L, table) with table / L = p * sum_j x^{alpha_j}, alpha_j distinct."""
    exps = multiplier_exponents(s, p.n)
    L, table = integer_table(p)
    out: dict = {}
    for alpha, c in table.items():
        for delta in exps:
            key = add_index(alpha, delta)
            out[key] = out.get(key, 0) + c
    return L, {a: c for a, c in out.items() if c}


def multiply_by_diagonal_multiplier(p: RealSparsePoly, s) -> RealSparsePoly:
    """p times sum_j x^{alpha_j} for distinct exponent vectors alpha_j."""
    return poly_from_table(p.n, *diagonal_multiplier_table(p, s))


def homogeneous_components(p: RealSparsePoly) -> list[RealSparsePoly]:
    """Nonzero homogeneous parts of p, ordered by increasing total degree."""
    buckets: dict = {}
    for alpha, c in p.items():
        buckets.setdefault(total_degree(alpha), {})[alpha] = c
    return [RealSparsePoly(p.n, buckets[deg]) for deg in sorted(buckets)]


def sign_counts(p: RealSparsePoly) -> SignaturePair:
    """Numbers of strictly positive and strictly negative coefficients."""
    pos = sum(1 for _, c in p.items() if c > 0)
    neg = sum(1 for _, c in p.items() if c < 0)
    return SignaturePair(pos, neg)


class HermitianPoly:
    """Coefficient table of a real-valued polynomial in z and conj(z).

    Entries map pairs (alpha, beta) of exponent vectors to Gaussian
    rationals; the table is closed under (alpha, beta) -> (beta, alpha)
    with conjugation, so the represented polynomial is real-valued.
    """

    __slots__ = ("n", "_entries")

    def __init__(self, n: int, entries=None):
        if n < 1:
            raise ValueError("need at least one variable")
        staged: dict = {}
        for (alpha, beta), value in (entries or {}).items():
            alpha, beta = tuple(alpha), tuple(beta)
            if len(alpha) != n or len(beta) != n:
                raise ValueError("exponent vector arity mismatch")
            if any(a < 0 for a in alpha + beta):
                raise ValueError("negative exponent")
            value = _as_gaussian(value)
            if value.is_zero():
                continue
            staged[(alpha, beta)] = value
        # complete the conjugate triangle and reject inconsistencies
        clean: dict = {}
        for (alpha, beta), value in staged.items():
            mirror = staged.get((beta, alpha))
            if alpha == beta and value.im != 0:
                raise NotHermitian(f"diagonal entry at {alpha} is not real: {value}")
            if mirror is not None and mirror != value.conjugate():
                raise NotHermitian(
                    f"entries at {(alpha, beta)} and {(beta, alpha)} are not conjugate"
                )
            clean[(alpha, beta)] = value
            clean[(beta, alpha)] = value.conjugate()
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_entries", clean)

    def __setattr__(self, *a):
        raise AttributeError("HermitianPoly is immutable")

    def items(self):
        return self._entries.items()

    def entry(self, alpha: MultiIndex, beta: MultiIndex) -> GaussianRational:
        return self._entries.get((tuple(alpha), tuple(beta)), GR_ZERO)

    def is_zero(self) -> bool:
        return not self._entries

    def is_diagonal(self) -> bool:
        return all(a == b for (a, b) in self._entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HermitianPoly)
            and self.n == other.n
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self.n, frozenset(self._entries.items())))

    def __add__(self, other: "HermitianPoly") -> "HermitianPoly":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        out = dict(self._entries)
        for key, v in other.items():
            cur = out.get(key, GR_ZERO) + v
            if cur.is_zero():
                out.pop(key, None)
            else:
                out[key] = cur
        return HermitianPoly(self.n, out)

    def scale(self, c) -> "HermitianPoly":
        c = _as_fraction(c)
        return HermitianPoly(self.n, {k: v * c for k, v in self._entries.items()})

    def __repr__(self) -> str:
        return f"HermitianPoly(n={self.n}, entries={len(self._entries)})"


def hermitian_from_square(n: int, coeffs: dict) -> HermitianPoly:
    """|f(z)|^2 for the holomorphic polynomial f with the given coefficients."""
    entries = {}
    items = [(tuple(a), _as_gaussian(c)) for a, c in coeffs.items() if not _as_gaussian(c).is_zero()]
    for alpha, ca in items:
        for beta, cb in items:
            key = (alpha, beta)
            val = entries.get(key, GR_ZERO) + ca.conjugate() * cb
            entries[key] = val
    return HermitianPoly(n, entries)


def real_to_diagonal(p: RealSparsePoly) -> HermitianPoly:
    """Diagonal Hermitian polynomial matching p under x_k = |z_k|^2."""
    return HermitianPoly(p.n, {(a, a): GaussianRational.of(c) for a, c in p.items()})


def diagonal_real_bridge(r: HermitianPoly) -> RealSparsePoly:
    """Real polynomial matching a diagonal Hermitian polynomial."""
    if not r.is_diagonal():
        off = next(k for k in dict(r.items()) if k[0] != k[1])
        raise NotDiagonal(f"nonzero off-diagonal entry at {off}")
    return RealSparsePoly(r.n, {a: v.re for (a, _), v in r.items()})


def hermitian_integer_table(r: HermitianPoly) -> tuple:
    """(L, table): L the lcm of the denominators in r's entries, table = L*r.

    table maps (alpha, beta) to the Gaussian integer (re, im), a pair of
    ints; like r it holds both triangles and no zero entries.
    """
    L = 1
    for _, v in r.items():
        for den in (v.re.denominator, v.im.denominator):
            L = L // gcd(L, den) * den
    return L, {
        key: (v.re.numerator * (L // v.re.denominator), v.im.numerator * (L // v.im.denominator))
        for key, v in r.items()
    }


def _shift_table(scaled: tuple, exps) -> tuple:
    """(L, T') with T'(alpha + delta, beta + delta) = sum over delta in exps of T(alpha, beta).

    For (L, T) the table of r this is the table of r * sum_delta |z^delta|^2;
    zero entries are dropped.
    """
    L, table = scaled
    moved: dict = {}
    for key in table:
        for a in key:
            if a not in moved:
                moved[a] = [add_index(a, delta) for delta in exps]
    out: dict = {}
    get = out.get
    for (alpha, beta), (x, y) in table.items():
        for key in zip(moved[alpha], moved[beta]):
            cur = get(key)
            out[key] = (x, y) if cur is None else (cur[0] + x, cur[1] + y)
    return L, {key: v for key, v in out.items() if v[0] or v[1]}


def hermitian_powers(r: HermitianPoly):
    """Yield (L, table) for d = 0, 1, 2, ...: table / L = r * |z|^(2d).

    L and the d = 0 table come from `hermitian_integer_table(r)`; since
    |z|^2 = |z_1|^2 + ... + |z_n|^2, each step is one shift pass over the
    unit vectors, in Python ints.
    """
    units = [tuple(int(i == k) for i in range(r.n)) for k in range(r.n)]
    scaled = hermitian_integer_table(r)
    while True:
        yield scaled
        scaled = _shift_table(scaled, units)


def hermitian_multiplier_table(r: HermitianPoly, s) -> tuple:
    """(L, table) with table / L = r * sum_j |z^{alpha_j}|^2, alpha_j distinct."""
    return _shift_table(hermitian_integer_table(r), multiplier_exponents(s, r.n))


# ---------------------------------------------------------------------------
# JSON interchange formats (bit-exact: rationals travel as strings)


def _frac_str(x: Fraction) -> str:
    return str(x)


class _FractionMemo(dict):
    """Rational strings of one document, each parsed once: memo[text] is Fraction(text)."""

    def __missing__(self, text: str) -> Fraction:
        value = self[text] = Fraction(text)
        return value


def poly_to_json(p: RealSparsePoly) -> dict:
    return {
        "n": p.n,
        "terms": [
            {"exp": list(alpha), "coef": _frac_str(c)}
            for alpha, c in sorted(p.items())
        ],
    }


def poly_from_json(doc) -> RealSparsePoly:
    if isinstance(doc, str):
        doc = json.loads(doc)
    n = int(doc["n"])
    parse = _FractionMemo()
    terms: dict = {}
    for t in doc["terms"]:
        alpha = tuple(map(int, t["exp"]))
        c = parse[str(t["coef"])]
        if alpha in terms:
            c += terms[alpha]
        terms[alpha] = c
    return RealSparsePoly(n, terms)


def hermitian_to_json(r: HermitianPoly) -> dict:
    # emit one triangle only; (alpha, beta) with alpha <= beta
    out = []
    for (alpha, beta), v in sorted(r.items()):
        if alpha > beta:
            continue
        out.append(
            {
                "alpha": list(alpha),
                "beta": list(beta),
                "re": _frac_str(v.re),
                "im": _frac_str(v.im),
            }
        )
    return {"n": r.n, "entries": out}


def hermitian_from_json(doc) -> HermitianPoly:
    """Parse and validate; the completed table must be Hermitian."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    n = int(doc["n"])
    parse = _FractionMemo()
    entries: dict = {}
    for e in doc["entries"]:
        alpha = tuple(int(x) for x in e["alpha"])
        beta = tuple(int(x) for x in e["beta"])
        val = GaussianRational(parse[str(e["re"])], parse[str(e.get("im", "0"))])
        if (alpha, beta) in entries and entries[(alpha, beta)] != val:
            raise NotHermitian(f"conflicting duplicate entry at {(alpha, beta)}")
        entries[(alpha, beta)] = val
    return HermitianPoly(n, entries)  # constructor enforces symmetry
