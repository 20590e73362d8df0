"""Exact sparse polynomials and Hermitian coefficient tables, held as integer tables.

A real polynomial on the nonnegative orthant is (scale, table): a positive
int L and a map from exponent vectors to nonzero ints, standing for
table / L.  A Hermitian polynomial is the same with pairs (alpha, beta) of
exponent vectors as keys and Gaussian integers (re, im) as entries, over
one triangle.  L is minimal, so equal polynomials have equal tables.  The
readers, the Hermitian shift passes, the congruence factorization and the
reduction all work on these tables; Fractions and Gaussian rationals appear
only at the edges (constructor input, `items()`, `coeff()`, `entry()`).
A diagonal product p * (sum of monomials) is held as `DiagonalLines`: one
int per line of the lattice, coefficients in signed slots along one
variable, so a simplex power is a shift and an add per line and the sign
test is a mask.
Diagonal Hermitian polynomials and real polynomials are interchangeable via
the substitution x_k = |z_k|^2, and everything here is immutable after
construction.

All coefficient arithmetic is exact: no floats enter this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, repeat
from math import comb, gcd, lcm
from operator import add, floordiv, itemgetter, lshift, mod, mul

from .errors import CertificateFailure, DuplicateMultiplierTerm, NotDiagonal, NotHermitian

MultiIndex = tuple  # exponent vector: tuple of nonnegative ints

# Monomial order used everywhere: plain tuple comparison on exponent vectors,
# first variable most significant.  It is total and multiplicative.


def total_degree(alpha: MultiIndex) -> int:
    return sum(alpha)


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


# keys kept by each geometry memo (lattices here, covers and local-search
# maps in `patterns`): a search or diagram job reads the same few keys over
# and over
GEOMETRY_CACHE_SIZE = 32


@lru_cache(maxsize=GEOMETRY_CACHE_SIZE)
def monomials_of_degree(n: int, degree: int) -> tuple[MultiIndex, ...]:
    """All degree-`degree` exponent vectors in `n` variables, sorted; one shared tuple per (n, degree)."""
    return tuple(sorted(compositions(degree, n)))


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
    if isinstance(value, (int, str)):
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


def _exponent_vector(a, n: int) -> tuple:
    """a as an exponent vector of arity n; anything but nonnegative ints raises ValueError."""
    alpha = tuple(a)
    if len(alpha) != n:
        raise ValueError(f"exponent vector {alpha} does not have arity {n}")
    for x in alpha:
        if type(x) is not int:
            raise ValueError(f"exponent {x!r} in {alpha} is not an integer")
        if x < 0:
            raise ValueError(f"negative exponent in {alpha}")
    return alpha


def _json_int(x) -> int:
    """x if it is an int; a JSON float, bool or string raises ValueError."""
    if type(x) is not int:
        raise ValueError(f"not an integer: {x!r}")
    return x


class _ScaledTable:
    """A polynomial held as table / scale: nonzero int entries over a positive int.

    The scale is minimal (gcd(scale, every entry) == 1), so equal
    polynomials have equal (scale, table).  Instances are immutable; all
    arithmetic returns new objects.
    """

    __slots__ = ("n", "scale", "table")

    @classmethod
    def _frozen(cls, n: int, scale: int, table: dict):
        if n < 1:
            raise ValueError("need at least one variable")
        obj = object.__new__(cls)
        for name, value in (("n", n), ("scale", scale), ("table", table)):
            object.__setattr__(obj, name, value)
        return obj

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.table

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return False
        return (self.n, self.scale, self.table) == (other.n, other.scale, other.table)

    def __hash__(self):
        return hash((self.n, self.scale, frozenset(self.table.items())))


class RealSparsePoly(_ScaledTable):
    """The real polynomial table / scale, its table mapping exponent vectors to ints.

    The constructor takes exact rationals per exponent vector; `items()`
    and `coeff()` build Fractions on demand.
    """

    __slots__ = ()

    def __new__(cls, n: int, terms=None):
        fracs = {}
        for alpha, c in (terms or {}).items():
            alpha, c = _exponent_vector(alpha, n), _as_fraction(c)
            if c:
                fracs[alpha] = c
        L = lcm(*(c.denominator for c in fracs.values()))
        return cls._frozen(n, L, {a: c.numerator * (L // c.denominator) for a, c in fracs.items()})

    @classmethod
    def _from_table(cls, n: int, scale: int, table: dict) -> "RealSparsePoly":
        """table / scale, for a positive int scale and nonzero int entries; scale made minimal."""
        g = gcd(scale, *table.values())
        if g > 1:
            scale //= g
            table = {a: c // g for a, c in table.items()}
        return cls._frozen(n, scale, table)

    def items(self) -> list:
        L = self.scale
        return [(a, Fraction(c, L)) for a, c in self.table.items()]

    def coeff(self, alpha: MultiIndex) -> Fraction:
        return Fraction(self.table.get(tuple(alpha), 0), self.scale)

    @property
    def support(self) -> frozenset:
        return frozenset(self.table)

    @property
    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self.table:
            return None
        return max(total_degree(a) for a in self.table)

    def is_homogeneous(self) -> bool:
        degs = {total_degree(a) for a in self.table}
        return len(degs) <= 1

    def __len__(self) -> int:
        return len(self.table)

    def __add__(self, other: "RealSparsePoly") -> "RealSparsePoly":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        m = lcm(self.scale, other.scale)
        f, g = m // self.scale, m // other.scale
        out = {a: c * f for a, c in self.table.items()}
        for a, c in other.table.items():
            out[a] = out.get(a, 0) + c * g
        return RealSparsePoly._from_table(self.n, m, {a: c for a, c in out.items() if c})

    def __neg__(self) -> "RealSparsePoly":
        return RealSparsePoly._from_table(self.n, self.scale, {a: -c for a, c in self.table.items()})

    def __sub__(self, other: "RealSparsePoly") -> "RealSparsePoly":
        return self + (-other)

    def times(self, c) -> "RealSparsePoly":
        """c times the polynomial, for an exact rational c."""
        c = _as_fraction(c)
        table = {a: v * c.numerator for a, v in self.table.items()} if c else {}
        return RealSparsePoly._from_table(self.n, self.scale * c.denominator, table)

    def __repr__(self) -> str:
        return f"RealSparsePoly(n={self.n}, terms={len(self.table)})"


def packing(top: int, n: int, d: int):
    """(code, decode): code(a) = sum a_i * B**(n-1-i) packs an exponent vector into one int.

    B = top + d + 1 exceeds every coordinate of a + delta for a of degree
    at most `top` and delta of degree at most d, so on those monomials
    code(a + delta) = code(a) + code(delta), int order is tuple order, and
    decode inverts code: it turns an iterable of codes into the list of
    their exponent vectors, one column of digits at a time.
    """
    base = top + d + 1
    weights = [base ** (n - 1 - i) for i in range(n)]

    def code(a):
        k = 0
        for x in a:
            k = k * base + x
        return k

    def decode(codes) -> list:
        rest, columns = list(codes), []
        for w in weights[:-1]:
            columns.append(list(map(floordiv, rest, repeat(w))))
            rest = list(map(mod, rest, repeat(w)))
        return list(zip(*columns, rest))

    return code, decode


def _packed(p: RealSparsePoly, top: int, d: int) -> tuple:
    """(code, decode, codes): `packing` for p, of degree <= top, times degree <= d; p's table packed.

    The codes are built by Horner's rule over the columns of the exponent
    vectors, base `packing`'s B = top + d + 1: the same ints `code` gives.
    """
    code, decode = packing(top, p.n, d)
    columns = zip(*p.table)
    codes = next(columns, ())
    for column in columns:
        codes = map(add, map(mul, codes, repeat(top + d + 1)), column)
    return code, decode, dict(zip(codes, p.table.values()))


def _line_columns(vectors, n: int) -> tuple:
    """(prefixes, tails, slots) of exponent vectors of arity n, a column at a time.

    prefixes are the columns of a_1, ..., a_{n-2}, tails the column of
    t = a_{n-1} + a_n and slots the column of a_{n-1}; with one variable
    there is no prefix, t = a_1 and the slot is 0.
    """
    columns = list(zip(*vectors)) or [()] * n
    if n == 1:
        return [], columns[0], repeat(0)
    return columns[:-2], list(map(add, columns[-2], columns[-1])), columns[-2]


def _line_keys(prefixes, tails, base: int):
    """The line keys: (a_1, ..., a_{n-2}, t) packed in base `base`, additive while no digit reaches it."""
    if not prefixes:
        return tails
    keys = prefixes[0]
    for column in [*prefixes[1:], tails]:
        keys = map(add, map(mul, keys, repeat(base)), column)
    return keys


def _moves(exps, n: int, base: int, width: int) -> list:
    """[(key step, slot multiplier)] for sum_j x^{alpha_j}: x^alpha adds its key and shifts by its slot."""
    prefixes, tails, slots = _line_columns(exps, n)
    moves: dict = {}
    for key, slot in zip(_line_keys(prefixes, tails, base), slots):
        moves[key] = moves.get(key, 0) + (1 << slot * width)
    return list(moves.items())


def _spread(lines: dict, moves: list) -> dict:
    """Every line moved and shifted by each (key step, slot multiplier) of a multiplier, summed per key."""
    out: dict = {}
    get = out.get
    items = lines.items()
    for move, m in moves:
        if m == 1:
            for key, line in items:
                out[key + move] = get(key + move, 0) + line
        else:
            for key, line in items:
                out[key + move] = get(key + move, 0) + line * m
    return out


class DiagonalLines:
    """A diagonal product held as packed lines of the lattice: one int per line.

    A line is every monomial a with a fixed prefix (a_1, ..., a_{n-2}) and
    a fixed tail degree t = a_{n-1} + a_n, keyed as `_line_keys` packs
    them.  Its coefficients sit in signed `width`-bit slots of one Python
    int, the coefficient of a in slot j = a_{n-1}: line = sum_j c_j *
    2**(j * width), and a_n = t - j is implied.  With one variable a line
    holds one monomial, in slot 0.  Multiplying by x^alpha moves every line
    by one int add to its key and shifts it by alpha_{n-1} slots, so the
    simplex factor x_1 + ... + x_n costs one shift and add per line for
    x_{n-1} and x_n together, and one move for each other variable.

    `width` is fixed when the lines are built: max|c| times the coefficient
    sum of every multiplier to come (n**d for the d-th simplex power) is
    below 2**(width - 1), so no slot ever carries into the next.  Adding
    2**(width - 1) to every slot then leaves a slot's top bit set exactly
    when its coefficient is nonnegative, which is the sign test.  `room` and
    `gain` are the degree and coefficient sum still allowed: a multiplier
    beyond them raises ValueError, and a line found outside its slots raises
    CertificateFailure.  `top` bounds the lines' tail degrees, so no line
    ever has more than top + room + 1 slots: one mask H of that many slots,
    2**(width-1) in each, serves every line, a line of tail degree t taking
    its t + 1 low slots' share by a right shift.  Multiplying returns new
    lines, which share the mask and the simplex moves.
    """

    __slots__ = ("n", "scale", "base", "width", "top", "room", "gain", "lines", "_mask", "_simplex")

    def __init__(self, n, scale, base, width, top, room, gain, lines, mask=None, simplex=None):
        self.n, self.scale, self.base, self.width, self.top = n, scale, base, width, top
        self.room, self.gain, self.lines, self._simplex = room, gain, lines, simplex
        if mask is None:
            mask = ((1 << (top + room + 1) * width) - 1) // ((1 << width) - 1) << width - 1
        self._mask = mask

    def _moved(self, moves: list, degree: int, count: int) -> "DiagonalLines":
        """These lines times the multiplier with these moves.

        The multiplier has total degree `degree` and coefficient sum `count`.
        """
        if degree > self.room or count > self.gain:
            raise ValueError("multiplier exceeds the degree or coefficient sum the lines were built for")
        return DiagonalLines(
            self.n,
            self.scale,
            self.base,
            self.width,
            self.top + degree,
            self.room - degree,
            self.gain // count,
            _spread(self.lines, moves),
            self._mask,
            self._simplex,
        )

    def times(self, exps) -> "DiagonalLines":
        """These lines times sum_j x^{alpha_j}, for distinct exponent vectors alpha_j of arity n."""
        moves = _moves(exps, self.n, self.base, self.width)
        return self._moved(moves, max(map(sum, exps)), len(exps))

    def _simplex_moves(self) -> list:
        """The moves of x_1 + ... + x_n: x_k for k <= n - 2 steps the key by base**(n-1-k), and
        x_{n-1} and x_n share one key step of 1, with slot multiplier 1 + 2**width."""
        if self._simplex is None:
            n, base = self.n, self.base
            tail = 1 if n == 1 else 1 + (1 << self.width)
            self._simplex = [(1, tail)] + [(base ** (n - 1 - k), 1) for k in range(1, n - 1)]
        return self._simplex

    def times_simplex(self) -> "DiagonalLines":
        """These lines times x_1 + ... + x_n."""
        return self._moved(self._simplex_moves(), 1, self.n)

    def _shares(self) -> tuple:
        """(H, last, bits): the mask, the largest tail degree it covers and its bit length.

        Line `key` of tail degree t takes h = H >> cut, cut = (last - t) *
        width: the offset line u = line + h has a slot's top bit clear
        exactly where the slot is negative, and 0 <= u < 2**(bits - cut)
        while no slot overflowed.
        """
        last = self.top + self.room
        return self._mask, last, (last + 1) * self.width

    def _check_slots(self, key: int, u: int) -> None:
        """Raise CertificateFailure if the offset line u = line + h left its slots."""
        slots = key % self.base + 1
        if u < 0 or u >> slots * self.width:
            raise CertificateFailure(f"line {key} outgrew its {slots} slots of {self.width} bits")

    def is_nonnegative(self) -> bool:
        """Whether no coefficient is negative."""
        (mask, last, bits), base, width = self._shares(), self.base, self.width
        for key, line in self.lines.items():
            cut = (last - key % base) * width
            h = mask >> cut
            u = line + h
            if u & h != h or u >> bits - cut:
                self._check_slots(key, u)
                return False
        return True

    def least_negative(self) -> tuple | None:
        """(monomial, coefficient) of the least negative monomial in tuple order, or None.

        A line's lowest negative slot is its least negative monomial; the
        answer is the least of those over the lines with a negative slot,
        compared as (prefix, a_{n-1}, a_n).
        """
        (mask, last, bits), base, width = self._shares(), self.base, self.width
        best = None
        for key, line in self.lines.items():
            cut = (last - key % base) * width
            h = mask >> cut
            u = line + h
            if u & h != h or u >> bits - cut:
                self._check_slots(key, u)
                bad = h & ~u
                j = ((bad & -bad).bit_length() - 1) // width
                found = (key // base, j, key % base - j, key, u)
                if best is None or found < best:
                    best = found
        if best is None:
            return None
        _, j, _, key, u = best
        return self._head(key) + (j, key % base - j)[self.n == 1 :], self._slot(u, j)

    def _head(self, key: int) -> tuple:
        """The prefix (a_1, ..., a_{n-2}) of line `key`."""
        base, prefix, digits = self.base, key // self.base, []
        for _ in range(self.n - 2):
            prefix, x = divmod(prefix, base)
            digits.append(x)
        return tuple(reversed(digits))

    def _slot(self, u: int, j: int) -> int:
        """The coefficient in slot j of the offset line u."""
        width = self.width
        return (u >> j * width & (1 << width) - 1) - (1 << width - 1)

    def degrees(self) -> set:
        """The total degree of every line, as a set: the digit sum of its key."""
        base, found = self.base, set()
        for key in self.lines:
            degree = 0
            while key:
                key, digit = divmod(key, base)
                degree += digit
            found.add(degree)
        return found

    def poly(self) -> RealSparsePoly:
        """The product, decoded: table / scale.

        A line of tail degree t is read once, as the binary text of u ^ h
        over its t + 1 slots: slot j of it holds (c_j + 2**(width-1)) ^
        2**(width-1), which is zero exactly where c_j is.  The walk jumps
        from one nonzero slot to the next, lowest first, so a line costs
        time linear in its bits, however sparse.
        """
        (mask, last, _), base, width, one = self._shares(), self.base, self.width, self.n == 1
        half = 1 << width - 1
        table = {}
        for key, line in self.lines.items():
            t = key % base
            h = mask >> (last - t) * width
            u = line + h
            self._check_slots(key, u)
            head, end = self._head(key), (t + 1) * width
            text = format(u ^ h, "b").zfill(end)  # slot j is text[end - (j + 1) * width : end - j * width]
            stop = end
            while (i := text.rfind("1", 0, stop)) >= 0:
                j = (end - 1 - i) // width
                stop = end - (j + 1) * width
                table[head + (j, t - j)[one:]] = (int(text[stop : stop + width], 2) ^ half) - half
        return RealSparsePoly._from_table(self.n, self.scale, table)


def diagonal_lines(p: RealSparsePoly, room: int, gain: int) -> DiagonalLines:
    """p's lines, wide enough for multipliers of total degree <= room and coefficient sum <= gain.

    The base is room + 1 above p's largest prefix coordinate and tail
    degree, so no digit of a key reaches it.  Each term is one shift and
    one add into its line.
    """
    prefixes, tails, slots = _line_columns(p.table, p.n)
    top = max(tails, default=0)
    base = max([top, *(max(column, default=0) for column in prefixes)]) + room + 1
    values = p.table.values()
    width = (max(max(values, default=0), -min(values, default=0)) * gain).bit_length() + 1
    lines: dict = {}
    get = lines.get
    for key, v in zip(_line_keys(prefixes, tails, base), map(lshift, values, map(mul, slots, repeat(width)))):
        lines[key] = get(key, 0) + v
    return DiagonalLines(p.n, p.scale, base, width, top, room, gain, lines)


def simplex_power_lines(p: RealSparsePoly, d: int) -> DiagonalLines:
    """The lines of p * (x_1 + ... + x_n)^d: d passes of `times_simplex`."""
    if d < 0:
        raise ValueError("power must be nonnegative")
    lines = diagonal_lines(p, d, p.n**d)
    for _ in range(d):
        lines = lines.times_simplex()
    return lines


def multiply_by_simplex_power(p: RealSparsePoly, d: int) -> RealSparsePoly:
    """p times (x_1 + ... + x_n)^d, computed on packed lines."""
    return simplex_power_lines(p, d).poly()


def multiplier_exponents(s, n: int) -> list:
    """The exponent vectors alpha_j of a multiplier sum_j x^{alpha_j}, checked.

    They must be nonempty, distinct, of arity n and nonnegative ints.
    """
    exps = [_exponent_vector(a, n) for a in s]
    if not exps:
        raise ValueError("multiplier must be nonempty")
    if len(set(exps)) != len(exps):
        raise DuplicateMultiplierTerm(f"repeated exponent vector in {exps}")
    return exps


def multiplier_lines(p: RealSparsePoly, s) -> DiagonalLines:
    """The lines of p * sum_j x^{alpha_j}, the alpha_j checked by `multiplier_exponents`."""
    exps = multiplier_exponents(s, p.n)
    return diagonal_lines(p, max(map(sum, exps)), len(exps)).times(exps)


def sign_counts(p: RealSparsePoly) -> SignaturePair:
    """Numbers of strictly positive and strictly negative coefficients."""
    pos = sum(1 for c in p.table.values() if c > 0)
    return SignaturePair(pos, len(p.table) - pos)


def _hermitian_closure(staged: dict) -> dict:
    """The upper triangle (alpha <= beta) of a table of nonzero Gaussian integers, folded and checked in ints.

    A diagonal entry must be real, and an entry given on both sides must be
    the conjugate of its mirror; otherwise NotHermitian.
    """
    table: dict = {}
    for (alpha, beta), (x, y) in staged.items():
        if alpha == beta:
            if y:
                raise NotHermitian(f"diagonal entry at {alpha} is not real")
        elif staged.get((beta, alpha), (x, -y)) != (x, -y):
            raise NotHermitian(f"entries at {(alpha, beta)} and {(beta, alpha)} are not conjugate")
        elif beta < alpha:
            alpha, beta, y = beta, alpha, -y
        table[(alpha, beta)] = (x, y)
    return table


class HermitianPoly(_ScaledTable):
    """Coefficient table of a real-valued polynomial in z and conj(z), as table / scale.

    `table` maps pairs (alpha, beta) of exponent vectors to Gaussian
    integers (re, im), a pair of ints, with alpha <= beta: the entry at
    (beta, alpha) is the conjugate one, and a diagonal entry is real, so the
    represented polynomial is real-valued.  The constructor takes Gaussian
    rationals (or rationals) per pair on either side; `entry()` and
    `items()` (both triangles) build them on demand.
    """

    __slots__ = ()

    def __new__(cls, n: int, entries=None):
        values: dict = {}
        for (alpha, beta), value in (entries or {}).items():
            key = (_exponent_vector(alpha, n), _exponent_vector(beta, n))
            value = _as_gaussian(value)
            if not value.is_zero():
                values[key] = value
        L = lcm(*(x.denominator for v in values.values() for x in (v.re, v.im)))
        staged = {
            key: (v.re.numerator * (L // v.re.denominator), v.im.numerator * (L // v.im.denominator))
            for key, v in values.items()
        }
        return cls._frozen(n, L, _hermitian_closure(staged))

    @classmethod
    def _from_table(cls, n: int, scale: int, table: dict) -> "HermitianPoly":
        """table / scale, for a positive int scale and a table as the class holds it; scale made minimal."""
        g = gcd(scale, *chain.from_iterable(table.values()))
        if g > 1:
            scale //= g
            table = {key: (x // g, y // g) for key, (x, y) in table.items()}
        return cls._frozen(n, scale, table)

    def items(self) -> list:
        keys = chain.from_iterable(((a, b), (b, a)) if a != b else ((a, b),) for a, b in self.table)
        return [(key, self.entry(*key)) for key in keys]

    def entry(self, alpha: MultiIndex, beta: MultiIndex) -> GaussianRational:
        alpha, beta = tuple(alpha), tuple(beta)
        x, y = self.table.get((min(alpha, beta), max(alpha, beta)), (0, 0))
        return GaussianRational(Fraction(x, self.scale), Fraction(y if alpha <= beta else -y, self.scale))

    def is_diagonal(self) -> bool:
        return all(a == b for (a, b) in self.table)

    def __add__(self, other: "HermitianPoly") -> "HermitianPoly":
        if self.n != other.n:
            raise ValueError("variable counts differ")
        m = lcm(self.scale, other.scale)
        f, g = m // self.scale, m // other.scale
        out = {key: (x * f, y * f) for key, (x, y) in self.table.items()}
        for key, (x, y) in other.table.items():
            u, t = out.get(key, (0, 0))
            out[key] = (u + x * g, t + y * g)
        return HermitianPoly._from_table(self.n, m, {key: v for key, v in out.items() if v[0] or v[1]})

    def times(self, c) -> "HermitianPoly":
        """c times the polynomial, for an exact rational c."""
        c = _as_fraction(c)
        k = c.numerator
        table = {key: (x * k, y * k) for key, (x, y) in self.table.items()} if c else {}
        return HermitianPoly._from_table(self.n, self.scale * c.denominator, table)

    def __repr__(self) -> str:
        return f"HermitianPoly(n={self.n}, entries={len(self.table)})"


def real_to_diagonal(p: RealSparsePoly) -> HermitianPoly:
    """Diagonal Hermitian polynomial matching p under x_k = |z_k|^2."""
    return HermitianPoly._from_table(p.n, p.scale, {(a, a): (c, 0) for a, c in p.table.items()})


def diagonal_real_bridge(r: HermitianPoly) -> RealSparsePoly:
    """Real polynomial matching a diagonal Hermitian polynomial."""
    if not r.is_diagonal():
        off = next(k for k in r.table if k[0] != k[1])
        raise NotDiagonal(f"nonzero off-diagonal entry at {off}")
    return RealSparsePoly._from_table(r.n, r.scale, {a: x for (a, _), (x, _) in r.table.items()})


def _shift_table(r: HermitianPoly, exps) -> HermitianPoly:
    """r * sum over delta in exps of |z^delta|^2.

    Its table is T'(alpha + delta, beta + delta) = sum over delta of
    T(alpha, beta), T r's table; zero entries are dropped and the scale
    made minimal.  alpha + delta <= beta + delta when alpha <= beta.
    """
    moved: dict = {}
    for key in r.table:
        for a in key:
            if a not in moved:
                moved[a] = [tuple(map(add, a, delta)) for delta in exps]
    out: dict = {}
    get = out.get
    for (alpha, beta), (x, y) in r.table.items():
        for key in zip(moved[alpha], moved[beta]):
            cur = get(key)
            out[key] = (x, y) if cur is None else (cur[0] + x, cur[1] + y)
    return HermitianPoly._from_table(r.n, r.scale, {key: v for key, v in out.items() if v[0] or v[1]})


def hermitian_powers(r: HermitianPoly):
    """Yield r * |z|^(2d) for d = 0, 1, 2, ..., r itself first.

    Since |z|^2 = |z_1|^2 + ... + |z_n|^2, each step is one shift pass over
    the unit vectors, in Python ints.
    """
    units = [tuple(int(i == k) for i in range(r.n)) for k in range(r.n)]
    while True:
        yield r
        r = _shift_table(r, units)


def hermitian_multiplier_table(r: HermitianPoly, s) -> HermitianPoly:
    """r * sum_j |z^{alpha_j}|^2, the alpha_j checked by `multiplier_exponents`."""
    return _shift_table(r, multiplier_exponents(s, r.n))


# ---------------------------------------------------------------------------
# JSON interchange formats (bit-exact: rationals travel as strings)
#
# Readers accept JSON integers only for "n" and exponents.  Each distinct
# coefficient text of a document is read once by `_ratio`, whose grammar is
# Fraction(text)'s ("1/2", " 1/2 ", "0.5", "1e3", a bare JSON number); the
# table is built over the lcm of their denominators.


def _ratio(text: str) -> tuple:
    """Fraction(text).as_integer_ratio(): (p, q) in lowest terms with q > 0.

    An ASCII text [-]digits[/digits] with a nonzero denominator, as
    `_rational_str` writes it, is read with int() and one gcd; every other
    text goes to Fraction, which sets the grammar and raises its errors.
    """
    num, slash, den = text.partition("/")
    if text.isascii() and (num[1:] if num[:1] == "-" else num).isdigit() and (not slash or den.isdigit()):
        p, q = int(num), int(den) if slash else 1
        if q:
            g = gcd(p, q)
            return p // g, q // g
    return Fraction(text).as_integer_ratio()


def _parse(texts) -> dict:
    """{text: _ratio(text)}, each distinct text read once, in the order given.

    A faulty text raises as it would in a reading one text at a time.
    """
    return {text: _ratio(text) for text in dict.fromkeys(texts)}


def _rational_texts(parsed: dict) -> tuple:
    """(L, {text: p * L // q}) for the parsed texts' (p, q), L the lcm of their denominators."""
    L = lcm(*(den for _, den in parsed.values()))
    return L, {text: num * (L // den) for text, (num, den) in parsed.items()}


def _exponents_sound(vectors: list, n: int) -> bool:
    """Whether every vector has arity n and nonnegative int entries; one pass over them all."""
    flat = list(chain.from_iterable(vectors))
    return set(map(len, vectors)) <= {n} and set(map(type, flat)) <= {int} and min(flat, default=0) >= 0


def _rational_str(c: int, L: int) -> str:
    """str(Fraction(c, L)) for L > 0, without building the Fraction."""
    g = gcd(c, L)
    return str(c // g) if g == L else f"{c // g}/{L // g}"


def poly_to_json(p: RealSparsePoly) -> dict:
    terms = [{"exp": list(alpha), "coef": _rational_str(c, p.scale)} for alpha, c in sorted(p.table.items())]
    return {"n": p.n, "terms": terms}


def poly_from_json(doc) -> RealSparsePoly:
    """Parse {"n", "terms": [{"exp", "coef"}, ...]} in whole passes; repeated terms add up."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    n = _json_int(doc["n"])
    terms = list(doc["terms"])
    try:
        alphas = list(map(tuple, map(itemgetter("exp"), terms)))
        texts = list(map(str, map(itemgetter("coef"), terms)))
        sound = _exponents_sound(alphas, n)
    except (KeyError, TypeError):
        sound = False
    if not sound:  # read again term by term: the first faulty term raises, as it always has
        for t in terms:
            _exponent_vector(t["exp"], n)
            _ratio(str(t["coef"]))
    L, value = _rational_texts(_parse(texts))
    values = list(map(value.__getitem__, texts))
    table = dict(zip(alphas, values))
    if len(table) < len(alphas):
        table = {}
        for alpha, c in zip(alphas, values):
            table[alpha] = table.get(alpha, 0) + c
    if 0 in table.values():
        table = {a: c for a, c in table.items() if c}
    return RealSparsePoly._from_table(n, L, table)


def hermitian_to_json(r: HermitianPoly) -> dict:
    """The stored triangle: the entries at (alpha, beta) with alpha <= beta."""
    L = r.scale
    entries = [
        {"alpha": list(alpha), "beta": list(beta), "re": _rational_str(x, L), "im": _rational_str(y, L)}
        for (alpha, beta), (x, y) in sorted(r.table.items())
    ]
    return {"n": r.n, "entries": entries}


def _first_faulty_entry(entries, n: int) -> None:
    """Read Hermitian entries one by one and raise what the first faulty one raises.

    An entry's alpha, beta, "re" and "im" are checked in that order, and
    an entry that repeats a key with another value raises NotHermitian.
    """
    seen: dict = {}
    for e in entries:
        key = (_exponent_vector(e["alpha"], n), _exponent_vector(e["beta"], n))
        value = _ratio(str(e["re"])), _ratio(str(e.get("im", "0")))
        if seen.setdefault(key, value) != value:
            raise NotHermitian(f"conflicting duplicate entry at {key}")


def hermitian_from_json(doc) -> HermitianPoly:
    """Parse and validate in whole passes; a repeated entry must equal the first, the table must be Hermitian.

    An entry may be given at (alpha, beta), its mirror (beta, alpha) or both.
    A document with a faulty entry is read again entry by entry, so the
    first faulty entry raises, as it would in a reading one entry at a time.
    """
    if isinstance(doc, str):
        doc = json.loads(doc)
    n = _json_int(doc["n"])
    entries = list(doc["entries"])
    try:
        alphas = map(tuple, map(itemgetter("alpha"), entries))
        keys = list(zip(alphas, map(tuple, map(itemgetter("beta"), entries))))
        res = list(map(str, map(itemgetter("re"), entries)))
        ims = [str(e.get("im", "0")) for e in entries]
        sound = _exponents_sound(list(chain.from_iterable(keys)), n)
    except (KeyError, TypeError, AttributeError):
        sound = False
    if not sound:
        _first_faulty_entry(entries, n)
    try:
        L, value = _rational_texts(_parse(chain.from_iterable(zip(res, ims))))
    except (ValueError, ZeroDivisionError):
        _first_faulty_entry(entries, n)  # an earlier conflicting repeat raises first
        raise
    pairs = list(zip(map(value.__getitem__, res), map(value.__getitem__, ims)))
    staged = dict(zip(keys, pairs))
    if len(staged) < len(keys):
        _first_faulty_entry(entries, n)  # a key repeated with another value raises; equal repeats pass
    if (0, 0) in staged.values():
        staged = {key: v for key, v in staged.items() if v != (0, 0)}
    return HermitianPoly._from_table(n, L, _hermitian_closure(staged))
