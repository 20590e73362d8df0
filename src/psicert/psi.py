"""Membership tests for the squared-norm positivity classes.

A real-valued bihomogeneous polynomial r sits in class d when r times the
d-th power of the squared norm is a squared norm of holomorphic polynomials.
Diagonal inputs reduce to coefficient nonnegativity of an exact product;
general inputs reduce to positive semidefiniteness of an exact coefficient
matrix.  Both routes produce checkable certificates.  `_routed` is the one
place that picks the route, for membership and for the signature alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, islice
from math import gcd

from .errors import CapExceeded, CertificateFailure
from .inertia import congruence_factorization, psd_factorization, table_quadratic_form
from .polycore import (
    HermitianPoly,
    MultiIndex,
    RealSparsePoly,
    SignaturePair,
    diagonal_lines,
    diagonal_real_bridge,
    hermitian_multiplier_table,
    hermitian_powers,
    multiplier_lines,
    sign_counts,
    simplex_power_lines,
)

HARD_POWER_CAP = 64
DEFAULT_POWER_CAP = 16


@dataclass(frozen=True)
class NegativeCoefficientWitness:
    """A product monomial whose coefficient came out negative."""

    monomial: MultiIndex
    value: Fraction


@dataclass(frozen=True)
class NegativeDirectionWitness:
    """A vector v with v* C v < 0 on the product coefficient matrix."""

    vector: tuple  # (re, im) int pairs over `basis`
    basis: tuple
    value: Fraction


@dataclass(frozen=True, eq=False)
class NonnegativeProductCertificate:
    """The diagonal product, decoded on first access to `product`.

    `held` is p itself at power 0, else the polycore.DiagonalLines of the product.
    """

    held: object

    @cached_property
    def product(self) -> RealSparsePoly:
        held = self.held
        return held if isinstance(held, RealSparsePoly) else held.poly()


@dataclass(frozen=True)
class PsiReport:
    """Outcome of a membership test at a fixed multiplier power.

    A member's certificate is a NonnegativeProductCertificate (diagonal
    route) or the inertia.CongruenceFactorization of the product matrix; a
    non-member's is a NegativeCoefficientWitness or NegativeDirectionWitness.
    """

    d: int | None
    member: bool
    certificate: object
    multiplier: tuple | None = None


def _nonnegative_verdict(held, d, multiplier=None) -> PsiReport:
    """Verdict on a diagonal product: member iff no coefficient is negative.

    `held` is p itself (power 0) or the product's lines.  The witness is the
    least negative monomial in tuple order, valued at its coefficient over
    p's scale; a member's certificate keeps what was held.
    """
    if isinstance(held, RealSparsePoly):
        table = held.table
        monomial = min([a for a, c in table.items() if c < 0], default=None)
        worst = None if monomial is None else (monomial, table[monomial])
    else:
        worst = held.least_negative()
    if worst is not None:
        monomial, c = worst
        return PsiReport(d, False, NegativeCoefficientWitness(monomial, Fraction(c, held.scale)), multiplier)
    return PsiReport(d, True, NonnegativeProductCertificate(held), multiplier)


def in_psi_diagonal(p: RealSparsePoly, d: int) -> PsiReport:
    """Diagonal membership: every coefficient of p times the simplex power is >= 0.

    Power 0 reads p's own table; a higher power is read off the product's lines.
    """
    return _nonnegative_verdict(p if d == 0 else simplex_power_lines(p, d), d)


def _psd_verdict(product: HermitianPoly) -> tuple:
    """Factor the product's coefficient matrix up to its first negative pivot.

    (True, CongruenceFactorization) or (False, NegativeDirectionWitness).  The
    witness is the transform column of the negative pivot divided by its
    content, the gcd of its real and imaginary parts; its value v* M v is
    evaluated again on the product's table rather than read off the
    factorization, and a value that is not negative raises
    CertificateFailure.
    """
    fact = psd_factorization(product)
    if not fact.inertia[1]:
        return True, fact
    k = len(fact.pivots) - 1
    v = fact.integer_column(k)
    g = gcd(*chain.from_iterable(v))
    v = tuple((a // g, b // g) for a, b in v)
    value = table_quadratic_form(product, fact.basis, v)
    if value >= 0:
        raise CertificateFailure(f"negative pivot {k} gives v* M v = {value} >= 0")
    return False, NegativeDirectionWitness(v, fact.basis, value)


def in_psi_hermitian(r: HermitianPoly, d: int) -> PsiReport:
    """General membership: the product coefficient matrix must be PSD, exactly."""
    if d < 0:
        raise ValueError("power must be nonnegative")
    member, cert = _psd_verdict(next(islice(hermitian_powers(r), d, None)))
    return PsiReport(d, member, cert)


def _routed(obj):
    """obj as its route takes it: a RealSparsePoly for the diagonal route, else a HermitianPoly.

    A diagonal HermitianPoly is bridged to its real polynomial; any other
    type raises TypeError.
    """
    if isinstance(obj, HermitianPoly) and obj.is_diagonal():
        return diagonal_real_bridge(obj)
    if isinstance(obj, (RealSparsePoly, HermitianPoly)):
        return obj
    raise TypeError(f"cannot test membership for {type(obj).__name__}")


def signature(obj) -> SignaturePair:
    """(N+, N-) of obj: sign counts on the diagonal route, else the inertia of r's own matrix."""
    obj = _routed(obj)
    if isinstance(obj, RealSparsePoly):
        return sign_counts(obj)
    pos, neg, _zero = congruence_factorization(obj).inertia
    return SignaturePair(pos, neg)


def in_psi(obj, d: int) -> PsiReport:
    """Dispatch on input kind; the diagonal route is the fast exact path."""
    obj = _routed(obj)
    if isinstance(obj, RealSparsePoly):
        return in_psi_diagonal(obj, d)
    return in_psi_hermitian(obj, d)


def min_psi_index(obj, d_max: int = DEFAULT_POWER_CAP) -> int | None:
    """Smallest power d <= d_max giving membership, or None if none does.

    Classes are nested (multiplying by one more simplex factor preserves
    nonnegativity and PSD-ness), so the first success is the minimum.
    Diagonal input answers power 0 from p's own table, building nothing;
    past it, p's lines are built once, wide enough for d_max, and each power
    is one `times_simplex` (a shift and add per line) and a mask test.
    Other Hermitian input walks the squared-norm powers once, one shift pass
    per power, factoring each product matrix up to its first negative pivot.
    The answer is a power, so no witness is built.
    """
    if d_max > HARD_POWER_CAP:
        raise CapExceeded(f"power cap {d_max} exceeds hard limit {HARD_POWER_CAP}")
    if d_max < 0:
        raise ValueError("cap must be nonnegative")
    obj = _routed(obj)
    if isinstance(obj, RealSparsePoly):
        if min(obj.table.values(), default=0) >= 0:
            return 0
        if d_max == 0:
            return None
        lines = diagonal_lines(obj, d_max, obj.n**d_max)
        for d in range(1, d_max + 1):
            lines = lines.times_simplex()
            if lines.is_nonnegative():
                return d
        return None
    for d, product in zip(range(d_max + 1), hermitian_powers(obj)):
        if not psd_factorization(product).inertia[1]:
            return d
    return None


def in_psi_general_multiplier(obj, s) -> PsiReport:
    """Membership of r * sum_j |z^{alpha_j}|^2 among squared norms."""
    exps = [tuple(a) for a in s]
    obj = _routed(obj)
    if isinstance(obj, RealSparsePoly):
        return _nonnegative_verdict(multiplier_lines(obj, exps), None, tuple(exps))
    member, cert = _psd_verdict(hermitian_multiplier_table(obj, exps))
    return PsiReport(None, member, cert, multiplier=tuple(exps))
