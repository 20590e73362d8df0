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
from itertools import islice

from .errors import CapExceeded, CertificateFailure
from .inertia import congruence_factorization, table_quadratic_form
from .polycore import (
    HermitianPoly,
    MultiIndex,
    RealSparsePoly,
    SignaturePair,
    diagonal_multiplier_table,
    diagonal_real_bridge,
    hermitian_multiplier_table,
    hermitian_powers,
    packed_simplex_power,
    sign_counts,
    simplex_powers,
    unpack_table,
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
    """The diagonal product, packed as (L, codes, decode) and decoded on first access to `product`."""

    n: int
    packed: tuple

    @cached_property
    def product(self) -> RealSparsePoly:
        return RealSparsePoly._from_table(self.n, *unpack_table(*self.packed))


@dataclass(frozen=True)
class PsdCertificate:
    """Exact congruence factorization of the product coefficient matrix."""

    factorization: object
    basis: tuple


@dataclass(frozen=True)
class PsiReport:
    """Outcome of a membership test at a fixed multiplier power."""

    d: int | None
    member: bool
    certificate: object
    multiplier: tuple | None = None


def _nonnegative_verdict(n: int, packed: tuple, d, multiplier=None) -> PsiReport:
    """Verdict on a packed product table (L, codes, decode): member iff no entry is negative.

    The witness is the least negative monomial, valued codes[k] / L: int
    order on the codes is tuple order, so only that code is decoded.  A
    member's certificate keeps the packed product.
    """
    L, codes, decode = packed
    worst = min((k for k, c in codes.items() if c < 0), default=None)
    if worst is not None:
        witness = NegativeCoefficientWitness(decode([worst])[0], Fraction(codes[worst], L))
        return PsiReport(d, False, witness, multiplier)
    return PsiReport(d, True, NonnegativeProductCertificate(n, packed), multiplier)


def in_psi_diagonal(p: RealSparsePoly, d: int) -> PsiReport:
    """Diagonal membership: every coefficient of p times the simplex power is >= 0."""
    return _nonnegative_verdict(p.n, packed_simplex_power(p, d), d)


def _psd_verdict(scaled: tuple) -> tuple:
    """Factor the product table (L, table) once.

    (True, PsdCertificate) or (False, NegativeDirectionWitness).  The
    witness is the transform column of the first negative pivot; its value
    v* M v is evaluated again on the table rather than read off the
    factorization, and a value that is not negative raises
    CertificateFailure.
    """
    fact = congruence_factorization(scaled)
    k = next((k for k, (num, den) in enumerate(fact.pivots) if num and (num > 0) != (den > 0)), None)
    if k is None:
        return True, PsdCertificate(fact, fact.basis)
    v = fact.integer_column(k)
    value = table_quadratic_form(scaled, fact.basis, v)
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
    pos, neg, _zero = congruence_factorization((obj.scale, obj.table)).inertia
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
    Diagonal input walks the simplex powers once, one convolution pass per
    power; other Hermitian input walks the squared-norm powers once, one
    shift pass per power, factoring each product matrix and reading only
    its inertia: the answer is a power, so no witness is built.
    """
    if d_max > HARD_POWER_CAP:
        raise CapExceeded(f"power cap {d_max} exceeds hard limit {HARD_POWER_CAP}")
    if d_max < 0:
        raise ValueError("cap must be nonnegative")
    obj = _routed(obj)
    if isinstance(obj, RealSparsePoly):
        for d, (_, codes, _) in enumerate(simplex_powers(obj, d_max)):
            if all(c > 0 for c in codes.values()):  # zeros are never stored
                return d
        return None
    for d, scaled in zip(range(d_max + 1), hermitian_powers(obj)):
        if congruence_factorization(scaled).inertia[1] == 0:
            return d
    return None


def in_psi_general_multiplier(obj, s) -> PsiReport:
    """Membership of r * sum_j |z^{alpha_j}|^2 among squared norms."""
    exps = [tuple(a) for a in s]
    obj = _routed(obj)
    if isinstance(obj, RealSparsePoly):
        return _nonnegative_verdict(obj.n, diagonal_multiplier_table(obj, exps), None, tuple(exps))
    member, cert = _psd_verdict(hermitian_multiplier_table(obj, exps))
    return PsiReport(None, member, cert, multiplier=tuple(exps))
