"""Membership tests for the squared-norm positivity classes.

A real-valued bihomogeneous polynomial r sits in class d when r times the
d-th power of the squared norm is a squared norm of holomorphic polynomials.
Diagonal inputs reduce to coefficient nonnegativity of an exact product;
general inputs reduce to positive semidefiniteness of an exact coefficient
matrix.  Both routes produce checkable certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice

from .errors import CapExceeded
from .inertia import congruence_factorization, negative_direction, table_quadratic_form
from .polycore import (
    HermitianPoly,
    MultiIndex,
    RealSparsePoly,
    diagonal_multiplier_table,
    diagonal_real_bridge,
    hermitian_multiplier_table,
    hermitian_powers,
    packed_simplex_power,
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

    (True, PsdCertificate) or (False, NegativeDirectionWitness); the
    witness value is evaluated again on the table.
    """
    fact = congruence_factorization(scaled)
    found = negative_direction(fact, lambda v: table_quadratic_form(scaled, fact.basis, v))
    if found is None:
        return True, PsdCertificate(fact, fact.basis)
    vector, value = found
    return False, NegativeDirectionWitness(vector, fact.basis, value)


def in_psi_hermitian(r: HermitianPoly, d: int) -> PsiReport:
    """General membership: the product coefficient matrix must be PSD, exactly."""
    if d < 0:
        raise ValueError("power must be nonnegative")
    if r.is_zero():
        return PsiReport(d, True, NonnegativeProductCertificate(r.n, (1, {}, list)))
    member, cert = _psd_verdict(next(islice(hermitian_powers(r), d, None)))
    return PsiReport(d, member, cert)


def in_psi(obj, d: int) -> PsiReport:
    """Dispatch on input kind; the diagonal route is the fast exact path."""
    if isinstance(obj, RealSparsePoly):
        return in_psi_diagonal(obj, d)
    if isinstance(obj, HermitianPoly):
        if obj.is_diagonal():
            return in_psi_diagonal(diagonal_real_bridge(obj), d)
        return in_psi_hermitian(obj, d)
    raise TypeError(f"cannot test membership for {type(obj).__name__}")


def min_psi_index(obj, d_max: int = DEFAULT_POWER_CAP) -> int | None:
    """Smallest power d <= d_max giving membership, or None if none does.

    Classes are nested (multiplying by one more simplex factor preserves
    nonnegativity and PSD-ness), so the first success is the minimum.
    Diagonal input walks the simplex powers once, one convolution pass per
    power; other Hermitian input walks the squared-norm powers once, one
    shift pass per power, factoring each product matrix.
    """
    if d_max > HARD_POWER_CAP:
        raise CapExceeded(f"power cap {d_max} exceeds hard limit {HARD_POWER_CAP}")
    if d_max < 0:
        raise ValueError("cap must be nonnegative")
    if isinstance(obj, HermitianPoly) and obj.is_diagonal():
        obj = diagonal_real_bridge(obj)
    if isinstance(obj, RealSparsePoly):
        for d, (_, codes, _) in enumerate(simplex_powers(obj, d_max)):
            if all(c > 0 for c in codes.values()):  # zeros are never stored
                return d
        return None
    if isinstance(obj, HermitianPoly):
        for d, scaled in zip(range(d_max + 1), hermitian_powers(obj)):
            if _psd_verdict(scaled)[0]:
                return d
        return None
    raise TypeError(f"cannot test membership for {type(obj).__name__}")


def in_psi_general_multiplier(obj, s) -> PsiReport:
    """Membership of r * sum_j |z^{alpha_j}|^2 among squared norms."""
    exps = [tuple(a) for a in s]
    if isinstance(obj, HermitianPoly) and obj.is_diagonal():
        obj = diagonal_real_bridge(obj)
    if isinstance(obj, RealSparsePoly):
        return _nonnegative_verdict(obj.n, diagonal_multiplier_table(obj, exps), None, tuple(exps))
    if isinstance(obj, HermitianPoly):
        member, cert = _psd_verdict(hermitian_multiplier_table(obj, exps))
        return PsiReport(None, member, cert, multiplier=tuple(exps))
    raise TypeError(f"cannot test membership for {type(obj).__name__}")
