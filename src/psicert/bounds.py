"""Signature-ratio ceilings and the constructive pigeonhole certificate.

For power 1 the ratio of negative to positive squares is below n-1; for
power d it is below binom(n-1+d, d) - 1.  The pigeonhole certificate makes
the power-1 diagonal bound constructive: it maps each negative monomial to a
positive neighbor so that no positive monomial is hit more than n-1 times
and the least monomial is never hit at all.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import CertificateFailure, NotInPsiD
from .polycore import MultiIndex, RealSparsePoly, SignaturePair, _packed, simplex_power_lines


@dataclass(frozen=True)
class BoundReport:
    n: int
    d: int
    signature: SignaturePair
    bound: Fraction
    satisfied: bool
    strict: bool


def ratio_ceiling(n: int, d: int) -> Fraction:
    """The proven strict upper bound on N-/N+ at multiplier power d.

    binom(n-1+d, d) - 1, which is n-1 at d = 1.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 and d >= 1")
    return Fraction(comb(n - 1 + d, d) - 1)


def verify_ratio_bound(sig: SignaturePair, n: int, d: int) -> BoundReport:
    """Check a signature pair against the ceiling; the inequality is strict."""
    bound = ratio_ceiling(n, d)
    if sig.n_plus == 0:
        satisfied = sig.n_minus == 0
    else:
        satisfied = Fraction(sig.n_minus, sig.n_plus) < bound
    return BoundReport(n, d, sig, bound, satisfied, strict=True)


@dataclass(frozen=True)
class PigeonholeCertificate:
    """Map from negative to positive support with small fibers.

    Fibers have at most n-1 elements and the least support monomial (which
    is always positive for a member) has an empty fiber, which forces
    N- < (n-1) * N+.
    """

    assignment: tuple  # ordered pairs (negative alpha, positive beta)
    max_fiber: int
    least_monomial: MultiIndex

    def fiber_sizes(self) -> dict:
        sizes: dict = {}
        for _, beta in self.assignment:
            sizes[beta] = sizes.get(beta, 0) + 1
        return sizes


def pigeonhole_certificate(p: RealSparsePoly) -> PigeonholeCertificate:
    """Construct the assignment for a homogeneous power-1 member.

    Each negative monomial alpha is pushed one step along the first
    variable; nonnegativity of the product coefficient there forces a
    positive contributor alpha + e_1 - e_j for some j >= 2, and the least
    such j is chosen.  Preimages of any beta sit among beta - e_1 + e_j, so
    fibers have at most n-1 elements, and every candidate preimage of the
    least support monomial falls below it in the monomial order.  A zero,
    non-homogeneous or non-member input raises NotInPsiD.  Homogeneity and
    the verdict are read off the lines of p * (x_1 + ... + x_n): their
    degrees, each one above a degree of p, and the mask test.  The search
    reads p packed once, and the answer is looked up in the map from each
    code back to the exponent vector it packs.
    """
    if p.is_zero():
        raise NotInPsiD("zero polynomial has no certificate")
    product = simplex_power_lines(p, 1)
    degrees = product.degrees()
    if len(degrees) > 1:
        raise NotInPsiD("certificate requires a homogeneous polynomial")
    n, degree = p.n, degrees.pop() - 1
    if not product.is_nonnegative():
        raise NotInPsiD("certificate requires membership at power 1")
    code, _, codes = _packed(p, degree, 1)
    vector = dict(zip(codes, p.table))  # codes packs p.table's keys in order
    units = [code(tuple(int(i == k) for i in range(n))) for k in range(n)]
    pos = {c for c, v in codes.items() if v > 0}
    neg = sorted(c for c, v in codes.items() if v < 0)  # int order is tuple order
    # alpha + e_1 - e_j is code + steps[j - 2].  Where alpha_j = 0 the subtraction borrows: digit j
    # becomes B - 1 = degree + 1, above every support coordinate, so the lookup misses as it must.
    steps = [units[0] - u for u in units[1:]]
    targets = []
    for c in neg:
        for step in steps:
            if c + step in pos:
                targets.append(c + step)
                break
        else:
            raise CertificateFailure(
                f"no positive contributor for {vector[c]}; membership verification is inconsistent"
            )

    sizes = Counter(targets)
    max_fiber = max(sizes.values(), default=0)
    if max_fiber > n - 1:
        raise CertificateFailure("a fiber exceeded n-1; construction is inconsistent")

    least = min(codes)
    if least not in pos:
        raise CertificateFailure("least support monomial is not positive")
    if sizes[least] != 0:
        raise CertificateFailure("least positive monomial has a nonempty fiber")
    assignment = tuple(zip(map(vector.__getitem__, neg), map(vector.__getitem__, targets)))
    return PigeonholeCertificate(assignment, max_fiber, vector[least])
