"""Constructors for the explicit polynomial families with extreme sign ratios.

Every family is built with exact coefficients and is meant to be verified,
not trusted: the test suite re-checks each claimed class membership through
the exact membership routines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    DegreeMismatch,
    DomainTooSmall,
    EpsilonSearchFailed,
    ParamsInfeasible,
)
from .polycore import (
    MultiIndex,
    RealSparsePoly,
    monomials_of_degree,
    total_degree,
)
from .patterns import realize_signs
from .psi import in_psi_diagonal


@dataclass(frozen=True)
class FamilyParams:
    """Parameter bundle for the family constructors.

    Only the fields a family consumes need to be set; build_family validates
    the combination (for instance the two-variable family forces
    D = (d+1) * m when D is given explicitly).
    """

    n: int | None = None
    D: int | None = None
    d: int | None = None
    m: int | None = None
    nu: int | None = None
    k: int | None = None
    lam: Fraction | None = None
    epsilon: object = "auto"  # positive rational or "auto"
    homogenize: bool = False


def build_family(family: str, params: FamilyParams) -> RealSparsePoly:
    """Dispatch a family name to its constructor with validated parameters."""
    if family == "pd":
        if params.n is None or params.D is None:
            raise ParamsInfeasible("dense family needs n and D")
        return generate_pD(params.n, params.D)
    if family == "two-var":
        if params.d is None or params.m is None:
            raise ParamsInfeasible("two-variable family needs d and m")
        if params.D is not None and params.D != (params.d + 1) * params.m:
            raise ParamsInfeasible(
                f"two-variable family requires D = (d+1)m, got D={params.D}"
            )
        return generate_two_var(params.d, params.m)
    if family == "inductive":
        if params.n is None or params.d is None or params.k is None:
            raise ParamsInfeasible("layered family needs n, d and k")
        return generate_inductive(
            params.n, params.d, params.k, params.nu, homogenize=params.homogenize
        )
    if family == "qk":
        if params.n is None or params.k is None:
            raise ParamsInfeasible("separating family needs n and k")
        if params.epsilon == "auto":
            return find_qk_epsilon(params.n, params.k).poly
        return generate_qk(params.n, params.k, Fraction(params.epsilon))
    if family == "lambda":
        if params.lam is None:
            raise ParamsInfeasible("quartic example needs lambda")
        return generate_lambda_example(params.lam)
    if family == "fig2":
        n = 3 if params.n is None else params.n
        return generate_fig2_family(n, 6 if params.D is None else params.D)
    raise ParamsInfeasible(f"unknown family {family!r}")


def gamma(alpha: MultiIndex, D: int, n: int) -> int:
    """Coefficient rule for the dense degree-D family.

    Points with a zero coordinate get n-1.  Interior points get n-1 exactly
    when sum_{k=1}^{n-1} k*alpha_k - D is divisible by n, and -1 otherwise;
    the weighted sums over the contributors of any product monomial then run
    through all residues, which is what makes the simplex product nonnegative.
    """
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise DegreeMismatch(f"{alpha} does not have {n} coordinates")
    if total_degree(alpha) != D:
        raise DegreeMismatch(f"{alpha} does not have total degree {D}")
    return _gamma_rule(alpha, D, n)


def _gamma_rule(alpha: MultiIndex, D: int, n: int) -> int:
    """`gamma` on a point already known to be a degree-D n-vector."""
    return n - 1 if 0 in alpha or _residue_zero(alpha, D, n) else -1


def _residue_zero(alpha: MultiIndex, D: int, n: int) -> bool:
    """Whether sum_{k=1}^{n-1} k*alpha_k - D is divisible by n."""
    weighted = sum((k + 1) * alpha[k] for k in range(n - 1))
    return (weighted - D) % n == 0


def _check_dense_params(n: int, D: int) -> None:
    if n < 2:
        raise ParamsInfeasible("need at least two variables")
    if D < 1:
        raise ParamsInfeasible("degree must be at least 1")


def generate_pD(n: int, D: int) -> RealSparsePoly:
    """Full-support variant of the dense degree-D family.

    Every lattice point carries gamma(alpha, D, n), so the whole boundary is
    positive and the ratio climbs towards n-1 only slowly (2976/1777 at
    n=3, D=96).  The paper's own Figure-2 family, with a thinner boundary,
    is generate_fig2_family.
    """
    _check_dense_params(n, D)
    terms = {a: _gamma_rule(a, D, n) for a in monomials_of_degree(n, D)}
    return RealSparsePoly._from_table(n, 1, terms)


def generate_fig2_family(n: int, D: int) -> RealSparsePoly:
    """The paper's dense degree-D family, of which Figure 2 is (n, D) = (3, 6).

    Call alpha on-residue when sum_{k=1}^{n-1} k*alpha_k - D is divisible by
    n.  An interior point gets n-1 on-residue and -1 otherwise; a point with
    exactly one zero coordinate gets n-1 on-residue and is absent otherwise;
    a point with two or more zero coordinates is absent.

    The product with x_1 + ... + x_n is nonnegative for every n >= 2 and
    D >= 1.  A product monomial beta with a zero coordinate only receives
    contributions beta - e_i that also have a zero coordinate, and those are
    never negative.  An interior beta has all n contributors beta - e_i,
    whose residues w-1, ..., w-(n-1), w are pairwise distinct; exactly one
    is on-residue and brings n-1, each other one brings -1 or nothing.
    """
    _check_dense_params(n, D)
    terms = {}
    for a in monomials_of_degree(n, D):
        zeros = a.count(0)
        if zeros > 1:
            continue
        if _residue_zero(a, D, n):
            terms[a] = n - 1
        elif zeros == 0:
            terms[a] = -1
    return RealSparsePoly._from_table(n, 1, terms)


def pD_ratio_lower_bound(n: int, D: int) -> Fraction:
    """Exact lower bound on generate_pD's negative/positive ratio.

    Valid for D > 3n, where the interior dominates; tends to n-1 as D grows.
    """
    if D <= 3 * n:
        raise DomainTooSmall(f"bound requires D > 3n (got D={D}, n={n})")
    interior_neg = Fraction(n - 1, n) * comb(D - n, n - 1)
    return interior_neg / (comb(D + n - 1, n - 1) - interior_neg)


def generate_two_var(d: int, m: int) -> RealSparsePoly:
    """Two-variable family of degree D = (d+1)m for multiplier power d.

    Coefficients are 2^d - 1 at positions j divisible by d+1 and -1
    elsewhere, so the negative/positive count ratio is exactly
    d*D / (D + d + 1).
    """
    if d < 1 or m < 1:
        raise ParamsInfeasible("need d >= 1 and m >= 1")
    D = (d + 1) * m
    terms = {
        (D - j, j): Fraction(2**d - 1 if j % (d + 1) == 0 else -1)
        for j in range(D + 1)
    }
    return RealSparsePoly(2, terms)


def _base_row_signs(d: int, k: int) -> dict:
    """One-coordinate sign pattern for power d: positives every d+1 steps."""
    spacing = d + 1
    length = spacing * max(2, k // spacing)
    return {(i,): (1 if i % spacing == 0 else -1) for i in range(length + 1)}


def _box_points(box):
    if not box:
        yield ()
        return
    for i in range(box[0] + 1):
        for rest in _box_points(box[1:]):
            yield (i,) + rest


def _layered_signs(m: int, d: int, nu, k: int) -> dict:
    """Dehomogenized sign pattern in m coordinates for multiplier power d.

    Layers along the last coordinate: every (nu+1)-th inner layer repeats the
    (m-1)-coordinate pattern for power d-nu, the other inner layers are
    all-negative boxes pulled back from every face by d, and the two boundary
    layers are all-positive.  The pullback keeps every product monomial that
    sees one of those negatives within reach of a positive layer.
    """
    if m == 1:
        return _base_row_signs(d, k)
    nu_eff = d // 2 if nu is None else nu
    if not (0 <= nu_eff < d):
        raise ParamsInfeasible(f"need 0 <= nu < d (got nu={nu_eff}, d={d})")
    if k < 2 * (nu_eff + 1):
        raise ParamsInfeasible(f"need k >= 2(nu+1) (got k={k}, nu={nu_eff})")
    sub = _layered_signs(m - 1, d - nu_eff, None, k)
    box = tuple(max(p[i] for p in sub) for i in range(m - 1))
    full_box = list(_box_points(box))
    neg_box = [p for p in full_box if all(p[i] <= box[i] - d for i in range(m - 1))]
    out = {}
    for j in range(k + 1):
        if j == 0 or j == k:
            for p in full_box:
                out[p + (j,)] = 1
        elif j % (nu_eff + 1) == 0:
            for p, s in sub.items():
                out[p + (j,)] = s
        else:
            for p in neg_box:
                out[p + (j,)] = -1
    return out


def generate_inductive(
    n: int, d: int, k: int, nu=None, homogenize: bool = False
) -> RealSparsePoly:
    """Layered family for power d with ratio growing like d^(n-1).

    Returns the polynomial in the n-1 dehomogenized variables by default;
    with homogenize=True the last variable is restored, giving a homogeneous
    class member.  nu is the layer-skip parameter (None picks floor(d/2) at
    every level; an explicit value applies to the top level only).
    """
    if n < 3:
        raise ParamsInfeasible("the layered construction needs n >= 3")
    if d < 1:
        raise ParamsInfeasible("need d >= 1")
    nu_top = d // 2 if nu is None else nu
    if not (0 <= nu_top < d):
        raise ParamsInfeasible(f"need 0 <= nu < d (got nu={nu_top}, d={d})")
    if k < 2 * (nu_top + 1):
        raise ParamsInfeasible(f"need k >= 2(nu+1) (got k={k}, nu={nu_top})")
    signs = _layered_signs(n - 1, d, nu_top, k)
    D = max(total_degree(p) for p in signs)
    homog = {p + (D - total_degree(p),): s for p, s in signs.items()}
    poly = realize_signs(homog, n, d)
    if homogenize:
        return poly
    return dehomogenize(poly)


def dehomogenize(p: RealSparsePoly) -> RealSparsePoly:
    """Drop the last variable (set it to 1)."""
    if p.n < 2:
        raise ValueError("need at least two variables to dehomogenize")
    out: dict = {}
    for alpha, c in p.items():
        key = alpha[:-1]
        out[key] = out.get(key, Fraction(0)) + c
    return RealSparsePoly(p.n - 1, out)


def homogenize(p: RealSparsePoly) -> RealSparsePoly:
    """Append one variable soaking up the degree deficit."""
    if p.is_zero():
        return RealSparsePoly(p.n + 1, {})
    D = p.degree
    return RealSparsePoly(
        p.n + 1, {a + (D - total_degree(a),): c for a, c in p.items()}
    )


def generate_qk(n: int, k: int, epsilon) -> RealSparsePoly:
    """Separating family member: two pure powers, a fan of mixed terms, and
    one small negative term."""
    if n < 3:
        raise ParamsInfeasible("the separating family needs n >= 3")
    if k < 2:
        raise ParamsInfeasible("need k >= 2")
    eps = Fraction(epsilon)
    if eps <= 0:
        raise ParamsInfeasible("epsilon must be positive")
    terms: dict = {}
    first = [0] * n
    first[0] = k
    terms[tuple(first)] = Fraction(1)
    second = [0] * n
    second[1] = k
    terms[tuple(second)] = Fraction(1)
    for j in range(2, n):
        key = [0] * n
        key[1] = k - 1
        key[j] = 1
        terms[tuple(key)] = Fraction(1)
    neg = [0] * n
    neg[0], neg[1] = 1, k - 1
    terms[tuple(neg)] = terms.get(tuple(neg), Fraction(0)) - eps
    return RealSparsePoly(n, terms)


EPSILON_FLOOR = Fraction(1, 2**20)


@dataclass(frozen=True)
class QkSearchReport:
    """Found coefficient and the multiplier power at which membership holds."""

    poly: RealSparsePoly
    epsilon: Fraction
    power: int


def find_qk_epsilon(n: int, k: int) -> QkSearchReport:
    """Halve the negative coefficient from 1 until membership appears.

    The expected power is k-1; if no coefficient above the floor works
    there, the search retries at power k before giving up.
    """
    for power in (k - 1, k):
        eps = Fraction(1)
        while eps >= EPSILON_FLOOR:
            candidate = generate_qk(n, k, eps)
            if in_psi_diagonal(candidate, power).member:
                return QkSearchReport(candidate, eps, power)
            eps /= 2
    raise EpsilonSearchFailed(
        f"no epsilon >= {EPSILON_FLOOR} admits membership at power <= {k}"
    )


def generate_lambda_example(lam) -> RealSparsePoly:
    """Quartic two-variable example: (x+y)^4 minus lam * x^2 y^2."""
    lam = Fraction(lam)
    terms = {(4 - j, j): Fraction(comb(4, j)) for j in range(5)}
    terms[(2, 2)] -= lam
    return RealSparsePoly(2, terms)


def lambda_in_positive_regime(lam) -> bool:
    """Whether the quartic example is strictly positive on the simplex x+y=1."""
    return Fraction(lam) < 16


def example_fig2() -> RealSparsePoly:
    """The 13-term degree-6 polynomial with seven positive and six negative terms."""
    plus = [
        (1, 1, 4),
        (3, 0, 3),
        (0, 3, 3),
        (2, 2, 2),
        (4, 1, 1),
        (1, 4, 1),
        (3, 3, 0),
    ]
    minus = [
        (2, 1, 3),
        (1, 2, 3),
        (3, 1, 2),
        (1, 3, 2),
        (3, 2, 1),
        (2, 3, 1),
    ]
    terms = {a: Fraction(2) for a in plus}
    terms.update({a: Fraction(-1) for a in minus})
    return RealSparsePoly(3, terms)


def example_fig1() -> RealSparsePoly:
    """Quadratic in three variables with a single negative term."""
    return RealSparsePoly(
        3,
        {
            (2, 0, 0): Fraction(1),
            (0, 2, 0): Fraction(1),
            (1, 0, 1): Fraction(1),
            (1, 1, 0): Fraction(-1),
        },
    )
