"""Signature-preserving reduction to partial row-echelon form.

A decomposed form represents r as a difference of squared norms of two row
blocks applied to the monomial vector.  Unitary row operations inside each
block, rational scalings of the whole negative block, and hyperbolic 2x2
rotations across blocks all preserve the represented polynomial's signature;
chaining them drives the stacked matrix into partial row-echelon form
(distinct leading columns after a row permutation).

Rotation entries are irrational, so this module works in floating point with
fixed tolerances.  The exact origin polynomial is kept for signature checks,
and the running reduction target (the origin with its negative block
rationally rescaled, step by step) is tracked as a float matrix: rotations
and unitary moves leave it untouched, rescales update it by an exact-rational
multiple of the current negative block.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CertificateFailure,
    LambdaOutOfRange,
    NotInPsiD,
    NumericalBreakdown,
    PivotDominanceViolated,
)
from .inertia import (
    HolomorphicDecomposition,
    holomorphic_decomposition,
    recompose,
)
from .polycore import HermitianPoly
from .psi import in_psi_hermitian

LOCAL_TOL = 1e-12  # rotation identities
RECON_TOL = 1e-9  # global reconstruction
PIVOT_FLOOR = 1e-10  # pivot magnitude relative to its row norm


@dataclass
class DecomposedForm:
    """r == ||A Z||^2 - ||B Z||^2 over an ordered monomial basis.

    plus_rows and minus_rows are float matrices.  `origin` holds the exact
    polynomial the form came from; `exact` its signed-squares decomposition,
    valid as a split only while no cross-block rotation has mixed the rows
    (`split_faithful`).  `target` is the float coefficient matrix the rows
    are expected to reconstruct, kept current through rational rescales.
    """

    plus_rows: np.ndarray
    minus_rows: np.ndarray
    basis: tuple
    origin: HermitianPoly | None = None
    exact: HolomorphicDecomposition | None = None
    target: np.ndarray | None = None
    split_faithful: bool = False
    lambda_degenerate: bool = False

    @property
    def n_plus(self) -> int:
        return int(self.plus_rows.shape[0])

    @property
    def n_minus(self) -> int:
        return int(self.minus_rows.shape[0])

    def hermitian_float(self) -> np.ndarray:
        """Coefficient matrix of the represented form, in floats."""
        dim = len(self.basis)
        out = np.zeros((dim, dim), dtype=complex)
        if self.plus_rows.size:
            out += self.plus_rows.conj().T @ self.plus_rows
        if self.minus_rows.size:
            out -= self.minus_rows.conj().T @ self.minus_rows
        return out


def _origin_float_matrix(origin: HermitianPoly, basis) -> np.ndarray:
    dim = len(basis)
    pos = {b: i for i, b in enumerate(basis)}
    out = np.zeros((dim, dim), dtype=complex)
    for (a, b), v in origin.items():
        out[pos[a], pos[b]] = complex(v)
    return out


def _rows_to_float(rows, scales, dim) -> np.ndarray:
    out = np.zeros((len(rows), dim), dtype=complex)
    for i, (row, scale) in enumerate(zip(rows, scales)):
        s = math.sqrt(float(scale))
        for j, c in enumerate(row):
            out[i, j] = s * complex(c)
    return out


def decompose(r: HermitianPoly) -> DecomposedForm:
    """Exact decomposition converted to a float form with the origin attached."""
    dec = holomorphic_decomposition(r)
    dim = len(dec.basis)
    return DecomposedForm(
        plus_rows=_rows_to_float(dec.plus_rows, dec.plus_scales, dim),
        minus_rows=_rows_to_float(dec.minus_rows, dec.minus_scales, dim),
        basis=dec.basis,
        origin=r,
        exact=dec,
        target=_origin_float_matrix(r, dec.basis),
        split_faithful=True,
    )


def lambda_scale(form: DecomposedForm, lam) -> DecomposedForm:
    """Scale the negative block by sqrt(lam); the represented form changes to
    (positive part) - lam * (negative part).

    Membership at power 1 survives any lam in [0, 1]: the removed negative
    mass reappears as extra squares.  On a split-faithful form the exact
    origin is rewritten and, when the input was a member, the result is
    re-verified exactly rather than assumed.
    """
    lam = Fraction(lam)
    if not (0 <= lam <= 1):
        raise LambdaOutOfRange(f"lambda must be in [0, 1], got {lam}")
    root = math.sqrt(float(lam))
    dim = len(form.basis)
    neg_gram = (
        form.minus_rows.conj().T @ form.minus_rows
        if form.minus_rows.size
        else np.zeros((dim, dim), dtype=complex)
    )
    if lam == 0:
        minus = np.zeros((0, dim), dtype=complex)
    else:
        minus = form.minus_rows * root
    target = None
    if form.target is not None:
        target = form.target + (1.0 - float(lam)) * neg_gram

    origin = form.origin
    exact = form.exact
    if form.split_faithful and exact is not None:
        if lam == 0:
            exact = HolomorphicDecomposition(
                exact.plus_rows, (), exact.plus_scales, (), exact.basis
            )
        else:
            exact = HolomorphicDecomposition(
                exact.plus_rows,
                exact.minus_rows,
                exact.plus_scales,
                tuple(s * lam for s in exact.minus_scales),
                exact.basis,
            )
        new_origin = recompose(exact)
        if origin is not None and lam > 0:
            if in_psi_hermitian(origin, 1).member:
                if not in_psi_hermitian(new_origin, 1).member:
                    raise CertificateFailure("membership lost under a rational rescale")
        origin = new_origin
    return DecomposedForm(
        plus_rows=form.plus_rows.copy(),
        minus_rows=minus,
        basis=form.basis,
        origin=origin,
        exact=exact,
        target=target,
        split_faithful=form.split_faithful,
        lambda_degenerate=(lam == 0),
    )


@dataclass(frozen=True)
class HyperbolicStep:
    """One 2x2 rotation preserving the (1, -1) inner product."""

    t: tuple  # ((t11, t12), (t21, t22)) complex
    pivot_col: int
    rows: tuple  # (plus row index, minus row index)
    lambda_used: Fraction | None = None

    def j_identity_error(self) -> float:
        T = np.array(self.t, dtype=complex)
        J = np.diag([1.0, -1.0])
        return float(np.max(np.abs(T.conj().T @ J @ T - J)))


def hyperbolic_eliminate(a1: complex, b1: complex) -> HyperbolicStep:
    """Rotation sending (a1, b1) to (a1', 0); needs |a1| > |b1|.

    The bottom-left entry is fixed analytically, so applying the rotation
    and assigning the eliminated coordinate zero is exact by construction.
    """
    a1, b1 = complex(a1), complex(b1)
    if abs(a1) <= abs(b1):
        raise PivotDominanceViolated(
            f"|a1|={abs(a1):.6g} must strictly exceed |b1|={abs(b1):.6g}"
        )
    ratio = b1 / a1
    t22 = 1.0 / math.sqrt(1.0 - abs(ratio) ** 2)
    t = (
        (t22 + 0j, -t22 * ratio.conjugate()),
        (-t22 * ratio, t22 + 0j),
    )
    step = HyperbolicStep(t, pivot_col=-1, rows=(-1, -1))
    err = step.j_identity_error()
    if not err <= LOCAL_TOL * max(1.0, t22**2):  # also catches NaN
        raise CertificateFailure(f"rotation misses the J-identity by {err:.3g}")
    return step


def _unitary_echelon(M: np.ndarray) -> dict:
    """In-place Householder row reduction with the fixed column order.

    Returns {column: pivot row}.  Raises when an accepted pivot is tiny
    relative to its row.
    """
    rows, cols = M.shape
    pivots: dict = {}
    scale = float(np.max(np.abs(M))) if M.size else 0.0
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = M[r:, c]
        colnorm = float(np.linalg.norm(col))
        if colnorm <= 1e-14 * max(scale, 1.0):
            M[r:, c] = 0.0
            continue
        v = col.copy()
        alpha = -cmath.exp(1j * cmath.phase(v[0])) * colnorm if v[0] != 0 else -colnorm
        v[0] -= alpha
        vnorm = float(np.linalg.norm(v))
        if vnorm > 1e-14 * max(scale, 1.0):
            v /= vnorm
            M[r:, c:] -= 2.0 * np.outer(v, v.conj() @ M[r:, c:])
        M[r, c] = alpha
        M[r + 1 :, c] = 0.0
        rownorm = float(np.linalg.norm(M[r, :]))
        if abs(M[r, c]) < PIVOT_FLOOR * rownorm:
            raise NumericalBreakdown(
                f"pivot {abs(M[r, c]):.3g} below {PIVOT_FLOOR} of row norm {rownorm:.3g}"
            )
        pivots[c] = r
        r += 1
    return pivots


def _leading_cols(M: np.ndarray, tol: float):
    out = []
    for i in range(M.shape[0]):
        row = M[i]
        norm = float(np.linalg.norm(row))
        if norm == 0.0:
            out.append(None)
            continue
        lead = next((j for j in range(M.shape[1]) if abs(row[j]) > tol * norm), None)
        out.append(lead)
    return out


def is_partial_row_echelon(form: DecomposedForm, tol: float = PIVOT_FLOOR) -> bool:
    """Rows permute into row-echelon form: nonzero rows have distinct leading columns."""
    stacked = np.vstack([form.plus_rows, form.minus_rows])
    leads = [c for c in _leading_cols(stacked, tol) if c is not None]
    return len(leads) == len(set(leads))


def partial_row_echelon(
    form: DecomposedForm, recon_tol: float = RECON_TOL
) -> tuple:
    """Drive the stacked matrix into partial row-echelon form.

    Requires an exact origin that is a member at power 1.  Each block is
    unitarily echelonized; columns are scanned left to right, and a column
    carrying pivots of both blocks is resolved by a hyperbolic rotation,
    preceded by a rational rescale of the negative block whenever the
    negative pivot dominates.  Returns the reduced form and the step list;
    the reduced form's target matrix carries the accumulated rescales.
    """
    if form.origin is None:
        raise NotInPsiD("reduction requires the exact origin polynomial")
    if not in_psi_hermitian(form.origin, 1).member:
        raise NotInPsiD("origin is not a member at power 1")

    A = form.plus_rows.copy()
    B = form.minus_rows.copy()
    dim = len(form.basis)
    target = (
        form.target.copy()
        if form.target is not None
        else _origin_float_matrix(form.origin, form.basis)
    )
    steps: list = []
    guard = (A.shape[1] + 1) * (B.shape[0] + 2)

    for _ in range(guard):
        pivots_a = _unitary_echelon(A)
        pivots_b = _unitary_echelon(B)
        if len(pivots_a) < A.shape[0] or len(pivots_b) < B.shape[0]:
            raise NumericalBreakdown("a block lost rank; rows are not independent")
        clash = sorted(set(pivots_a) & set(pivots_b))
        if not clash:
            break
        col = clash[0]
        ra, rb = pivots_a[col], pivots_b[col]
        a1, b1 = A[ra, col], B[rb, col]
        lam_used = None
        if abs(a1) <= abs(b1):
            lam_used = Fraction(abs(a1 / b1) ** 2 / 2).limit_denominator(10**6)
            while lam_used > 0 and math.sqrt(float(lam_used)) * abs(b1) >= abs(a1):
                lam_used /= 2
            if lam_used <= 0:
                raise NumericalBreakdown("no usable rescale factor for the negative block")
            # the represented form becomes (plus part) - lam * (minus part)
            target += (1.0 - float(lam_used)) * (B.conj().T @ B)
            B *= math.sqrt(float(lam_used))
            b1 = B[rb, col]
        step = hyperbolic_eliminate(a1, b1)
        (t11, t12), (t21, t22) = step.t
        new_a = t11 * A[ra] + t12 * B[rb]
        new_b = t21 * A[ra] + t22 * B[rb]
        new_b[col] = 0.0  # zero by construction of the rotation
        A[ra], B[rb] = new_a, new_b
        steps.append(
            HyperbolicStep(step.t, pivot_col=col, rows=(ra, rb), lambda_used=lam_used)
        )
    else:
        raise NumericalBreakdown("echelon loop failed to terminate")

    reduced = DecomposedForm(
        plus_rows=A,
        minus_rows=B,
        basis=form.basis,
        origin=form.origin,
        exact=form.exact,
        target=target,
        split_faithful=form.split_faithful and not steps,
    )
    if not is_partial_row_echelon(reduced):
        raise NumericalBreakdown("reduction finished without reaching echelon form")
    err = reconstruction_error(reduced)
    if err > recon_tol:
        raise NumericalBreakdown(f"reconstruction error {err:.3g} exceeds {recon_tol}")
    return reduced, steps


def reconstruction_error(form: DecomposedForm) -> float:
    """Relative max-norm gap between the float rows and the reduction target."""
    if form.target is not None:
        target = form.target
    elif form.origin is not None:
        target = _origin_float_matrix(form.origin, form.basis)
    else:
        return 0.0
    got = form.hermitian_float()
    scale = max(float(np.max(np.abs(target))) if target.size else 0.0, 1e-30)
    if not target.size:
        return 0.0
    return float(np.max(np.abs(got - target))) / scale
