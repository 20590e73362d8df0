"""Exact certificates for squared-norm positivity classes of Hermitian polynomials."""

from .bounds import (
    BoundReport,
    PigeonholeCertificate,
    pigeonhole_certificate,
    ratio_ceiling,
    verify_ratio_bound,
)
from .diagram import render_diagram
from .generators import (
    example_fig1,
    example_fig2,
    find_qk_epsilon,
    gamma,
    generate_fig2_family,
    generate_inductive,
    generate_lambda_example,
    generate_pD,
    generate_qk,
    generate_two_var,
    pD_ratio_lower_bound,
)
from .inertia import CongruenceFactorization, congruence_factorization
from .patterns import (
    SearchResult,
    Sign,
    SignPattern,
    Strategy,
    pattern_from_poly,
    realize_magnitudes,
    search_max_ratio,
    support_feasible,
)
from .polycore import (
    GaussianRational,
    HermitianPoly,
    RealSparsePoly,
    SignaturePair,
    diagonal_real_bridge,
    hermitian_from_json,
    hermitian_to_json,
    multiply_by_simplex_power,
    poly_from_json,
    poly_to_json,
    real_to_diagonal,
    sign_counts,
)
from .psi import (
    PsiReport,
    in_psi,
    in_psi_diagonal,
    in_psi_general_multiplier,
    in_psi_hermitian,
    min_psi_index,
)
from .reduction import (
    DecomposedForm,
    HyperbolicStep,
    decompose,
    is_partial_row_echelon,
    partial_row_echelon,
)

__version__ = "0.1.0"
