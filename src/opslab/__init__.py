"""opslab: a finite-dimensional operator laboratory.

Dense-matrix implementations of left m-inverse defect polynomials,
explicit left inverses of matrix powers, power-boundedness certificates,
invariant-metric similarity to isometries, Douglas factorization,
asymptotic (vanishing/unimodular) splittings, Putnam-Fuglede checks, and
conjugation-twisted isometry identities, together with seeded generators
and sweep suites that exercise all of it.
"""

from .conj import (
    Conjugation,
    conjugate_operator,
    entrywise_conjugation,
    hyperbolic_orthogonal_example,
    is_1c_isometric,
    make_conjugation,
    mc_isometry_defect,
    verify_prop_mc,
)
from .errors import (
    ArgumentError,
    AssumptionError,
    IdentityCheckError,
    MatrixFormatError,
    OpslabError,
)
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    as_matrix,
    frobenius,
    load_matrix,
    matrix_from_json_dict,
    matrix_to_json_dict,
    null_space,
    numerical_rank,
    operator_norm,
    psd_sqrt,
    pseudo_inverse,
    range_basis,
    save_matrix,
)
from .metric import (
    C01Decomposition,
    PFReport,
    PowerBoundReport,
    SimilarityCertificate,
    ascent_bound_check,
    c0_c1_decompose,
    canonical_left_m_inverse,
    certify_power_bounded,
    douglas_factor,
    douglas_mu,
    extract_isometry,
    invariant_metric,
    pf_property_check,
    similar_to_unitary,
    similarity_certificate,
    verify_prop_isometric,
)
from .minv import (
    LeftInvPair,
    LinearMatrixMap,
    ascent,
    defect,
    elementary_operator,
    generalized_derivation,
    is_left_m_inverse,
    kernel_included,
    minimal_defect_order,
    z_inverse,
    z_norm_bound,
)

__version__ = "0.1.0"
