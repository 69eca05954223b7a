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
    is_mc_isometric,
    mc_isometry_defect,
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
    frobenius,
    load_matrix,
    matrix_to_json_dict,
    null_space,
    numerical_rank,
    operator_norm,
)
from .metric import (
    PFReport,
    PowerBoundReport,
    SimilarityCertificate,
    ascent_bound_check,
    canonical_left_m_inverse,
    certify_power_bounded,
    douglas_factor,
    invariant_metric,
    pf_property_check,
    similar_to_unitary,
    similarity_certificate,
)
from .minv import (
    ascent,
    defect,
    defect_profile,
    is_left_m_inverse,
    kernel_included,
    z_inverses,
    z_norm_bound,
)

__version__ = "0.1.0"
