"""Left m-inverse algebra and elementary operators on matrix space.

An operator ``T`` is a left m-inverse of ``S`` when the defect

    P_m(S, T) = sum_{j=0}^m (-1)^(m-j) C(m, j) T^j S^j

vanishes; m = 1 recovers ``T S = I``.  With ``T = S*`` the same defect
decides m-isometry.  This module evaluates the defect through the
recursion ``P_k = T P_(k-1) S - P_(k-1)``, builds the explicit left
inverses ``Z_n`` of the matrix powers ``S^n``, and vectorizes the two
workhorse maps on matrix space (``X -> A X B - X`` and ``X -> A X - X B``)
so kernels, kernel inclusions and ascents reduce to numerical rank
computations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import ArgumentError, AssumptionError
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    frobenius,
    operator_norm,
    require_same_shape,
)

__all__ = [
    "LeftInvPair",
    "defect",
    "is_left_m_inverse",
    "minimal_defect_order",
    "z_inverse",
    "z_norm_bound",
    "LinearMatrixMap",
    "elementary_operator",
    "generalized_derivation",
    "ascent",
    "kernel_included",
]


@dataclass(frozen=True)
class LeftInvPair:
    """A candidate pair (S, T) with inversion order m."""

    s: np.ndarray
    t: np.ndarray
    m: int

    def __post_init__(self):
        s = as_matrix(self.s, square=True, name="S")
        t = as_matrix(self.t, square=True, name="T")
        require_same_shape(s, t, "S and T")
        if self.m < 1:
            raise ArgumentError(f"m must be >= 1, got {self.m}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)


def _validated_pair(s, t, m) -> tuple[np.ndarray, np.ndarray, int]:
    pair = LeftInvPair(s, t, int(m))
    return pair.s, pair.t, pair.m


def defect(s: np.ndarray, t: np.ndarray, m: int) -> np.ndarray:
    """Alternating binomial sum ``sum_j (-1)^(m-j) C(m,j) T^j S^j``.

    Evaluated by the recursion ``P_0 = I``, ``P_k = T P_(k-1) S - P_(k-1)``,
    which reproduces the binomial sum in 2m matrix products.  The
    term-by-term sum with exact integer coefficients is kept as the oracle
    in ``suites.run_defect_agreement`` and the tests.
    """
    s, t, m = _validated_pair(s, t, m)
    out = np.eye(s.shape[0], dtype=complex)
    for _ in range(m):
        out = t @ out @ s - out
    return out


def is_left_m_inverse(
    s: np.ndarray, t: np.ndarray, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, float]:
    """Decide whether ``t`` is a left m-inverse of ``s``.

    Returns ``(verdict, residual)`` where ``residual`` is the Frobenius
    norm of the defect and the verdict compares it against the tolerance
    at the scale of the inputs.
    """
    s, t, m = _validated_pair(s, t, m)
    residual = frobenius(defect(s, t, m))
    return residual <= tol.zero_threshold(tol.scale_of(s, t, np.eye(s.shape[0]))), residual


def minimal_defect_order(
    s: np.ndarray,
    t: np.ndarray,
    m_max: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> int | None:
    """Smallest m <= m_max whose defect vanishes, or None."""
    if m_max < 1:
        raise ArgumentError(f"m_max must be >= 1, got {m_max}")
    for m in range(1, m_max + 1):
        ok, _ = is_left_m_inverse(s, t, m, tol)
        if ok:
            return m
    return None


def z_inverse(
    s: np.ndarray,
    t: np.ndarray,
    m: int,
    n: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Explicit left inverse of ``S^n`` built from the defect identity.

        Z_n = (-1)^(m+1) * sum_{j=1}^m (-1)^(m-j) C(m,j) T^(nj) S^(n(j-1))

    The sum starts at j = 1: the j = 0 term of the defect is the identity
    moved to the other side of ``Z_n S^n = I``, and would otherwise
    involve a negative power of S.  Requires the pair to be a left
    m-inverse within tolerance; raises ``AssumptionError`` otherwise.
    """
    s, t, m = _validated_pair(s, t, m)
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    ok, residual = is_left_m_inverse(s, t, m, tol)
    if not ok:
        raise AssumptionError(
            f"z_inverse requires a left {m}-inverse pair; defect residual {residual:.3e}"
        )
    out = np.zeros_like(s)
    for j in range(1, m + 1):
        term = np.linalg.matrix_power(t, n * j) @ np.linalg.matrix_power(s, n * (j - 1))
        out += ((-1) ** (m - j)) * comb(m, j) * term
    return ((-1) ** (m + 1)) * out


def z_norm_bound(m: int, m1: float) -> float:
    """Norm bound ``2^m * M1^2`` valid for ``Z_n`` of power-bounded pairs."""
    if m < 1:
        raise ArgumentError(f"m must be >= 1, got {m}")
    if m1 <= 0:
        raise ArgumentError(f"M1 must be positive, got {m1}")
    return (2.0 ** m) * float(m1) ** 2


# ---------------------------------------------------------------------------
# Vectorized maps on matrix space (column-stacking convention)
# ---------------------------------------------------------------------------

def _vec(x: np.ndarray) -> np.ndarray:
    return x.flatten(order="F")


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape((n, n), order="F")


@dataclass(frozen=True, eq=False)
class LinearMatrixMap:
    """A linear map on n x n matrices, stored as its n^2 x n^2 matrix.

    ``matrix_rep`` acts on column-stacked matrices: applying the map to X
    is ``unvec(matrix_rep @ vec(X))``.
    """

    dimension: int
    matrix_rep: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.dimension
        if n < 1:
            raise ArgumentError("dimension must be positive")
        rep = as_matrix(self.matrix_rep, square=True, name="matrix_rep")
        if rep.shape[0] != n * n:
            raise ArgumentError(
                f"matrix_rep must be {n * n}x{n * n} for dimension {n}, got {rep.shape}"
            )
        object.__setattr__(self, "matrix_rep", rep)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = as_matrix(x, square=True, name="map argument")
        if x.shape[0] != self.dimension:
            raise ArgumentError(
                f"map argument must be {self.dimension}x{self.dimension}, got {x.shape}"
            )
        return _unvec(self.matrix_rep @ _vec(x), self.dimension)

    def kernel_matrices(self, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
        """Orthonormal (Frobenius) basis of the numerical kernel, as matrices."""
        from .matcore import null_space

        basis = null_space(self.matrix_rep, tol)
        return [_unvec(basis[:, i], self.dimension) for i in range(basis.shape[1])]


def elementary_operator(a: np.ndarray, b: np.ndarray) -> LinearMatrixMap:
    """The map ``X -> A X B - X`` in vectorized form."""
    a = as_matrix(a, square=True, name="A")
    b = as_matrix(b, square=True, name="B")
    require_same_shape(a, b, "A and B")
    n = a.shape[0]
    rep = np.kron(b.T, a) - np.eye(n * n, dtype=complex)
    return LinearMatrixMap(dimension=n, matrix_rep=rep)


def generalized_derivation(a: np.ndarray, b: np.ndarray) -> LinearMatrixMap:
    """The map ``X -> A X - X B`` in vectorized form."""
    a = as_matrix(a, square=True, name="A")
    b = as_matrix(b, square=True, name="B")
    require_same_shape(a, b, "A and B")
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    rep = np.kron(eye, a) - np.kron(b.T, eye)
    return LinearMatrixMap(dimension=n, matrix_rep=rep)


def ascent(
    lin_map: LinearMatrixMap,
    max_k: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> int | None:
    """Least k with ker(L^k) = ker(L^(k+1)), via stabilizing numerical rank.

    Ranks of successive powers all use the singular-value cutoff of the
    first power, keeping the kernel comparison consistent.  The default
    cap ``dimension^2 + 1`` cannot be exceeded by a map whose kernels
    stabilize on matrix space; returns None if no stabilization is seen
    within the cap.
    """
    if max_k is None:
        max_k = lin_map.dimension ** 2 + 1
    if max_k < 1:
        raise ArgumentError(f"max_k must be >= 1, got {max_k}")
    rep = lin_map.matrix_rep
    size = rep.shape[0]
    s_first = np.linalg.svd(rep, compute_uv=False)
    cutoff = tol.zero_threshold(float(s_first[0]) if s_first.size else 0.0)
    prev_rank = size  # rank of L^0 = I
    power = np.eye(size, dtype=complex)
    for k in range(1, max_k + 2):
        power = power @ rep
        sv = np.linalg.svd(power, compute_uv=False)
        rank = int(np.sum(sv > cutoff))
        if rank == prev_rank:
            return k - 1
        if k > max_k:
            break
        prev_rank = rank
    return None


def kernel_included(
    inner: LinearMatrixMap,
    outer: LinearMatrixMap,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[bool, np.ndarray | None]:
    """Whether ker(inner) is contained in ker(outer), with a witness.

    Tests every (unit Frobenius) kernel basis matrix of ``inner`` against
    ``outer``; returns ``(True, None)`` on inclusion, otherwise
    ``(False, X)`` for the first basis matrix with a nonzero image.
    """
    if inner.dimension != outer.dimension:
        raise ArgumentError("maps must act on the same matrix space")
    threshold = tol.zero_threshold(operator_norm(outer.matrix_rep))
    for x in inner.kernel_matrices(tol):
        if frobenius(outer.apply(x)) > threshold:
            return False, x
    return True, None
