"""Left m-inverse algebra, and the vectorized reference for maps on matrix space.

An operator ``T`` is a left m-inverse of ``S`` when the defect

    P_m(S, T) = sum_{j=0}^m (-1)^(m-j) C(m, j) T^j S^j

vanishes; m = 1 recovers ``T S = I``.  With ``T = S*`` the same defect
decides m-isometry.  This module evaluates the defect through the
recursion ``P_k = T P_(k-1) S - P_(k-1)`` and builds the explicit left
inverses ``Z_n`` of the matrix powers ``S^n``.  ``ascent`` and
``kernel_included`` take linear maps on matrix space as their n^2 x n^2
matrices (such as ``np.kron(B.T, A) - I`` for ``X -> A X B - X``) and
decide by numerical rank; they are the reference that the pf-ascent sweep
holds the n x n decisions of ``metric`` against, and no library decision
calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ArgumentError, AssumptionError
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    frobenius,
    null_space,
    numerical_rank,
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


def ascent(
    rep: np.ndarray,
    max_k: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> int | None:
    """Least k with ker(L^k) = ker(L^(k+1)) for the square matrix ``rep`` of L.

    Ranks of successive powers all use the singular-value cutoff of the
    first power, keeping the kernel comparison consistent; the singular
    values of the first power give both the cutoff and its rank.  The
    default cap ``size + 1`` cannot be exceeded by a matrix whose kernels
    stabilize; returns None if no stabilization is seen within the cap.
    """
    rep = as_matrix(rep, square=True, name="map matrix")
    size = rep.shape[0]
    if max_k is None:
        max_k = size + 1
    if max_k < 1:
        raise ArgumentError(f"max_k must be >= 1, got {max_k}")
    sv = np.linalg.svd(rep, compute_uv=False)
    cutoff = tol.zero_threshold(float(sv[0]))
    ranks = [size, int(np.sum(sv > cutoff))]  # ranks of L^0 = I and L
    power = rep
    while ranks[-1] != ranks[-2]:
        if len(ranks) > max_k + 1:
            return None
        power = power @ rep
        ranks.append(numerical_rank(power, cutoff=cutoff))
    return len(ranks) - 2


def kernel_included(
    inner: np.ndarray, outer: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Whether ker(inner) is contained in ker(outer), for square matrices of one size.

    Each vector of an orthonormal basis of the numerical kernel of
    ``inner`` must have an image under ``outer`` within
    ``zero_threshold(||outer||_2)``.
    """
    inner = as_matrix(inner, square=True, name="inner")
    outer = as_matrix(outer, square=True, name="outer")
    require_same_shape(inner, outer, "inner and outer")
    images = outer @ null_space(inner, tol)
    threshold = tol.zero_threshold(operator_norm(outer))
    return bool(np.all(np.linalg.norm(images, axis=0) <= threshold))
