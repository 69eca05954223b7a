"""Left m-inverse algebra, and the vectorized reference for maps on matrix space.

An operator ``T`` is a left m-inverse of ``S`` when the defect

    P_m(S, T) = sum_{j=0}^m (-1)^(m-j) C(m, j) T^j S^j

vanishes; m = 1 recovers ``T S = I``.  With ``T = S*`` it decides
m-isometry, and with ``(C S C, S*)`` (m,C)-isometry.  One pass of the
recursion ``P_k = T P_(k-1) S - P_(k-1)`` over a pair validated once gives
``defect`` its last matrix and ``defect_profile`` the verdict and residual
at every order 1..m; ``is_left_m_inverse`` is the last of those.
``z_inverses`` builds the explicit left inverses ``Z_1, ..., Z_N`` of
the powers of S in one pass.
``ascent`` and ``kernel_included`` take one linear map L on matrix space
as its n^2 x n^2 matrix (such as ``np.kron(B.T, A) - I`` for ``X -> A X
B - X``); ``ascent`` runs the kernel staircase ``_ascent`` that ``metric``
shares, and ``kernel_included`` decides ker L within ker L* from one SVD
of L.  They are the reference that the pf-ascent sweep holds the n x n
decisions of ``metric`` against, and no library decision calls them.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb

import numpy as np

from .errors import ArgumentError, AssumptionError
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    as_matrix,
    frobenius,
    require_same_shape,
)

__all__ = [
    "defect",
    "defect_profile",
    "is_left_m_inverse",
    "z_inverses",
    "z_norm_bound",
    "ascent",
    "kernel_included",
]


def _validated(s, t, m) -> tuple[np.ndarray, np.ndarray, int]:
    """Square complex S and T of one shape, and an order m >= 1."""
    s = as_matrix(s, square=True, name="S")
    t = as_matrix(t, square=True, name="T")
    require_same_shape(s, t, "S and T")
    m = int(m)
    if m < 1:
        raise ArgumentError(f"m must be >= 1, got {m}")
    return s, t, m


def _defects(s: np.ndarray, t: np.ndarray, m: int) -> Iterator[np.ndarray]:
    """``P_1, ..., P_m`` of a validated pair, by ``P_0 = I``,
    ``P_k = T P_(k-1) S - P_(k-1)``: 2m matrix products in all."""
    p = np.eye(s.shape[0], dtype=complex)
    for _ in range(m):
        p = t @ p @ s - p
        yield p


def _profile(s: np.ndarray, t: np.ndarray, defects, tol: ToleranceConfig) -> list[tuple[bool, float]]:
    """``(verdict, residual)`` of each matrix of ``defects``, of a validated pair."""
    threshold = tol.zero_threshold(tol.scale_of(s, t, np.eye(s.shape[0])))
    return [(residual <= threshold, residual) for residual in map(frobenius, defects)]


def defect(s: np.ndarray, t: np.ndarray, m: int) -> np.ndarray:
    """Alternating binomial sum ``sum_j (-1)^(m-j) C(m,j) T^j S^j``.

    The last matrix of the recursion ``P_k = T P_(k-1) S - P_(k-1)``,
    which reproduces the binomial sum in 2m matrix products.  The
    term-by-term sum with exact integer coefficients is kept as the oracle
    in ``suites.run_defect_agreement`` and the tests.
    """
    for p in _defects(*_validated(s, t, m)):
        pass
    return p


def defect_profile(
    s: np.ndarray, t: np.ndarray, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> list[tuple[bool, float]]:
    """``(verdict, residual)`` of the defect at each order k = 1..m, from one pass.

    ``residual`` is the Frobenius norm of ``P_k(S, T)``; the verdict
    compares it with ``zero_threshold(max(||S||_F, ||T||_F, ||I||_F))``,
    the one threshold of every order.  The first passing order of the
    profile is the minimal order at which T is a left inverse of S.
    """
    s, t, m = _validated(s, t, m)
    return _profile(s, t, _defects(s, t, m), tol)


def is_left_m_inverse(
    s: np.ndarray, t: np.ndarray, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, float]:
    """Decide whether ``t`` is a left m-inverse of ``s``.

    Returns ``(verdict, residual)``, the order-m entry of
    ``defect_profile(s, t, m, tol)``.
    """
    return defect_profile(s, t, m, tol)[-1]


def z_inverses(
    s: np.ndarray,
    t: np.ndarray,
    m: int,
    n_max: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Explicit left inverses ``[Z_1, ..., Z_n_max]`` of the powers of S.

        Z_n = (-1)^(m+1) * sum_{j=1}^m (-1)^(m-j) C(m,j) T^(nj) S^(n(j-1))

    The sum starts at j = 1: the j = 0 term of the defect is the identity
    moved to the other side of ``Z_n S^n = I``, and would otherwise
    involve a negative power of S.  Requires the pair to be a left
    m-inverse within tolerance; raises ``AssumptionError`` otherwise.

    One pass over a pair validated and profiled once: ``T^n`` and ``S^n``
    advance by one product per n, and the terms ``T^(nj) S^(n(j-1))``
    by two products per j.
    """
    s, t, m = _validated(s, t, m)
    n_max = int(n_max)
    if n_max < 1:
        raise ArgumentError(f"n_max must be >= 1, got {n_max}")
    ok, residual = _profile(s, t, _defects(s, t, m), tol)[-1]
    if not ok:
        raise AssumptionError(
            f"z_inverses requires a left {m}-inverse pair; defect residual {residual:.3e}"
        )
    sign = (-1) ** (m + 1)
    coefficients = [sign * (-1) ** (m - j) * comb(m, j) for j in range(1, m + 1)]
    out = []
    t_n, s_n = t, s
    for n in range(1, n_max + 1):
        if n > 1:
            t_n, s_n = t_n @ t, s_n @ s
        term = t_n
        z = coefficients[0] * term
        for c in coefficients[1:]:
            term = t_n @ term @ s_n
            z += c * term
        out.append(z)
    return out


def z_norm_bound(m: int, m1: float) -> float:
    """Norm bound ``2^m * M1^2`` valid for ``Z_n`` of power-bounded pairs."""
    if m < 1:
        raise ArgumentError(f"m must be >= 1, got {m}")
    if m1 <= 0:
        raise ArgumentError(f"M1 must be positive, got {m1}")
    return (2.0 ** m) * float(m1) ** 2


def _ascent(rep: np.ndarray, sv: np.ndarray, vh: np.ndarray, cutoff: float) -> int:
    """Least k with ker(L^k) = ker(L^(k+1)), from an SVD ``(sv, vh)`` of the square matrix ``rep`` of L.

    Kublanovskaya's staircase (1968; Golub and Wilkinson, SIAM Rev. 1976):
    with F the conjugated rows of ``vh`` above ``cutoff``, a basis of the
    complement of ker L, ``dim ker L^(k+1) = dim ker L + dim ker C^k`` for
    ``C = F* L F``.  So each step reads the kernel of a compression at the
    one ``cutoff``, by its singular values and then, if it has one, its
    vectors; no power is formed, and the chain ends within ``size`` steps.
    """
    steps = 0
    while (rank := int(np.count_nonzero(sv > cutoff))) < len(sv):
        steps += 1
        rep = vh[:rank] @ rep @ vh[:rank].conj().T
        sv = np.linalg.svd(rep, compute_uv=False)
        if np.count_nonzero(sv > cutoff) < rank:
            _, sv, vh = np.linalg.svd(rep)
    return steps


def ascent(rep: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Least k with ker(L^k) = ker(L^(k+1)) for the square matrix ``rep`` of L.

    Every kernel is read at ``zero_threshold(s_1)`` by ``_ascent``, after a
    values-only SVD that returns 0 when L has none.
    """
    rep = as_matrix(rep, square=True, name="map matrix")
    sv = np.linalg.svd(rep, compute_uv=False)
    cutoff = tol.zero_threshold(float(sv[0]))
    if sv[-1] > cutoff:
        return 0
    _, sv, vh = np.linalg.svd(rep)
    return _ascent(rep, sv, vh, cutoff)


def kernel_included(rep: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether ker L is contained in ker L*, for the square matrix ``rep`` of L.

    One SVD of L gives both sides: its kernel is spanned by the conjugated
    rows of ``Vh`` past the rank at ``zero_threshold(s_1)``, and since
    ``||L*||_2 = s_1`` the image of each kernel vector under L* must lie
    within that same threshold.  Row k of ``Vh[rank:] @ L`` is the
    conjugate of the image of the k-th kernel vector, so no L* is formed.
    """
    rep = as_matrix(rep, square=True, name="map matrix")
    _, sv, vh = np.linalg.svd(rep)
    threshold = tol.zero_threshold(float(sv[0]))
    images = vh[int(np.sum(sv > threshold)):] @ rep
    return bool(np.all(np.linalg.norm(images, axis=1) <= threshold))
