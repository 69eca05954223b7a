"""Conjugations and C-symmetric isometry defects.

A conjugation is an antilinear involution ``C`` with ``<Cx, Cy> = <y, x>``.
In a fixed orthonormal basis every conjugation acts as ``x -> J conj(x)``
for a unitary symmetric ``J``, which reduces all the antilinear algebra
here to ordinary matrix algebra plus entrywise conjugation.  The defect

    sum_{j=0}^m (-1)^(m-j) C(m,j) S*^j C S^j C

collapses to the plain left-inverse defect of the pair ``(C S C, S*)``
because ``C^2 = I``.  So ``mc_isometry_defect`` is ``minv.defect`` and the
(m,C)-isometry decision ``is_mc_isometric`` is ``minv.is_left_m_inverse``
on that pair, threshold included; a sweep reads several orders, and the
last matrix, from one pass.  The direct antilinear evaluation is the
oracle of ``suites.run_c_isometry_rigidity`` and the tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import minv
from .errors import ArgumentError
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    as_matrix,
    frobenius,
    matrix_from_json_dict,
)

__all__ = [
    "Conjugation",
    "make_conjugation",
    "entrywise_conjugation",
    "conjugate_operator",
    "mc_isometry_defect",
    "is_mc_isometric",
    "hyperbolic_orthogonal_example",
]


@dataclass(frozen=True)
class Conjugation:
    """Antilinear map ``x -> J conj(x)`` with J unitary and symmetric."""

    j: np.ndarray

    @property
    def dim(self) -> int:
        return self.j.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Apply the conjugation to a vector, or to each column of a matrix
        (antilinear action)."""
        return self.j @ np.conj(np.asarray(x, dtype=complex))

    def to_json_dict(self) -> dict:
        """A dict for ``matcore.dump_json``; J stays an array."""
        return {"J": self.j}

    @staticmethod
    def from_json_dict(d: dict, tol: ToleranceConfig = DEFAULT_TOL) -> "Conjugation":
        if not isinstance(d, dict) or "J" not in d:
            raise ArgumentError('conjugation JSON must be an object with a "J" field')
        return make_conjugation(matrix_from_json_dict(d["J"], name="J"), tol)


def make_conjugation(j: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> Conjugation:
    """Validate J and wrap it as a conjugation.

    J must be unitary and equal to its plain transpose; together these are
    equivalent to the involution property ``C^2 = I`` of the antilinear
    map.  Raises ``ArgumentError`` naming the violated invariant.
    """
    j = as_matrix(j, square=True, name="J")
    eye = np.eye(j.shape[0], dtype=complex)
    unit_res = frobenius(adjoint(j) @ j - eye)
    if unit_res > tol.zero_threshold(frobenius(j) ** 2):
        raise ArgumentError(f"J is not unitary (residual {unit_res:.3e})")
    sym_res = frobenius(j - j.T)
    if sym_res > tol.zero_threshold(frobenius(j)):
        raise ArgumentError(f"J is not symmetric (residual {sym_res:.3e})")
    return Conjugation(j=j)


def entrywise_conjugation(n: int) -> Conjugation:
    """The coordinatewise conjugation (J = I)."""
    if n < 1:
        raise ArgumentError("dimension must be positive")
    return Conjugation(j=np.eye(n, dtype=complex))


def conjugate_operator(c: Conjugation, s: np.ndarray) -> np.ndarray:
    """Matrix of the linear map ``x -> C(S(C x))``, namely ``J conj(S) J*``."""
    s = as_matrix(s, square=True, name="S")
    if s.shape[0] != c.dim:
        raise ArgumentError(
            f"S must match the conjugation dimension {c.dim}, got {s.shape}"
        )
    return c.j @ np.conj(s) @ adjoint(c.j)


def mc_isometry_defect(s: np.ndarray, c: Conjugation, m: int) -> np.ndarray:
    """C-twisted isometry defect ``sum_j (-1)^(m-j) C(m,j) S*^j (CSC)^j``.

    Evaluated as ``minv.defect`` of the pair ``(CSC, S*)``.  The
    conjugation must be valid, as ``make_conjugation`` and
    ``entrywise_conjugation`` guarantee; the direct antilinear evaluation
    is not run here but in ``suites.run_c_isometry_rigidity`` and the
    tests.
    """
    return minv.defect(conjugate_operator(c, s), adjoint(s), m)


def is_mc_isometric(
    s: np.ndarray, c: Conjugation, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, float]:
    """Whether S is (m,C)-isometric, with the defect's Frobenius norm.

    ``minv.is_left_m_inverse`` of ``(CSC, S*)`` at order m: the residual
    is ``||mc_isometry_defect(S, C, m)||_F`` and the threshold
    ``zero_threshold(max(||CSC||_F, ||S*||_F, ||I||_F))``.  At m = 1 it
    decides ``S* C S C = I``.  For power-bounded S the paper's rigidity
    makes every (m,C)-isometry a (1,C)-isometry;
    ``suites.run_c_isometry_rigidity`` sweeps for counterexamples.
    """
    return minv.is_left_m_inverse(conjugate_operator(c, s), adjoint(s), m, tol)


# Largest |t| at which cosh t and sinh t are finite doubles.
_HYPERBOLIC_T_MAX = math.acosh(sys.float_info.max)


def hyperbolic_orthogonal_example(t: float) -> np.ndarray:
    """Complex orthogonal 2x2 family that is (1,C)-isometric but unbounded.

        M(t) = [[cosh t, i sinh t], [-i sinh t, cosh t]]

    ``M(t)^T M(t) = I`` for every t, so M(t) is (1,C)-isometric for the
    entrywise conjugation, while its eigenvalues ``e^(+-t)`` defeat power
    boundedness for t != 0.  The identity is checked by
    ``suites.run_c_isometry_rigidity`` and the tests, not here.  Beyond
    ``|t| = arccosh(max float)`` cosh and sinh overflow, so such t (and
    nan) raise ``ArgumentError``.
    """
    t = float(t)
    if not abs(t) <= _HYPERBOLIC_T_MAX:
        raise ArgumentError(
            f"t must satisfy |t| <= {_HYPERBOLIC_T_MAX!r} (cosh t overflows beyond), got {t!r}"
        )
    return np.array(
        [
            [np.cosh(t), 1j * np.sinh(t)],
            [-1j * np.sinh(t), np.cosh(t)],
        ],
        dtype=complex,
    )
