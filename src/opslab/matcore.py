"""Dense complex-matrix kernel.

Every operator handled by this library is a dense square complex matrix
stored as a ``numpy.ndarray`` with dtype ``complex128``.  This module
supplies the numerical primitives the rest of the package is built on:
adjoints, the spectral norm, positive-semidefinite square roots,
Moore-Penrose pseudoinverses, numerical ranks and bases, and the
tolerance model governing every approximate comparison.

Tolerance model
---------------
A matrix ``M`` counts as numerically zero when

    frobenius(M) <= abs_tol + rel_tol * scale

where ``scale`` is the largest Frobenius norm among the inputs of the
operation that produced ``M``.  Rank decisions truncate singular values at
``abs_tol + rel_tol * sigma_max``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, AssumptionError, MatrixFormatError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "adjoint",
    "frobenius",
    "operator_norm",
    "psd_sqrt",
    "pseudo_inverse",
    "numerical_rank",
    "null_space",
    "range_basis",
    "matrix_to_json_dict",
    "matrix_from_json_dict",
    "save_matrix",
    "load_matrix",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute and relative tolerances for approximate comparisons.

    Parameters
    ----------
    abs_tol : float
        Absolute floor, applied even when all inputs are tiny.
    rel_tol : float
        Relative factor multiplying the scale of the operation's inputs.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise ArgumentError("tolerances must be nonnegative")

    def zero_threshold(self, scale: float = 1.0) -> float:
        """Return the Frobenius-norm threshold below which a matrix is zero."""
        return self.abs_tol + self.rel_tol * float(scale)

    def scale_of(self, *mats: np.ndarray) -> float:
        """Largest Frobenius norm among the given matrices (at least 0)."""
        return max((frobenius(m) for m in mats), default=0.0)


DEFAULT_TOL = ToleranceConfig()


def as_matrix(obj, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a 2-d complex128 array.

    Rejects non-2-d input, empty axes, and non-finite entries.  With
    ``square=True`` a rectangular shape raises ``ArgumentError``.
    """
    m = np.asarray(obj, dtype=complex)
    if m.ndim != 2:
        raise ArgumentError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ArgumentError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ArgumentError(f"{name} contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ArgumentError(f"{name} must be square, got shape {m.shape}")
    return m


def require_same_shape(a: np.ndarray, b: np.ndarray, what: str = "operands") -> None:
    if a.shape != b.shape:
        raise ArgumentError(f"{what} must have equal shapes, got {a.shape} and {b.shape}")


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of ``m``."""
    return np.ascontiguousarray(np.asarray(m, dtype=complex).conj().T)


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm of ``m`` (0 for empty blocks)."""
    m = np.asarray(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m))


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm: the largest singular value of ``m``."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def psd_sqrt(h: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix.

    Eigenvalues in ``[-abs_tol, 0]`` are clamped to zero; these arise from
    Gram-type constructions rounded in floating point.  An eigenvalue
    below ``-abs_tol`` or a non-Hermitian input raises.

    Returns a Hermitian ``R`` with ``R @ R`` equal to ``h`` up to the
    eigendecomposition's accuracy, commuting with ``h``.
    """
    h = as_matrix(h, square=True, name="psd_sqrt input")
    herm_defect = frobenius(h - adjoint(h))
    if herm_defect > tol.zero_threshold(frobenius(h)):
        raise ArgumentError(
            f"psd_sqrt requires a Hermitian matrix (defect {herm_defect:.3e})"
        )
    w, v = np.linalg.eigh(0.5 * (h + adjoint(h)))
    if np.any(w < -tol.abs_tol):
        raise AssumptionError(
            f"psd_sqrt input has eigenvalue {w.min():.3e} below -abs_tol"
        )
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ adjoint(v)
    return 0.5 * (root + adjoint(root))


def pseudo_inverse(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``abs_tol + rel_tol * sigma_max`` are
    truncated, so the result of a rank-deficient input is the minimal-norm
    pseudoinverse under the library-wide rank convention.
    """
    m = as_matrix(m, name="pseudo_inverse input")
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    cutoff = tol.zero_threshold(s[0] if s.size else 0.0)
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return adjoint(vh) @ (inv[:, None] * adjoint(u))


def _svd_cutoff(s: np.ndarray, tol: ToleranceConfig, cutoff: float | None) -> float:
    if cutoff is not None:
        return float(cutoff)
    return tol.zero_threshold(float(s[0]) if s.size else 0.0)


def numerical_rank(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, cutoff: float | None = None
) -> int:
    """Number of singular values above the truncation threshold."""
    m = as_matrix(m, name="numerical_rank input")
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > _svd_cutoff(s, tol, cutoff)))


def null_space(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, cutoff: float | None = None
) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical right null space."""
    m = as_matrix(m, name="null_space input")
    _, s, vh = np.linalg.svd(m)
    c = _svd_cutoff(s, tol, cutoff)
    rank = int(np.sum(s > c))
    return adjoint(vh)[:, rank:]


def range_basis(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, cutoff: float | None = None
) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical column space."""
    m = as_matrix(m, name="range_basis input")
    u, s, _ = np.linalg.svd(m)
    c = _svd_cutoff(s, tol, cutoff)
    rank = int(np.sum(s > c))
    return u[:, :rank]


# ---------------------------------------------------------------------------
# JSON matrix schema: {"rows": r, "cols": c, "data": [[re, im], ...]} row-major
# ---------------------------------------------------------------------------

def matrix_to_json_dict(m: np.ndarray) -> dict:
    """Serialize a matrix to the library-wide JSON schema."""
    m = as_matrix(m, name="matrix")
    rows, cols = m.shape
    data = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": int(rows), "cols": int(cols), "data": data}


def matrix_from_json_dict(d: dict, name: str = "matrix") -> np.ndarray:
    """Parse the JSON schema, rejecting shape mismatches and non-finite entries."""
    if not isinstance(d, dict):
        raise MatrixFormatError(f"{name}: expected a JSON object, got {type(d).__name__}")
    try:
        rows, cols, data = d["rows"], d["cols"], d["data"]
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError(f"{name}: missing field {exc}") from exc
    if not isinstance(rows, int) or not isinstance(cols, int) or rows <= 0 or cols <= 0:
        raise MatrixFormatError(f"{name}: rows/cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else "non-list"
        raise MatrixFormatError(
            f"{name}: data length {got} does not match rows*cols={rows * cols}"
        )
    out = np.empty(rows * cols, dtype=complex)
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) for x in entry)
        ):
            raise MatrixFormatError(f"{name}: data[{i}] must be a [re, im] pair")
        re, im = float(entry[0]), float(entry[1])
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MatrixFormatError(f"{name}: data[{i}] is not finite")
        out[i] = complex(re, im)
    return out.reshape(rows, cols)


def save_matrix(path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json_dict(m), fh)


def load_matrix(path, name: str = "matrix") -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"{name}: invalid JSON ({exc})") from exc
    return matrix_from_json_dict(d, name=name)
