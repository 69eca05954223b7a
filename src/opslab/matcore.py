"""Dense complex-matrix kernel.

Every operator handled by this library is a dense square complex matrix
stored as a ``numpy.ndarray`` with dtype ``complex128``.  This module
supplies the numerical primitives the rest of the package is built on:
adjoints, the spectral norm, numerical ranks and null spaces, the JSON
matrix schema, the package's one JSON codec (``load_json`` and
``dump_json``, both ``orjson``; reports hand every matrix to ``dump_json``
as a complex128 array), and the tolerance model governing every
approximate comparison.

Tolerance model
---------------
A matrix ``M`` counts as numerically zero when

    frobenius(M) <= abs_tol + rel_tol * scale

where ``scale`` is the largest Frobenius norm among the inputs of the
operation that produced ``M``.  Rank decisions truncate singular values at
``abs_tol + rel_tol * sigma_max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import ArgumentError, MatrixFormatError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "adjoint",
    "frobenius",
    "operator_norm",
    "numerical_rank",
    "null_space",
    "matrix_from_json_dict",
    "load_json",
    "dump_json",
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
        if not (0 <= self.abs_tol < math.inf and 0 <= self.rel_tol < math.inf):  # refuses NaN
            raise ArgumentError("tolerances must be finite and nonnegative")

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
    if not np.isfinite(m).all():
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
    """Frobenius norm of ``m`` (0 for empty blocks).

    On complex128 and float64 input, the two BLAS dots of the real and
    imaginary views of ``ravel(order="K")`` (one dot for real input) that
    ``np.linalg.norm(m)`` makes, without its dispatch; the result is
    bit-equal.  Other dtypes, integers among them, go through ``norm``.
    """
    x = np.asarray(m).ravel(order="K")
    if x.dtype.char == "D":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    if x.dtype.char == "d":
        return math.sqrt(x.dot(x))
    return float(np.linalg.norm(x))


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm: the largest singular value of ``m`` (0 for empty blocks).

    The leading value of one ``np.linalg.svd``, the same LAPACK call that
    ``np.linalg.norm(m, 2)`` makes, without its axis handling; the result
    is bit-equal.  It is the one spectral-norm route of the package.
    """
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def numerical_rank(
    m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL, cutoff: float | None = None
) -> int:
    """Number of singular values above ``cutoff``, by default ``zero_threshold(s_1)``."""
    m = as_matrix(m, name="numerical_rank input")
    s = np.linalg.svd(m, compute_uv=False)
    if cutoff is None:
        cutoff = tol.zero_threshold(float(s[0]) if s.size else 0.0)
    return int(np.sum(s > cutoff))


def null_space(m: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the numerical right null space, cut at ``zero_threshold(s_1)``."""
    m = as_matrix(m, name="null_space input")
    _, s, vh = np.linalg.svd(m)
    rank = int(np.sum(s > tol.zero_threshold(float(s[0]) if s.size else 0.0)))
    return adjoint(vh)[:, rank:]


# ---------------------------------------------------------------------------
# JSON matrix schema: {"rows": r, "cols": c, "data": [[re, im], ...]} row-major
# ---------------------------------------------------------------------------

def matrix_from_json_dict(d: dict, name: str = "matrix") -> np.ndarray:
    """Parse the JSON schema, rejecting shape mismatches and non-finite entries.

    ``data`` as ``load_json`` parses it is converted by one ``np.array`` call
    when that gives a ``(rows*cols, 2)`` array of booleans, integers or
    floats, all finite.  Anything else goes through the per-entry loop,
    the only place a ``MatrixFormatError`` is raised.
    """
    if not isinstance(d, dict):
        raise MatrixFormatError(f"{name}: expected a JSON object, got {type(d).__name__}")
    try:
        rows, cols, data = d["rows"], d["cols"], d["data"]
    except (KeyError, TypeError) as exc:
        raise MatrixFormatError(f"{name}: missing field {exc}") from exc
    if type(rows) is not int or type(cols) is not int or rows <= 0 or cols <= 0:  # bool is no size
        raise MatrixFormatError(f"{name}: rows/cols must be positive integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        got = len(data) if isinstance(data, list) else "non-list"
        raise MatrixFormatError(
            f"{name}: data length {got} does not match rows*cols={rows * cols}"
        )
    try:
        pairs = np.array(data)
    except (ValueError, TypeError, OverflowError):  # ragged or unconvertible: the loop says why
        pairs = None
    if (
        pairs is not None
        and pairs.shape == (rows * cols, 2)
        and pairs.dtype.kind in "biuf"
        and np.isfinite(pairs).all()
    ):
        return pairs.astype(np.float64).view(np.complex128).reshape(rows, cols)
    out = np.empty(rows * cols, dtype=complex)
    for i, entry in enumerate(data):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) for x in entry)
        ):
            raise MatrixFormatError(f"{name}: data[{i}] must be a [re, im] pair")
        try:
            re, im = float(entry[0]), float(entry[1])
        except OverflowError:  # an integer literal beyond the float range
            raise MatrixFormatError(f"{name}: data[{i}] is not finite") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise MatrixFormatError(f"{name}: data[{i}] is not finite")
        out[i] = complex(re, im)
    return out.reshape(rows, cols)


def load_json(path, name: str):
    """The JSON document in the file at ``path``.

    A file that is not UTF-8 text or not strict JSON raises
    ``MatrixFormatError`` naming the operand ``name``; ``NaN``,
    ``Infinity`` and number literals beyond the float range are not JSON.
    A file that cannot be opened or read raises the ``OSError``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MatrixFormatError(f"{name}: not UTF-8 text ({exc})") from exc
    try:
        return orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        raise MatrixFormatError(f"{name}: invalid JSON ({exc})") from exc


def dump_json(obj) -> str:
    """``obj`` as one compact line of strict JSON with sorted keys.

    Each complex128 2-d array in ``obj`` is written in the matrix schema,
    the bytes of its entries listed as Python floats; a non-finite entry
    raises ``ArgumentError``.  A float64 array would be written as bare
    nested lists, so every matrix must be complex128, as ``as_matrix``
    makes it.  Other floats take their shortest round-trip form and
    non-finite ones become ``null``; numpy scalars serialize as the
    Python numbers they hold.  Integers must lie in ``[-2**63, 2**64)``.
    """
    refused = []

    def matrix(m):  # orjson's hook for a type it does not write itself
        if isinstance(m, np.ndarray) and m.ndim == 2 and m.dtype == np.complex128:
            if np.isfinite(m).all():
                data = np.ascontiguousarray(m).view(np.float64).reshape(-1, 2)
                return {"cols": m.shape[1], "data": data, "rows": m.shape[0]}
            refused.append(m)
        raise TypeError  # orjson drops the hook's exception, hence ``refused``

    try:
        return orjson.dumps(obj, default=matrix, option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY).decode()
    except orjson.JSONEncodeError:
        if refused:
            raise ArgumentError("matrix contains non-finite entries") from None
        raise


def load_matrix(path, name: str = "matrix") -> np.ndarray:
    return matrix_from_json_dict(load_json(path, name), name=name)
