"""Deterministic, seedable generators for the verification corpora.

All generators are pure functions of their parameters and a 64-bit seed;
identical seeds reproduce identical matrices bit for bit on one platform.
Condition numbers of the random similarities are clipped so that the
certified residual tolerances stay meaningful in double precision.  The
similarity certificate's residuals grow about linearly in the
similarity's condition number: on ``P0^-1 V P0`` with n = 2..8 the
largest, ``P S = V P``, read 4e-7, 5e-6 and 5e-5 of its threshold at
cond(P0) = 1e2, 1e3 and 1e4, and at 1e5 most computed spectra leave the
unimodular band and are refused.  A parameter that would make a matrix
non-finite raises ``ArgumentError`` naming it.
"""

from __future__ import annotations

import numpy as np

from .conj import Conjugation, entrywise_conjugation, hyperbolic_orthogonal_example, make_conjugation
from .errors import ArgumentError
from .matcore import adjoint

__all__ = [
    "derive_rng",
    "haar_unitary",
    "random_positive_definite",
    "gen_jordan",
    "gen_similar_isometry",
    "gen_left_m_pair",
    "gen_power_bounded",
    "gen_conjugation",
    "gen_1c_isometry",
]

# Condition-number clip for random similarities; see module docstring.
COND_CLIP = 100.0

# Minimum angular separation enforced between generated unimodular
# eigenvalues, keeping them unambiguous for the semisimplicity test.
_PHASE_GAP = 1e-3


def derive_rng(seed: int, index: int = 0) -> np.random.Generator:
    """Per-instance generator derived from a master seed."""
    return np.random.default_rng((int(seed) & 0xFFFFFFFFFFFFFFFF, int(index)))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like unitary: QR of a complex Gaussian with phase-fixed R."""
    if n < 1:
        raise ArgumentError("dimension must be positive")
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_positive_definite(n: int, rng: np.random.Generator) -> np.ndarray:
    """Gram matrix of a Gaussian sample plus 0.1 I, condition clipped."""
    g = rng.standard_normal((n, n))
    p = g @ g.T + 0.1 * np.eye(n)
    w, v = np.linalg.eigh(p)
    w = np.clip(w, w.max() / COND_CLIP, None)
    return ((v * w) @ v.T).astype(complex)


def _separated_phases(k: int, rng: np.random.Generator) -> np.ndarray:
    """k angles in [0, 2pi) with pairwise circular gaps above _PHASE_GAP.

    Up to 1000 sorted uniform draws are tried first.  If none is separated
    (at k in the hundreds), the gaps are drawn instead: each is _PHASE_GAP
    plus a Dirichlet share of the rest of the circle, placed from a
    uniform start.
    """
    if k * _PHASE_GAP >= 2.0 * np.pi:
        raise ArgumentError(f"cannot separate {k} phases by {_PHASE_GAP}; dimension too large")
    for _ in range(1000):
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
        if k == 1:
            return theta
        gaps = np.diff(np.concatenate([theta, [theta[0] + 2.0 * np.pi]]))
        if gaps.min() > _PHASE_GAP:
            return theta
    gaps = _PHASE_GAP + (2.0 * np.pi - k * _PHASE_GAP) * rng.dirichlet(np.ones(k))
    return np.sort((rng.uniform(0.0, 2.0 * np.pi) + np.cumsum(gaps)) % (2.0 * np.pi))


def gen_jordan(k: int, lam: complex) -> np.ndarray:
    """The k x k Jordan block with eigenvalue ``lam``.

    With ``|lam| = 1`` these are the canonical strict higher-order
    isometries: the defect of (J, J*) first vanishes at order 2k - 1, and
    the block is not power bounded for k >= 2.
    """
    if k < 1:
        raise ArgumentError("k must be >= 1")
    lam = complex(lam)
    if not np.isfinite(lam):
        raise ArgumentError(f"lambda must be a finite complex number (both parts finite), got {lam!r}")
    j = np.eye(k, dtype=complex) * lam
    j += np.eye(k, k=1, dtype=complex)
    return j


def gen_similar_isometry(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample ``S = P0^{-1} U P0`` with Haar-like U and clipped PD P0.

    Returns ``(S, P0, U)``; every output is power bounded and carries the
    exact invariant metric P0^2.
    """
    if n < 1:
        raise ArgumentError("dimension must be positive")
    rng = derive_rng(seed)
    u = haar_unitary(n, rng)
    p0 = random_positive_definite(n, rng)
    s = np.linalg.solve(p0, u @ p0)
    return s, p0, u


def gen_left_m_pair(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Power-bounded pair (S, T) with vanishing defect at every order, hence no order of its own."""
    s, p0, _ = gen_similar_isometry(n, seed)
    p2 = p0 @ p0
    return s, np.linalg.solve(p2, adjoint(s) @ p2)


def gen_power_bounded(n: int, seed: int) -> np.ndarray:
    """Random power-bounded matrix ``W (D1 + D0) W^{-1}``.

    D1 is diagonal unimodular with separated phases, D0 has spectral
    radius at most 0.9, and W is a random invertible matrix with clipped
    condition number.  The unimodular block size varies over the corpus,
    including the all-unimodular and all-contractive extremes.
    """
    if n < 2:
        raise ArgumentError("dimension must be >= 2")
    rng = derive_rng(seed)
    k = int(rng.integers(0, n + 1))
    d = np.zeros((n, n), dtype=complex)
    if k > 0:
        d[:k, :k] = np.diag(np.exp(1j * _separated_phases(k, rng)))
    if n - k > 0:
        g = rng.standard_normal((n - k, n - k)) + 1j * rng.standard_normal((n - k, n - k))
        rho = max(np.abs(np.linalg.eigvals(g)).max(), 1e-3)
        d[k:, k:] = g * (0.9 * rng.uniform(0.5, 1.0) / rho)
    w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    uu, sv, vh = np.linalg.svd(w)
    sv = np.clip(sv, sv.max() / COND_CLIP, None)
    w = (uu * sv) @ vh
    return w @ d @ np.linalg.inv(w)


def gen_conjugation(n: int, seed: int) -> Conjugation:
    """Random conjugation ``J = Q Q^T`` for a Haar-like unitary Q."""
    if n < 1:
        raise ArgumentError("dimension must be positive")
    rng = derive_rng(seed)
    q = haar_unitary(n, rng)
    return make_conjugation(q @ q.T)


def gen_1c_isometry(
    n: int,
    seed: int,
    hyperbolic: bool = False,
    t: float = 1.0,
) -> tuple[np.ndarray, Conjugation]:
    """Positive instance for the C-twisted isometry identity.

    Default: a real orthogonal S with the entrywise conjugation, which is
    power bounded and satisfies ``S* C S C = I``.  With ``hyperbolic=True``
    the 2x2 complex orthogonal family (padded by the identity for n > 2)
    is returned instead: still (1,C)-isometric, but not power bounded for
    t != 0.
    """
    if n < 1:
        raise ArgumentError("dimension must be positive")
    c = entrywise_conjugation(n)
    if hyperbolic:
        if n < 2:
            raise ArgumentError("hyperbolic instances need dimension >= 2")
        block = hyperbolic_orthogonal_example(t)
        s = np.eye(n, dtype=complex)
        s[:2, :2] = block
        return s, c
    rng = derive_rng(seed)
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    return q.astype(complex), c

