"""Deterministic, seedable generators: the one home of every input family.

Every generator is a pure function of its parameters and either a 64-bit
seed or a numpy ``Generator``; identical inputs reproduce identical
matrices bit for bit on one platform.  A random family takes ``(n, rng)``
with n drawn first by its caller, as ``suites._instance`` does, and
``gen_corpus`` streams one.  Each family states its truth, the verdict
its construction fixes, in its docstring; the tests, ``tests/outputs.py``
and the gates read every family from here.  Condition numbers of the
random similarities are clipped so that the certified residual
tolerances stay meaningful in double precision.  The similarity
certificate's residuals grow about linearly in the similarity's
condition number: on ``P0^-1 V P0`` with n = 2..8 the largest,
``P S = V P``, read 4e-7, 5e-6 and 5e-5 of its threshold at cond(P0) =
1e2, 1e3 and 1e4, and at 1e5 most computed spectra leave the unimodular
band and are refused.  A parameter of a generator in ``__all__`` that
would make a matrix non-finite raises ``ArgumentError`` naming it; the
tolerance-edge families take fixed parameters from their callers and check
none.
"""

from __future__ import annotations

import numpy as np

from .conj import Conjugation, entrywise_conjugation, hyperbolic_orthogonal_example, make_conjugation
from .errors import ArgumentError
from .matcore import adjoint, operator_norm

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


# ---------------------------------------------------------------------------
# Tolerance-edge families, each with its truth, read by the tests and
# ``tests/outputs.py``.  ``__all__`` lists the generators the CLI and gates call.
# ---------------------------------------------------------------------------

def _block_diag(*blocks) -> np.ndarray:
    out = np.zeros((sum(map(len, blocks)),) * 2, dtype=complex)
    i = 0
    for b in blocks:
        out[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    return out


def gen_corpus(family, rng: np.random.Generator, count: int, *params):
    """``count`` draws of ``family(n, rng, *params)`` from one stream, n in 2..8 drawn first each time."""
    for _ in range(count):
        yield family(int(rng.integers(2, 9)), rng, *params)


def gen_conditioned_similarity(n: int, rng: np.random.Generator, c: float) -> tuple[np.ndarray, np.ndarray]:
    """``(S, P0)``: ``S = P0^-1 V P0`` with V Haar and ``P0 = U diag(geomspace(1, 1/c, n)) U*``, U Haar.
    Truth: similar to V, so power bounded with invariant metric P0^2, at cond(P0) = c."""
    v = haar_unitary(n, rng)
    u = haar_unitary(n, rng)
    p0 = u @ np.diag(np.geomspace(1, 1 / c, n)) @ adjoint(u)
    return np.linalg.solve(p0, v @ p0), p0


def gen_coupled_unimodular(n: int, rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """``(Q ([[1, 1], [0, e^(i d)]] (+) U) Q*, d)``: d log-uniform in [2e-6, 0.1], U diagonal unimodular,
    Q Haar.  Truth: power bounded and similar to a unitary, with sup ||S^k|| and cond(P) near 2 / d."""
    delta = float(np.exp(rng.uniform(np.log(2e-6), np.log(0.1))))
    u = np.diag(np.exp(2j * np.pi * rng.random(n - 2)))
    m = _block_diag(np.array([[1.0, 1.0], [0.0, np.exp(1j * delta)]]), u)
    q = haar_unitary(n, rng)
    return q @ m @ adjoint(q), delta


def gen_unitary_plus_nilpotent(n: int, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """``(Q (U + N) Q*, p)``: Q Haar, and per Jordan-like block of size k <= p ``lam I + N_k`` with lam
    unimodular and N_k strictly upper Gaussian, so N, of order p <= 4 (the largest block, drawn first),
    commutes with U.  Truth: power bounded exactly when p = 1, and a strict (2p - 1)-isometry."""
    p = int(rng.integers(1, min(4, n) + 1))
    sizes = [p]
    while sum(sizes) < n:
        sizes.append(int(rng.integers(1, min(p, n - sum(sizes)) + 1)))
    blocks = [
        np.exp(2j * np.pi * rng.random()) * np.eye(k)
        + np.triu(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)), 1)
        for k in sizes
    ]
    q = haar_unitary(n, rng)
    return q @ _block_diag(*blocks) @ adjoint(q), p


def gen_coupled_power_bounded(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unimodular diagonal (+) contraction, conjugated by a W of condition 10.
    Truth: power bounded, and the Putnam-Fuglede property fails."""
    k = n // 2
    phases = np.exp(2j * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k)
    g = rng.standard_normal((n - k, n - k)) + 1j * rng.standard_normal((n - k, n - k))
    d = _block_diag(np.diag(phases), g * (0.8 / np.abs(np.linalg.eigvals(g)).max()))
    w = haar_unitary(n, rng) @ np.diag(np.geomspace(1.0, 10.0, n)) @ haar_unitary(n, rng)
    return w @ d @ np.linalg.inv(w)


def gen_similar_to_diagonal(phases, seed: int) -> np.ndarray:
    """``P0^-1 U diag(phases) U* P0`` with Haar U and a random positive P0.  Truth: similar to
    ``diag(phases)``; ``X -> S* X S`` fixes a space of dimension the sum of squared multiplicities."""
    rng = derive_rng(seed)
    n = len(phases)
    p0 = random_positive_definite(n, rng)
    u = haar_unitary(n, rng)
    return np.linalg.solve(p0, u @ np.diag(phases) @ adjoint(u) @ p0)


def gen_cluster_edge(seed: int):
    """``(ratio, S)``: ``gen_similar_isometry(6, seed)`` with one eigenvalue pulled to ``ratio * 1e-6 *
    max(1, ||S||_2)`` from another, from equal (a scalar cluster) through the certificate's former fixed
    clustering distance, and past it.  Truth: similar to a unitary at every ratio."""
    import scipy.linalg  # kept off the import of gen

    s, p0, u = gen_similar_isometry(6, seed=seed)
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.diag(t).copy()
    cluster_tol = 1e-6 * max(1.0, operator_norm(s))
    for ratio in (0, 1e-3, 0.1, 0.5, 0.9, 1.1, 2, 10):
        phases[1] = phases[0] * np.exp(1j * ratio * cluster_tol)
        yield ratio, np.linalg.solve(p0, z @ np.diag(phases) @ adjoint(z) @ p0)


def gen_jordan_edge(a: float) -> list[np.ndarray]:
    """``S = [[1, a], [0, 1]]``, then ``Q S Q*`` for ``Q = haar_unitary(2, derive_rng(k))``, k = 0..3.
    Truth: a Jordan block, not power bounded, for every a != 0; the certificate reads it bounded at
    a <= 1e-8 and not from 3e-8 on, in every basis."""
    s = np.array([[1.0, a], [0.0, 1.0]], dtype=complex)
    return [s, *(q @ s @ adjoint(q) for q in (haar_unitary(2, derive_rng(k)) for k in range(4)))]


def gen_rotated_jordan(blocks, lam: complex, basis: int) -> np.ndarray:
    """``Q (J_k1(lam) (+) J_k2(lam) (+) ...) Q*`` with ``Q = haar_unitary(n, derive_rng(basis, n))``.
    Truth: at |lam| = 1, power bounded only when all blocks are 1 x 1; ``A - lam I`` has ascent the
    largest block."""
    a = _block_diag(*(gen_jordan(k, lam) for k in blocks))
    q = haar_unitary(len(a), derive_rng(basis, len(a)))
    return q @ a @ adjoint(q)


def gen_rotated_jordan_blocks(sizes=range(1, 5), bases=range(4)):
    """``(gen_rotated_jordan([k], lam, basis), k, lam, basis)`` at the four phases of the jordan-strictness
    gate.  Truth: power bounded exactly when k = 1, and a strict (2k - 1)-isometry."""
    for k in sizes:
        for lam in (1.0, -1.0, 1j, np.exp(0.7j)):
            for b in bases:
                yield gen_rotated_jordan([k], lam, b), k, lam, b


def gen_pf_edge(diagonal, eps: float) -> np.ndarray:
    """``Q D Q*`` for ``D = diag(diagonal)`` with ``D[1, 2] = eps`` and the fixed ``Q = haar_unitary(3,
    derive_rng(32))``.  Truth: with ``diagonal[1]`` unimodular and ``diagonal[2]`` inside the disc, the
    Putnam-Fuglede property fails for every eps != 0; near eps = 1e-8 the tolerances decide."""
    q = haar_unitary(3, derive_rng(32))
    d = np.diag(diagonal).astype(complex)
    d[1, 2] = eps
    return q @ d @ adjoint(q)


def gen_two_close_phases(delta: float, coupled: int) -> np.ndarray:
    """``Q D Q*`` for ``D = diag(1, exp(i delta), 0.5)`` with ``D[coupled, 2] = 1``, a fixed Haar Q.
    Truth: power bounded, its two unimodular eigenvalues of condition below 3; Putnam-Fuglede fails."""
    d = np.diag([1.0, np.exp(1j * delta), 0.5]).astype(complex)
    d[coupled, 2] = 1.0
    q = haar_unitary(3, derive_rng(41))
    return q @ d @ adjoint(q)


def gen_close_phase_probes():
    """``(A, V)``: ``gen_two_close_phases(delta, coupled)`` at 33 delta log-spaced in [1e-10, 1e-2], both
    couplings, at ``V = I``, ``exp(i delta) I`` and ``diag(1, exp(i delta), -1)``.  Truth: A has three
    distinct eigenvalues and V is normal, so every Kronecker map is diagonalizable, of ascent at most 1."""
    for coupled in (0, 1):
        for delta in np.logspace(-10, -2, 33):
            a = gen_two_close_phases(delta, coupled)
            for v in (np.eye(3), np.exp(1j * delta) * np.eye(3), np.diag([1.0, np.exp(1j * delta), -1.0])):
                yield a, v


def gen_ascent_corpus():
    """``(A, V)``: Jordan blocks on the circle, and non-normal similar-to-unitary matrices at one of their
    phases and its conjugate.  Truth: ``J_k(1)`` at ``V = I`` has ascent k; on the similar-to-unitary
    matrices the elementary map's inclusion fails at the phase, and the derivation's at its conjugate."""
    for k in range(1, 5):
        yield gen_jordan(k, 1.0), np.eye(k, dtype=complex)
    for k in range(1, 4):
        for mu in (1.0, 1j, -1j):
            yield gen_jordan(k, 1j), mu * np.eye(k, dtype=complex)
    for seed in range(20):
        n = 2 + seed % 4
        s = gen_similar_isometry(n, seed=900 + seed)[0]
        lam = np.linalg.eigvals(s)[0]
        yield s, lam / abs(lam) * np.eye(n)
        yield s, np.conj(lam) / abs(lam) * np.eye(n)


def gen_close_phase_pair(delta: float, basis: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(S, T)``: ``S = diag(lam, lam e^(i delta))`` and ``T = [[1/lam, 1], [0, e^(-i delta)/lam]]`` with
    lam = (3 + 4i)/5, both rotated by ``Q = haar_unitary(2, derive_rng(basis))`` unless basis is None.

    Truth: S and T are power bounded and ``T S - I = lam e^(i delta) E12``, so ``||T S - I||_F = 1``.
    The order-k defect is ``(e^(i delta) - 1)^(k-1) lam e^(i delta) E12``: T is a left m-inverse of S
    for no m.
    """
    lam = (3 + 4j) / 5
    s = np.diag([lam, lam * np.exp(1j * delta)])
    t = np.array([[1 / lam, 1.0], [0.0, np.exp(-1j * delta) / lam]])
    if basis is None:
        return s, t
    q = haar_unitary(2, derive_rng(basis))
    return q @ s @ adjoint(q), q @ t @ adjoint(q)


def gen_c_twisted_block(delta: float) -> tuple[np.ndarray, Conjugation]:
    """``(S, C)``: ``S = [[1, 1], [0, e^(i delta)]]`` with the entrywise conjugation C.

    Truth: S has two distinct unimodular eigenvalues, so it is power bounded for 0 < delta < 2 pi, and
    ``S* C S C = conj(S^T S) != I``: S is not (1,C)-isometric, so by the paper's rigidity it is
    (m,C)-isometric at no m.
    """
    return np.array([[1.0, 1.0], [0.0, np.exp(1j * delta)]]), entrywise_conjugation(2)
