"""Seeded input matrices for the ``ladder`` and ``refuse`` workloads.

Every construction draws from a numpy generator derived from the run seed
and a stable key, never from ``opslab.gen``: a change to the library's
generators or seed scheme cannot change what the benchmark measures.  Each
family is built so that its expected outcome follows from the
construction itself (a known spectrum, a known block structure or a
known factorization), not from running the library.
"""

from __future__ import annotations

import zlib

import numpy as np

# Condition number of the random similarities.  The library's certificates
# amplify rounding by up to the fourth power of it, so it stays moderate
# enough for n = 32 certificates to pass at the default tolerances.
COND = 10.0

# Spectral radius of the contraction blocks.
CONTRACTION_RADIUS = 0.8


def rng_for(seed: int, *key) -> np.random.Generator:
    """Generator for one input, derived from the run seed and a key.

    Strings in the key are hashed with CRC-32, which is stable across
    processes and Python versions (unlike ``hash``).
    """
    words = [int(seed)]
    for part in key:
        words.append(zlib.crc32(part.encode()) if isinstance(part, str) else int(part))
    return np.random.default_rng(np.random.SeedSequence(words))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def similarity(n: int, rng: np.random.Generator, cond: float = COND) -> np.ndarray:
    """Unitary times a Hermitian positive definite factor of condition ``cond``."""
    w = np.exp(rng.uniform(0.0, np.log(cond), n))
    w[0], w[-1] = 1.0, cond
    q = haar_unitary(n, rng)
    return haar_unitary(n, rng) @ ((q * w) @ q.conj().T)


def separated_phases(k: int, rng: np.random.Generator) -> np.ndarray:
    """k unimodular numbers with pairwise angular gaps of at least pi / k."""
    theta = 2.0 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.5, k)) / k
    return np.exp(1j * theta)


def contraction(n: int, rng: np.random.Generator, radius: float = CONTRACTION_RADIUS) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g * (radius / np.abs(np.linalg.eigvals(g)).max())


def jordan(k: int, lam: complex) -> np.ndarray:
    return np.eye(k, dtype=complex) * lam + np.eye(k, k=1, dtype=complex)


def block_diag(*blocks: np.ndarray) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    i = 0
    for b in blocks:
        k = b.shape[0]
        out[i:i + k, i:i + k] = b
        i += k
    return out


def conjugated(d: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``W D W^{-1}``."""
    return w @ np.linalg.solve(w.T, d.T).T


# ---------------------------------------------------------------------------
# Families with an outcome fixed by construction
# ---------------------------------------------------------------------------

def similar_isometry(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``S = W U W^{-1}`` with U unitary, its canonical left inverse T, and
    the eigenvalues of U (so of S, and of T*).

    ``X = (W W*)^{-1}`` is an invariant metric of S, so S is similar to an
    isometry and ``T = X^{-1} S* X`` satisfies ``T S = I`` and is power
    bounded; ``T* = X S X^{-1}`` has the spectrum of S.
    """
    w = similarity(n, rng)
    phases = separated_phases(n, rng)
    s = conjugated(np.diag(phases), w)
    x = np.linalg.inv(w @ w.conj().T)
    x = 0.5 * (x + x.conj().T)
    t = np.linalg.solve(x, s.conj().T @ x)
    return s, t, phases


def power_bounded(n: int, rng: np.random.Generator, orthogonal: bool) -> np.ndarray:
    """Unimodular diagonal block (+) contraction, conjugated by W.

    With a unitary W the two parts are orthogonal and the Putnam-Fuglede
    property holds; with a non-unitary W they are coupled, so it fails
    (the unimodular eigenvectors are not eigenvectors of A*).  Both are
    power bounded with an interior block, so no invariant metric exists.
    """
    k = n // 2
    d = block_diag(np.diag(separated_phases(k, rng)), contraction(n - k, rng))
    w = haar_unitary(n, rng) if orthogonal else similarity(n, rng)
    return conjugated(d, w)


def defective_unimodular(n: int, rng: np.random.Generator) -> np.ndarray:
    """Two unimodular 2x2 Jordan blocks (+) a contraction: not power bounded."""
    lam = separated_phases(2, rng)
    d = block_diag(jordan(2, lam[0]), jordan(2, lam[1]), contraction(n - 4, rng))
    return conjugated(d, similarity(n, rng))


def radius_above_one(n: int, rng: np.random.Generator, radius: float = 1.05) -> np.ndarray:
    """Diagonalizable with one eigenvalue of modulus ``radius``, the rest in the disc."""
    spectrum = np.concatenate(
        [radius * separated_phases(1, rng), np.linalg.eigvals(contraction(n - 1, rng))]
    )
    return conjugated(np.diag(spectrum), similarity(n, rng))


def unit_jordan_blocks(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Unimodular Jordan blocks of size k, unitarily conjugated.

    A unimodular k x k Jordan block is a strict (2k-1)-isometry, and a
    unitary similarity keeps m-isometry, so the direct sum (padded by a
    unimodular diagonal) is m-isometric exactly for m >= 2k - 1.
    """
    count = n // k
    lams = separated_phases(count + n % k, rng)
    blocks = [jordan(k, lam) for lam in lams[:count]]
    if n % k:
        blocks.append(np.diag(lams[count:]))
    return conjugated(block_diag(*blocks), haar_unitary(n, rng))


def hyperbolic(n: int, rng: np.random.Generator, t: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """A (1,C)-isometry that is not power bounded, and its conjugation J.

    ``M(t) = [[cosh t, i sinh t], [-i sinh t, cosh t]]`` is complex
    orthogonal with eigenvalues ``e^(+-t)``.  ``S0 = O (M(t) (+) R) O^T``
    with O, R real orthogonal stays complex orthogonal, so it is
    (1,C0)-isometric for the entrywise conjugation C0.  Moving to the
    conjugation ``x -> J conj(x)`` with ``J = Q Q^T`` (Q unitary) maps S0 to
    ``S = Q S0 Q*``, which is (1,C)-isometric with the same spectrum.
    """
    m = np.array([[np.cosh(t), 1j * np.sinh(t)], [-1j * np.sinh(t), np.cosh(t)]])
    r, _ = np.linalg.qr(rng.standard_normal((n - 2, n - 2)))
    o, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s0 = o @ block_diag(m, r) @ o.T
    q = haar_unitary(n, rng)
    j = q @ q.T
    return q @ s0 @ q.conj().T, 0.5 * (j + j.T)


def douglas_pair(n: int, rng: np.random.Generator, included: bool) -> tuple[np.ndarray, np.ndarray]:
    """``(A, B)`` with B of rank ``n - n // 4``.

    With ``included`` A is ``B C0`` for a random C0, so ran(A) lies in
    ran(B); otherwise A is a random full-rank matrix, whose range cannot.
    """
    rank = n - n // 4
    x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    y = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    b = x @ y.conj().T / n
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    return (b @ g if included else g), b
