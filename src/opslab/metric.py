"""Structure theory for power-bounded matrices.

The central objects are invariant metrics: Hermitian positive definite
solutions X of ``S* X S = X``, built in O(n^3) from the Riesz spectral
projectors of S on the Schur form of its certificate.  When one exists,
``P = psd_sqrt(X)`` conjugates S to an isometry (``P S P^{-1}`` has
orthonormal columns), and ``P^{-2} S* P^{2}`` is a power-bounded left
m-inverse of S for every m.
Around that core this module provides:

* a power-boundedness certificate based on the exact finite-dimensional
  criterion (spectral radius at most 1, unimodular eigenvalues
  semisimple), read off the one complex Schur form of S that its report
  hands on to the metric, the splitting and the Putnam-Fuglede probes,
  with the sup of power norms as a witness computed only when read;
* Douglas factorization ``A = B C`` with the minimal-norm factor and its
  optimality value ``inf {lam : A A* <= lam B B*}``;
* the splitting of a power-bounded matrix into its asymptotically
  vanishing and norm-preserving parts, read off that Schur form reordered;
* Putnam-Fuglede checks for the elementary operator ``X -> A X V* - X``
  against its adjoint-side companion, with kernel-inclusion and ascent
  bounds;
* the rigidity consequences: a power-bounded m-isometry is isometric, and
  a power-bounded pair (S, T) with vanishing defect is simultaneously
  similar to a conjugate pair of unitaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from . import minv
from .errors import ArgumentError, AssumptionError, IdentityCheckError
from .gen import haar_unitary
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    as_matrix,
    frobenius,
    matrix_to_json_dict,
    null_space,
    numerical_rank,
    operator_norm,
    psd_sqrt,
    pseudo_inverse,
    range_basis,
    require_same_shape,
)

__all__ = [
    "PowerBoundReport",
    "certify_power_bounded",
    "invariant_metric",
    "extract_isometry",
    "canonical_left_m_inverse",
    "SimilarityCertificate",
    "similarity_certificate",
    "douglas_mu",
    "douglas_factor",
    "C01Decomposition",
    "c0_c1_decompose",
    "PFReport",
    "pf_property_check",
    "ascent_bound_check",
    "similar_to_unitary",
    "verify_prop_isometric",
]

# Eigenvalues closer than this (relative to max(1, ||S||)) are treated as
# one spectral cluster when testing semisimplicity.  Below this separation
# a Jordan block and a pair of nearby simple eigenvalues are numerically
# indistinguishable in double precision.
_CLUSTER_TOL = 1e-6

# A cluster's Schur block counts as scalar (one multiple semisimple
# eigenvalue) within this Frobenius distance of a multiple of I, relative to
# max(1, ||S||).  Rounding leaves such blocks 1e-15 to 4e-15 from scalar at
# n <= 64; distinct eigenvalues 1e-10 apart kept in one block already fail
# the certificate's isometry check at n = 6.
_SCALAR_TOL = 1e-12


@dataclass(frozen=True)
class PowerBoundReport:
    """Verdict and evidence for ``sup_n ||S^n|| < infinity``.

    ``bounded`` is decided by the criterion fields (spectral radius within
    tolerance of the unit disc and every unimodular eigenvalue
    semisimple).  ``witness`` holds ``(eigenvalue, reason)`` when
    unbounded.  The spectral analysis behind the verdict is kept for its
    consumers: the complex Schur pair ``(T, Q)`` of ``S = Q T Q*``,
    ``scale = max(1, ||S||_2)``, the unimodular ``band = rel_tol * max(1,
    rho)`` and the ``clusters`` (within ``1e-6 * scale``) of the positions
    on the diagonal of T whose eigenvalues lie in the band.
    ``m1_estimate`` is ``max ||S^n|| = max ||T^n||`` over ``n <= horizon``,
    a lower bound on ``sup_n ||S^n||`` that can fall far short of it: on
    ``[[1, 1], [0, exp(i d)]]`` with ``d = 1e-3`` it reads 64.005 at horizon
    64 and 2000.0 at horizon 4000.  It only witnesses the verdict, so it is
    computed on first read and cached, and it is ``inf`` when a power
    overflows.  The JSON form states the horizon next to it.
    """

    bounded: bool
    spectral_radius: float
    unimodular_semisimple: bool
    schur: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    scale: float
    band: float
    clusters: tuple[tuple[int, ...], ...]
    horizon: int
    witness: tuple[complex, str] | None = None

    @cached_property
    def m1_estimate(self) -> float:
        t = self.schur[0]
        m1 = 0.0
        power = np.eye(t.shape[0], dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(self.horizon):
                power = power @ t
                if not np.isfinite(power).all():
                    return np.inf
                m1 = max(m1, operator_norm(power))
        return m1

    @property
    def criterion(self) -> dict:
        return {
            "spectral_radius": self.spectral_radius,
            "unimodular_semisimple": self.unimodular_semisimple,
        }

    def to_json_dict(self) -> dict:
        m1 = self.m1_estimate
        out = {
            "bounded": self.bounded,
            "m1_estimate": m1 if np.isfinite(m1) else None,
            "horizon": self.horizon,
            "criterion": self.criterion,
        }
        if self.witness is not None:
            lam, reason = self.witness
            out["witness"] = {"eigenvalue": [lam.real, lam.imag], "reason": reason}
        return out


def _clusters(eigs: list[complex], positions: list[int], cluster_tol: float) -> tuple[tuple[int, ...], ...]:
    """Greedy clusters of ``eigs[positions]``: each takes the unclustered positions near the first."""
    remaining = list(positions)
    clusters = []
    while remaining:
        first = remaining.pop(0)
        cluster, rest = [first], []
        for i in remaining:
            (cluster if abs(eigs[i] - eigs[first]) <= cluster_tol else rest).append(i)
        clusters.append(tuple(cluster))
        remaining = rest
    return tuple(clusters)


def certify_power_bounded(
    s: np.ndarray, horizon: int = 64, tol: ToleranceConfig = DEFAULT_TOL
) -> PowerBoundReport:
    """Decide power boundedness by the finite-dimensional criterion.

    A matrix is power bounded exactly when its spectral radius is at most
    1 and every unimodular eigenvalue is semisimple (geometric equals
    algebraic multiplicity).  The spectrum is the diagonal of one complex
    Schur form of S.  The semisimplicity test clusters unimodular
    eigenvalues within ``1e-6 * max(1, ||S||)`` and compares the numerical
    rank of ``S - lambda I`` against the cluster size with a matched
    cutoff.  The decision reads the spectrum alone; the sup of power norms
    over ``n <= horizon`` is computed only when the report's
    ``m1_estimate`` is read, and never enters the decision.
    """
    s = as_matrix(s, square=True, name="S")
    if horizon < 1:
        raise ArgumentError(f"horizon must be >= 1, got {horizon}")
    n = s.shape[0]
    t, q = scipy.linalg.schur(s, output="complex")
    eigs = np.diag(t)
    rho = float(np.max(np.abs(eigs)))
    band = tol.rel_tol * max(1.0, rho)
    scale = max(1.0, operator_norm(s))
    cluster_tol = _CLUSTER_TOL * scale
    unimodular = [i for i, lam in enumerate(eigs.tolist()) if abs(1.0 - abs(lam)) <= band]
    clusters = _clusters(eigs.tolist(), unimodular, cluster_tol)

    expanding = rho > 1.0 + band
    witness = None
    if expanding:
        witness = (complex(eigs[int(np.argmax(np.abs(eigs)))]), "spectral radius exceeds 1")
    for cluster in [c for c in clusters if len(c) > 1 and not expanding]:
        center = complex(np.mean(eigs[list(cluster)]))
        if n - numerical_rank(s - center * np.eye(n), tol, cutoff=cluster_tol) < len(cluster):
            witness = (center, "unimodular eigenvalue is not semisimple")
            break

    return PowerBoundReport(
        bounded=witness is None,
        spectral_radius=rho,
        unimodular_semisimple=witness is None or expanding,
        schur=(t, q),
        scale=scale,
        band=band,
        clusters=clusters,
        horizon=horizon,
        witness=witness,
    )


def invariant_metric(
    s: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Hermitian positive definite X with ``S* X S = X``, unit spectral norm.

    X is the limit of the averages of ``S*^j S^j``, ``X = sum E* E`` over
    the Riesz projectors E of S onto its eigenvalues, built in O(n^3) from
    the complex Schur form ``S = Q T Q*`` of the ``certify_power_bounded``
    report: its eigenvalue clusters are made contiguous on the diagonal of
    T (LAPACK ``ztrsen``), a cluster whose block is not scalar within
    ``1e-12 * max(1, ||S||)`` is split into its (distinct) eigenvalues, and
    Sylvester solves against the trailing part of T (``ztrsyl``) give
    ``T = V D V^{-1}`` with D block diagonal.  Then
    ``X = Q V^{-*} blockdiag((V* V)_ii) V^{-1} Q*``, hermitized and normalized.

    Raises ``AssumptionError`` when S is not power bounded, has eigenvalues
    inside the unit disc (all: zero is the only fixed point; some: every
    fixed point is singular) or X is not positive definite at tolerance, and
    ``IdentityCheckError`` when ``||S* X S - X||_F > zero_threshold(||S||_F^2)``.
    """
    s = as_matrix(s, square=True, name="S")
    n = s.shape[0]
    report = certify_power_bounded(s, tol=tol)
    if not report.bounded:
        lam, reason = report.witness
        raise AssumptionError(
            "invariant fixed points are not positive definite: "
            f"S is not power bounded ({reason}, eigenvalue {lam:.6g})"
        )
    t, q = report.schur
    eigs = np.diag(t)
    interior = n - sum(map(len, report.clusters))
    if interior:
        raise AssumptionError(
            "the only solution of S* X S = X is zero; no invariant metric exists" if interior == n
            else f"invariant fixed point is not positive definite ({interior} eigenvalues "
            "inside the unit disc); S is not similar to an isometry"
        )

    # The complex ztrsen and ztrsyl fail only on illegal arguments; ztrsyl's
    # info = 1 (equal eigenvalues in two blocks) ends in the checks on X.
    labels = np.empty(n, dtype=int)
    for g, cluster in enumerate(report.clusters):
        labels[list(cluster)] = g
    for g in range(labels.max()):
        lead = labels <= g
        if not lead[: np.count_nonzero(lead)].all():
            t, q, eigs, *_ = scipy.linalg.lapack.ztrsen(lead.astype(np.int32), t, q, job="N")
            labels = np.concatenate([labels[lead], labels[~lead]])

    edges = [*np.flatnonzero(np.diff(labels, prepend=-1)), n]
    bounds = [0]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo > 1:
            offset = frobenius(t[lo:hi, lo:hi] - np.mean(eigs[lo:hi]) * np.eye(hi - lo))
            if offset > _SCALAR_TOL * report.scale:
                bounds.extend(range(lo + 1, hi))
        bounds.append(hi)

    # Row block i of W = V^{-1} is [0, I, -Y_i], where
    # T_ii Y_i - Y_i T_rest = -T_i,rest against the trailing part of T.
    w = np.eye(n, dtype=complex)
    for lo, hi in zip(bounds[:-2], bounds[1:-1]):
        y, factor, _ = scipy.linalg.lapack.ztrsyl(t[lo:hi, lo:hi], t[hi:, hi:], -t[lo:hi, hi:], isgn=-1)
        w[lo:hi, hi:] = -y / factor
    v, _ = scipy.linalg.lapack.ztrtri(w, unitdiag=1)
    block = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    gram = np.where(block[:, None] == block, adjoint(v) @ v, 0.0)
    qw = q @ adjoint(w)
    x = qw @ gram @ adjoint(qw)
    x = 0.5 * (x + adjoint(x))
    x = x / operator_norm(x)
    lam_min = float(np.linalg.eigvalsh(x).min())
    if lam_min <= tol.zero_threshold(1.0):
        raise AssumptionError(
            f"invariant fixed point is not positive definite "
            f"(smallest eigenvalue {lam_min:.3e}); S is not similar to an isometry"
        )
    residual = frobenius(adjoint(s) @ x @ s - x)
    if residual > tol.zero_threshold(tol.scale_of(s) ** 2):
        raise IdentityCheckError(
            f"invariant metric has residual {residual:.3e}"
        )
    return x


@dataclass(frozen=True)
class SimilarityCertificate:
    """Witness that S is similar to an isometry through a positive metric.

    ``p`` is Hermitian positive definite, ``v = P S P^{-1}`` is the
    conjugated isometry, and the residuals record how well
    ``S* P^2 S = P^2``, ``V* V = I`` and ``P S = V P`` hold.  ``s`` is a
    copy of S (not in repr, equality or JSON), so the certificate can stand
    in for S; it also proves S power bounded: ``||S^n|| <= cond(P)``.
    """

    p: np.ndarray
    v: np.ndarray
    residual_metric: float
    residual_isometry: float
    residual_similarity: float
    s: np.ndarray = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "P": matrix_to_json_dict(self.p),
            "V": matrix_to_json_dict(self.v),
            "residuals": {
                "metric": self.residual_metric,
                "isometry": self.residual_isometry,
                "similarity": self.residual_similarity,
            },
        }


def extract_isometry(
    s: np.ndarray, p: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> SimilarityCertificate:
    """Conjugate S by a metric square root: ``V = P S P^{-1}``.

    Requires P Hermitian positive definite with ``S* P^2 S = P^2`` within
    tolerance; V then satisfies ``V* V = I`` at the same accuracy amplified
    by the conditioning of P.  Returns the certificate with the metric and
    isometry residuals that were checked.
    """
    s = as_matrix(s, square=True, name="S")
    p = as_matrix(p, square=True, name="P")
    require_same_shape(s, p, "S and P")
    if frobenius(p - adjoint(p)) > tol.zero_threshold(frobenius(p)):
        raise ArgumentError("P must be Hermitian")
    eigs = np.linalg.eigvalsh(0.5 * (p + adjoint(p)))
    if eigs.min() <= tol.zero_threshold(1.0) * max(1.0, eigs.max()):
        raise ArgumentError("P must be positive definite")
    p2 = p @ p
    metric_res = frobenius(adjoint(s) @ p2 @ s - p2)
    if metric_res > tol.zero_threshold(tol.scale_of(s) ** 2 * tol.scale_of(p2)):
        raise AssumptionError(
            f"P^2 is not an invariant metric for S (residual {metric_res:.3e})"
        )
    v = p @ s @ np.linalg.inv(p)
    iso_res = frobenius(adjoint(v) @ v - np.eye(s.shape[0]))
    if iso_res > tol.zero_threshold(tol.scale_of(v) ** 2):
        raise IdentityCheckError(
            f"extracted conjugate is not an isometry (residual {iso_res:.3e})"
        )
    return SimilarityCertificate(
        p=p,
        v=v,
        residual_metric=metric_res,
        residual_isometry=iso_res,
        residual_similarity=frobenius(p @ s - v @ p),
        s=s.copy(),
    )


def similarity_certificate(
    s: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> SimilarityCertificate:
    """Certify S by ``X = invariant_metric(S)``, ``P = psd_sqrt(X)``, ``V = P S P^{-1}``."""
    return extract_isometry(s, psd_sqrt(invariant_metric(s, tol), tol), tol)


def canonical_left_m_inverse(
    s: np.ndarray, p: np.ndarray, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """Left m-inverse ``T = P^{-2} S* P^{2}`` induced by an invariant metric.

    The metric identity makes ``T^j S^j = I`` for every j, so the defect
    of (S, T) vanishes at every order; T is verified to be a left
    m-inverse and power bounded before ``(T, residual)`` is returned, with
    ``residual`` the Frobenius norm of the order-m defect that was checked.
    """
    s = as_matrix(s, square=True, name="S")
    p = as_matrix(p, square=True, name="P")
    require_same_shape(s, p, "S and P")
    p2 = p @ p
    metric_res = frobenius(adjoint(s) @ p2 @ s - p2)
    if metric_res > tol.zero_threshold(tol.scale_of(s) ** 2 * tol.scale_of(p2)):
        raise AssumptionError(
            f"P^2 is not an invariant metric for S (residual {metric_res:.3e})"
        )
    t = np.linalg.solve(p2, adjoint(s) @ p2)
    ok, residual = minv.is_left_m_inverse(s, t, m, tol)
    if not ok:
        raise IdentityCheckError(
            f"canonical inverse failed the defect check (residual {residual:.3e})"
        )
    if not certify_power_bounded(t, tol=tol).bounded:
        raise IdentityCheckError("canonical inverse is not power bounded")
    return t, residual


# ---------------------------------------------------------------------------
# Douglas factorization
# ---------------------------------------------------------------------------

def _range_inclusion_witness(
    a: np.ndarray, b: np.ndarray, tol: ToleranceConfig
) -> np.ndarray | None:
    """None if ran(A) is contained in ran(B); else a unit witness column."""
    stacked = np.hstack([b, a])
    if numerical_rank(stacked, tol) == numerical_rank(b, tol):
        return None
    q = range_basis(b, tol)
    residual = a - q @ (adjoint(q) @ a)
    norms = np.linalg.norm(residual, axis=0)
    col = int(np.argmax(norms))
    witness = residual[:, col]
    return witness / np.linalg.norm(witness)


def douglas_mu(
    a: np.ndarray, b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Least ``lam >= 0`` with ``lam B B* - A A*`` positive semidefinite.

    Computed as the largest eigenvalue of the pencil ``(A A*, B B*)``
    restricted to the range of B.  Requires ``ran(A) <= ran(B)``;
    otherwise no finite value exists and ``AssumptionError`` is raised.
    """
    a = as_matrix(a, name="A")
    b = as_matrix(b, name="B")
    require_same_shape(a, b, "A and B")
    witness = _range_inclusion_witness(a, b, tol)
    if witness is not None:
        raise AssumptionError(
            "ran(A) is not contained in ran(B); no finite bound exists "
            f"(witness direction {np.round(witness, 6).tolist()})"
        )
    return _douglas_mu_unchecked(a, b, tol)


def _douglas_mu_unchecked(a: np.ndarray, b: np.ndarray, tol: ToleranceConfig) -> float:
    q = range_basis(b, tol)
    if q.shape[1] == 0:
        return 0.0
    aa = adjoint(q) @ (a @ adjoint(a)) @ q
    bb = adjoint(q) @ (b @ adjoint(b)) @ q
    aa = 0.5 * (aa + adjoint(aa))
    bb = 0.5 * (bb + adjoint(bb))
    eigs = scipy.linalg.eigh(aa, bb, eigvals_only=True)
    return max(0.0, float(eigs[-1]))


def douglas_factor(
    a: np.ndarray, b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """Minimal factor C with ``A = B C``, plus its optimality value.

    Returns ``(C, mu2)`` where ``C = B^+ A`` and ``mu2`` is the least
    ``lam`` with ``A A* <= lam B B*``.  The three optimality properties
    are verified before returning: ``||C||^2 = mu2``, ``ker C = ker A``
    (by ranks), and every column of C orthogonal to ``ker B``.
    """
    a = as_matrix(a, name="A")
    b = as_matrix(b, name="B")
    require_same_shape(a, b, "A and B")
    witness = _range_inclusion_witness(a, b, tol)
    if witness is not None:
        raise AssumptionError(
            "ran(A) is not contained in ran(B); no factor exists "
            f"(witness direction {np.round(witness, 6).tolist()})"
        )
    c = pseudo_inverse(b, tol) @ a
    mu2 = _douglas_mu_unchecked(a, b, tol)
    scale = tol.scale_of(a, b, c)

    factor_res = frobenius(b @ c - a)
    if factor_res > tol.zero_threshold(scale):
        raise IdentityCheckError(f"factor residual {factor_res:.3e} too large")
    norm_gap = abs(operator_norm(c) ** 2 - mu2)
    if norm_gap > 1e-6 * max(1.0, mu2):
        raise IdentityCheckError(
            f"||C||^2 = {operator_norm(c) ** 2:.6e} differs from mu2 = {mu2:.6e}"
        )
    rank_a = numerical_rank(a, tol)
    if not (rank_a == numerical_rank(c, tol) == numerical_rank(np.vstack([a, c]), tol)):
        raise IdentityCheckError("kernel of C does not match kernel of A")
    ker_b = null_space(b, tol)
    if ker_b.shape[1]:
        ortho_res = frobenius(adjoint(ker_b) @ c)
        if ortho_res > tol.zero_threshold(scale):
            raise IdentityCheckError(
                f"columns of C are not orthogonal to ker(B) (residual {ortho_res:.3e})"
            )
    return c, mu2


# ---------------------------------------------------------------------------
# Asymptotic splitting, Putnam-Fuglede
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C01Decomposition:
    """Triangular splitting of a power-bounded matrix at the unit circle.

    In the unitary basis ``w`` the matrix becomes
    ``[[block_c0, coupling], [0, block_c1]]`` with ``block_c0`` the part
    whose powers vanish and ``block_c1`` the part with unimodular
    spectrum.  ``orthogonal`` records whether the coupling is numerically
    zero, i.e. whether the two parts split as an orthogonal direct sum.
    """

    w: np.ndarray
    block_c0: np.ndarray
    block_c1: np.ndarray
    coupling: np.ndarray
    orthogonal: bool


def c0_c1_decompose(
    s: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> C01Decomposition:
    """Split a power-bounded matrix into vanishing and unimodular parts.

    The complex Schur form of the ``certify_power_bounded`` report is
    reordered (LAPACK ``ztrsen``) so that eigenvalues with
    ``|lambda| < 1 - band`` lead, where ``band = rel_tol * max(1, rho)`` is
    the report's unimodular band; the two diagonal blocks and the coupling
    are read off that triangular form.  A matrix that is not power bounded
    raises ``AssumptionError``.
    """
    s = as_matrix(s, square=True, name="S")
    report = certify_power_bounded(s, tol=tol)
    if not report.bounded:
        raise AssumptionError("c0_c1_decompose requires a power bounded matrix")
    t, w = report.schur
    lead = np.abs(np.diag(t)) < 1.0 - report.band
    k = int(np.count_nonzero(lead))
    if not lead[:k].all():
        t, w, *_ = scipy.linalg.lapack.ztrsen(lead.astype(np.int32), t, w, job="N")
    coupling = t[:k, k:]
    orthogonal = frobenius(coupling) <= tol.zero_threshold(tol.scale_of(s))
    return C01Decomposition(
        w=w,
        block_c0=t[:k, :k],
        block_c1=t[k:, k:],
        coupling=coupling,
        orthogonal=orthogonal,
    )


@dataclass(frozen=True)
class PFReport:
    """Outcome of the Putnam-Fuglede check for the elementary operator.

    ``structural`` is the decomposition criterion (orthogonal splitting
    with unitary unimodular part); ``satisfies_pf`` is the verdict of the
    kernel-inclusion search over isometries V.  The two must agree; a
    counterexample ``(V, X)`` with ``A X V* = X`` but ``A* X V != X`` is
    attached whenever the verdict is negative.
    """

    satisfies_pf: bool
    structural: bool
    counterexample: tuple[np.ndarray, np.ndarray] | None = None

    def to_json_dict(self) -> dict:
        out = {"satisfies_pf": self.satisfies_pf, "structural": self.structural}
        if self.counterexample is not None:
            v, x = self.counterexample
            out["counterexample"] = {
                "V": matrix_to_json_dict(v),
                "X": matrix_to_json_dict(x),
            }
        return out


def _deterministic_isometries(n: int, unimodular: np.ndarray) -> list[np.ndarray]:
    """Fixed probe set: identity, cycle, phase diagonals, and multiples of
    the identity by the phases of the unimodular eigenvalues (the probes
    that can excite a nontrivial intertwiner kernel)."""
    eye = np.eye(n, dtype=complex)
    probes = [eye, np.roll(eye, 1, axis=0), np.diag(np.exp(2j * np.pi * np.arange(n) / n))]
    seen: list[complex] = []
    for lam in unimodular:
        unit = complex(lam / abs(lam))
        if all(abs(unit - u) > 1e-12 for u in seen):
            seen.append(unit)
            probes.append(unit * eye)
    return probes


def pf_property_check(
    a: np.ndarray,
    sample_count: int = 20,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PFReport:
    """Test whether solutions of ``A X V* = X`` also solve ``A* X V = X``.

    The structural criterion: the unimodular/vanishing splitting of A is
    orthogonal and the unimodular block is unitary (equivalently, A is an
    orthogonal direct sum of a unitary and a matrix of spectral radius
    below 1).  The search criterion: over a deterministic probe set of
    isometries (identity, a cycle, phase diagonals, unimodular-eigenvalue
    multiples of the identity) plus ``sample_count`` seeded Haar
    unitaries, every kernel element of ``X -> A X V* - X`` is checked
    against the adjoint-side equation.  The two verdicts are asserted to
    agree; disagreement raises ``IdentityCheckError`` with diagnostics.
    """
    a = as_matrix(a, square=True, name="A")
    if sample_count < 1:
        raise ArgumentError(f"sample_count must be >= 1, got {sample_count}")
    dec = c0_c1_decompose(a, tol)
    c1 = dec.block_c1
    c1_unitary = frobenius(adjoint(c1) @ c1 - np.eye(c1.shape[0])) <= tol.zero_threshold(
        tol.scale_of(a) ** 2
    )
    # block_c0 holds the eigenvalues below 1 - band, so its powers vanish.
    structural = dec.orthogonal and c1_unitary

    rng = np.random.default_rng(seed)
    probes = _deterministic_isometries(a.shape[0], np.diag(c1))
    probes.extend(haar_unitary(a.shape[0], rng) for _ in range(sample_count))

    counterexample = None
    for v in probes:
        forward = minv.elementary_operator(a, adjoint(v))
        backward = minv.elementary_operator(adjoint(a), v)
        included, witness = minv.kernel_included(forward, backward, tol)
        if not included:
            counterexample = (v, witness)
            break
    satisfies_pf = counterexample is None

    if satisfies_pf != structural:
        raise IdentityCheckError(
            "Putnam-Fuglede search verdict "
            f"({satisfies_pf}) disagrees with the structural criterion ({structural}); "
            f"orthogonal={dec.orthogonal}, unimodular_block_unitary={c1_unitary}"
        )
    return PFReport(
        satisfies_pf=satisfies_pf, structural=structural, counterexample=counterexample
    )


def ascent_bound_check(
    a: np.ndarray, v: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, int]:
    """Kernel inclusion forces ascent at most 1 for ``X -> A X V* - X``.

    Returns ``(inclusion, ascent)`` for the elementary operator and runs
    the same contract for the derivation ``X -> A X - X V*`` against its
    adjoint-side companion.  Requires V to be an isometry; a violation of
    either implication raises ``IdentityCheckError``.
    """
    a = as_matrix(a, square=True, name="A")
    v = as_matrix(v, square=True, name="V")
    require_same_shape(a, v, "A and V")
    iso_res = frobenius(adjoint(v) @ v - np.eye(v.shape[0]))
    if iso_res > tol.zero_threshold(tol.scale_of(v) ** 2):
        raise AssumptionError(f"V is not an isometry (residual {iso_res:.3e})")

    results = None
    for make in (minv.elementary_operator, minv.generalized_derivation):
        forward = make(a, adjoint(v))
        backward = make(adjoint(a), v)
        included, _ = minv.kernel_included(forward, backward, tol)
        asc = minv.ascent(forward, tol=tol)
        if included and (asc is None or asc > 1):
            raise IdentityCheckError(
                f"kernel inclusion holds but ascent is {asc} for "
                f"{make.__name__}; expected at most 1"
            )
        if results is None:
            results = (included, asc if asc is not None else -1)
    return results


def similar_to_unitary(
    cert: SimilarityCertificate, t: np.ndarray, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Simultaneous unitary models for a power-bounded defect pair.

    ``cert`` is the ``similarity_certificate`` of S, which already proves
    S power bounded.  For a power-bounded left m-inverse T of S, T* is
    similar to an isometry too, and a square isometry is unitary.  The
    unitary models are the ``V`` of the two certificates:

        U1 = G S G^{-1},   U2 = R T* R^{-1},

    with ``G = cert.p`` and ``R`` the ``p`` of
    ``similarity_certificate(T*)``; each ``V* V = I`` is checked by
    ``extract_isometry``.  The two models are conjugate:
    ``U1 = P U2 P^{-1}`` for ``P = G^{-1} R^{-1}``, which is verified
    before returning ``(U1, U2, P, residual)``, with ``residual`` the
    spectral norm of ``U1 - P U2 P^{-1}`` that was checked.
    """
    t = as_matrix(t, square=True, name="T")
    ok, residual = minv.is_left_m_inverse(cert.s, t, m, tol)
    if not ok:
        raise AssumptionError(
            f"similar_to_unitary requires a left {m}-inverse pair "
            f"(residual {residual:.3e})"
        )
    # For such a pair, T is power bounded exactly when T* is similar to an
    # isometry, so the certificate of T* decides the hypothesis on T.
    try:
        cert_t = similarity_certificate(adjoint(t), tol)
    except AssumptionError as exc:
        raise AssumptionError(
            f"similar_to_unitary requires power bounded T; T* is not similar to an isometry ({exc})"
        ) from exc
    u1, u2 = cert.v, cert_t.v
    p = np.linalg.inv(cert.p) @ np.linalg.inv(cert_t.p)
    conj_res = operator_norm(u1 - p @ u2 @ np.linalg.inv(p))
    if conj_res > 1e-7 * max(1.0, operator_norm(u1)):
        raise IdentityCheckError(
            f"unitary models are not conjugate through P (residual {conj_res:.3e})"
        )
    return u1, u2, p, conj_res


def verify_prop_isometric(
    s: np.ndarray, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[bool, bool]:
    """Rigidity of power-bounded m-isometries.

    Returns ``(is_m_isometric, is_isometric)``.  For power-bounded input
    the first implies the second (and an isometric matrix is unitary);
    violations of either implication raise ``IdentityCheckError``.
    """
    s = as_matrix(s, square=True, name="S")
    if not certify_power_bounded(s, tol=tol).bounded:
        raise AssumptionError("verify_prop_isometric requires a power bounded matrix")
    ok, _ = minv.is_left_m_inverse(s, adjoint(s), m, tol)
    eye = np.eye(s.shape[0])
    iso_res = frobenius(adjoint(s) @ s - eye)
    is_isometric = iso_res <= tol.zero_threshold(tol.scale_of(s) ** 2)
    if ok and not is_isometric:
        raise IdentityCheckError(
            f"power bounded {m}-isometric matrix is not isometric "
            f"(residual {iso_res:.3e})"
        )
    if is_isometric:
        unit_res = frobenius(s @ adjoint(s) - eye)
        if unit_res > tol.zero_threshold(tol.scale_of(s) ** 2):
            raise IdentityCheckError(
                f"isometric matrix is not unitary (residual {unit_res:.3e})"
            )
    return ok, is_isometric
