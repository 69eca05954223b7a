"""Structure theory for power-bounded matrices.

The central objects are invariant metrics: Hermitian positive definite
solutions X of ``S* X S = X``, built in O(n^3) from the Riesz spectral
projectors of S on the Schur form T of its certificate, block diagonal
after one Sylvester solve ``T R - R D = D - T``.  When one exists, its
square root P conjugates S to an isometry (``P S P^{-1}`` has
orthonormal columns); P, ``P^{-1}`` and that isometry come from one SVD
of a factor G of ``X = G* G``, at cond(P) and not cond(X) = cond(P)^2.
``P^{-2} S* P^{2} = S^{-1}`` is a power-bounded left m-inverse of S for every m.
Around that core this module provides:

* a power-boundedness certificate based on the exact finite-dimensional
  criterion (spectral radius at most 1, unimodular eigenvalues
  semisimple), read off one complex Schur form of S, whose eigenvalues
  one Sylvester solve groups into clusters by their condition numbers;
  its report hands the metric and the Putnam-Fuglede check that
  decoupling and one reorder (the ``split`` of the interior and the
  unimodular clusters), with the sup of power norms a witness computed
  when read;
* Douglas factorization ``A = B C`` from one SVD of B: the minimal-norm
  factor, range inclusion decided once by its residual, and the
  optimality value ``inf {lam : A A* <= lam B B*} = ||C||^2``;
* the Putnam-Fuglede check for the elementary operator ``X -> A X V* - X``
  against its adjoint-side companion, accepted in O(n^3) on the
  certificate's split and refuted by a witness on the n x n eigenspace of
  ``A - mu I`` at a failing unimodular phase mu;
* the ``(inclusion, ascent)`` pairs of that map and of the derivation
  ``X -> A X - X V*``, from one n x n SVD of ``A - nu I`` per distinct
  phase of V (its eigenspace, then the kernel staircase ``minv._ascent``),
  with no power and no n^2 x n^2 map;
* the simultaneous similarity of a power-bounded pair (S, T) with
  vanishing defect to one unitary: at every order m such a T is
  ``S^{-1}``, so ``T S = I`` and then the model error ``||P^{-1} T* P -
  V||_F`` against S's certificate decide the hypothesis on T, with no m.

Each call decides its claim once.  The independent cross-checks of the
paper's implications (the Kronecker reference of the Putnam-Fuglede
inclusion and of the ascent bound, the rigidity of power-bounded
m-isometries) are the oracles of the sweeps in ``suites``.  A certificate
checks each residual it returns once, and raises ``IdentityCheckError``
only when one fails: ``invariant_metric`` checks X, and
``similarity_certificate`` its two (a T that S's P and V do not carry
to V* is refused with ``AssumptionError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from . import minv
from .errors import ArgumentError, AssumptionError, IdentityCheckError
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    as_matrix,
    frobenius,
    matrix_to_json_dict,
    numerical_rank,
    operator_norm,
    require_same_shape,
)

__all__ = [
    "PowerBoundReport",
    "certify_power_bounded",
    "invariant_metric",
    "canonical_left_m_inverse",
    "SimilarityCertificate",
    "similarity_certificate",
    "douglas_factor",
    "PFReport",
    "pf_property_check",
    "ascent_bound_check",
    "similar_to_unitary",
]

# Two eigenvalues can coalesce under a backward error of size eps ||S||_F
# only when their gap is within about eps ||S||_F (kappa_i + kappa_j), with
# kappa the eigenvalue condition numbers (Wilkinson, *The Algebraic
# Eigenvalue Problem*, 1965; Demmel, Numer. Math. 1987).  The certificate
# merges two eigenvalues within this many times that distance.  Every
# factor from 10 to 100 gives the same verdicts on the Jordan and U + N
# families of the tests; at 1000, rotated U + N blocks are misread.
_COALESCE = 10.0
_EPS = float(np.finfo(float).eps)

# Bytes of powers of T that ``m1_estimate`` holds at a time; the
# temporaries of its Gram screen take a 32nd of that.
_POWER_BYTES = 256 * 1024

# Relative slack of the Frobenius and Gram bounds that let ``m1_estimate``
# skip the SVD of a power: it exceeds the rounding of a computed sigma_max
# and of a computed bound together (derived in ``m1_estimate``).
_BOUND_SLACK = 1e-10

# Below this running max ``m1_estimate`` skips no SVD, and below its fourth
# root it takes no Gram bound: the squares that make up a Frobenius norm
# under about 1e-154 underflow and lose their relative accuracy, while
# above 1e-150 underflow costs under 1e-23 * n^2.
_BOUND_FLOOR = 1e-150


@dataclass(frozen=True)
class PowerBoundReport:
    """Verdict and evidence for ``sup_n ||S^n|| < infinity``.

    ``bounded`` is decided by the criterion fields (spectral radius within
    tolerance of the unit disc and every unimodular eigenvalue
    semisimple).  ``witness`` holds ``(eigenvalue, reason)`` when
    unbounded.  The spectral analysis behind the verdict is kept for its
    consumers: the complex Schur pair ``(T, Q)`` of ``S = Q T Q*``, the
    ``decoupling`` ``(V, W)`` of ``T V = V diag(T)`` (right and left
    eigenvectors of T, ``W = V^{-1}``) and the unimodular ``clusters`` of
    positions on the diagonal of T, which ``split`` makes contiguous.
    ``m1_estimate`` is ``max ||S^n|| = max ||T^n||`` over ``n <= horizon``,
    a lower bound on ``sup_n ||S^n||`` that can fall far short of it: on
    ``[[1, 1], [0, exp(i d)]]`` with ``d = 1e-3`` it reads 64.005 at horizon
    64 and 2000.0 at horizon 4000.  It only witnesses the verdict, so it is
    computed on first read and cached, and it is ``inf`` when a power
    has a non-finite entry.  The JSON form states the horizon next to it.
    """

    bounded: bool
    spectral_radius: float
    unimodular_semisimple: bool
    schur: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    clusters: tuple[tuple[int, ...], ...]
    horizon: int
    decoupling: tuple[np.ndarray, np.ndarray] = field(repr=False, compare=False)
    witness: tuple[complex, str] | None = None

    @cached_property
    def m1_estimate(self) -> float:
        """``max ||T^n||_2`` over ``n <= horizon``; ``inf`` once a power has a non-finite entry.

        The powers are formed one product at a time into one buffer of at
        most ``_POWER_BYTES = 256 KiB`` (64 powers at n = 16, 16 at n = 32,
        4 at n = 64), a chunk at a time, in two passes.  The chunks are
        full but the first, so the last one holds the last powers.  The
        first pass forms every power and keeps only its Frobenius norm F
        (8 bytes a power, 256 KiB at most) and the power of largest F; a
        power with a non-finite entry ends the witness at ``inf``.  The SVD
        of that power starts the running max m1.  The second pass visits the
        powers whose bound can still beat m1: first the last chunk, still
        in the buffer, then, forming the powers again from I by the same
        products (so bit for bit), the earlier chunks up to the last one
        that holds such a power.  An input that grows fast enough for its
        last power to beat every earlier F takes one pass and one SVD.

        A power whose bound B satisfies ``B * (1 + delta) <= m1`` cannot
        raise m1, and its SVD is skipped.  Its first bound is F, since
        ``sigma_max(P) <= ||P||_F``.  A power whose squares overflow
        (entries past about 1e154) has its F taken again, scaled by the
        power of two that brings its largest real or imaginary part into
        [0.5, 1) and scaled back after the square root; both scalings are
        exact, so its bound stays rigorous, and finite unless F itself
        passes the largest double: such a power keeps the bound ``inf``
        and takes its SVD.  The powers of a
        chunk that F leaves in play are screened again by the Gram bound
        ``sigma_max(P) <= ||G^2||_F^(1/4)`` with ``G = P* P``, since
        ``sigma_max(P)^4 = lambda_max(G^2) <= ||G^2||_F``; it is tight when
        one singular value dominates and loose by at most ``n^(1/8)``.  It
        is taken over runs of consecutive live powers, in sub-batches
        whose conjugates and Grams take at most ``_POWER_BYTES // 32 =
        8 KiB`` (4 powers at n = 8, one from n = 16 on), with ``G^2``
        written into the spent conjugates.  A bound that overflows
        (entries of P past about 1e38, whose eighth powers make up
        ``||G^2||_F^2``) reads ``inf`` or ``nan`` and drops out of the
        min, down to F.  The powers still in play then take one SVD each,
        best bound first, until no bound beats m1.

        ``delta = _BOUND_SLACK = 1e-10`` covers rounding, with unit
        roundoff ``u = 2^-53`` and the error bounds of floating-point sums
        and matrix products (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2002, section 3.5).  A backward-stable SVD gives the
        sigma of a power within ``p(n) u`` of the exact one relatively,
        ``p(n)`` a small multiple of n.  The computed F sums ``2 n^2``
        nonnegative rounded squares and takes a square root, so it is
        within ``(n^2 + 1) u`` of the exact F relatively.  A computed
        complex product ``A B`` is within ``c u |A| |B|`` entrywise,
        ``c = 2 (n + 2)``, and ``|| |A| |B| ||_F <= ||A||_F ||B||_F``.  So
        the computed G is ``G + E1`` with ``||E1||_F <= c u ||P||_F^2 <=
        c n u sigma^2``, the computed ``G^2`` is within ``c u ||G||_F^2 <=
        c n u sigma^4`` of the square of the computed G, and that square
        within ``2 sigma^2 ||E1||_F`` of ``G^2``: ``6 n (n + 2) u sigma^4``
        in all.  Since ``||G^2||_F >= sigma^4``, and the norm adds
        ``(n^2 + 1) u``, sigma^4 exceeds the computed ``||G^2||_F`` by at
        most about ``7 n^2 u`` relatively, and sigma the fourth root of it
        (three correctly rounded square roots) by ``1.75 n^2 u``.
        Underflow is kept out by a floor: no SVD is skipped while ``m1 <
        _BOUND_FLOOR = 1e-150``, no Gram bound is taken while ``m1^4 <
        _BOUND_FLOOR`` (the entries of ``G^2`` are of the order of sigma^4,
        so the eighth powers they sum to stay above ``_BOUND_FLOOR^2``),
        and in a scaled power only squares below ``2^-1000`` of the largest
        underflow.  The errors together stay below delta for n up to about
        700, with a margin above 7 at n = 256, so a skipped power has a
        computed sigma of at most m1.  The result is bit-equal to the max
        of one SVD per power: a max is exact, and every sigma comes from
        the same ``operator_norm`` call.
        """
        t = self.schur[0]
        n = t.shape[0]
        chunk = min(self.horizon, max(1, _POWER_BYTES // t.nbytes))
        batch = max(1, _POWER_BYTES // 32 // (2 * t.nbytes))
        stack = np.empty((chunk, n, n), dtype=complex)
        fro = np.empty(self.horizon)
        # Every chunk is full but the first, so the last ``chunk`` powers
        # stay in the buffer; the last chunk starts at ``ends[-2]``.
        ends = range(self.horizon, 0, -chunk)[::-1]
        chunks = list(zip([0, *ends[:-1]], ends))
        with np.errstate(over="ignore", invalid="ignore"):
            power = np.eye(n, dtype=complex)
            for start, end in chunks:
                block = stack[: end - start]
                power = _form_powers(power, t, block)
                fro[start:end] = _frobenius(block, batch)
                k = start + int(np.argmax(fro[start:end]))  # argmax picks a nan first
                if np.isnan(fro[k]):
                    return np.inf
                if start == 0 or fro[k] > fro[top]:
                    top = k
                    top_power = block[k - start] if end == self.horizon else block[k - start].copy()
            m1 = operator_norm(top_power)
            fro[top] = -np.inf  # settled
            m1 = _settle(m1, block, fro[start:], batch)
            power = np.eye(n, dtype=complex)
            for start, end in chunks[:-1]:
                if not _live(m1, fro[start : ends[-2]]).any():
                    break
                power = _form_powers(power, t, stack[: end - start])
                m1 = _settle(m1, stack[: end - start], fro[start:end], batch)
        return m1

    @cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(T, Q, labels)``: ``schur`` reordered by LAPACK ``ztrsen`` (on copies).

        The interior positions lead, then each cluster in order, contiguous;
        ``labels`` is -1 on the interior and g on ``clusters[g]``.  Each call
        moves the labels up to the least one out of place to the front,
        keeping the order within both groups; the complex ``ztrsen`` fails
        only on illegal arguments.
        """
        t, q = self.schur
        label = {i: g for g, cluster in enumerate(self.clusters) for i in cluster}
        labels = [label.get(i, -1) for i in range(t.shape[0])]
        order = sorted(labels)
        while labels != order:
            pivot = min(g for g, h in zip(labels, order) if g != h)
            t, q, *_ = scipy.linalg.lapack.ztrsen([g <= pivot for g in labels], t, q, job="N")
            labels = sorted(labels, key=lambda g: g > pivot)
        return t, q, np.array(labels)

    def to_json_dict(self) -> dict:
        m1 = self.m1_estimate
        out = {
            "bounded": self.bounded,
            "m1_estimate": m1 if np.isfinite(m1) else None,
            "horizon": self.horizon,
            "criterion": {
                "spectral_radius": self.spectral_radius,
                "unimodular_semisimple": self.unimodular_semisimple,
            },
        }
        if self.witness is not None:
            lam, reason = self.witness
            out["witness"] = {"eigenvalue": [lam.real, lam.imag], "reason": reason}
        return out


def _form_powers(power: np.ndarray, t: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Fill ``block`` with ``power t``, ``power t^2``, ... one product at a time; return the last."""
    for k in range(len(block)):
        power = np.matmul(power, t, out=block[k])
    return power


def _frobenius(block: np.ndarray, batch: int) -> np.ndarray:
    """``||P||_F`` of each P in ``block`` (``m1_estimate``).

    ``nan`` when P has a non-finite entry, and ``inf`` for a finite P only
    when ``||P||_F`` itself overflows.
    """
    flat = block.reshape(len(block), -1).view(np.float64)
    fro = np.sqrt(np.einsum("ij,ij->i", flat, flat))
    huge = np.flatnonzero(fro == np.inf)
    for i in range(0, huge.size, batch):
        rows = huge[i : i + batch]
        top = np.abs(flat[rows]).max(axis=1)
        _, exp = np.frexp(top)
        scaled = np.ldexp(flat[rows], -exp[:, None])
        fro_rows = np.ldexp(np.sqrt(np.einsum("ij,ij->i", scaled, scaled)), exp)
        fro[rows] = np.where(top < np.inf, fro_rows, np.nan)
    return fro


def _live(m1: float, bound: np.ndarray) -> np.ndarray:
    """Which bounds, with their slack, can beat ``m1``; below the floor, all but a settled -inf."""
    return bound * (1.0 + _BOUND_SLACK) > (m1 if m1 >= _BOUND_FLOOR else -np.inf)


def _gram_bound(block: np.ndarray, live: np.ndarray, batch: int) -> np.ndarray:
    """``||(P* P)^2||_F^(1/4)`` of each P in ``block`` (``m1_estimate``).

    Taken ``batch`` powers at a time from each live one not yet covered,
    and ``inf`` elsewhere.
    """
    n = block.shape[1]
    fro2 = np.full(len(block), np.inf)
    conj = np.empty((min(batch, len(block)), n, n), dtype=complex)
    gram = np.empty_like(conj)
    covered = 0
    for lo in np.flatnonzero(live).tolist():
        if lo < covered:
            continue
        covered = lo + batch
        p = block[lo:covered]
        k = len(p)
        g = np.matmul(np.conjugate(p, out=conj[:k]).swapaxes(1, 2), p, out=gram[:k])
        # (P* P)^2 goes into the spent conjugates.
        flat = np.matmul(g, g, out=conj[:k]).reshape(k, -1).view(np.float64)
        np.einsum("ij,ij->i", flat, flat, out=fro2[lo : lo + k])
    return np.sqrt(np.sqrt(np.sqrt(fro2)))


def _settle(m1: float, block: np.ndarray, fro: np.ndarray, batch: int) -> float:
    """Raise ``m1`` to the largest sigma of the powers in ``block`` that can beat it (``m1_estimate``)."""
    bound = fro
    live = _live(m1, fro)
    if m1 >= _BOUND_FLOOR**0.25 and live.any():
        bound = np.fmin(fro, _gram_bound(block, live, batch))
    for i in np.argsort(-bound, kind="stable").tolist():
        if not _live(m1, bound[i]):
            break
        m1 = max(m1, operator_norm(block[i]))
    return m1


def _distinct_phases(eigs: list[complex]) -> list[complex]:
    """The phases ``lam / |lam|`` of ``eigs``, in order, but each within 1e-12 of one kept.

    Far below any rank cutoff: two phases a cutoff apart have eigenspaces
    that differ, so a merge as wide as the clusters would miss one.
    """
    phases: list[complex] = []
    for mu in (lam / abs(lam) for lam in eigs):
        if all(abs(mu - nu) > 1e-12 for nu in phases):
            phases.append(mu)
    return phases


def certify_power_bounded(
    s: np.ndarray, horizon: int = 64, tol: ToleranceConfig = DEFAULT_TOL
) -> PowerBoundReport:
    """Decide power boundedness by the finite-dimensional criterion.

    A matrix is power bounded exactly when its spectral radius is at most
    1 and every unimodular eigenvalue is semisimple.  The spectrum is the
    diagonal of one complex Schur form of S.  One Sylvester solve ``T R -
    R D = D - T``, ``D = diag(T)`` (``ztrsyl``, every position its own
    block) and one ``ztrtri`` give ``V = I + R``, ``W = V^{-1}`` and the
    condition numbers ``kappa_i = ||V e_i|| ||e_i* W||`` (a non-finite one
    counts as infinite).  Positions i and j merge when ``|lambda_i -
    lambda_j| <= C eps ||S||_F (kappa_i + kappa_j)``, ``C = _COALESCE``:
    within that distance a backward error of ``eps ||S||_F`` can make them
    coalesce.  A cluster (a connected set of merges) is unimodular when its
    mean lies in the band ``|1 - |mu|| <= rel_tol * max(1, rho)``, or when
    a member lies in the band and none past ``1 + band``; it is interior
    when every member lies inside the disc past the band.  In decreasing
    order of their largest ``|lambda|``, the first other cluster names
    "spectral radius exceeds 1" at its largest eigenvalue, and the first
    unimodular one whose block of ``split`` minus its mean has a singular
    value above ``zero_threshold(||S||_F)`` is "not semisimple", named at
    its mean, or at its largest member in the band when the mean is off
    it.  So a Jordan block that rounding splits past the band is one
    cluster at the circle, and no cluster that reaches the circle is read
    as interior.  The sup of power norms over ``n <= horizon`` is
    computed only when ``m1_estimate`` is read and never enters the
    decision; a horizon outside ``[1, 32768]`` is an ``ArgumentError``.
    """
    s = as_matrix(s, square=True, name="S")
    if not 1 <= horizon <= _POWER_BYTES // 8:
        raise ArgumentError(f"horizon must be in [1, {_POWER_BYTES // 8}], got {horizon}")
    n = s.shape[0]
    # scipy.linalg.schur(s, output="complex") without its revalidation and
    # batch wrapper, bit for bit: its workspace query, then its zgees call.
    lwork = scipy.linalg.lapack.zgees(lambda x: None, s, lwork=-1)[-2][0].real.astype(np.int_)
    t, _, _, q, _, info = scipy.linalg.lapack.zgees(lambda x: None, s, lwork=lwork)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError("Schur form not found. Possibly ill-conditioned.")
    eigs = np.diag(t)
    moduli = np.abs(eigs)
    rho = float(moduli.max())
    band = tol.rel_tol * max(1.0, rho)

    # ztrsyl fails only on illegal arguments; an equal pair of eigenvalues
    # (info = 1) or an overflowing V, whose scale factor can underflow to 0
    # (J_n(lam) from n = 38), reads as a huge or non-finite kappa.
    d = np.diag(eigs)
    r, factor, _ = scipy.linalg.lapack.ztrsyl(t, d, d - t, isgn=-1)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.eye(n) + r / factor
        w, _ = scipy.linalg.lapack.ztrtri(v, unitdiag=1)
        kappa = np.sqrt(np.add.reduce(np.abs(v) ** 2, 0) * np.add.reduce(np.abs(w) ** 2, 1))
        scale = scipy.linalg.blas.dznrm2(s.ravel())  # ||S||_F, summed scaled: finite unless it overflows
        reach = _COALESCE * _EPS * scale * kappa
        near = ~(np.abs(eigs[:, None] - eigs) > reach[:, None] + reach)
    if np.count_nonzero(near) == n:  # only the diagonal
        groups = [[i] for i in range(n)]
    else:  # connected sets, each labelled by its first position
        label = np.arange(n)
        while not np.array_equal(merged := np.where(near, label, n).min(axis=1), label):
            label = merged
        groups = [np.flatnonzero(label == g).tolist() for g in np.unique(label)]

    eig_list, mod_list = eigs.tolist(), moduli.tolist()
    clusters, tested = [], []
    for c in groups:
        if len(c) == 1:
            (top,) = c
            mean, modulus = eig_list[top], mod_list[top]
        else:
            top = max(c, key=mod_list.__getitem__)
            with np.errstate(over="ignore", invalid="ignore"):  # past the largest double: inf or nan
                re, im = np.mean(eigs[c].real), np.mean(eigs[c].imag)
                mean, modulus = complex(re, im), float(np.hypot(re, im))
        centred = abs(1.0 - modulus) <= band  # a nan mean is not
        if not centred and mod_list[top] > 1.0 + band:
            tested.append((mod_list[top], -1, None, eig_list[top]))
        elif centred or (in_band := [i for i in c if abs(1.0 - mod_list[i]) <= band]):
            clusters.append(tuple(c))
            if len(c) > 1:  # named at its mean, or off the circle at its largest member in the band
                lam = mean if centred else eig_list[max(in_band, key=mod_list.__getitem__)]
                tested.append((mod_list[top], len(clusters) - 1, mean, lam))
    report = PowerBoundReport(True, rho, True, (t, q), tuple(clusters), horizon, (v, w))
    for _, g, mean, lam in sorted(tested, key=lambda x: -x[0]):
        if g < 0:
            return replace(report, bounded=False, witness=(lam, "spectral radius exceeds 1"))
        t2, _, labels = report.split
        lo, hi = np.searchsorted(labels, [g, g + 1])
        if numerical_rank(t2[lo:hi, lo:hi] - mean * np.eye(hi - lo), tol, cutoff=tol.zero_threshold(scale)):
            witness = (lam, "unimodular eigenvalue is not semisimple")
            return replace(report, bounded=False, unimodular_semisimple=False, witness=witness)
    return report


def invariant_metric(
    s: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> np.ndarray:
    """Hermitian positive definite X with ``S* X S = X``, unit spectral norm.

    X is the limit of the averages of ``S*^j S^j``, ``X = sum E* E`` over
    the Riesz projectors E of S onto its eigenvalues, built in O(n^3) from
    the ``split`` of the ``certify_power_bounded`` report: one reorder on
    the report, ``S = Q T Q*`` with each eigenvalue cluster contiguous on
    the diagonal of T.  The Sylvester solve ``T R - R D = D - T``
    (``ztrsyl``), D the block diagonal of T on the clusters, gives ``W T
    W^{-1} = D`` with ``W = (I + R)^{-1}``: the report's own when every
    cluster is one position, one more solve otherwise.  Then
    ``X = G* G`` for ``G = L* W Q*`` of ``_metric_factor``, returned as
    ``P^2`` for its square root P, whose positivity that call decided.

    Raises ``AssumptionError`` when S is not power bounded, has eigenvalues
    inside the unit disc (all: zero is the only fixed point; some: every
    fixed point is singular) or P is not positive definite at tolerance, and
    ``IdentityCheckError`` when ``||S* X S - X||_F > zero_threshold(||S||_F^2)``.
    """
    s = as_matrix(s, square=True, name="S")
    p = _metric_factor(s, tol)[0]
    x = p @ p
    residual = frobenius(adjoint(s) @ x @ s - x)
    if residual > tol.zero_threshold(tol.scale_of(s) ** 2):
        raise IdentityCheckError(f"invariant metric has residual {residual:.3e}")
    return x


def _metric_factor(s: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(P, P^{-1}, V)`` of the similarity certificate of a validated S, unchecked.

    The invariant metric is ``X = G* G`` with ``G = L* W Q*``: Q of the
    split, W of ``W T W^{-1} = D`` with D the block diagonal of T on the
    report's clusters (the report's own W when each cluster is one
    position, else one ``ztrsyl``), and L the Cholesky factor of the block
    Gram matrix ``blockdiag((W^{-*} W^{-1})_ii)``.  One SVD ``G = U Sigma
    Y*``, ``sigma_1`` normalized to 1 so that ``||X|| = 1``, gives ``P = Y
    Sigma Y*`` and ``P^{-1} = Y Sigma^{-1} Y*``.  Since ``P = O G`` with
    ``O = Y U*`` unitary, ``P S P^{-1} = O (L* D L^{-*}) O*``, the diagonal
    of T up to rounding: each block of D is one position or a semisimple
    cluster.  So ``V = O diag(lambda / |lambda|) O*`` is unitary by
    construction.  P is positive definite when ``sigma_n >
    zero_threshold(1)``, up to cond(P) of about 1e8: every step works at
    cond(P), and X, at cond(P)^2, is not formed here.
    """
    n = s.shape[0]
    report = certify_power_bounded(s, tol=tol)
    if not report.bounded:
        lam, reason = report.witness
        raise AssumptionError(
            "invariant fixed points are not positive definite: "
            f"S is not power bounded ({reason}, eigenvalue {lam:.6g})"
        )
    interior = n - sum(map(len, report.clusters))
    if interior:
        raise AssumptionError(
            "the only solution of S* X S = X is zero; no invariant metric exists" if interior == n
            else f"invariant fixed point is not positive definite ({interior} eigenvalues "
            "inside the unit disc); S is not similar to an isometry"
        )

    t, q, labels = report.split
    same = labels[:, None] == labels
    if len(report.clusters) == n:
        v, w = report.decoupling
    else:
        # T R - R D = D - T gives T V = V D for V = I + R = W^{-1}; R is
        # exactly 0 below the diagonal and in each block (0 right-hand sides).
        d = np.where(same, t, 0.0)
        r, scale, _ = scipy.linalg.lapack.ztrsyl(t, d, d - t, isgn=-1)
        v = np.eye(n) + r / scale
        w, _ = scipy.linalg.lapack.ztrtri(v, unitdiag=1)
    gram = np.where(same, adjoint(v) @ v, 0.0)
    # Each block of gram is I + Z* Z, at least I, but its rounding can
    # break the Cholesky once ||Z||^2 nears 1 / (n eps).
    try:
        u, sigma, yh = np.linalg.svd(adjoint(np.linalg.cholesky(gram)) @ w @ adjoint(q))
    except np.linalg.LinAlgError as exc:
        raise AssumptionError(f"invariant fixed point is not positive definite ({exc})") from exc
    sigma = sigma / sigma[0]
    if sigma[-1] <= tol.zero_threshold(1.0):
        raise AssumptionError(
            f"invariant fixed point is not positive definite "
            f"(smallest eigenvalue of its square root {sigma[-1]:.3e}); S is not similar to an isometry"
        )
    y, lam = adjoint(yh), np.diag(t)
    o = y @ adjoint(u)
    return (y * sigma) @ yh, (y / sigma) @ yh, (o * (lam / np.abs(lam))) @ adjoint(o)


@dataclass(frozen=True)
class SimilarityCertificate:
    """Witness that S is similar to an isometry through a positive metric.

    ``p`` is Hermitian positive definite, ``v`` is the unitary model of the
    conjugated isometry ``P S P^{-1}`` from the spectrum of S
    (``_metric_factor``), unitary by construction, and the residuals
    record how well ``S* P^2 S = P^2`` and ``P S = V P`` hold.  ``s`` is a
    copy of S and ``p_inv`` is ``P^{-1}`` (neither in repr, equality or JSON),
    so the certificate can stand in for S and no consumer inverts P; it
    also proves S and ``S^{-1} = P^{-1} V* P`` power bounded, with
    ``||S^n||`` and ``||S^{-n}||`` at most cond(P).
    """

    p: np.ndarray
    v: np.ndarray
    residual_metric: float
    residual_similarity: float
    s: np.ndarray = field(repr=False, compare=False)
    p_inv: np.ndarray = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "P": matrix_to_json_dict(self.p),
            "V": matrix_to_json_dict(self.v),
            "residuals": {
                "metric": self.residual_metric,
                "similarity": self.residual_similarity,
            },
        }


def similarity_certificate(
    s: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> SimilarityCertificate:
    """Certify S by P with ``P^2 = invariant_metric(S)`` and ``V = P S P^{-1}``.

    P, ``P^{-1}`` and V come from one SVD of the metric's factor
    (``_metric_factor``), which also decides positivity.  Each residual the
    certificate returns is checked once: ``S* P^2 S = P^2`` within
    ``zero_threshold(||S||_F^2 ||P^2||_F)`` and ``P S = V P`` within
    ``zero_threshold(||P||_F ||S||_F)``; a failure raises
    ``IdentityCheckError``.  V is the unitary model ``O diag(lambda /
    |lambda|) O*`` of ``P S P^{-1}``, not the product, so ``V* V = I``
    holds by construction and is no residual of S; the metric and
    similarity residuals carry the claim.
    """
    s = as_matrix(s, square=True, name="S")
    p, p_inv, v = _metric_factor(s, tol)
    p2 = p @ p
    metric_res = frobenius(adjoint(s) @ p2 @ s - p2)
    if metric_res > tol.zero_threshold(tol.scale_of(s) ** 2 * tol.scale_of(p2)):
        raise IdentityCheckError(f"P^2 is not an invariant metric for S (residual {metric_res:.3e})")
    sim_res = frobenius(p @ s - v @ p)
    if sim_res > tol.zero_threshold(tol.scale_of(p) * tol.scale_of(s)):
        raise IdentityCheckError(f"P S and V P differ (residual {sim_res:.3e})")
    return SimilarityCertificate(
        p=p,
        v=v,
        residual_metric=metric_res,
        residual_similarity=sim_res,
        s=s.copy(),
        p_inv=p_inv,
    )


def canonical_left_m_inverse(
    cert: SimilarityCertificate, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, float]:
    """The canonical left m-inverse ``T = P^{-2} S* P^{2}`` of a certified S.

    ``cert`` is a similarity certificate of S, whose checks already hold
    ``S* P^2 S = P^2``.  That identity gives ``(P^{-2} S* P^2) S = I``, so
    ``P^{-2} S* P^2 = S^{-1}``, and ``T = P^{-1} V* P`` with V unitary
    gives ``||T^n|| <= cond(P)``: T is power bounded.  ``T S = I`` makes
    the defect ``sum_j (-1)^(m-j) C(m, j) T^j S^j`` vanish at every order
    m, so one T serves all of them.  T is formed by one LU inverse of S
    and verified as ``T S = I`` at the order-1 threshold of
    ``minv.is_left_m_inverse`` before ``(T, ||T S - I||_F)`` is returned.
    """
    t = np.linalg.inv(cert.s)
    ok, residual = minv.is_left_m_inverse(cert.s, t, 1, tol)
    if not ok:
        raise IdentityCheckError(f"canonical inverse fails T S = I (residual {residual:.3e})")
    return t, residual


# ---------------------------------------------------------------------------
# Douglas factorization
# ---------------------------------------------------------------------------

def douglas_factor(
    a: np.ndarray, b: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, float, float]:
    """Minimal factor C with ``A = B C``, plus its optimality value and residual.

    One SVD ``B = U S V*`` does all the work.  Its rank r counts the
    singular values above ``zero_threshold(s_1)``, and
    ``C = V_r S_r^-1 U_r* A`` is the minimal-norm factor ``B^+ A``.  Range
    inclusion is decided once, by the factor residual
    ``||B C - A||_F <= zero_threshold(max(||A||_F, ||B||_F))``, evaluated
    as ``||(I - U_r U_r*) A||_F`` so that a large ``||C||`` neither enters
    the scale nor amplifies rounding; otherwise ``AssumptionError`` names
    the residual column of largest norm.
    Returns ``(C, mu2, residual)`` with ``mu2 = ||S_r^-1 U_r* A||_2^2 =
    ||C||^2``, which by Douglas's lemma is the least ``lam`` with
    ``A A* <= lam B B*``, and the factor residual that passed the check.
    The independent checks (``||B C - A||_F`` itself, the pencil
    ``(A A*, B B*)`` on ran(B), ``ker C = ker A`` and ``C`` orthogonal to
    ``ker B``) are the oracle of ``suites.run_douglas``.
    """
    a = as_matrix(a, name="A")
    b = as_matrix(b, name="B")
    require_same_shape(a, b, "A and B")
    u, sv, vh = np.linalg.svd(b, full_matrices=False)
    r = int(np.sum(sv > tol.zero_threshold(sv[0])))
    ua = adjoint(u[:, :r]) @ a
    off = a - u[:, :r] @ ua
    residual = frobenius(off)
    if residual > tol.zero_threshold(tol.scale_of(a, b)):
        witness = off[:, int(np.argmax(np.linalg.norm(off, axis=0)))]
        witness = witness / np.linalg.norm(witness)
        raise AssumptionError(
            "ran(A) is not contained in ran(B); no factor exists "
            f"(witness direction {np.round(witness, 6).tolist()})"
        )
    coef = ua / sv[:r, None]
    return adjoint(vh[:r]) @ coef, operator_norm(coef) ** 2, residual


# ---------------------------------------------------------------------------
# Putnam-Fuglede
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PFReport:
    """Outcome of the Putnam-Fuglede check for the elementary operator.

    ``satisfies_pf`` is the kernel-inclusion verdict over isometries V:
    accepted when A splits orthogonally into a unitary and a part of
    spectral radius below 1 on its certificate's Schur form, otherwise
    decided on the unimodular eigenspaces of A.  A counterexample
    ``(V, X)`` with ``A X V* = X`` but ``A* X V != X`` is attached whenever
    the verdict is negative.
    """

    satisfies_pf: bool
    counterexample: tuple[np.ndarray, np.ndarray] | None = None

    def to_json_dict(self) -> dict:
        out = {"satisfies_pf": self.satisfies_pf}
        if self.counterexample is not None:
            v, x = self.counterexample
            out["counterexample"] = {
                "V": matrix_to_json_dict(v),
                "X": matrix_to_json_dict(x),
            }
        return out


def _eigenspaces(
    a: np.ndarray, phases: list[complex], tol: ToleranceConfig
) -> tuple[float, list[tuple[np.ndarray, np.ndarray, np.ndarray | None]]]:
    """Decide ``ker(A - nu) <= ker(A* - conj(nu))`` for each unimodular ``nu`` in ``phases``.

    For a unitary V with these eigenvalues, ``X -> A X V* - X`` is
    ``conj(V) (x) A - I``, unitarily block diagonal with blocks
    ``conj(nu) A - I``; its singular values are those of the ``A - nu I``
    together, and its rank cutoff is ``zero_threshold(max ||A - nu I||)``.
    Its kernel lies in that of ``X -> A* X V - X`` (blocks ``nu A* - I``,
    with the same singular values) exactly when each numerical null space
    E of ``A - nu I`` has an image under ``nu A* - I`` within the cutoff.
    Returns the cutoff and, for each phase, the SVD ``(sv, vh)`` of
    ``A - nu I`` and ``None``, or the unit vector of E that ``nu A* - I``
    stretches most when that image exceeds the cutoff.
    """
    eye = np.eye(a.shape[0], dtype=complex)
    _, sv, vh = np.linalg.svd(a - np.multiply.outer(phases, eye))
    cutoff = tol.zero_threshold(float(sv[:, 0].max()))
    out = []
    for nu, s, v in zip(phases, sv, vh):
        x = None
        if s[-1] <= cutoff:
            eigenspace = adjoint(v[s <= cutoff])
            _, image_sv, image_vh = np.linalg.svd((nu * adjoint(a) - eye) @ eigenspace)
            if image_sv[0] > cutoff:
                x = eigenspace @ image_vh[0].conj()
        out.append((s, v, x))
    return cutoff, out


def pf_property_check(a: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> PFReport:
    """Test whether solutions of ``A X V* = X`` also solve ``A* X V = X``.

    For a unitary V the kernel of ``X -> A X V* - X`` is spanned by the
    ``x w*`` with ``A x = mu x`` and ``V w = mu w`` for a unimodular mu that
    A and V share, so the property holds for every isometry V exactly when
    ``ker(A - mu) <= ker(A* - conj(mu))`` at each unimodular eigenvalue mu
    of A; the probe ``V = mu I`` reaches that whole eigenspace.  For a
    power-bounded A this is the structural criterion: A is the orthogonal
    sum of a unitary and a matrix of spectral radius below 1.

    A is certified once by ``certify_power_bounded`` (a matrix that is not
    power bounded raises ``AssumptionError``): one reorder on the report,
    one phase rule.  It is accepted, in O(n^3), on the report's ``split``
    ``T = [[C0, K], [0, C1]]`` (interior first) when ``||K||_F <=
    zero_threshold(||A||_F)`` and ``||C1* C1 - I||_F <= zero_threshold(||A||_F^2)``.

    Otherwise the phase ``mu = mean / |mean|`` of each cluster of the
    report, in order, is searched for a witness: the image of the numerical
    null space E of ``A - mu I`` under ``mu A* - I`` must vanish below
    ``zero_threshold(||A - mu I||)``, the rank cutoff and threshold of
    the vectorized maps at ``V = mu I``, whose singular values
    are those of ``A - mu I``, each repeated n times.  A failure is
    witnessed by ``(mu I, x x*)``, with x the unit vector of E that
    ``mu A* - I`` stretches most (``x x*`` does not depend on the phase of
    x); no witness at any phase means the property holds.  Every negative
    verdict carries a witness.

    The two tests differ only in a tolerance band.  With Q a unitary,
    ``Q [[1, 0, 0], [0, 1, eps], [0, 0, 0.5]] Q*`` is accepted by the
    split up to eps ~ 1.51e-8, where the witness search alone would fail it
    from eps ~ 5.10e-9; ``Q [[1, 0, 0], [0, -1, eps], [0, 0, 0]] Q*`` is
    rejected by the split from eps ~ 1.42e-8, but no phase witnesses a
    failure before eps ~ 2.01e-8, so it holds up to there.
    """
    a = as_matrix(a, square=True, name="A")
    report = certify_power_bounded(a, tol=tol)
    if not report.bounded:
        lam, reason = report.witness
        raise AssumptionError(
            f"pf_property_check requires a power bounded matrix ({reason}, eigenvalue {lam:.6g})"
        )
    n = a.shape[0]
    t, _, labels = report.split
    k = int(np.count_nonzero(labels < 0))
    scale = frobenius(a)
    if (
        frobenius(t[:k, k:]) <= tol.zero_threshold(scale)
        and frobenius(adjoint(t[k:, k:]) @ t[k:, k:] - np.eye(n - k)) <= tol.zero_threshold(scale**2)
    ):
        return PFReport(satisfies_pf=True)
    for cluster in report.clusters:
        mean = complex(report.schur[0][cluster, cluster].mean())
        mu = mean / abs(mean)
        _, [(*_, x)] = _eigenspaces(a, [mu], tol)
        if x is not None:
            return PFReport(False, (mu * np.eye(n, dtype=complex), np.outer(x, x.conj())))
    return PFReport(satisfies_pf=True)


def ascent_bound_check(
    a: np.ndarray, v: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[tuple[bool, int], tuple[bool, int]]:
    """Kernel inclusion and ascent of ``X -> A X V* - X`` and of ``X -> A X - X V*``.

    Returns the ``(inclusion, ascent)`` pair of the elementary operator
    ``X -> A X V* - X`` against ``X -> A* X V - X``, then that of the
    derivation ``X -> A X - X V*`` against ``X -> A* X - X V``, both
    decided on the n x n eigenspaces of ``_eigenspaces``.  The elementary
    operator's ascent is the largest index of ``A - nu I`` over the
    distinct phases nu (``_distinct_phases``) of all of V's eigenvalues,
    in the unimodular band or not (an isometry that passes its check can
    have moduli outside it), each read by ``minv._ascent`` from the
    helper's SVD, and its inclusion is ``ker(A - nu) <= ker(A* - conj(nu))``
    for each; the derivation, with blocks ``A - conj(nu) I``, gives the same
    at ``conj(nu)``.  Requires V to be an isometry.  The paper's bound, that
    inclusion forces ascent at most 1, is checked by ``suites.run_pf_ascent``
    against the Kronecker reference.
    """
    a = as_matrix(a, square=True, name="A")
    v = as_matrix(v, square=True, name="V")
    require_same_shape(a, v, "A and V")
    iso_res = frobenius(adjoint(v) @ v - np.eye(v.shape[0]))
    if iso_res > tol.zero_threshold(tol.scale_of(v) ** 2):
        raise AssumptionError(f"V is not an isometry (residual {iso_res:.3e})")

    eigs = np.linalg.eigvals(v).tolist()
    spectrum = _distinct_phases(eigs)
    eye = np.eye(a.shape[0], dtype=complex)
    results = []
    for phases in (spectrum, np.conj(spectrum).tolist()):
        cutoff, blocks = _eigenspaces(a, phases, tol)
        included = all(x is None for *_, x in blocks)
        asc = max(minv._ascent(a - nu * eye, s, vh, cutoff) for nu, (s, vh, _) in zip(phases, blocks))
        results.append((included, asc))
    return tuple(results)


def similar_to_unitary(
    cert: SimilarityCertificate, t: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Simultaneous unitary models for a power-bounded defect pair.

    ``cert`` is the ``similarity_certificate`` of S.  For a power-bounded
    left m-inverse T of S, ``Phi(X) = T X S`` is power bounded with
    ``(Phi - I)^m (I) = 0``.  Its eigenvalue 1 is semisimple, so
    ``ker (Phi - I)^m = ker (Phi - I)``: ``T S = I`` at every m.  So T is
    decided with no m, by ``minv.is_left_m_inverse`` at order 1 and then,
    as ``P S P^{-1} = V`` gives ``P^{-1} T* P = V``, by the model error
    ``||P^{-1} T* P - V||_F`` within ``zero_threshold(||V||_F)``, a bound
    that does not grow with cond(P) (V* is normal, so each eigenvalue of T
    lies within the error of V*'s); its rounding, ``eps cond(P) ||T||``,
    uses up to 0.6 of it on exact pairs near cond(P) = 1e4.  A T that
    fails either check is not S^{-1} (``AssumptionError``).  Returns
    ``(U1, U2, P, residual) = (V, V, I, model error)``.
    """
    t = as_matrix(t, square=True, name="T")
    ok, residual = minv.is_left_m_inverse(cert.s, t, 1, tol)
    if not ok:
        raise AssumptionError(
            "similar_to_unitary requires power bounded T and a left m-inverse of S, which make T = S^-1; "
            f"T is not S^-1 within tolerance (||T S - I||_F = {residual:.3e})"
        )
    v = cert.v
    residual = frobenius(cert.p_inv @ adjoint(t) @ cert.p - v)
    if residual > tol.zero_threshold(tol.scale_of(v)):
        raise AssumptionError(
            f"similar_to_unitary requires power bounded T, which makes T = S^-1; "
            f"T is not S^-1 within tolerance (||P^-1 T* P - V||_F = {residual:.3e})"
        )
    return v, v, np.eye(t.shape[0], dtype=complex), residual
