"""Seeded verification sweeps.

Each suite generates a deterministic corpus, runs one family of checks at
pinned bounds, and reports per-instance violations plus worst-case
residual statistics.  Instance i of a seeded sweep at seed S draws from
``gen.derive_rng(S, i)``, its dimension first, and is tagged
``instance i (n=...)``; a fixed instance (a Jordan block, a hyperbolic
pair) is tagged by its parameters.  Every instance of every gate, seeded
or fixed, goes through ``_check_instance``, which counts it and reports
each message of its check, and an ``OpslabError`` the check raises, as
its violation.  The independent oracles that library calls do not
run for themselves live here: the Douglas pencil, the rigidity of power-bounded
m-isometries, and the n^2 x n^2 Kronecker reference that the Putnam-Fuglede
verdict and the ascent bound are held against: ``_kronecker_reference``
pairs the two forward maps of ``_kronecker_maps`` with ``minv``'s
decisions, and no adjoint map is formed.

``GATES`` is the table of acceptance gates: one row per sweep, with the
paper claim it checks, which ``opslab suite`` groups it under.  A gate's
size is its sweep's defaults, and its pinned bounds are its entry in
``BOUNDS``, which the sweep reads and its report states.  The CLI and the
acceptance tests read the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Callable, NamedTuple

import numpy as np
import scipy.linalg

from . import conj as conj_mod
from . import gen, metric, minv
from .errors import ArgumentError, OpslabError
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    frobenius,
    numerical_rank,
    operator_norm,
)

__all__ = [
    "BOUNDS",
    "GATES",
    "Gate",
    "SuiteResult",
    "run_defect_agreement",
    "run_jordan_strictness",
    "run_similarity_roundtrip",
    "run_z_inverse_contract",
    "run_douglas",
    "run_isometry_rigidity",
    "run_c_isometry_rigidity",
    "run_pf_ascent",
]


_RESIDUAL_REL = 1e-8  # times the residual's own scale
_DECISION_ABS_TOL = 1e-8  # absolute: a defect residual at most this vanishes

# Each gate's pinned bounds, each a literal only here; its sweep reads them from here.
BOUNDS = {
    "defect-agreement": {"relative_gap": 1e-12},
    "jordan-strictness": {"decision_abs_tol": _DECISION_ABS_TOL},
    "similarity-roundtrip": {"residual_rel": _RESIDUAL_REL},
    "z-inverse-contract": {"residual_rel": _RESIDUAL_REL, "z_norm_slack": 1e-6},
    "douglas": {"residual_rel": _RESIDUAL_REL, "mu_gap_rel": 1e-6},
    "isometry-rigidity": {"decision_abs_tol": _DECISION_ABS_TOL, "isometry_gap": 1e-6},
    "c-isometry-rigidity": {"decision_abs_tol": _DECISION_ABS_TOL, "antilinear_relative_gap": 1e-10},
    "pf-ascent": {"witness_forward": 1e-8, "witness_backward": 1e-6},
}


@dataclass
class SuiteResult:
    name: str
    instances: int = 0
    violations: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, 0.0), float(value))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "instances": self.instances,
            "passed": self.passed,
            "violations": self.violations,
            "stats": self.stats,
            "bounds": dict(BOUNDS.get(self.name, {})),
        }


def _instance(seed: int, i: int, n_min: int, dim_max: int) -> tuple[np.random.Generator, int]:
    """Instance i of a seeded sweep: its generator and its dimension, the first draw."""
    rng = gen.derive_rng(seed, i)
    return rng, int(rng.integers(n_min, dim_max + 1))


def _check_instance(result: SuiteResult, tag: str, check, *args) -> None:
    """Count one instance; each message of ``check(*args)``, and an
    ``OpslabError`` it raises, becomes a violation tagged ``tag``."""
    try:
        for message in check(*args):
            result.violations.append(f"{tag}: {message}")
    except OpslabError as exc:
        result.violations.append(f"{tag}: {type(exc).__name__}: {exc}")
    result.instances += 1


def _require(gate: str, parameter: str, value: int, least: int) -> None:
    if value < least:
        raise ArgumentError(f"{gate}: {parameter} must be >= {least}")


def _sweep(result: SuiteResult, seed: int, count: int, n_min: int, dim_max: int, check) -> SuiteResult:
    """Check instances 0..count-1 of ``seed``, n in [n_min, dim_max]:
    ``check(rng, n, i)`` returns or yields the violations of instance i."""
    _require(result.name, "count", count, 1)
    _require(result.name, "dim_max", dim_max, n_min)
    for i in range(count):
        rng, n = _instance(seed, i, n_min, dim_max)
        _check_instance(result, f"instance {i} (n={n})", check, rng, n, i)
    return result


def run_defect_agreement(seed: int = 0, count: int = 200, dim_max: int = 6) -> SuiteResult:
    """Iterated defect evaluator versus the exact-binomial sum, entrywise relative."""
    result = SuiteResult("defect-agreement")
    bound = BOUNDS[result.name]["relative_gap"]

    def check(rng, n, i):
        m = int(rng.integers(1, 6))
        s = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        t = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        iterated = minv.defect(s, t, m)
        direct = sum(
            ((-1) ** (m - j)) * comb(m, j)
            * (np.linalg.matrix_power(t, j) @ np.linalg.matrix_power(s, j))
            for j in range(m + 1)
        )
        scale = max(1.0, np.abs(direct).max(), np.abs(iterated).max())
        rel = np.abs(direct - iterated).max() / scale
        result.record("max_relative_gap", rel)
        if rel > bound:
            yield f"m={m}: relative gap {rel:.3e}"

    return _sweep(result, seed, count, 2, dim_max, check)


def run_jordan_strictness(k_max: int = 4) -> SuiteResult:
    """Jordan blocks on the circle: defect order 2k-1, unbounded for k >= 2."""
    result = SuiteResult("jordan-strictness")
    _require(result.name, "k_max", k_max, 1)
    decision_tol = ToleranceConfig(abs_tol=BOUNDS[result.name]["decision_abs_tol"], rel_tol=0.0)

    def check(k, lam):
        j = gen.gen_jordan(k, lam)
        profile = minv.defect_profile(j, adjoint(j), 2 * k, decision_tol)
        order = next((m for m, (ok, _) in enumerate(profile, start=1) if ok), None)
        if order != 2 * k - 1:
            yield f"minimal defect order {order}, expected {2 * k - 1}"
        bounded = metric.certify_power_bounded(j).bounded
        if bounded != (k == 1):
            yield f"power bounded verdict {bounded}"

    for k in range(1, k_max + 1):
        for lam in gen.JORDAN_PHASES:
            _check_instance(result, f"J_{k}({lam})", check, k, lam)
    return result


def run_similarity_roundtrip(
    seed: int = 0, count: int = 200, dim_max: int = 8
) -> SuiteResult:
    """Invariant metric, isometry extraction, canonical inverse, unitary models."""
    result = SuiteResult("similarity-roundtrip")
    tol = DEFAULT_TOL
    rel = BOUNDS[result.name]["residual_rel"]

    def check(rng, n, i):
        s, _, _ = gen.gen_similar_isometry(n, int(rng.integers(0, 2**63)))
        cert = metric.similarity_certificate(s, tol)
        res_metric = cert.residual_metric
        result.record("metric_residual", res_metric)
        if res_metric > rel * max(1.0, frobenius(s) ** 2):
            yield f"metric residual {res_metric:.3e}"
        res_sim = cert.residual_similarity
        result.record("similarity_residual", res_sim)
        if res_sim > rel * max(1.0, frobenius(cert.p) * frobenius(s)):
            yield f"similarity residual {res_sim:.3e}"

        t, res_canon = metric.canonical_left_m_inverse(cert, tol)
        result.record("canonical_residual", res_canon)
        if res_canon > rel * max(1.0, frobenius(s) * frobenius(t)):
            yield f"canonical residual {res_canon:.3e}"

        # ||P^-1 T* P - V||_F, which similar_to_unitary checked against
        # zero_threshold(||V||_F).
        *_, res_u = metric.similar_to_unitary(cert, t, tol)
        result.record("unitary_model_residual", res_u)

    return _sweep(result, seed, count, 1, dim_max, check)


def run_z_inverse_contract(
    seed: int = 0, count: int = 200, dim_max: int = 8
) -> SuiteResult:
    """Z_n S^n = I on generated pairs and Jordan strict isometries, with norm bound.

    Since ``Z_n S^n - I = (-1)^(m+1) P_m(S^n, T^n)`` exactly, the residual
    for n = 1..6 also checks that a vanishing defect is stable under
    powers: T^n is a left m-inverse of S^n.  S and T of a generated pair
    must be certified power bounded, and ``||Z_n|| <= 2^m M1^2`` with M1 at
    least 1 and the larger ``m1_estimate`` of the two reports at horizon 6m.
    """
    result = SuiteResult("z-inverse-contract")
    tol = DEFAULT_TOL
    bounds = BOUNDS[result.name]
    rel, slack = bounds["residual_rel"], bounds["z_norm_slack"]

    def check_pair(s, t, m, power_bounded):
        s_pow = eye = np.eye(s.shape[0])
        if power_bounded:
            m1 = 1.0
            for x, label in ((s, "S"), (t, "T")):
                report = metric.certify_power_bounded(x, horizon=6 * m, tol=tol)
                if not report.bounded:
                    yield f"{label} is not power bounded"
                m1 = max(m1, report.m1_estimate)
            bound = minv.z_norm_bound(m, m1) + slack
        zs = minv.z_inverses(s, t, m, 6, tol)
        z_norms = np.linalg.svd(np.stack(zs), compute_uv=False)[:, 0]
        for n_pow, (z, z_norm) in enumerate(zip(zs, z_norms), start=1):
            s_pow = s_pow @ s
            res = frobenius(z @ s_pow - eye)
            result.record("z_residual", res)
            if res > rel * max(1.0, frobenius(z) * frobenius(s_pow)):
                yield f"Z_{n_pow} residual {res:.3e}"
            if power_bounded:
                result.record("z_norm_margin", z_norm / bound)
                if z_norm > bound:
                    yield f"||Z_{n_pow}|| = {z_norm:.3e} exceeds bound {bound:.3e}"

    def check(rng, n, i):
        m = int(rng.integers(1, 4))
        s, t = gen.gen_left_m_pair(n, int(rng.integers(0, 2**63)))
        return (f"m={m}: {message}" for message in check_pair(s, t, m, True))

    _sweep(result, seed, count, 1, dim_max, check)
    for lam in (1.0, 1j, np.exp(0.7j)):
        j = gen.gen_jordan(2, lam)
        _check_instance(result, f"jordan({lam})", check_pair, j, adjoint(j), 3, False)
    return result


def _pencil_top(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> float:
    """Largest eigenvalue of the pencil ``(A A*, B B*)`` restricted to ran(B),
    whose orthonormal basis is the columns of ``q``.

    For ``ran(A) <= ran(B)`` it is the least ``lam`` with
    ``A A* <= lam B B*``, computed without the factor C.
    """
    if q.shape[1] == 0:
        return 0.0
    aa = adjoint(q) @ (a @ adjoint(a)) @ q
    bb = adjoint(q) @ (b @ adjoint(b)) @ q
    aa = 0.5 * (aa + adjoint(aa))
    bb = 0.5 * (bb + adjoint(bb))
    return max(0.0, float(scipy.linalg.eigh(aa, bb, eigvals_only=True)[-1]))


def _douglas_instance(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The draws of a douglas instance: ``(A, B, C0)`` with ``A = B C0``,
    B rank deficient in about half of the instances."""
    b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    if rng.uniform() < 0.5:
        u, sv, vh = np.linalg.svd(b)
        drop = int(rng.integers(1, n))
        sv[n - drop:] = 0.0
        b = (u * sv) @ vh
    c0 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    return b @ c0, b, c0


def run_douglas(seed: int = 0, count: int = 200, dim_max: int = 8) -> SuiteResult:
    """Douglas factors against an independent oracle.

    ``metric.douglas_factor`` takes one SVD of B.  Here each factor C must
    satisfy ``||BC - A|| <= residual_rel * max(1, ||A||, ||B||)``, have norm
    at most that of the C0 the instance was built from, and reach the
    optimality value: ``mu2`` within ``mu_gap_rel`` relative of the
    pencil's top eigenvalue on ran(B).  ``ker C = ker A`` is checked by
    ranks, and C must be orthogonal to ``ker B``.  One more SVD of B, cut at
    ``zero_threshold(s_1)``, gives the oracle both ran(B) and ker B.
    """
    result = SuiteResult("douglas")
    tol = DEFAULT_TOL
    bounds = BOUNDS[result.name]
    rel, mu_rel = bounds["residual_rel"], bounds["mu_gap_rel"]

    def check(rng, n, i):
        a, b, c0 = _douglas_instance(rng, n)
        c, mu2, _ = metric.douglas_factor(a, b, tol)
        res = frobenius(b @ c - a)
        result.record("factor_residual", res)
        if res > rel * max(1.0, frobenius(a), frobenius(b)):
            yield f"factor residual {res:.3e}"
        u, sv, vh = np.linalg.svd(b)
        rank = int(np.sum(sv > tol.zero_threshold(sv[0])))
        gap = abs(mu2 - _pencil_top(a, b, u[:, :rank]))
        result.record("mu_gap", gap)
        if gap > mu_rel * max(1.0, mu2):
            yield f"|mu2 - pencil| = {gap:.3e}"
        norm_c, norm_c0 = operator_norm(c), operator_norm(c0)
        if norm_c > norm_c0 + tol.zero_threshold(norm_c0):
            yield f"‖C‖ = {norm_c:.6f} exceeds ‖C0‖ = {norm_c0:.6f}"
        rank_a = numerical_rank(a, tol)
        if not rank_a == numerical_rank(c, tol) == numerical_rank(np.vstack([a, c]), tol):
            yield "kernel of C does not match kernel of A"
        ortho = frobenius(vh[rank:] @ c)  # the adjoint of ker B's basis
        if ortho > tol.zero_threshold(tol.scale_of(a, b, c)):
            yield f"C is not orthogonal to ker B (residual {ortho:.3e})"

    return _sweep(result, seed, count, 2, dim_max, check)


def _isometry_rigidity_violations(s: np.ndarray) -> list[str]:
    """What S contradicts of "power bounded and m-isometric => isometric => unitary".

    S must be certified power bounded.  One ``minv.defect_profile`` of
    ``(S, S*)`` gives the residual at each order m = 1..4, read twice: an
    m-isometry at the absolute ``decision_abs_tol`` must have
    ``||S*S - I||_F <= isometry_gap``, and a 4-isometry at ``DEFAULT_TOL``
    must be isometric at ``DEFAULT_TOL``, that is
    ``||S*S - I||_F <= zero_threshold(||S||_F^2)``.  An isometric S must be
    unitary at the same threshold.
    """
    if not metric.certify_power_bounded(s).bounded:
        return ["not certified power bounded"]
    bounds = BOUNDS["isometry-rigidity"]
    decision, gap_bound = bounds["decision_abs_tol"], bounds["isometry_gap"]
    eye = np.eye(s.shape[0])
    iso_gap = frobenius(adjoint(s) @ s - eye)
    verdicts = minv.defect_profile(s, adjoint(s), 4, DEFAULT_TOL)
    out = [
        f"{m}-isometric (residual {residual:.3e}) but ‖S*S - I‖ = {iso_gap:.3e}"
        for m, (_, residual) in enumerate(verdicts, start=1)
        if residual <= decision and iso_gap > gap_bound
    ]
    threshold = DEFAULT_TOL.zero_threshold(frobenius(s) ** 2)
    is_isometric = iso_gap <= threshold
    if verdicts[-1][0] and not is_isometric:
        out.append(f"power bounded 4-isometric matrix is not isometric (residual {iso_gap:.3e})")
    if is_isometric:
        unit_gap = frobenius(s @ adjoint(s) - eye)
        if unit_gap > threshold:
            out.append(f"isometric matrix is not unitary (residual {unit_gap:.3e})")
    return out


def run_isometry_rigidity(
    seed: int = 0, count: int = 500, dim_max: int = 8
) -> SuiteResult:
    """Falsification sweep: no power-bounded strict m-isometry may appear."""
    def check(rng, n, i):
        return _isometry_rigidity_violations(gen.gen_power_bounded(n, int(rng.integers(0, 2**63))))

    return _sweep(SuiteResult("isometry-rigidity"), seed, count, 2, dim_max, check)


def _mc_defect_antilinear(s: np.ndarray, c: conj_mod.Conjugation, m: int) -> np.ndarray:
    # Direct route: apply each S*^j C S^j C to the identity's columns, C
    # acting antilinearly on each column of the basis at once; serves as
    # the oracle for the algebraic collapse.
    n = s.shape[0]
    out = np.zeros((n, n), dtype=complex)
    sa = adjoint(s)
    basis = sj = saj = np.eye(n, dtype=complex)
    c_basis = c.apply(basis)  # the same at every order
    for j in range(m + 1):
        term = saj @ c.apply(sj @ c_basis)
        out += ((-1) ** (m - j)) * comb(m, j) * term
        sj, saj = sj @ s, saj @ sa
    return out


def run_c_isometry_rigidity(
    seed: int = 0, count: int = 500, dim_max: int = 8
) -> SuiteResult:
    """Falsification sweep for the conjugation-twisted rigidity at the absolute
    ``decision_abs_tol``.  One pass of the recursion of ``(CSC, S*)`` per instance
    gives the verdicts of ``minv.defect_profile`` at orders 1..4 and the order-4
    matrix of the oracle."""
    result = SuiteResult("c-isometry-rigidity")
    bounds = BOUNDS[result.name]
    decision_tol = ToleranceConfig(abs_tol=bounds["decision_abs_tol"], rel_tol=0.0)
    gap_bound = bounds["antilinear_relative_gap"]

    def check(rng, n, i):
        sub_seed = int(rng.integers(0, 2**63))
        if i % 2 == 0:
            s = gen.gen_power_bounded(n, sub_seed)
            c = gen.gen_conjugation(n, sub_seed + 1)
        else:
            s, c = gen.gen_1c_isometry(n, sub_seed)
        csc, s_adj = conj_mod.conjugate_operator(c, s), adjoint(s)
        defects = list(minv._defects(csc, s_adj, 4))
        verdicts = minv._profile(csc, s_adj, defects, decision_tol)
        is_1c = verdicts[0][0]
        for m, (is_mc, residual) in enumerate(verdicts, start=1):
            if is_mc and not is_1c:
                yield f"({m},C)-isometric but not (1,C)-isometric"
            if i % 2 == 1 and not is_mc:
                yield f"orthogonal positive failed ({m},C) (residual {residual:.3e})"
        # Oracle for the collapsed evaluation, on the (4,C) defect.
        residual_4 = verdicts[-1][1]
        collapsed = defects[-1]
        direct = _mc_defect_antilinear(s, c, 4)
        gap = frobenius(collapsed - direct) / max(1.0, residual_4, frobenius(direct))
        result.record("antilinear_relative_gap", gap)
        if gap > gap_bound:
            yield f"collapsed and antilinear (4,C) defects differ (relative {gap:.3e})"

    def check_hyperbolic(t):
        s, c = gen.gen_1c_isometry(2, 0, hyperbolic=True, t=t)
        if not conj_mod.is_mc_isometric(s, c, 1)[0]:
            yield "not (1,C)-isometric"
        if metric.certify_power_bounded(s).bounded:
            yield "unexpectedly power bounded"

    _sweep(result, seed, count, 2, dim_max, check)
    for t in (0.5, 1.0, 2.0):
        _check_instance(result, f"hyperbolic t={t}", check_hyperbolic, t)
    return result


def _kronecker_maps(a: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The n^2 x n^2 elementary operator ``X -> A X V* - X`` and derivation
    ``X -> A X - X V*`` on column-stacked X, by one broadcast (``np.kron``, bit for bit)."""
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    b, c = np.stack([v.conj(), eye, v.conj()]), np.stack([a, a, eye])
    vbar_a, eye_a, vbar_eye = (b[:, :, None, :, None] * c[:, None, :, None, :]).reshape(3, n * n, n * n)
    return vbar_a - np.eye(n * n, dtype=complex), eye_a - vbar_eye


def _kronecker_reference(a: np.ndarray, v: np.ndarray) -> tuple[tuple[bool, int], ...]:
    """``(minv.kernel_included, minv.ascent)`` of the elementary operator and the
    derivation at (A, V), in the shape of ``metric.ascent_bound_check``: both
    read from one SVD of each map, cut at ``zero_threshold(s_1)``."""
    out = []
    for rep in _kronecker_maps(a, v):
        _, sv, vh = np.linalg.svd(rep)
        cutoff = DEFAULT_TOL.zero_threshold(float(sv[0]))
        out.append((minv._included(rep, sv, vh, cutoff), minv._ascent(rep, sv, vh, cutoff)))
    return tuple(out)


def run_pf_ascent(seed: int = 0, count: int = 50, dim_max: int = 5) -> SuiteResult:
    """Putnam-Fuglede verdicts and the ascent bound against the vectorized maps.

    The oracle is ``_kronecker_reference``: ``minv.kernel_included`` and
    ``minv.ascent`` on the n^2 x n^2 Kronecker matrices of the elementary
    operator and the derivation, one SVD per map, at the identity, a
    Haar unitary and ``V = mu I`` at the phase ``mu = lam / |lam|`` of
    each of A's own ``eigvals`` within 1e-8 of the circle.  No phase is
    merged and none comes from ``metric``'s phase rule, so a phase the
    library merged too widely is still probed here.  Both
    ``(inclusion, ascent)`` pairs of ``metric.ascent_bound_check`` must
    equal the oracle's, whose inclusion must force ascent at most 1; the
    PF verdict, accepted on the certificate's split, must be true
    exactly when the elementary operator's inclusion holds at every probe,
    and each counterexample must solve ``A X V* = X`` (``witness_forward``)
    but not ``A* X V = X`` (``witness_backward``).  The oracle's SVDs have
    n^2 rows, so its cost grows as n^6.
    """
    result = SuiteResult("pf-ascent")
    bounds = BOUNDS[result.name]
    forward_bound, backward_bound = bounds["witness_forward"], bounds["witness_backward"]

    def check(rng, n, i):
        if i % 2 == 0:  # unitary (+) contraction, rotated by a Haar unitary
            k = int(rng.integers(1, n + 1))
            a = np.zeros((n, n), dtype=complex)
            a[:k, :k] = gen.haar_unitary(k, rng)
            if n - k > 0:
                g = rng.standard_normal((n - k, n - k)) + 1j * rng.standard_normal((n - k, n - k))
                a[k:, k:] = 0.8 * g / max(np.abs(np.linalg.eigvals(g)).max(), 1e-3)
            q = gen.haar_unitary(n, rng)
            a = q @ a @ adjoint(q)
        else:
            a = gen.gen_power_bounded(n, int(rng.integers(0, 2**63)))

        # V = mu I at A's unimodular phases reaches every PF kernel.
        eigs = np.linalg.eigvals(a).tolist()
        phases = [lam / abs(lam) for lam in eigs if abs(abs(lam) - 1.0) < 1e-8]
        eye = np.eye(n, dtype=complex)
        probes = [eye, gen.haar_unitary(n, rng), *(mu * eye for mu in phases)]
        all_included = True
        for v in probes:
            reference = _kronecker_reference(a, v)
            for included, asc in reference:
                if included and asc > 1:
                    yield f"oracle inclusion holds but ascent {asc} > 1"
            pairs = metric.ascent_bound_check(a, v)
            if pairs != reference:
                yield f"(inclusion, ascent) pairs {pairs}, oracle {reference}"
            all_included = all_included and pairs[0][0]
            result.record("max_ascent", float(pairs[0][1]))

        report = metric.pf_property_check(a)
        if report.satisfies_pf != all_included:
            yield f"verdict {report.satisfies_pf}, kernel inclusion {all_included}"
        if not report.satisfies_pf and report.counterexample is None:
            yield "negative verdict without witness"
        elif not report.satisfies_pf:
            v, x = report.counterexample
            forward = frobenius(a @ x @ adjoint(v) - x)
            backward = frobenius(adjoint(a) @ x @ v - x)
            if forward > forward_bound or backward <= backward_bound:
                yield f"witness residuals {forward:.3e} and {backward:.3e}"

    return _sweep(result, seed, count, 2, dim_max, check)


class Gate(NamedTuple):
    """One acceptance gate: its name, the paper claim ``opslab suite`` runs it
    under (None for none), its sweep, and whether the sweep takes
    ``seed``/``count``/``dim_max``.  Its defaults are seed 0 and the gate's size."""

    name: str
    claim: str | None
    runner: Callable[..., SuiteResult]
    seeded: bool


GATES = (
    Gate("defect-agreement", None, run_defect_agreement, True),
    Gate("jordan-strictness", "prop26", run_jordan_strictness, False),
    Gate("similarity-roundtrip", "thm24", run_similarity_roundtrip, True),
    Gate("z-inverse-contract", "thm24", run_z_inverse_contract, True),
    Gate("douglas", "douglas", run_douglas, True),
    Gate("isometry-rigidity", "prop26", run_isometry_rigidity, True),
    Gate("c-isometry-rigidity", "prop28", run_c_isometry_rigidity, True),
    Gate("pf-ascent", "pf-ascent", run_pf_ascent, True),
)
