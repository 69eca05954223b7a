"""Seeded verification sweeps.

Each suite generates a deterministic corpus, runs one family of checks at
pinned tolerances, and reports per-instance violations plus worst-case
residual statistics.  The CLI exposes them under ``opslab suite``; the
acceptance tests call them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import conj as conj_mod
from . import gen, metric, minv
from .errors import IdentityCheckError, OpslabError
from .matcore import DEFAULT_TOL, ToleranceConfig, adjoint, frobenius, operator_norm

__all__ = [
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


@dataclass
class SuiteResult:
    name: str
    instances: int = 0
    violations: list[str] = field(default_factory=list)
    stats: dict[str, float] = field(default_factory=dict)
    caps: dict[str, dict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def record(self, key: str, value: float) -> None:
        self.stats[key] = max(self.stats.get(key, 0.0), float(value))

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "instances": self.instances,
            "passed": self.passed,
            "violations": self.violations,
            "stats": self.stats,
        }
        if self.caps:  # only caps that took effect
            out["caps"] = self.caps
        return out


def _capped(result: SuiteResult, name: str, requested: int, limit: int) -> int:
    """``min(requested, limit)``, recorded in the report when the cap takes effect."""
    if requested > limit:
        result.caps[name] = {"requested": requested, "used": limit}
    return min(requested, limit)


def run_defect_agreement(seed: int = 0, count: int = 200, dim_max: int = 6) -> SuiteResult:
    """Iterated defect evaluator versus the exact-binomial sum, 1e-12 relative."""
    result = SuiteResult("defect-agreement")
    dim_max = _capped(result, "dim_max", dim_max, 6)
    for i in range(count):
        rng = gen.derive_rng(seed, i)
        n = int(rng.integers(2, dim_max + 1))
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
        if rel > 1e-12:
            result.violations.append(f"instance {i}: n={n} m={m} relative gap {rel:.3e}")
        result.instances += 1
    return result


def run_jordan_strictness(k_max: int = 4) -> SuiteResult:
    """Jordan blocks on the circle: defect order 2k-1, unbounded for k >= 2."""
    decision_tol = ToleranceConfig(abs_tol=1e-8, rel_tol=0.0)
    result = SuiteResult("jordan-strictness")
    for k in range(1, k_max + 1):
        for lam in (1.0, -1.0, 1j, np.exp(0.7j)):
            j = gen.gen_jordan(k, lam)
            order = minv.minimal_defect_order(j, adjoint(j), 2 * k, decision_tol)
            if order != 2 * k - 1:
                result.violations.append(
                    f"J_{k}({lam}): minimal defect order {order}, expected {2 * k - 1}"
                )
            bounded = metric.certify_power_bounded(j).bounded
            if bounded != (k == 1):
                result.violations.append(
                    f"J_{k}({lam}): power bounded verdict {bounded}"
                )
            result.instances += 1
    return result


def run_similarity_roundtrip(
    seed: int = 0, count: int = 200, dim_max: int = 8
) -> SuiteResult:
    """Invariant metric, isometry extraction, canonical inverse, unitary models."""
    result = SuiteResult("similarity-roundtrip")
    tol = DEFAULT_TOL
    for i in range(count):
        rng = gen.derive_rng(seed, i)
        n = int(rng.integers(1, dim_max + 1))
        s, _, _ = gen.gen_similar_isometry(n, int(rng.integers(0, 2**63)))
        tag = f"instance {i} (n={n})"
        try:
            cert = metric.similarity_certificate(s, tol)
            res_metric = cert.residual_metric
            result.record("metric_residual", res_metric)
            if res_metric > 1e-8 * max(1.0, frobenius(s) ** 2):
                result.violations.append(f"{tag}: metric residual {res_metric:.3e}")
            res_iso = cert.residual_isometry
            result.record("isometry_residual", res_iso)
            if res_iso > 1e-8 * max(1.0, frobenius(cert.v) ** 2):
                result.violations.append(f"{tag}: isometry residual {res_iso:.3e}")
            res_sim = cert.residual_similarity
            result.record("similarity_residual", res_sim)
            if res_sim > 1e-8 * max(1.0, frobenius(cert.p) * frobenius(s)):
                result.violations.append(f"{tag}: similarity residual {res_sim:.3e}")

            t, _ = metric.canonical_left_m_inverse(s, cert.p, max(1, int(rng.integers(1, 4))), tol)
            res_canon = frobenius(t @ s - np.eye(n))
            result.record("canonical_residual", res_canon)
            if res_canon > 1e-8 * max(1.0, frobenius(s) * frobenius(t)):
                result.violations.append(f"{tag}: canonical residual {res_canon:.3e}")

            # similar_to_unitary raises if this exceeds 1e-7 * max(1, ||U1||).
            *_, res_u = metric.similar_to_unitary(cert, t, 1, tol)
            result.record("unitary_model_residual", res_u)
        except OpslabError as exc:
            result.violations.append(f"{tag}: {type(exc).__name__}: {exc}")
        result.instances += 1
    return result


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

    def check_pair(s, t, m, tag, power_bounded):
        n_dim = s.shape[0]
        if power_bounded:
            m1 = 1.0
            for x, label in ((s, "S"), (t, "T")):
                report = metric.certify_power_bounded(x, horizon=6 * m, tol=tol)
                if not report.bounded:
                    result.violations.append(f"{tag}: {label} is not power bounded")
                m1 = max(m1, report.m1_estimate)
            bound = minv.z_norm_bound(m, m1) + 1e-6
        for n_pow in range(1, 7):
            z = minv.z_inverse(s, t, m, n_pow, tol)
            s_pow = np.linalg.matrix_power(s, n_pow)
            res = frobenius(z @ s_pow - np.eye(n_dim))
            result.record("z_residual", res)
            if res > 1e-8 * max(1.0, frobenius(z) * frobenius(s_pow)):
                result.violations.append(f"{tag}: Z_{n_pow} residual {res:.3e}")
            if power_bounded:
                z_norm = operator_norm(z)
                result.record("z_norm_margin", z_norm / bound)
                if z_norm > bound:
                    result.violations.append(
                        f"{tag}: ||Z_{n_pow}|| = {z_norm:.3e} exceeds bound {bound:.3e}"
                    )

    for i in range(count):
        rng = gen.derive_rng(seed, i)
        n = int(rng.integers(1, dim_max + 1))
        m = int(rng.integers(1, 4))
        pair = gen.gen_left_m_pair(n, m, int(rng.integers(0, 2**63)))
        try:
            check_pair(pair.s, pair.t, pair.m, f"pair {i} (n={n}, m={m})", True)
        except OpslabError as exc:
            result.violations.append(f"pair {i}: {type(exc).__name__}: {exc}")
        result.instances += 1

    for lam in (1.0, 1j, np.exp(0.7j)):
        j = gen.gen_jordan(2, lam)
        try:
            check_pair(j, adjoint(j), 3, f"jordan({lam})", False)
        except OpslabError as exc:
            result.violations.append(f"jordan({lam}): {type(exc).__name__}: {exc}")
        result.instances += 1
    return result


def run_douglas(seed: int = 0, count: int = 200, dim_max: int = 8) -> SuiteResult:
    """Factor residual, minimal norm, kernel equality, range orthogonality."""
    result = SuiteResult("douglas")
    tol = DEFAULT_TOL
    for i in range(count):
        rng = gen.derive_rng(seed, i)
        n = int(rng.integers(2, dim_max + 1))
        b = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        if rng.uniform() < 0.5:  # rank-deficient half of the corpus
            u, sv, vh = np.linalg.svd(b)
            drop = int(rng.integers(1, n))
            sv[n - drop:] = 0.0
            b = (u * sv) @ vh
        c0 = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
        a = b @ c0
        tag = f"instance {i} (n={n})"
        try:
            c, mu2 = metric.douglas_factor(a, b, tol)
            res = frobenius(b @ c - a)
            result.record("factor_residual", res)
            if res > 1e-8 * max(1.0, frobenius(a), frobenius(b)):
                result.violations.append(f"{tag}: factor residual {res:.3e}")
            gap = abs(operator_norm(c) ** 2 - mu2)
            result.record("mu_gap", gap)
            if gap > 1e-6 * max(1.0, mu2):
                result.violations.append(f"{tag}: |‖C‖^2 - mu2| = {gap:.3e}")
            if operator_norm(c) > operator_norm(c0) + tol.zero_threshold(operator_norm(c0)):
                result.violations.append(
                    f"{tag}: ‖C‖ = {operator_norm(c):.6f} exceeds ‖C0‖ = {operator_norm(c0):.6f}"
                )
        except OpslabError as exc:
            result.violations.append(f"{tag}: {type(exc).__name__}: {exc}")
        result.instances += 1
    return result


def run_isometry_rigidity(
    seed: int = 0, count: int = 500, dim_max: int = 8
) -> SuiteResult:
    """Falsification sweep: no power-bounded strict m-isometry may appear."""
    result = SuiteResult("isometry-rigidity")
    decision_tol = ToleranceConfig(abs_tol=1e-8, rel_tol=0.0)
    for i in range(count):
        rng = gen.derive_rng(seed, i)
        n = int(rng.integers(2, dim_max + 1))
        s = gen.gen_power_bounded(n, int(rng.integers(0, 2**63)))
        tag = f"instance {i} (n={n})"
        iso_gap = frobenius(adjoint(s) @ s - np.eye(n))
        for m in range(1, 5):
            ok, residual = minv.is_left_m_inverse(s, adjoint(s), m, decision_tol)
            if ok and iso_gap > 1e-6:
                result.violations.append(
                    f"{tag}: {m}-isometric (residual {residual:.3e}) "
                    f"but ‖S*S - I‖ = {iso_gap:.3e}"
                )
        try:
            metric.verify_prop_isometric(s, 4)
        except IdentityCheckError as exc:
            result.violations.append(f"{tag}: {exc}")
        result.instances += 1
    return result


def run_c_isometry_rigidity(
    seed: int = 0, count: int = 500, dim_max: int = 8
) -> SuiteResult:
    """Falsification sweep for the conjugation-twisted rigidity."""
    result = SuiteResult("c-isometry-rigidity")
    decision_tol = ToleranceConfig(abs_tol=1e-8, rel_tol=0.0)
    for i in range(count):
        rng = gen.derive_rng(seed, i)
        n = int(rng.integers(2, dim_max + 1))
        sub_seed = int(rng.integers(0, 2**63))
        if i % 2 == 0:
            s = gen.gen_power_bounded(n, sub_seed)
            c = gen.gen_conjugation(n, sub_seed + 1)
        else:
            s, c = gen.gen_1c_isometry(n, sub_seed)
        tag = f"instance {i} (n={n})"
        is_1c = conj_mod.is_1c_isometric(s, c, decision_tol)
        for m in range(1, 5):
            collapsed = conj_mod.mc_isometry_defect(s, c, m)
            residual = frobenius(collapsed)
            is_mc = residual <= 1e-8
            if is_mc and not is_1c:
                result.violations.append(
                    f"{tag}: ({m},C)-isometric but not (1,C)-isometric"
                )
            if i % 2 == 1 and not is_mc:
                result.violations.append(
                    f"{tag}: orthogonal positive failed ({m},C) (residual {residual:.3e})"
                )
        # Oracle for the collapsed evaluation, on the last (m = 4) defect.
        direct = conj_mod._mc_defect_antilinear(s, c, 4)
        gap = frobenius(collapsed - direct) / max(1.0, residual, frobenius(direct))
        result.record("antilinear_relative_gap", gap)
        if gap > 1e-10:
            result.violations.append(
                f"{tag}: collapsed and antilinear (4,C) defects differ (relative {gap:.3e})"
            )
        result.instances += 1

    for t in (0.5, 1.0, 2.0):
        s, c = gen.gen_1c_isometry(2, 0, hyperbolic=True, t=t)
        tag = f"hyperbolic t={t}"
        if not conj_mod.is_1c_isometric(s, c):
            result.violations.append(f"{tag}: not (1,C)-isometric")
        if metric.certify_power_bounded(s).bounded:
            result.violations.append(f"{tag}: unexpectedly power bounded")
        result.instances += 1
    return result


def run_pf_ascent(seed: int = 0, count: int = 50, dim_max: int = 5) -> SuiteResult:
    """Putnam-Fuglede structural/search agreement plus the ascent bound."""
    result = SuiteResult("pf-ascent")
    dim_max = _capped(result, "dim_max", dim_max, 5)  # matrix-space maps stay at most 25x25
    for i in range(count):
        rng = gen.derive_rng(seed, i)
        n = int(rng.integers(2, dim_max + 1))
        tag = f"instance {i} (n={n})"
        if i % 2 == 0:
            k = int(rng.integers(1, n + 1))
            blocks = [gen.haar_unitary(k, rng)]
            if n - k > 0:
                g = rng.standard_normal((n - k, n - k)) + 1j * rng.standard_normal(
                    (n - k, n - k)
                )
                rho = max(np.abs(np.linalg.eigvals(g)).max(), 1e-3)
                blocks.append(0.8 * g / rho)
            a = blocks[0]
            if len(blocks) == 2:
                a = np.block(
                    [
                        [blocks[0], np.zeros((k, n - k))],
                        [np.zeros((n - k, k)), blocks[1]],
                    ]
                )
            q = gen.haar_unitary(n, rng)
            a = q @ a @ adjoint(q)
        else:
            a = gen.gen_power_bounded(n, int(rng.integers(0, 2**63)))
        try:
            report = metric.pf_property_check(a, sample_count=10, seed=seed + i)
            if not report.satisfies_pf and report.counterexample is None:
                result.violations.append(f"{tag}: negative verdict without witness")
        except OpslabError as exc:
            result.violations.append(f"{tag}: {type(exc).__name__}: {exc}")

        probes = [np.eye(n, dtype=complex), gen.haar_unitary(n, rng)]
        eigs = np.linalg.eigvals(a)
        unimodular = eigs[np.abs(np.abs(eigs) - 1.0) < 1e-8]
        if unimodular.size:  # matched spectrum makes the kernel nontrivial
            lam = unimodular[0] / abs(unimodular[0])
            probes.append(lam * np.eye(n, dtype=complex))
        for v in probes:
            try:
                included, asc = metric.ascent_bound_check(a, v)
                if included and asc > 1:
                    result.violations.append(
                        f"{tag}: inclusion holds but ascent {asc} > 1"
                    )
                result.record("max_ascent", float(asc))
            except IdentityCheckError as exc:
                result.violations.append(f"{tag}: {exc}")
        result.instances += 1
    return result
