"""Benchmark-side output checks, recomputed from the returned artifacts.

Each factory returns a function of one request's ``Outcome`` that lists
what is wrong with it (an empty list means correct).  The residuals are
recomputed here with plain numpy from the input matrices and the
matrices the command printed, so a library change that drops one of its
own cross-checks cannot turn a wrong answer into a faster one.
Thresholds follow the acceptance suites: 1e-8 times the scale of the
operands, and 1e-7 for the conjugate unitary models.
"""

from __future__ import annotations

import json

import numpy as np

REL = 1e-8
# Eigenvalues of a unitary model against the spectrum the input was built
# with.  Unitary eigenvalues are perfectly conditioned, so this is loose.
SPECTRUM_TOL = 1e-6


def matrix_to_json(m: np.ndarray) -> dict:
    rows, cols = m.shape
    data = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return {"rows": rows, "cols": cols, "data": data}


def matrix_from_json(d: dict) -> np.ndarray:
    pairs = np.asarray(d["data"], dtype=float)
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(d["rows"], d["cols"])


def fro(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def common(outcome, check) -> list[str]:
    """Failures every request shares, then the request's own check."""
    if outcome.crash is not None:
        return [f"uncaught exception: {outcome.crash}"]
    problems = []
    if "internal check failed" in outcome.stderr:
        problems.append(outcome.stderr.strip().splitlines()[-1])
    if outcome.code == 2:
        problems.append(f"exit 2: {outcome.stderr.strip()[:200]}")
    try:
        problems.extend(check(outcome))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems.append(f"malformed output: {type(exc).__name__}: {exc}")
    return problems


def _report(outcome, code: int) -> tuple[dict | None, list[str]]:
    if outcome.code != code:
        return None, [f"exit {outcome.code}, expected {code}"]
    return json.loads(outcome.stdout), []


def _verdicts(report: dict, expected: bool) -> list[str]:
    return [
        f"verdict {name} is {entry['pass']}, expected {expected}"
        for name, entry in report["verdicts"].items()
        if entry["pass"] is not expected
    ]


def _bound(name: str, value: float, limit: float) -> list[str]:
    if not value <= limit:  # also catches NaN
        return [f"{name} = {value:.3e} exceeds {limit:.3e}"]
    return []


def verdict(name: str, expected: bool):
    def check(outcome):
        report, problems = _report(outcome, 0 if expected else 1)
        if report is None:
            return problems
        if name not in report["verdicts"]:
            return [f"no verdict {name}"]
        return _verdicts(report, expected)
    return check


def refused():
    """Exit 1 through a violated hypothesis (AssumptionError), no report."""
    def check(outcome):
        if outcome.code != 1:
            return [f"exit {outcome.code}, expected 1 (refusal)"]
        if not outcome.stderr.startswith("error: "):
            return [f"exit 1 without a refusal message: {outcome.stderr.strip()[:200]}"]
        return []
    return check


def invariant_metric(s: np.ndarray):
    def check(outcome):
        report, problems = _report(outcome, 0)
        if report is None:
            return problems
        problems = _verdicts(report, True)
        cert = report["artifacts"]["certificate"]
        p, v = matrix_from_json(cert["P"]), matrix_from_json(cert["V"])
        n = s.shape[0]
        p2 = p @ p
        problems += _bound("||P - P*||", fro(p - p.conj().T), REL * max(1.0, fro(p)))
        lam_min = float(np.linalg.eigvalsh(0.5 * (p + p.conj().T)).min())
        if not lam_min > 0.0:
            problems.append(f"P is not positive definite (smallest eigenvalue {lam_min:.3e})")
        problems += _bound("||S*P^2S - P^2||", fro(s.conj().T @ p2 @ s - p2),
                           REL * max(1.0, fro(s) ** 2) * max(1.0, fro(p2)))
        problems += _bound("||V*V - I||", fro(v.conj().T @ v - np.eye(n)), REL * max(1.0, fro(v) ** 2))
        problems += _bound("||PS - VP||", fro(p @ s - v @ p), REL * max(1.0, fro(p) * fro(s)))
        return problems
    return check


def spectrum_gap(m: np.ndarray, expected: np.ndarray) -> float:
    """Largest distance from an expected eigenvalue to its match in ``m``.

    Eigenvalues are paired greedily by nearness, each used once; the
    expected ones are separated (``inputs.separated_phases``), so for a
    correct answer the pairing is unambiguous.
    """
    found = list(np.linalg.eigvals(m))
    worst = 0.0
    for lam in expected:
        i = int(np.argmin([abs(z - lam) for z in found]))
        worst = max(worst, abs(found.pop(i) - lam))
    return worst


def similarity(phases: np.ndarray):
    """U1, U2 unitary, similar to S and T* (both of spectrum ``phases``),
    and ``U1 = P U2 P^-1``."""
    def check(outcome):
        report, problems = _report(outcome, 0)
        if report is None:
            return problems
        problems = _verdicts(report, True)
        art = report["artifacts"]
        u1, u2, p = (matrix_from_json(art[k]) for k in ("U1", "U2", "P"))
        n = u1.shape[0]
        for label, u in (("U1", u1), ("U2", u2)):
            problems += _bound(f"||{label}*{label} - I||", fro(u.conj().T @ u - np.eye(n)),
                               REL * max(1.0, fro(u) ** 2))
        gap = float(np.linalg.norm(u1 - p @ u2 @ np.linalg.inv(p), 2))
        problems += _bound("||U1 - P U2 P^-1||", gap, 1e-7 * max(1.0, float(np.linalg.norm(u1, 2))))
        for label, u in (("U1", u1), ("U2", u2)):
            problems += _bound(f"spectrum of {label} - spectrum of S", spectrum_gap(u, phases), SPECTRUM_TOL)
        return problems
    return check


def canonical_inverse(s: np.ndarray):
    def check(outcome):
        report, problems = _report(outcome, 0)
        if report is None:
            return problems
        problems = _verdicts(report, True)
        t = matrix_from_json(report["artifacts"]["T"])
        problems += _bound("||TS - I||", fro(t @ s - np.eye(s.shape[0])), REL * max(1.0, fro(s) * fro(t)))
        return problems
    return check


def douglas(a: np.ndarray, b: np.ndarray):
    def check(outcome):
        report, problems = _report(outcome, 0)
        if report is None:
            return problems
        problems = _verdicts(report, True)
        c = matrix_from_json(report["artifacts"]["C"])
        mu2 = float(report["artifacts"]["mu2"])
        problems += _bound("||BC - A||", fro(b @ c - a), REL * max(1.0, fro(a), fro(b)))
        gap = abs(float(np.linalg.norm(c, 2)) ** 2 - mu2)
        problems += _bound("| ||C||^2 - mu2 |", gap, 1e-6 * max(1.0, mu2))
        return problems
    return check


def power_bounded_pass():
    def check(outcome):
        report, problems = _report(outcome, 0)
        if report is None:
            return problems
        problems = _verdicts(report, True)
        if report["artifacts"]["report"]["bounded"] is not True:
            problems.append("report says unbounded")
        return problems
    return check


def power_bounded_fail(radius: float):
    """FAIL with a witness eigenvalue of the modulus the input was built with."""
    def check(outcome):
        report, problems = _report(outcome, 1)
        if report is None:
            return problems
        problems = _verdicts(report, False)
        witness = report["artifacts"]["report"].get("witness")
        if witness is None:
            return problems + ["unbounded verdict without a witness"]
        modulus = abs(complex(*witness["eigenvalue"]))
        problems += _bound("witness |lambda| - expected", abs(modulus - radius), 1e-6 * radius)
        return problems
    return check


def pf_pass():
    def check(outcome):
        report, problems = _report(outcome, 0)
        if report is None:
            return problems
        problems = _verdicts(report, True)
        if report["artifacts"]["report"]["satisfies_pf"] is not True:
            problems.append("report says the Putnam-Fuglede property fails")
        return problems
    return check


def pf_fail(a: np.ndarray):
    """FAIL with a counterexample (V, X): A X V* = X but A* X V != X."""
    def check(outcome):
        report, problems = _report(outcome, 1)
        if report is None:
            return problems
        problems = _verdicts(report, False)
        cx = report["artifacts"]["report"].get("counterexample")
        if cx is None:
            return problems + ["negative verdict without a counterexample"]
        v, x = matrix_from_json(cx["V"]), matrix_from_json(cx["X"])
        scale = 1e-6 * max(1.0, float(np.linalg.norm(a, 2))) * fro(x)
        problems += _bound("||A X V* - X||", fro(a @ x @ v.conj().T - x), scale)
        if not fro(a.conj().T @ x @ v - x) > scale:
            problems.append("counterexample also solves A* X V = X")
        return problems
    return check


def mc_isometry_pass(s: np.ndarray, j: np.ndarray):
    """PASS, and ``S* (J conj(S) J*) = I`` recomputed from the inputs."""
    def check(outcome):
        report, problems = _report(outcome, 0)
        if report is None:
            return problems
        problems = _verdicts(report, True)
        if report["artifacts"].get("one_c_isometric") is not True:
            problems.append("not reported (1,C)-isometric")
        csc = j @ np.conj(s) @ j.conj().T
        problems += _bound("||S* CSC - I||", fro(s.conj().T @ csc - np.eye(s.shape[0])),
                           REL * max(1.0, fro(s) ** 2))
        return problems
    return check
