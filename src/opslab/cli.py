"""Command-line front end.

    opslab check    left-m-inverse|m-isometry|mc-isometry|power-bounded|pf-property ...
    opslab solve    invariant-metric|similarity|canonical-inverse|douglas ...
    opslab generate jordan|similar-isometry|left-m-pair|power-bounded|conjugation|one-c-isometry ...
    opslab suite    thm24|prop26|prop28|douglas|pf-ascent ...

Matrices travel as JSON files in the library-wide schema
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` (row-major);
conjugations as ``{"J": <matrix>}``.  Exit code 0 means every verdict
passed, 1 means a check failed or a solver hypothesis was violated, and 2
means malformed input or usage.  All randomness sits behind ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from . import gen, metric, minv, suites
from .conj import Conjugation, is_1c_isometric, mc_isometry_defect
from .errors import ArgumentError, AssumptionError, MatrixFormatError, OpslabError
from .matcore import (
    ToleranceConfig,
    adjoint,
    frobenius,
    load_matrix,
    matrix_to_json_dict,
    psd_sqrt,
)

CHECK_KINDS = ("left-m-inverse", "m-isometry", "mc-isometry", "power-bounded", "pf-property")
SOLVE_KINDS = ("invariant-metric", "similarity", "canonical-inverse", "douglas")
GENERATORS = (
    "jordan",
    "similar-isometry",
    "left-m-pair",
    "power-bounded",
    "conjugation",
    "one-c-isometry",
)
SUITES = {
    "thm24": (suites.run_similarity_roundtrip, suites.run_z_inverse_contract),
    "prop26": (suites.run_jordan_strictness, suites.run_isometry_rigidity),
    "prop28": (suites.run_c_isometry_rigidity,),
    "douglas": (suites.run_douglas,),
    "pf-ascent": (suites.run_pf_ascent,),
}


@dataclass
class Report:
    command: str
    tolerances: dict | None  # None for commands that take no tolerance flags
    seed: int | None = None
    verdicts: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    exit_code: int = 0

    def add_verdict(self, name: str, passed: bool, residual: float | None = None) -> None:
        entry: dict = {"pass": bool(passed)}
        if residual is not None:
            entry["residual"] = float(residual)
        self.verdicts[name] = entry
        if not passed:
            self.exit_code = 1

    def to_json_dict(self) -> dict:
        return {
            "command": self.command,
            "tolerances": self.tolerances,
            "seed": self.seed,
            "verdicts": self.verdicts,
            "artifacts": self.artifacts,
            "exit_code": self.exit_code,
        }

    def print(self, as_json: bool) -> None:
        if as_json:
            print(json.dumps(self.to_json_dict(), indent=2, sort_keys=True))
            return
        print(f"command: {self.command}")
        if self.tolerances is not None:
            print("tolerances: abs={abs_tol:g} rel={rel_tol:g}".format(**self.tolerances))
        if self.seed is not None:
            print(f"seed: {self.seed}")
        for name, entry in self.verdicts.items():
            status = "PASS" if entry["pass"] else "FAIL"
            tail = f" (residual {entry['residual']:.3e})" if "residual" in entry else ""
            print(f"verdict {name}: {status}{tail}")
        for name, value in self.artifacts.items():
            if isinstance(value, str):
                print(f"{name}: {value}")
            elif isinstance(value, (int, float, bool)):
                print(f"{name}: {value}")
            elif name == "metadata":
                print(f"{name}: {json.dumps(value, sort_keys=True)}")
        print(f"exit: {self.exit_code}")


def parse_complex(text: str) -> complex:
    """Parse the shell-safe literal ``a+bi`` (no spaces), e.g. 1+0i, -0.5i, 2."""
    cleaned = text.strip()
    if not cleaned or " " in cleaned:
        raise ArgumentError(f"invalid complex literal {text!r}")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError as exc:
        raise ArgumentError(f"invalid complex literal {text!r}") from exc


def _load_conjugation(path, tol) -> Conjugation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"conjugation file: invalid JSON ({exc})") from exc
    return Conjugation.from_json_dict(payload, tol)


def _require_m(args) -> int:
    if args.m is None:
        raise ArgumentError("this check requires --m")
    if args.m < 1:
        raise ArgumentError("--m must be >= 1")
    return args.m


def _cmd_check(args, tol: ToleranceConfig) -> Report:
    report = Report(command=f"check {args.kind}", tolerances=_tol_dict(tol), seed=args.seed)
    if args.kind == "left-m-inverse":
        s = load_matrix(args.s, "S")
        t = load_matrix(args.t, "T") if args.t else None
        if t is None:
            raise ArgumentError("left-m-inverse requires --t")
        ok, residual = minv.is_left_m_inverse(s, t, _require_m(args), tol)
        report.add_verdict("left-m-inverse", ok, residual)
    elif args.kind == "m-isometry":
        s = load_matrix(args.s, "S")
        ok, residual = minv.is_left_m_inverse(s, adjoint(s), _require_m(args), tol)
        report.add_verdict("m-isometry", ok, residual)
    elif args.kind == "mc-isometry":
        s = load_matrix(args.s, "S")
        if not args.conj:
            raise ArgumentError("mc-isometry requires --conj")
        c = _load_conjugation(args.conj, tol)
        residual = frobenius(mc_isometry_defect(s, c, _require_m(args), tol))
        passed = residual <= tol.zero_threshold(tol.scale_of(s, np.eye(s.shape[0])))
        report.add_verdict("mc-isometry", passed, residual)
        report.artifacts["one_c_isometric"] = is_1c_isometric(s, c, tol)
    elif args.kind == "power-bounded":
        s = load_matrix(args.s, "S")
        pb = metric.certify_power_bounded(s, horizon=args.horizon, tol=tol)
        report.add_verdict("power-bounded", pb.bounded)
        if args.json:  # the text report does not print the power-norm witness
            report.artifacts["report"] = pb.to_json_dict()
        if pb.witness is not None:
            lam, reason = pb.witness
            report.artifacts["witness"] = f"{reason} (eigenvalue {lam:.6g})"
    elif args.kind == "pf-property":
        s = load_matrix(args.s, "S")
        pf = metric.pf_property_check(s, sample_count=args.samples, seed=args.seed, tol=tol)
        report.add_verdict("pf-property", pf.satisfies_pf)
        report.artifacts["report"] = pf.to_json_dict()
    return report


def _cmd_solve(args, tol: ToleranceConfig) -> Report:
    report = Report(command=f"solve {args.kind}", tolerances=_tol_dict(tol), seed=args.seed)
    if args.kind == "invariant-metric":
        s = load_matrix(args.s, "S")
        cert = metric.similarity_certificate(s, tol)
        report.artifacts["certificate"] = cert.to_json_dict()
        scale = max(1.0, frobenius(s) ** 2)
        report.add_verdict("metric", cert.residual_metric <= tol.zero_threshold(scale), cert.residual_metric)
        report.add_verdict("isometry", cert.residual_isometry <= tol.zero_threshold(scale), cert.residual_isometry)
        report.add_verdict(
            "similarity", cert.residual_similarity <= tol.zero_threshold(scale), cert.residual_similarity
        )
    elif args.kind == "similarity":
        s = load_matrix(args.s, "S")
        if not args.t:
            raise ArgumentError("similarity requires --t")
        t = load_matrix(args.t, "T")
        m = _require_m(args)
        u1, u2, p = metric.similar_to_unitary(metric.similarity_certificate(s, tol), t, m, tol)
        residual = float(np.linalg.norm(u1 - p @ u2 @ np.linalg.inv(p), 2))
        report.add_verdict("unitary-models", True, residual)
        report.artifacts["U1"] = matrix_to_json_dict(u1)
        report.artifacts["U2"] = matrix_to_json_dict(u2)
        report.artifacts["P"] = matrix_to_json_dict(p)
    elif args.kind == "canonical-inverse":
        s = load_matrix(args.s, "S")
        if args.p:
            p = load_matrix(args.p, "P")
        else:
            p = psd_sqrt(metric.invariant_metric(s, tol), tol)
        t = metric.canonical_left_m_inverse(s, p, _require_m(args), tol)
        ok, residual = minv.is_left_m_inverse(s, t, args.m, tol)
        report.add_verdict("canonical-inverse", ok, residual)
        report.artifacts["T"] = matrix_to_json_dict(t)
    elif args.kind == "douglas":
        if not (args.a and args.b):
            raise ArgumentError("douglas requires --a and --b")
        a = load_matrix(args.a, "A")
        b = load_matrix(args.b, "B")
        c, mu2 = metric.douglas_factor(a, b, tol)
        residual = frobenius(b @ c - a)
        report.add_verdict("douglas", residual <= tol.zero_threshold(tol.scale_of(a, b)), residual)
        report.artifacts["C"] = matrix_to_json_dict(c)
        report.artifacts["mu2"] = mu2
    return report


def _instance_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % 2**63


def _generate_one(args, seed: int) -> tuple[dict, dict]:
    """One generated instance: (payload, parameter metadata)."""
    if args.generator == "jordan":
        if args.k is None or args.lam is None:
            raise ArgumentError("jordan requires --k and --lambda")
        lam = parse_complex(args.lam)
        return (
            matrix_to_json_dict(gen.gen_jordan(args.k, lam)),
            {"k": args.k, "lambda": [lam.real, lam.imag]},
        )
    if args.generator == "similar-isometry":
        s, p0, u = gen.gen_similar_isometry(_require_n(args), seed)
        return (
            {
                "S": matrix_to_json_dict(s),
                "P0": matrix_to_json_dict(p0),
                "U": matrix_to_json_dict(u),
            },
            {"n": args.n},
        )
    if args.generator == "left-m-pair":
        pair = gen.gen_left_m_pair(_require_n(args), _require_m(args), seed)
        return (
            {
                "m": pair.m,
                "S": matrix_to_json_dict(pair.s),
                "T": matrix_to_json_dict(pair.t),
            },
            {"n": args.n, "m": args.m},
        )
    if args.generator == "power-bounded":
        return (
            matrix_to_json_dict(gen.gen_power_bounded(_require_n(args), seed)),
            {"n": args.n},
        )
    if args.generator == "conjugation":
        return gen.gen_conjugation(_require_n(args), seed).to_json_dict(), {"n": args.n}
    s, c = gen.gen_1c_isometry(
        _require_n(args), seed, hyperbolic=args.hyperbolic, t=args.t
    )
    return (
        {
            "hyperbolic": args.hyperbolic,
            "S": matrix_to_json_dict(s),
            "J": matrix_to_json_dict(c.j),
        },
        {"n": args.n, "hyperbolic": args.hyperbolic, "t": args.t},
    )


def _cmd_generate(args) -> Report:
    report = Report(command=f"generate {args.generator}", tolerances=None, seed=args.seed)
    if args.count < 1:
        raise ArgumentError("--count must be >= 1")
    if args.count == 1:
        single, params = _generate_one(args, args.seed)
        meta = {"generator": args.generator, "seed": args.seed, "parameters": params}
        payload = single if isinstance(single, dict) and "rows" in single else {**meta, **single}
    else:  # corpus manifest: metadata plus an array of instances
        instances = []
        params = {}
        for i in range(args.count):
            one, params = _generate_one(args, _instance_seed(args.seed, i))
            instances.append(one)
        meta = {
            "generator": args.generator,
            "seed": args.seed,
            "count": args.count,
            "parameters": params,
        }
        payload = {**meta, "instances": instances}
    report.add_verdict("generated", True)
    report.artifacts["metadata"] = meta
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        report.artifacts["out"] = str(args.out)
    else:
        report.artifacts["payload"] = payload
    return report


def _cmd_suite(args) -> Report:
    report = Report(command=f"suite {args.name}", tolerances=None, seed=args.seed)
    for runner in SUITES[args.name]:
        kwargs = {}
        if runner is not suites.run_jordan_strictness:
            kwargs = {"seed": args.seed, "count": args.count, "dim_max": args.dim_max}
        result = runner(**kwargs)
        report.add_verdict(result.name, result.passed)
        report.artifacts[result.name] = result.to_json_dict()
    return report


def _require_n(args) -> int:
    if args.n is None or args.n < 1:
        raise ArgumentError("this generator requires --n >= 1")
    return args.n


def _tol_dict(tol: ToleranceConfig) -> dict:
    return {"abs_tol": tol.abs_tol, "rel_tol": tol.rel_tol}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="opslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="machine-readable report")

    def tolerances(p):  # suites pin their own tolerances; generators use none
        p.add_argument("--abs-tol", type=float, default=1e-10)
        p.add_argument("--rel-tol", type=float, default=1e-8)

    p_check = sub.add_parser("check", help="run a verdict-style check")
    p_check.add_argument("kind", choices=CHECK_KINDS)
    p_check.add_argument("--s", help="matrix JSON file")
    p_check.add_argument("--t", help="matrix JSON file")
    p_check.add_argument("--conj", help="conjugation JSON file")
    p_check.add_argument("--m", type=int)
    p_check.add_argument("--horizon", type=int, default=64)
    p_check.add_argument("--samples", type=int, default=20)
    common(p_check)
    tolerances(p_check)

    p_solve = sub.add_parser("solve", help="solve for a certificate")
    p_solve.add_argument("kind", choices=SOLVE_KINDS)
    p_solve.add_argument("--s")
    p_solve.add_argument("--t")
    p_solve.add_argument("--p")
    p_solve.add_argument("--a")
    p_solve.add_argument("--b")
    p_solve.add_argument("--m", type=int, default=1)
    common(p_solve)
    tolerances(p_solve)

    p_gen = sub.add_parser("generate", help="write a seeded instance")
    p_gen.add_argument("generator", choices=GENERATORS)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--m", type=int)
    p_gen.add_argument("--lambda", dest="lam", help='complex literal "a+bi"')
    p_gen.add_argument("--hyperbolic", action="store_true")
    p_gen.add_argument("--t", type=float, default=1.0)
    p_gen.add_argument("--count", type=int, default=1, help="instances per manifest")
    p_gen.add_argument("--out")
    common(p_gen)

    p_suite = sub.add_parser("suite", help="run a verification sweep")
    p_suite.add_argument("name", choices=sorted(SUITES))
    p_suite.add_argument("--count", type=int, default=200)
    p_suite.add_argument("--dim-max", type=int, default=8)
    common(p_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            report = _cmd_generate(args)
        elif args.command == "suite":
            report = _cmd_suite(args)
        else:
            tol = ToleranceConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
            if args.command == "check":
                if not args.s:
                    raise ArgumentError("check requires --s")
                report = _cmd_check(args, tol)
            else:
                if args.kind != "douglas" and not args.s:
                    raise ArgumentError("solve requires --s")
                report = _cmd_solve(args, tol)
    except (ArgumentError, MatrixFormatError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OpslabError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1
    report.print(args.json)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
