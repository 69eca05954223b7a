"""Command-line front end.

    opslab check    left-m-inverse|m-isometry|mc-isometry|power-bounded|pf-property ...
    opslab solve    invariant-metric|similarity|canonical-inverse|douglas ...
    opslab generate jordan|similar-isometry|left-m-pair|power-bounded|conjugation|one-c-isometry ...
    opslab suite    thm24|prop26|prop28|douglas|pf-ascent ...

Matrices travel as JSON files in the library-wide schema
``{"rows": r, "cols": c, "data": [[re, im], ...]}`` (row-major);
conjugations as ``{"J": <matrix>}``.  Exit code 0 means every verdict
passed, 1 means a check failed or a solver hypothesis was violated, and 2
means malformed input or usage.  Only ``generate`` and ``suite`` draw random
numbers, all behind ``--seed``; ``check`` and ``solve`` are deterministic.
Each kind takes the operands ``KINDS`` lists for it, after the kind: a
missing, foreign or abbreviated flag is a usage error (exit 2), and
``opslab check m-isometry --help`` lists a kind's operands.  The
``parameters`` of a generated instance's metadata are those operands,
named without dashes, with ``--lambda`` as ``[re, im]``.  ``main``
builds its parser on its first call and reuses it for every later request
in the process; ``build_parser`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass, field

from . import gen, metric, minv, suites
from .conj import Conjugation, conjugate_operator
from .errors import ArgumentError, AssumptionError, OpslabError
from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    adjoint,
    dump_json,
    load_json,
    load_matrix,
    matrix_to_json_dict,
)

# The operands of each kind of each command: the flags it requires, and the
# flags it may take with their defaults.  A kind's parser takes no others.
KINDS = {
    "check": {
        "left-m-inverse": (("--s", "--t", "--m"), {}),
        "m-isometry": (("--s", "--m"), {}),
        "mc-isometry": (("--s", "--conj", "--m"), {}),
        "power-bounded": (("--s",), {"--horizon": 64}),
        "pf-property": (("--s",), {}),
    },
    "solve": {
        "invariant-metric": (("--s",), {}),
        "similarity": (("--s", "--t"), {"--m": 1}),
        "canonical-inverse": (("--s",), {"--m": 1}),
        "douglas": (("--a", "--b"), {}),
    },
    "generate": {
        "jordan": (("--k", "--lambda"), {}),
        "similar-isometry": (("--n",), {}),
        "left-m-pair": (("--n",), {}),
        "power-bounded": (("--n",), {}),
        "conjugation": (("--n",), {}),
        "one-c-isometry": (("--n",), {"--hyperbolic": False, "--t": 1.0}),
    },
}
# The sweeps of each paper claim in suites.GATES order; perfbench's tracer rebinds them.
SUITES = {
    claim: tuple(gate.runner for gate in suites.GATES if gate.claim == claim)
    for claim in dict.fromkeys(gate.claim for gate in suites.GATES if gate.claim)
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
            print(dump_json(self.to_json_dict()))
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
            if isinstance(value, (str, int, float)):  # bool is an int
                print(f"{name}: {value}")
            elif name == "metadata":
                print(f"{name}: {dump_json(value)}")
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


def _cmd_check(args, tol: ToleranceConfig) -> Report:
    report = Report(command=f"check {args.kind}", tolerances=asdict(tol))
    s = load_matrix(args.s, "S")
    if args.kind == "left-m-inverse":
        ok, residual = minv.is_left_m_inverse(s, load_matrix(args.t, "T"), args.m, tol)
        report.add_verdict("left-m-inverse", ok, residual)
    elif args.kind == "m-isometry":
        ok, residual = minv.is_left_m_inverse(s, adjoint(s), args.m, tol)
        report.add_verdict("m-isometry", ok, residual)
    elif args.kind == "mc-isometry":
        c = Conjugation.from_json_dict(load_json(args.conj, "conjugation file"), tol)
        # One recursion pass of (CSC, S*) gives order m and order 1.
        profile = minv.defect_profile(conjugate_operator(c, s), adjoint(s), args.m, tol)
        passed, residual = profile[-1]
        report.add_verdict("mc-isometry", passed, residual)
        report.artifacts["one_c_isometric"] = profile[0][0]
    elif args.kind == "power-bounded":
        pb = metric.certify_power_bounded(s, horizon=args.horizon, tol=tol)
        report.add_verdict("power-bounded", pb.bounded)
        if args.json:  # the text report does not print the power-norm witness
            report.artifacts["report"] = pb.to_json_dict()
        if pb.witness is not None:
            lam, reason = pb.witness
            report.artifacts["witness"] = f"{reason} (eigenvalue {lam:.6g})"
    elif args.kind == "pf-property":
        pf = metric.pf_property_check(s, tol)
        report.add_verdict("pf-property", pf.satisfies_pf)
        report.artifacts["report"] = pf.to_json_dict()
    return report


def _cmd_solve(args, tol: ToleranceConfig) -> Report:
    report = Report(command=f"solve {args.kind}", tolerances=asdict(tol))
    if args.kind == "invariant-metric":
        s = load_matrix(args.s, "S")
        certificate = metric.similarity_certificate(s, tol).to_json_dict()
        report.artifacts["certificate"] = certificate
        for name, residual in certificate["residuals"].items():  # each checked by the certificate
            report.add_verdict(name, True, residual)
    elif args.kind == "similarity":
        s = load_matrix(args.s, "S")
        t = load_matrix(args.t, "T")
        u1, u2, p, residual = metric.similar_to_unitary(metric.similarity_certificate(s, tol), t, tol)
        report.add_verdict("unitary-models", True, residual)
        report.artifacts["U1"] = matrix_to_json_dict(u1)
        report.artifacts["U2"] = matrix_to_json_dict(u2)
        report.artifacts["P"] = matrix_to_json_dict(p)
    elif args.kind == "canonical-inverse":
        cert = metric.similarity_certificate(load_matrix(args.s, "S"), tol)
        t, residual = metric.canonical_left_m_inverse(cert, tol)
        report.add_verdict("canonical-inverse", True, residual)
        report.artifacts["T"] = matrix_to_json_dict(t)
    elif args.kind == "douglas":
        a = load_matrix(args.a, "A")
        b = load_matrix(args.b, "B")
        c, mu2, residual = metric.douglas_factor(a, b, tol)  # refuses unless ran(A) <= ran(B)
        report.add_verdict("douglas", True, residual)
        report.artifacts["C"] = matrix_to_json_dict(c)
        report.artifacts["mu2"] = mu2
    return report


def _generate_one(kind: str, params: dict, seed: int) -> dict:
    """The payload of one instance of ``kind`` at ``params``, the metadata's parameters."""
    if kind == "jordan":
        return matrix_to_json_dict(gen.gen_jordan(params["k"], complex(*params["lambda"])))
    if kind == "similar-isometry":
        s, p0, u = gen.gen_similar_isometry(params["n"], seed)
        return {"S": matrix_to_json_dict(s), "P0": matrix_to_json_dict(p0), "U": matrix_to_json_dict(u)}
    if kind == "left-m-pair":  # the pair is a left m-inverse at every m
        s, t = gen.gen_left_m_pair(params["n"], seed)
        return {"S": matrix_to_json_dict(s), "T": matrix_to_json_dict(t)}
    if kind == "power-bounded":
        return matrix_to_json_dict(gen.gen_power_bounded(params["n"], seed))
    if kind == "conjugation":
        return gen.gen_conjugation(params["n"], seed).to_json_dict()
    s, c = gen.gen_1c_isometry(params["n"], seed, hyperbolic=params["hyperbolic"], t=params["t"])
    return {"hyperbolic": params["hyperbolic"], "S": matrix_to_json_dict(s), "J": matrix_to_json_dict(c.j)}


def _cmd_generate(args) -> Report:
    report = Report(command=f"generate {args.kind}", tolerances=None, seed=args.seed)
    required, optional = KINDS["generate"][args.kind]
    params = {flag[2:]: getattr(args, flag[2:]) for flag in (*required, *optional)}
    if "lambda" in params:
        lam = parse_complex(params["lambda"])
        params["lambda"] = [lam.real, lam.imag]
    meta = {"generator": args.kind, "seed": args.seed, "parameters": params}
    if args.count == 1:
        single = _generate_one(args.kind, params, args.seed)
        payload = single if "rows" in single else {**meta, **single}
    else:  # corpus manifest: metadata plus an array of instances
        meta["count"] = args.count
        # instance i derives from derive_rng(seed, i), as in the sweeps
        seeds = (int(gen.derive_rng(args.seed, i).integers(0, 2**63)) for i in range(args.count))
        payload = {**meta, "instances": [_generate_one(args.kind, params, seed) for seed in seeds]}
    report.add_verdict("generated", True)
    report.artifacts["metadata"] = meta
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_json(payload))
        report.artifacts["out"] = str(args.out)
    else:
        report.artifacts["payload"] = payload
    return report


def _cmd_suite(args) -> Report:
    report = Report(command=f"suite {args.name}", tolerances=None, seed=args.seed)
    # An omitted flag leaves each sweep at its own default, its gate size;
    # the sweep refuses a size out of range.
    sizes = {"count": args.count, "dim_max": args.dim_max}
    sizes = {key: value for key, value in sizes.items() if value is not None}
    gates = (gate for gate in suites.GATES if gate.claim == args.name)  # the rows of SUITES[name]
    for runner, gate in zip(SUITES[args.name], gates):
        result = runner(seed=args.seed, **sizes) if gate.seeded else runner()
        report.add_verdict(result.name, result.passed)
        report.artifacts[result.name] = result.to_json_dict()
    return report


def _int64(text: str) -> int:
    """The type of every integer flag: reports echo flags, and ``dump_json`` takes 64-bit integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not -(2**63) <= value < 2**63:
        raise argparse.ArgumentTypeError(f"{text} is outside [-2**63, 2**63)")
    return value


def _positive(text: str) -> int:
    """The type of ``--m``, ``--n``, ``--k`` and ``--count``: a 64-bit integer of at least 1."""
    value = _int64(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _operand(command: str, flag: str) -> dict:
    """The argparse keywords of one operand of ``KINDS``."""
    if command == "solve" and flag == "--m":  # T S = I holds every order's defect at 0
        return {"type": _positive, "help": "any order: T = S^-1, so every m gives the same output"}
    if flag in ("--m", "--n", "--k"):
        return {"type": _positive}
    if flag == "--horizon":
        return {"type": _int64}
    if flag == "--lambda":
        return {"help": 'complex literal "a+bi"'}
    if flag == "--hyperbolic":
        return {"action": "store_true"}
    if command == "generate":  # --t, the hyperbolic family's parameter
        return {"type": float}
    return {"help": "conjugation JSON file" if flag == "--conj" else "matrix JSON file"}


def build_parser() -> argparse.ArgumentParser:
    # Without allow_abbrev=False a kind's parser would read --a as --abs-tol.
    parser = argparse.ArgumentParser(prog="opslab", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "check": "run a verdict-style check",
        "solve": "solve for a certificate",
        "generate": "write a seeded instance",
    }
    for command, kinds in KINDS.items():
        p_command = sub.add_parser(command, help=helps[command], allow_abbrev=False)
        p_kinds = p_command.add_subparsers(dest="kind", required=True)
        for kind, (required, optional) in kinds.items():
            p = p_kinds.add_parser(kind, allow_abbrev=False)
            for flag in required:
                p.add_argument(flag, required=True, **_operand(command, flag))
            for flag, default in optional.items():
                p.add_argument(flag, default=default, **_operand(command, flag))
            if command == "generate":  # check and solve draw no random numbers
                p.add_argument("--count", type=_positive, default=1, help="instances per manifest")
                p.add_argument("--out")
                p.add_argument("--seed", type=_int64, default=0)
            else:  # suites pin their own tolerances; generators use none
                p.add_argument("--abs-tol", type=float, default=DEFAULT_TOL.abs_tol)
                p.add_argument("--rel-tol", type=float, default=DEFAULT_TOL.rel_tol)
            p.add_argument("--json", action="store_true", help="machine-readable report")

    p_suite = sub.add_parser("suite", help="run a verification sweep", allow_abbrev=False)
    p_suite.add_argument("name", choices=sorted(SUITES))
    p_suite.add_argument("--count", type=_int64, help="default: each sweep's gate count")
    p_suite.add_argument("--dim-max", type=_int64, help="default: each sweep's gate size")
    p_suite.add_argument("--seed", type=_int64, default=0)
    p_suite.add_argument("--json", action="store_true", help="machine-readable report")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: built on its first call, once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "generate":
            report = _cmd_generate(args)
        elif args.command == "suite":
            report = _cmd_suite(args)
        else:
            tol = ToleranceConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol)
            report = (_cmd_check if args.command == "check" else _cmd_solve)(args, tol)
    except (ArgumentError, OSError) as exc:
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
