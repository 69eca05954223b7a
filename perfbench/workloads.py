"""The three workloads: what one round runs and how each output is checked.

A workload is a fixed list of units that the worker runs in order, round
after round.  A unit of ``gates`` is one of the eight acceptance suites at
its gate count and sizes, so a round is one sweep of them; a unit of
``ladder`` or ``refuse`` is one in-process ``opslab`` command-line request.
Every unit returns the number of items it completed and the reasons any
of them failed, so that ``fail_frac``
counts suite violations, wrong exit codes or verdicts, exit 2, internal
check failures, uncaught exceptions and failed benchmark-side checks alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import inputs

# Seconds one round takes on the reference machine (2 cores, shared; see
# the machine facts each run prints).  A run does ``rounds_for`` rounds, a
# function of ``--seconds`` only, so a faster commit does the same work in
# less time instead of more work in the same time.
ROUND_S = {"gates": 6.0, "ladder": 12.0, "refuse": 3.5}
MIN_REQUESTS = 100  # per run, so that ten latency samples lie beyond p90

# The corpus every tier-1 test run sweeps: the gates run with the seed
# tests/test_acceptance.py gives them, whatever ``--seed`` is, so that
# ``gates`` measures what a test run of the gates pays.  (Other suite
# seeds reach known tolerance-edge defects of the library; selftest.py
# pins one of them.)
GATE_SEED = 0

# Each acceptance gate exactly as tests/test_acceptance.py calls it:
# (suite function, keyword arguments, whether it takes the seed).
GATES = (
    ("run_defect_agreement", {"count": 200, "dim_max": 6}, True),
    ("run_jordan_strictness", {"k_max": 4}, False),
    ("run_similarity_roundtrip", {"count": 200, "dim_max": 8}, True),
    ("run_z_inverse_contract", {"count": 200, "dim_max": 8}, True),
    ("run_douglas", {"count": 200, "dim_max": 8}, True),
    ("run_isometry_rigidity", {"count": 500, "dim_max": 8}, True),
    ("run_c_isometry_rigidity", {"count": 500, "dim_max": 8}, True),
    ("run_pf_ascent", {"count": 50, "dim_max": 5}, True),
)

LADDER_SIZES = (8, 16, 24, 32)
# Requests per cell and round.  Smaller sizes repeat (each repeat on its
# own input) so that a round of about twelve seconds holds 70 requests:
# two rounds then give the 100+ latency samples p90 needs, while every
# (n, kind) cell still runs in every round.  With eight repeats at n=8 the
# median falls inside the block of cheap n=8 requests, not on the edge
# between two cost clusters, where it would swing with small changes.
LADDER_REPEATS = {8: 8, 16: 2, 24: 1, 32: 1}
PF_MAX_N = 16  # pf-property builds n^2 x n^2 maps for 20+ probes
LADDER_M = 2

REFUSE_SIZES = (8, 16, 24)
# As for the ladder: smaller sizes repeat on inputs of their own, so that
# the median request averages over several inputs of each cheap family.
REFUSE_REPEATS = {8: 4, 16: 2, 24: 1}
JORDAN_K = 3  # unit Jordan blocks of size k: strict (2k-1)-isometries
HYPERBOLIC_T = 1.0


@dataclass
class UnitResult:
    """Items a unit attempted, how many failed, and why."""

    items: int
    failures: list[str] = field(default_factory=list)
    failed: int | None = None  # default: one per failure line, at most items

    def __post_init__(self):
        if self.failed is None:
            self.failed = min(len(self.failures), self.items)


@dataclass
class Unit:
    """One call into the program and the checks of what it returned.

    ``call`` takes the round index and is what gets timed (and traced);
    ``judge`` turns its return value into a ``UnitResult`` outside the
    timed region.
    """

    name: str
    call: Callable[[int], object]
    judge: Callable[[object], UnitResult]

    def run(self, round_index: int) -> UnitResult:
        return self.judge(self.call(round_index))


@dataclass
class Work:
    """What one run does: its units, how many rounds of them, its warm-up
    item, and a digest of its inputs."""

    units: list[Unit]
    rounds: int
    warmup: Unit
    digest: str
    description: str


def rounds_for(workload: str, seconds: float, units: int) -> int:
    least = 1 if workload == "gates" else -(-MIN_REQUESTS // units)
    return max(least, round(seconds / ROUND_S[workload]))


def build(opslab, workload: str, seed: int, seconds: float | None, workdir: Path) -> Work:
    """The run's work; ``seconds=None`` gives one round (the traced run)."""
    if workload == "gates":
        rounds = 1 if seconds is None else rounds_for(workload, seconds, 1)
        units = [gate_unit(opslab, *gate) for gate in GATES]
        return Work(units, rounds, gate_warmup(opslab), gate_digest(rounds),
                    f"{len(GATES)} acceptance suites per sweep x {rounds} sweeps, suite seed {GATE_SEED}")
    make = {"ladder": ladder_requests, "refuse": refuse_requests}[workload]
    rs = make(seed, workdir)
    units = request_units(opslab, rs.requests)
    rounds = 1 if seconds is None else rounds_for(workload, seconds, len(units))
    return Work(units, rounds, units[0], rs.digest,
                f"{len(units)} requests x {rounds} rounds = {len(units) * rounds} requests")


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def gate_unit(opslab, fname: str, kwargs: dict, seeded: bool) -> Unit:
    """One acceptance gate; a crashed gate fails its whole nominal count."""
    def call(round_index):
        # Looked up at call time, so a traced run reaches the wrapper.
        suite = getattr(opslab.suites, fname)
        try:
            return suite(seed=GATE_SEED, **kwargs) if seeded else suite(**kwargs)
        except Exception:
            return _last_line()

    def judge(result):
        if isinstance(result, str):
            count = kwargs.get("count", 1)
            return UnitResult(count, [f"{fname}: {result}"], failed=count)
        return UnitResult(result.instances, [f"{result.name}: {v}" for v in result.violations])

    return Unit(fname, call, judge)


def gate_warmup(opslab) -> Unit:
    """One instance of the first gate, untimed."""
    fname, kwargs, seeded = GATES[0]
    return gate_unit(opslab, fname, {**kwargs, "count": 1}, seeded)


def gate_digest(rounds: int) -> str:
    """Digest of the gate calls: the gates, their suite seed and the sweeps of the run."""
    spec = json.dumps({"seed": GATE_SEED, "rounds": rounds, "gates": GATES}, sort_keys=True)
    return hashlib.sha256(spec.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Command-line requests
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    code: int | None
    stdout: str
    stderr: str
    crash: str | None = None


@dataclass
class Request:
    cell: str
    argv: list[str]
    check: Callable[[Outcome], list[str]]


class RequestSet:
    """Writes the inputs of a request workload and digests them."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.requests: list[Request] = []
        self._hash = hashlib.sha256()
        self._files = 0

    def save(self, m: np.ndarray, field: str | None = None) -> str:
        """Write one matrix file, or ``{field: matrix}`` when ``field`` is given."""
        path = self.workdir / f"m{self._files:04d}.json"
        self._files += 1
        m = np.ascontiguousarray(m, dtype=complex)
        self._hash.update(m.tobytes())
        payload = checks.matrix_to_json(m)
        path.write_text(json.dumps({field: payload} if field else payload))
        return str(path)

    def add(self, cell: str, argv: list[str], check) -> None:
        # File paths differ between runs; the files' matrices are hashed in save().
        self._hash.update(json.dumps([cell, [a for a in argv if "/" not in a]]).encode())
        self.requests.append(Request(cell, argv + ["--json"], check))

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]


def call_cli(opslab, argv: list[str]) -> Outcome:
    """``opslab.cli.main(argv)`` in process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = opslab.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            crash = _last_line()
    return Outcome(code, out.getvalue(), err.getvalue(), crash)


def request_units(opslab, requests: list[Request]) -> list[Unit]:
    def make(req):
        def judge(outcome):
            return UnitResult(1, [f"{req.cell}: {r}" for r in checks.common(outcome, req.check)])
        return Unit(req.cell, lambda round_index: call_cli(opslab, req.argv), judge)

    return [make(r) for r in requests]


def ladder_requests(seed: int, workdir: Path) -> RequestSet:
    rs = RequestSet(workdir)
    for n in LADDER_SIZES:
        for rep in range(LADDER_REPEATS[n]):
            rng = lambda kind: inputs.rng_for(seed, "ladder", kind, n, rep)  # noqa: E731

            s, _, _ = inputs.similar_isometry(n, rng("invariant-metric"))
            rs.add(f"solve invariant-metric n={n}", ["solve", "invariant-metric", "--s", rs.save(s)],
                   checks.invariant_metric(s))

            s, t, phases = inputs.similar_isometry(n, rng("similarity"))
            rs.add(f"solve similarity n={n}",
                   ["solve", "similarity", "--s", rs.save(s), "--t", rs.save(t), "--m", str(LADDER_M)],
                   checks.similarity(phases))

            s, _, _ = inputs.similar_isometry(n, rng("canonical-inverse"))
            rs.add(f"solve canonical-inverse n={n}",
                   ["solve", "canonical-inverse", "--s", rs.save(s), "--m", str(LADDER_M)],
                   checks.canonical_inverse(s))

            s = inputs.power_bounded(n, rng("power-bounded"), orthogonal=False)
            rs.add(f"check power-bounded n={n}", ["check", "power-bounded", "--s", rs.save(s)],
                   checks.power_bounded_pass())

            a, b = inputs.douglas_pair(n, rng("douglas"), included=True)
            rs.add(f"solve douglas n={n}", ["solve", "douglas", "--a", rs.save(a), "--b", rs.save(b)],
                   checks.douglas(a, b))

            if n <= PF_MAX_N:
                a = inputs.power_bounded(n, rng("pf-property"), orthogonal=True)
                rs.add(f"check pf-property n={n}", ["check", "pf-property", "--s", rs.save(a)],
                       checks.pf_pass())
    return rs


def refuse_requests(seed: int, workdir: Path) -> RequestSet:
    rs = RequestSet(workdir)
    m_fail, m_pass = 2 * JORDAN_K - 2, 2 * JORDAN_K - 1
    for n in REFUSE_SIZES:
        for rep in range(REFUSE_REPEATS[n]):
            rng = lambda family: inputs.rng_for(seed, "refuse", family, n, rep)  # noqa: E731

            s = rs.save(inputs.defective_unimodular(n, rng("defective")))
            rs.add(f"defective: check power-bounded n={n}", ["check", "power-bounded", "--s", s],
                   checks.power_bounded_fail(1.0))
            rs.add(f"defective: solve invariant-metric n={n}", ["solve", "invariant-metric", "--s", s],
                   checks.refused())

            s = rs.save(inputs.radius_above_one(n, rng("radius")))
            rs.add(f"radius 1.05: check power-bounded n={n}", ["check", "power-bounded", "--s", s],
                   checks.power_bounded_fail(1.05))
            rs.add(f"radius 1.05: solve invariant-metric n={n}", ["solve", "invariant-metric", "--s", s],
                   checks.refused())

            a = inputs.power_bounded(n, rng("interior"), orthogonal=False)
            path = rs.save(a)
            rs.add(f"interior: solve invariant-metric n={n}", ["solve", "invariant-metric", "--s", path],
                   checks.refused())
            rs.add(f"interior: check pf-property n={n}", ["check", "pf-property", "--s", path],
                   checks.pf_fail(a))

            a, b = inputs.douglas_pair(n, rng("noninclusion"), included=False)
            rs.add(f"ran(A) not in ran(B): solve douglas n={n}",
                   ["solve", "douglas", "--a", rs.save(a), "--b", rs.save(b)], checks.refused())

            s = rs.save(inputs.unit_jordan_blocks(n, JORDAN_K, rng("jordan")))
            rs.add(f"unit jordan: check m-isometry m={m_fail} n={n}",
                   ["check", "m-isometry", "--s", s, "--m", str(m_fail)], checks.verdict("m-isometry", False))
            rs.add(f"unit jordan: check m-isometry m={m_pass} n={n}",
                   ["check", "m-isometry", "--s", s, "--m", str(m_pass)], checks.verdict("m-isometry", True))

            s, j = inputs.hyperbolic(n, rng("hyperbolic"), HYPERBOLIC_T)
            path = rs.save(s)
            rs.add(f"hyperbolic: check mc-isometry m=1 n={n}",
                   ["check", "mc-isometry", "--s", path, "--conj", rs.save(j, "J"), "--m", "1"],
                   checks.mc_isometry_pass(s, j))
            rs.add(f"hyperbolic: check power-bounded n={n}", ["check", "power-bounded", "--s", path],
                   checks.power_bounded_fail(float(np.exp(HYPERBOLIC_T))))
    return rs


def _last_line() -> str:
    return traceback.format_exc().strip().splitlines()[-1]
