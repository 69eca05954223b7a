"""Print every output that a byte-identity comparison of two commits reads.

    python3 tests/outputs.py > outputs.txt

It runs each ladder and refuse request of ``perfbench/workloads.py`` at
request seeds 1-3 in process (``workloads.call_cli``) and prints its exit
code, standard output and standard error, with the temporary directory of
its input files masked as ``<tmp>``.  Then it prints ``dump_json`` of the
report of each of the eight acceptance gates of ``workloads.GATES``, at
their gate sizes, at suite seeds 0-3.  Then it prints the sha256 of each
``gen_power_bounded`` and ``gen_similar_isometry`` draw over a fixed grid
of (n, seed), n = 256 at seeds 0-19 among them, or the error a draw
raises.  Every other input it reads is a family of ``opslab.gen``, the
one home of each.  It prints the outcome of ``similarity_certificate``
on two ill-conditioned families similar to a unitary,
``gen_conditioned_similarity`` at cond 1e4 and ``gen_coupled_unimodular``,
each drawn from ``derive_rng(seed)`` at seeds 0-199: certified with its
two residuals and the outcome of ``canonical_left_m_inverse`` on it (its
residual, or the error class and message), refused with its message, or
an internal check failure.  Then it prints the same outcome on
``gen_cluster_edge`` (n = 6, seeds 0-4), whose first input at each seed
has a scalar cluster.  Then it prints the ``certify_power_bounded``
verdict and the same outcome on ``gen_jordan_edge`` at a = 1e-9 to 1e-6,
and on ``gen_rotated_jordan_blocks`` at k = 1..4.  Then, on the inputs
of the two ill-conditioned families, it runs ``solve similarity --s S --t
S^-1 --m k --json`` at k = 1, 2 and 3 (``workloads.call_cli``) and
prints its exit code with the sha256 of its standard output, or its
standard error.  Then it prints ``ascent_bound_check`` and
``suites._kronecker_reference`` on the probes of
``gen_close_phase_probes``: ``gen_two_close_phases`` at 33 delta
log-spaced in [1e-10, 1e-2], both couplings, at ``V = I``, ``exp(i
delta) I`` and ``diag(1, exp(i delta), -1)``.  Last, it prints the report
of the pf-ascent gate at suite seeds 4-11, 15007 and 18007, and
``suites._kronecker_reference`` on each pair of ``gen_ascent_corpus``.
It imports no test module, reads ``perfbench`` and writes only its
temporary directories.

Run it in a checkout of each commit and diff the two files.  Both runs
need the same ``OPENBLAS_NUM_THREADS``: the n = 256 generator draws differ
between one BLAS thread and two.  It imports ``opslab`` from the ``src``
next to it, never an installed copy.  It is not a test module: pytest does
not collect it.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import opslab  # noqa: E402
import opslab.cli  # noqa: E402
import opslab.gen  # noqa: E402
import opslab.suites  # noqa: E402
import workloads  # noqa: E402
from opslab.matcore import dump_json  # noqa: E402

REQUEST_SEEDS = (1, 2, 3)
SUITE_SEEDS = (0, 1, 2, 3)
PF_ASCENT_SEEDS = (*range(4, 12), 15007, 18007)
GENERATOR_GRID = [(n, seed) for n in (2, 3, 5, 8, 16, 32, 64) for seed in range(10)]
GENERATOR_GRID += [(256, seed) for seed in range(20)]
FAMILY_SEEDS = range(200)
# The two ill-conditioned families: (label, builder, parameters).
FAMILIES = (
    ("conditioned_similarity", opslab.gen.gen_conditioned_similarity, (1e4,)),
    ("coupled_unimodular_pair", opslab.gen.gen_coupled_unimodular, ()),
)
CLUSTER_EDGE_SEEDS = range(5)
JORDAN_EDGE = (1e-9, 1e-8, 3e-8, 1e-7, 1e-6)


def digest(draw) -> str:
    """The sha256 of a generator's matrices, in order."""
    h = hashlib.sha256()
    for m in draw if isinstance(draw, tuple) else (draw,):
        h.update(m.tobytes())
    return h.hexdigest()


def verdict(s: np.ndarray) -> str:
    """``bounded``, or ``unbounded`` with the witness of ``certify_power_bounded``."""
    report = opslab.certify_power_bounded(s)
    if report.bounded:
        return "bounded"
    lam, reason = report.witness
    return f"unbounded ({reason}, eigenvalue {lam:.6g})"


def certificate_outcome(s: np.ndarray) -> str:
    """Certified with its residuals, refused with its message, or an internal check failure."""
    try:
        cert = opslab.similarity_certificate(s)
    except opslab.AssumptionError as exc:
        return f"refused: {exc}"
    except opslab.IdentityCheckError as exc:
        return f"internal error: {exc}"
    certified = f"certified: metric {cert.residual_metric:.3e}, similarity {cert.residual_similarity:.3e}"
    return f"{certified}; canonical inverse: {canonical_outcome(cert)}"


def canonical_outcome(cert) -> str:
    """The residual of the canonical inverse of a certificate, or the error it raises."""
    try:
        _, residual = opslab.canonical_left_m_inverse(cert)
    except opslab.OpslabError as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"residual {residual:.3e}"


def cli_outcome(argv: list[str]) -> str:
    """The exit code of one CLI request with the sha256 of its standard output, or its standard error."""
    out = workloads.call_cli(opslab, argv)
    if out.crash:
        return f"exit {out.code} crash {out.crash}"
    if out.code == 0:
        return f"exit 0, stdout sha256 {hashlib.sha256(out.stdout.encode()).hexdigest()}"
    return f"exit {out.code}, stderr {out.stderr.strip()}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in REQUEST_SEEDS:
            for name, make in (("ladder", workloads.ladder_requests), ("refuse", workloads.refuse_requests)):
                workdir = Path(tmp) / f"{name}-{seed}"
                workdir.mkdir()
                for req in make(seed, workdir).requests:
                    out = workloads.call_cli(opslab, req.argv)
                    print(f"== {name} seed {seed}: {req.cell}")
                    print(f"exit {out.code}" + (f" crash {out.crash}" if out.crash else ""))
                    for stream, text in (("stdout", out.stdout), ("stderr", out.stderr)):
                        print(f"{stream}:")
                        print(text.replace(tmp, "<tmp>"), end="")
    for seed in SUITE_SEEDS:
        for fname, kwargs, seeded in workloads.GATES:
            runner = getattr(opslab.suites, fname)
            print(f"== gate {fname} seed {seed}")
            try:
                result = runner(seed=seed, **kwargs) if seeded else runner(**kwargs)
            except Exception as exc:  # a crashed gate is an output too
                print(f"crash {type(exc).__name__}: {exc}")
            else:
                print(dump_json(result.to_json_dict()))
    for name in ("gen_power_bounded", "gen_similar_isometry"):
        for n, seed in GENERATOR_GRID:
            try:
                line = digest(getattr(opslab.gen, name)(n, seed))
            except Exception as exc:
                line = f"raises {type(exc).__name__}: {exc}"
            print(f"{name}({n}, {seed}): {line}")
    # Each family's S at derive_rng(seed), its n drawn first.
    family_inputs = [
        (f"{label}({seed})", next(opslab.gen.gen_corpus(family, opslab.gen.derive_rng(seed), 1, *params))[0])
        for label, family, params in FAMILIES
        for seed in FAMILY_SEEDS
    ]
    for label, s in family_inputs:
        print(f"{label}: {certificate_outcome(s)}")
    for seed in CLUSTER_EDGE_SEEDS:
        for ratio, s in opslab.gen.gen_cluster_edge(seed):
            print(f"cluster_edge({seed}, ratio {ratio}): {certificate_outcome(s)}")
    edge = [(a, b, s) for a in JORDAN_EDGE for b, s in enumerate(opslab.gen.gen_jordan_edge(a))]
    jordan = [(f"jordan_edge(a {a}, basis {b})", s) for a, b, s in edge]
    rotated = opslab.gen.gen_rotated_jordan_blocks()
    jordan += [(f"rotated J_{k}({lam:.6g}, basis {b})", s) for s, k, lam, b in rotated]
    for label, s in jordan:
        print(f"{label}: {verdict(s)}; {certificate_outcome(s)}")
    with tempfile.TemporaryDirectory() as tmp:
        rs = workloads.RequestSet(Path(tmp))
        for label, s in family_inputs:
            pair = ["--s", rs.save(s), "--t", rs.save(np.linalg.inv(s))]
            for m in (1, 2, 3):
                outcome = cli_outcome(["solve", "similarity", *pair, "--m", str(m), "--json"])
                print(f"solve similarity {label} --m {m}: {outcome}")
    # These labels, and the _ascent_corpus ones below, keep the names of the
    # test helpers the families once were, so that outputs of older commits diff clean.
    labels = itertools.product((0, 1), np.logspace(-10, -2, 33), ("I", "e I", "diag(1, e, -1)"))
    for (coupled, delta, name), (a, v) in zip(labels, opslab.gen.gen_close_phase_probes(), strict=True):
        pairs, oracle = opslab.ascent_bound_check(a, v), opslab.suites._kronecker_reference(a, v)
        print(f"ascent _two_close_phases({delta:.6g}, {coupled}), V = {name}: {pairs}, oracle {oracle}")
    for seed in PF_ASCENT_SEEDS:
        print(f"== gate run_pf_ascent seed {seed}")
        print(dump_json(opslab.suites.run_pf_ascent(seed=seed).to_json_dict()))
    for i, (a, v) in enumerate(opslab.gen.gen_ascent_corpus()):
        print(f"kronecker reference _ascent_corpus[{i}]: {opslab.suites._kronecker_reference(a, v)}")


if __name__ == "__main__":
    main()
