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
raises.  Then it prints the outcome of ``similarity_certificate`` on two
ill-conditioned families of inputs similar to a unitary, at seeds 0-199:
certified with its two residuals and the outcome of
``canonical_left_m_inverse`` on it (its residual, or the error class and
message), refused with its message, or an internal check failure.  Then
it prints the same outcome on the cluster-edge family of
``tests/test_metric.py`` (n = 6, seeds 0-4), whose first input at each
seed has a scalar cluster.  Then it prints the ``certify_power_bounded``
verdict and the same outcome on the Jordan edge ``[[1, a], [0, 1]]`` in
five bases at a = 1e-9 to 1e-6, and on Haar-rotated Jordan blocks J_k at
k = 1..4.  Then, on the inputs of the two
ill-conditioned families, it runs ``solve similarity --s S --t S^-1 --m k
--json`` at k = 1, 2 and 3 (``workloads.call_cli``) and prints its exit
code with the sha256 of its standard output, or its standard error.
Last, it prints ``ascent_bound_check`` and ``suites._kronecker_reference``
on the close-phase probes of ``tests/test_metric.py``: its
``_two_close_phases`` at 33 delta log-spaced in [1e-10, 1e-2], both
couplings, at ``V = I``, ``exp(i delta) I`` and ``diag(1, exp(i delta),
-1)``.  It reads ``perfbench`` and writes only its temporary directories.

Run it in a checkout of each commit and diff the two files.  Both runs
need the same ``OPENBLAS_NUM_THREADS``: the n = 256 generator draws differ
between one BLAS thread and two.  It imports ``opslab`` from the ``src``
next to it, never an installed copy.  It is not a test module: pytest does
not collect it.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy.linalg

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import opslab  # noqa: E402
import opslab.cli  # noqa: E402
import opslab.gen  # noqa: E402
import opslab.suites  # noqa: E402
import workloads  # noqa: E402
from opslab.matcore import dump_json  # noqa: E402
from test_metric import _two_close_phases  # noqa: E402

REQUEST_SEEDS = (1, 2, 3)
SUITE_SEEDS = (0, 1, 2, 3)
GENERATOR_GRID = [(n, seed) for n in (2, 3, 5, 8, 16, 32, 64) for seed in range(10)]
GENERATOR_GRID += [(256, seed) for seed in range(20)]
FAMILY_SEEDS = range(200)
CLUSTER_EDGE_SEEDS = range(5)
CLUSTER_EDGE_RATIOS = (0, 1e-3, 0.1, 0.5, 0.9, 1.1, 2, 10)
JORDAN_EDGE = (1e-9, 1e-8, 3e-8, 1e-7, 1e-6)


def digest(draw) -> str:
    """The sha256 of a generator's matrices, in order."""
    h = hashlib.sha256()
    for m in draw if isinstance(draw, tuple) else (draw,):
        h.update(m.tobytes())
    return h.hexdigest()


def conditioned_similarity(seed: int) -> np.ndarray:
    """``P0^-1 V P0``: n = 2..8, V and U Haar, ``P0 = U diag(geomspace(1, 1e-4, n)) U*``."""
    rng = opslab.gen.derive_rng(seed)
    n = int(rng.integers(2, 9))
    v, u = opslab.gen.haar_unitary(n, rng), opslab.gen.haar_unitary(n, rng)
    p0 = u @ np.diag(np.geomspace(1.0, 1e-4, n)) @ u.conj().T
    return np.linalg.solve(p0, v @ p0)


def coupled_unimodular_pair(seed: int) -> np.ndarray:
    """``Q ([[1, 1], [0, e^(i d)]] (+) U) Q*``: d log-uniform in [2e-6, 0.1], n = 2..8, U diagonal, Q Haar."""
    rng = opslab.gen.derive_rng(seed)
    n = int(rng.integers(2, 9))
    delta = float(np.exp(rng.uniform(np.log(2e-6), np.log(0.1))))
    m = np.diag(np.exp(2j * np.pi * rng.random(n))).astype(complex)
    m[:2, :2] = [[1.0, 1.0], [0.0, np.exp(1j * delta)]]
    q = opslab.gen.haar_unitary(n, rng)
    return q @ m @ q.conj().T


def cluster_edge(seed: int):
    """``(ratio, S)``: ``gen_similar_isometry(6, seed)`` with its second eigenvalue moved
    to ``ratio * 1e-6 * max(1, ||S||_2)`` in phase from its first, as in ``tests/test_metric.py``."""
    s, p0, u = opslab.gen.gen_similar_isometry(6, seed=seed)
    t, z = scipy.linalg.schur(u, output="complex")
    phases = np.diag(t).copy()
    cluster_tol = 1e-6 * max(1.0, opslab.operator_norm(s))
    for ratio in CLUSTER_EDGE_RATIOS:
        phases[1] = phases[0] * np.exp(1j * ratio * cluster_tol)
        yield ratio, np.linalg.solve(p0, z @ np.diag(phases) @ z.conj().T @ p0)


def jordan_families():
    """``(label, S)``: ``[[1, a], [0, 1]]`` at each a of ``JORDAN_EDGE`` in five bases, as in
    ``tests/test_metric.py``, then ``Q J_k(lam) Q*`` at k = 1..4, the four phases of the
    jordan-strictness gate and ``Q = haar_unitary(k, derive_rng(b, k))``, b = 0..3."""
    for a in JORDAN_EDGE:
        s = np.array([[1.0, a], [0.0, 1.0]], dtype=complex)
        yield f"jordan_edge(a {a}, basis 0)", s
        for k in range(4):
            q = opslab.gen.haar_unitary(2, opslab.gen.derive_rng(k, 0))
            yield f"jordan_edge(a {a}, basis {k + 1})", q @ s @ q.conj().T
    for k in range(1, 5):
        for lam in (1.0, -1.0, 1j, np.exp(0.7j)):
            for b in range(4):
                q = opslab.gen.haar_unitary(k, opslab.gen.derive_rng(b, k))
                yield f"rotated J_{k}({lam:.6g}, basis {b})", q @ opslab.gen.gen_jordan(k, lam) @ q.conj().T


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
    for family in (conditioned_similarity, coupled_unimodular_pair):
        for seed in FAMILY_SEEDS:
            print(f"{family.__name__}({seed}): {certificate_outcome(family(seed))}")
    for seed in CLUSTER_EDGE_SEEDS:
        for ratio, s in cluster_edge(seed):
            print(f"cluster_edge({seed}, ratio {ratio}): {certificate_outcome(s)}")
    for label, s in jordan_families():
        print(f"{label}: {verdict(s)}; {certificate_outcome(s)}")
    with tempfile.TemporaryDirectory() as tmp:
        rs = workloads.RequestSet(Path(tmp))
        for family in (conditioned_similarity, coupled_unimodular_pair):
            for seed in FAMILY_SEEDS:
                s = family(seed)
                pair = ["--s", rs.save(s), "--t", rs.save(np.linalg.inv(s))]
                for m in (1, 2, 3):
                    outcome = cli_outcome(["solve", "similarity", *pair, "--m", str(m), "--json"])
                    print(f"solve similarity {family.__name__}({seed}) --m {m}: {outcome}")
    for coupled in (0, 1):
        for delta in np.logspace(-10, -2, 33):
            a = _two_close_phases(delta, coupled)
            e = np.exp(1j * delta)
            for name, v in (("I", np.eye(3)), ("e I", e * np.eye(3)), ("diag(1, e, -1)", np.diag([1.0, e, -1.0]))):
                pairs, oracle = opslab.ascent_bound_check(a, v), opslab.suites._kronecker_reference(a, v)
                print(f"ascent _two_close_phases({delta:.6g}, {coupled}), V = {name}: {pairs}, oracle {oracle}")


if __name__ == "__main__":
    main()
