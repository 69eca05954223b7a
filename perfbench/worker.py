"""One round of a workload in one fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --workdir DIR
                                (--setup-only | --round R | --trace)

``run.py`` starts it; it is not meant to be run by hand.  It imports
``opslab`` from the checkout's ``src``, builds the workload's inputs and
writes them under ``DIR``, runs one untimed warm-up item, and notes the
monotonic time of its first timed item (``run.py`` subtracts the time it
spawned this process, giving ``setup_s``).  Then it either

* stops (``--setup-only``), reporting the machine, or
* runs round ``R``: every unit once, each call timed, or
* with ``--trace``, runs round 0 untraced and then traced, so that span
  counts repeat exactly for a given seed and the tracing overhead is
  measured on identical work.

The last line of standard output is one JSON object for ``run.py``; it
always carries the number of rounds of the run (``workloads.rounds_for``,
a function of the workload and ``--seconds`` only, so every commit does
the same work for a given seed) and the digest of the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

def import_opslab():
    """Import the checkout's opslab, never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import opslab
    import opslab.cli
    import opslab.suites

    src = (ROOT / "src" / "opslab").resolve()
    if Path(opslab.__file__).resolve().parent != src:
        raise SystemExit(f"imported opslab from {opslab.__file__}, expected {src}")
    return opslab


class Record:
    """Latency of every unit call, and the items and failures they returned."""

    def __init__(self):
        self.latency: list[float] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0

    def run_round(self, units, round_index: int, tracer=None) -> None:
        start = time.perf_counter()
        for unit in units:
            if tracer is not None:
                tracer.begin_item()
            t0 = time.perf_counter()
            returned = unit.call(round_index)
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_item()
            result = unit.judge(returned)
            self.latency.append(dt)
            self.attempted += result.items
            self.failed += result.failed
            self.failures.extend(result.failures)
        self.wall += time.perf_counter() - start

    def items_per_s(self) -> float:
        """Items completed over the wall time of the rounds."""
        return self.attempted / self.wall


def blas_threads() -> int | None:
    """OpenBLAS thread count, read through its own API when available."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l3 = None
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "l3": l3,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--round", type=int)
    mode.add_argument("--trace", action="store_true")
    parser.add_argument("--workdir", required=True, help="where to write the input files")
    args = parser.parse_args(argv)

    opslab = import_opslab()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    work = workloads.build(opslab, args.workload, args.seed, None if args.trace else args.seconds, workdir)
    Record().run_round([work.warmup], 0)
    out = {"t_first": time.monotonic(), "rounds": work.rounds, "digest": work.digest, "work": work.description}
    if args.setup_only:
        out["machine"] = machine_facts()
        print(json.dumps(out))
        return 0
    if args.trace:
        names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
        record, metrics = traced(opslab, work.units, names)
        out["metrics"] = metrics
    else:
        record = Record()
        record.run_round(work.units, args.round)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update(latency=record.latency, attempted=record.attempted, failed=record.failed,
               failures=record.failures[:20], wall_s=record.wall)
    print(json.dumps(out))
    return 0


def traced(opslab, units, names: list[str]) -> tuple[Record, dict]:
    """One untraced round, then the same round traced; the named per-layer metrics."""
    from tracer import Tracer

    plain = Record()
    cpu0 = time.process_time()
    plain.run_round(units, 0)
    cpu_per_wall = (time.process_time() - cpu0) / plain.wall

    tracer = Tracer()
    tracer.install(opslab)
    traced_record = Record()
    traced_record.run_round(units, 0, tracer)
    summary = tracer.summary()
    summary["linalg.cpu_per_wall"] = cpu_per_wall
    summary["trace.items_per_s"] = traced_record.items_per_s()
    summary["trace.untraced_items_per_s"] = plain.items_per_s()
    summary["trace.overhead"] = summary["trace.untraced_items_per_s"] / summary["trace.items_per_s"]
    missing = [name for name in names if name not in summary]
    if missing:
        raise SystemExit(f"per-layer metrics the tracer does not produce: {missing}")
    # Report both rounds: a failure in either counts.
    for field in ("latency", "failures", "attempted", "failed", "wall"):
        setattr(plain, field, getattr(plain, field) + getattr(traced_record, field))
    return plain, {name: float(summary[name]) for name in names}


if __name__ == "__main__":
    sys.exit(main())
