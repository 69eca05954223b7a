"""opslab benchmark: run one workload in fresh processes and print its metrics.

    python3 perfbench/run.py --workload {gates,ladder,refuse} --seed N --seconds S --trace {0,1}

Workloads (why each exists is in BENCHMARK.json):

* ``gates``  - sweeps of the eight acceptance suites at their gate counts
  and sizes on the tier-1 corpus (suite seed 0, whatever ``--seed`` is);
  an item is one suite instance.
* ``ladder`` - ``opslab solve/check`` requests over n in {8, 16, 24, 32};
  an item is one request.
* ``refuse`` - requests on inputs built to be refused or to fail, each
  with the outcome its construction fixes; an item is one request.

One client runs a closed loop, one request at a time.  With ``--trace 0``
the run spawns a set-up-only workload process (which reports the number
of rounds, a function of ``--seconds``), then one fresh process per round,
then five more set-up-only processes, and reports the end-to-end metrics
that ``BENCHMARK.json`` names, pooled over the round processes:

* ``setup_s``: median over all spawns of the time from spawn to the first
  timed item (interpreter start, ``import opslab``, inputs, one warm-up
  item);
* ``items_per_s``: items completed over the wall time of the rounds;
* ``req_p50_ms``, ``req_p90_ms``: Harrell-Davis percentiles of the latency
  of every unit call (a request, or for ``gates`` one acceptance gate);
* ``peak_rss_mb``: the largest ``ru_maxrss`` of the round processes.

A round per process averages the speed a process happens to get (memory
layout, hash seeds) over several processes, not only over time.
``fail_frac`` is printed and carried by ``attempted``/``failed``.  With
``--trace 1`` one process runs one round untraced and the same round
traced, and reports the per-layer metrics ``BENCHMARK.json`` names.  The
last line of standard output is the result object; the lines above it
give units, sample counts, the input digest and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORK_DIR = ".perfbench_work"  # input files, removed when the run ends
SETUP_AFTER = 5  # set-up-only spawns after the rounds, for more set-up samples
TIME_LIMIT_S = 170.0  # the whole command ends within 180 s


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run the worker; return (monotonic spawn time, its result object)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    return t0, json.loads(lines[-1])


def harrell_davis(samples: list[float], qs) -> list[float]:
    """Harrell-Davis percentile estimates: Beta-weighted means of all order
    statistics.  A round mixes requests of very different cost, and a plain
    order statistic would jump between them."""
    x = np.sort(samples)
    n = x.size
    out = []
    for q in qs:
        p = q / 100.0
        edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
        out.append(float(np.dot(np.diff(edges), x)))
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "opslab" / "__init__.py").is_file():
        print(f"error: no opslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / WORK_DIR / str(os.getpid())
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--workdir", str(workdir)]
    try:
        t0, probe = spawn(common + ["--setup-only"], deadline)
        setups = [probe["t_first"] - t0]
        if args.trace:
            _, res = spawn(common + ["--trace"], deadline)
            rounds = [res]
        else:
            rounds = []
            for r in range(probe["rounds"]):
                t0, res = spawn(common + ["--round", str(r)], deadline)
                setups.append(res["t_first"] - t0)
                rounds.append(res)
            for _ in range(SETUP_AFTER):
                t0, res = spawn(common + ["--setup-only"], deadline)
                setups.append(res["t_first"] - t0)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # fails while another run's directory remains

    latency = [x for res in rounds for x in res["latency"]]
    attempted = sum(res["attempted"] for res in rounds)
    failed = sum(res["failed"] for res in rounds)
    wall = sum(res["wall_s"] for res in rounds)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(f"machine: {json.dumps(probe['machine'], sort_keys=True)}")
    print(f"inputs: digest {rounds[0]['digest']}, {rounds[0]['work']}")
    print(f"timed: {len(rounds)} processes, {len(latency)} latency samples, {attempted} items in {wall:.2f} s")
    if args.trace:
        values = rounds[0]["metrics"]
        print(f"tracing overhead: traced items_per_s {values['trace.items_per_s']:.4g} "
              f"vs untraced {values['trace.untraced_items_per_s']:.4g} "
              f"(untraced/traced {values['trace.overhead']:.3f})")
        notes = {}
    else:
        p50, p90 = harrell_davis([x * 1e3 for x in latency], (50, 90))
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": attempted / wall,
            "req_p50_ms": p50,
            "req_p90_ms": p90,
            "peak_rss_mb": max(res["peak_rss_mb"] for res in rounds),
        }
        latency_note = f"Harrell-Davis over {len(latency)} samples, one per unit call"
        notes = {
            "setup_s": "median of {} spawns: {}".format(len(setups), ", ".join(f"{s:.3f}" for s in setups)),
            "items_per_s": f"{attempted} items / {wall:.2f} s of timed rounds",
            "req_p50_ms": latency_note,
            "req_p90_ms": latency_note,
            "peak_rss_mb": f"largest ru_maxrss of {len(rounds)} round processes",
        }
    for name in names:
        print(f"  {name:44s} {values[name]:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"  {'fail_frac':44s} {failed / attempted:14.6g} {'':6s} {failed} of {attempted} items failed")
    for line in [line for res in rounds for line in res["failures"]][:20]:
        print(f"  failure: {line}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
