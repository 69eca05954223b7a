"""Print every output that a byte-identity comparison of two commits reads.

    python3 tests/outputs.py > outputs.txt

It runs each ladder and refuse request of ``perfbench/workloads.py`` at
request seeds 1-3 in process (``workloads.call_cli``) and prints its exit
code, standard output and standard error, with the temporary directory of
its input files masked as ``<tmp>``.  Then it prints ``dump_json`` of the
report of each of the eight acceptance gates of ``workloads.GATES``, at
their gate sizes, at suite seeds 0-3.  Last it prints the sha256 of each
``gen_power_bounded`` and ``gen_similar_isometry`` draw over a fixed grid
of (n, seed), n = 256 at seeds 0-19 among them, or the error a draw
raises.  It reads ``perfbench`` and writes only its temporary directory.

Run it in a checkout of each commit and diff the two files.  It imports
``opslab`` from the ``src`` next to it, never an installed copy.  It is not
a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

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
GENERATOR_GRID = [(n, seed) for n in (2, 3, 5, 8, 16, 32, 64) for seed in range(10)]
GENERATOR_GRID += [(256, seed) for seed in range(20)]


def digest(draw) -> str:
    """The sha256 of a generator's matrices, in order."""
    h = hashlib.sha256()
    for m in draw if isinstance(draw, tuple) else (draw,):
        h.update(m.tobytes())
    return h.hexdigest()


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


if __name__ == "__main__":
    main()
