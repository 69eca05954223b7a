"""Acceptance gate: every row of ``suites.GATES`` at its pinned bounds.

Each case runs one gate's sweep at the gate's size and prints a single
PASS/FAIL line (run pytest with ``-s`` to see them).
"""

import pytest

from opslab import suites

# The benchmark's gates workload sweeps the same corpus.
SEED = 0


@pytest.mark.parametrize("gate", suites.GATES, ids=[gate.name for gate in suites.GATES])
def test_gate(gate):
    result = gate.runner(seed=SEED) if gate.seeded else gate.runner()
    status = "PASS" if result.passed else "FAIL"
    stats = ", ".join(f"{k}={v:.3e}" for k, v in sorted(result.stats.items()))
    print(f"ACCEPTANCE {gate.name}: {status} [{result.instances} instances] {stats}")
    assert result.name == gate.name
    assert result.passed, f"{gate.name}: {result.violations[:5]}"
