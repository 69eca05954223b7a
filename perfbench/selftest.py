"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py -q

They check that inputs are a pure function of the seed, that every
``refuse`` input gets the outcome its construction fixes, that the output
checks reject wrong answers, and that the tracer is transparent.  The
file is named outside pytest's ``test_*.py`` pattern so that the
library's own test run does not collect it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

import opslab  # noqa: E402
import opslab.cli  # noqa: E402
import opslab.suites  # noqa: E402


@pytest.mark.parametrize("make", [workloads.ladder_requests, workloads.refuse_requests])
def test_input_digest_is_a_function_of_the_seed(make, tmp_path):
    digests = []
    for i, seed in enumerate((3, 3, 4)):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        digests.append(make(seed, workdir).digest)
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_gate_digest_is_a_function_of_the_rounds():
    assert workloads.gate_digest(5) == workloads.gate_digest(5)
    assert workloads.gate_digest(5) != workloads.gate_digest(4)


def test_gates_sweep_the_tier1_corpus():
    source = (HERE.parent / "tests" / "test_acceptance.py").read_text()
    assert f"SEED = {workloads.GATE_SEED}\n" in source


@pytest.mark.xfail(strict=True, reason="library defect: U2 of similarity-roundtrip instance 115 "
                   "at suite seed 2036509382000 misses its unitarity tolerance (residual ~4e-8)")
def test_similarity_roundtrip_holds_beyond_the_tier1_seed():
    # Kept visible here because ``gates`` sweeps only the tier-1 seed.
    result = opslab.suites.run_similarity_roundtrip(seed=2036509382000, count=116, dim_max=8)
    assert result.passed, result.violations


@pytest.mark.parametrize("name", ["ladder", "refuse"])
def test_short_request_runs_still_hold_enough_samples(name):
    assert workloads.rounds_for(name, 1, 77) * 77 >= workloads.MIN_REQUESTS
    assert workloads.rounds_for(name, 1, 46) * 46 >= workloads.MIN_REQUESTS


@pytest.mark.parametrize("seed", [0, 1])
def test_every_refuse_input_gets_its_expected_outcome(seed, tmp_path):
    rs = workloads.refuse_requests(seed, tmp_path)
    failures = []
    for unit in workloads.request_units(opslab, rs.requests):
        failures += unit.run(0).failures
    assert failures == []


def _perturbed(outcome, path, delta):
    report = json.loads(outcome.stdout)
    node = report
    for key in path:
        node = node[key]
    node["data"][0][0] += delta
    return workloads.Outcome(outcome.code, json.dumps(report), outcome.stderr)


def test_checks_reject_wrong_answers(tmp_path):
    rs = workloads.ladder_requests(5, tmp_path)
    by_cell = {r.cell: r for r in rs.requests}

    req = by_cell["solve invariant-metric n=8"]
    good = workloads.call_cli(opslab, req.argv)
    assert req.check(good) == []
    assert req.check(_perturbed(good, ["artifacts", "certificate", "V"], 1e-3))
    assert req.check(_perturbed(good, ["artifacts", "certificate", "P"], 1e-3))

    req = by_cell["solve douglas n=8"]
    good = workloads.call_cli(opslab, req.argv)
    assert req.check(good) == []
    assert req.check(_perturbed(good, ["artifacts", "C"], 1e-3))

    req = by_cell["solve canonical-inverse n=8"]
    good = workloads.call_cli(opslab, req.argv)
    assert req.check(_perturbed(good, ["artifacts", "T"], 1e-3))

    req = by_cell["solve similarity n=8"]
    good = workloads.call_cli(opslab, req.argv)
    assert req.check(good) == []
    assert req.check(_perturbed(good, ["artifacts", "U1"], 1e-3))
    # Unitary and conjugate, but not models of S and T*.
    report = json.loads(good.stdout)
    for key in ("U1", "U2", "P"):
        report["artifacts"][key] = checks.matrix_to_json(np.eye(8, dtype=complex))
    identity = workloads.Outcome(0, json.dumps(report), "")
    assert any("spectrum" in p for p in req.check(identity))

    # A refusal where a certificate was expected, and a crash, both fail.
    assert checks.common(workloads.Outcome(1, "", "error: no metric"), req.check)
    assert checks.common(workloads.Outcome(None, "", "", crash="ValueError: boom"), req.check)
    assert checks.common(workloads.Outcome(0, good.stdout, "internal check failed: x"), req.check)


def tracer_checks() -> None:
    """Run in a fresh interpreter: installing the tracer patches modules."""
    from tracer import Tracer

    from opslab import errors, metric, suites

    rng = np.random.default_rng(0)
    s = np.linalg.qr(rng.standard_normal((4, 4)))[0].astype(complex)
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    singular = np.zeros((3, 3))
    before_cert = metric.certify_power_bounded(s)
    before_metric = metric.invariant_metric(s)
    before_svd = np.linalg.svd(s)
    with pytest.raises(errors.AssumptionError) as before_exc:
        metric.invariant_metric(jordan)

    original = metric.certify_power_bounded
    tracer = Tracer()
    tracer.install(opslab)
    assert metric.certify_power_bounded.__wrapped__ is original
    assert opslab.cli.SUITES["prop26"][0] is suites.run_jordan_strictness
    assert metric.operator_norm is opslab.matcore.operator_norm  # from-import copy
    assert opslab.certify_power_bounded is metric.certify_power_bounded

    tracer.begin_item()
    after_cert = metric.certify_power_bounded(s)
    after_metric = metric.invariant_metric(s)
    after_svd = np.linalg.svd(s)
    with pytest.raises(errors.AssumptionError) as after_exc:
        metric.invariant_metric(jordan)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(singular)
    tracer.end_item()

    assert after_cert == before_cert
    assert np.array_equal(after_metric, before_metric)
    assert all(np.array_equal(a, b) for a, b in zip(after_svd, before_svd))
    assert str(after_exc.value) == str(before_exc.value)

    summary = tracer.summary()
    assert summary["metric.invariant_metric.calls"] == 2
    assert summary["metric.invariant_metric.unique_frac"] == 1.0
    assert summary["metric.raised"] == 1  # the refusal leaves the metric layer once
    assert summary["linalg.raised"] == 1
    assert summary["linalg.inv.calls"] >= 1
    # Every span lies inside its parent, and self times are not negative.
    n = len(tracer.start)
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    assert all(summary[f"{layer}.self_s"] >= 0 for layer in ("metric", "matcore", "linalg"))


def test_tracer_preserves_values_and_exceptions():
    proc = subprocess.run(
        [sys.executable, "-c", "import selftest; selftest.tracer_checks()"],
        cwd=HERE, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
