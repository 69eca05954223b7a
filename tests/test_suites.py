import ast
import re
from pathlib import Path

import numpy as np
import pytest

from opslab import conj, gen, metric, minv, suites
from opslab.errors import ArgumentError, AssumptionError

# (sweep, its dimension cap, the library call that raises on one instance,
# the unseeded instances the sweep adds after its seeded ones)
SEEDED_SWEEPS = [
    (suites.run_defect_agreement, 4, (minv, "defect"), 0),
    (suites.run_similarity_roundtrip, 4, (metric, "similarity_certificate"), 0),
    (suites.run_z_inverse_contract, 4, (minv, "z_inverses"), 3),
    (suites.run_douglas, 4, (metric, "douglas_factor"), 0),
    (suites.run_isometry_rigidity, 4, (metric, "certify_power_bounded"), 0),
    (suites.run_c_isometry_rigidity, 4, (conj, "conjugate_operator"), 3),
    (suites.run_pf_ascent, 3, (metric, "ascent_bound_check"), 0),
]


def test_seeded_sweeps_cover_every_seeded_gate():
    assert [sweep for sweep, *_ in SEEDED_SWEEPS] == [gate.runner for gate in suites.GATES if gate.seeded]


@pytest.mark.parametrize(
    "sweep, dim_max, target, unseeded", SEEDED_SWEEPS, ids=[s[0].__name__ for s in SEEDED_SWEEPS]
)
def test_a_raising_instance_is_that_instance_violation(monkeypatch, sweep, dim_max, target, unseeded):
    # Instance k is the one whose generator derive_rng(seed, k) was drawn last.
    count, k = 6, 3
    current = {}
    derive_rng = gen.derive_rng

    def tracking_derive_rng(seed, *index):
        if index:
            current["i"] = index[0]
        return derive_rng(seed, *index)

    owner, name = target
    original = getattr(owner, name)

    def failing(*args, **kwargs):
        if current.get("i") == k:
            raise AssumptionError("injected")
        return original(*args, **kwargs)

    monkeypatch.setattr(gen, "derive_rng", tracking_derive_rng)
    monkeypatch.setattr(owner, name, failing)
    result = sweep(seed=0, count=count, dim_max=dim_max)
    assert len(result.violations) == 1
    assert re.fullmatch(rf"instance {k} \(n=\d+\): AssumptionError: injected", result.violations[0])
    assert result.instances == count + unseeded


@pytest.mark.parametrize(
    "sweep, kwargs, tags",
    [
        (suites.run_jordan_strictness, {}, [f"J_2({lam})" for lam in (1.0, -1.0, 1j, np.exp(0.7j))]),
        (suites.run_c_isometry_rigidity, {"count": 2, "dim_max": 3}, [f"hyperbolic t={t}" for t in (0.5, 1.0, 2.0)]),
    ],
    ids=["jordan-strictness", "c-isometry-rigidity"],
)
def test_a_raising_fixed_instance_is_that_instance_violation(monkeypatch, sweep, kwargs, tags):
    # The fixed 2x2 instances: J_2(lam) and the hyperbolic family; the
    # seeded c-isometry instances do not certify power boundedness.
    instances = sweep(**kwargs).instances
    original = metric.certify_power_bounded

    def failing(s, *args, **kw):
        if s.shape[0] == 2:
            raise AssumptionError("injected")
        return original(s, *args, **kw)

    monkeypatch.setattr(metric, "certify_power_bounded", failing)
    result = sweep(**kwargs)
    assert result.violations == [f"{tag}: AssumptionError: injected" for tag in tags]
    assert result.instances == instances


def test_only_check_instance_counts_and_reports_an_instance():
    # One function counts, tags and reports every instance of every gate.
    writers = set()
    for func in ast.walk(ast.parse(Path(suites.__file__).read_text())):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    targets = [node.func.value]  # result.violations.append(...)
                else:
                    continue
                if any(isinstance(t, ast.Attribute) and t.attr in ("violations", "instances") for t in targets):
                    writers.add(func.name)
    assert writers == {"_check_instance"}


def test_sweeps_refuse_an_empty_or_undersized_run():
    for sweep, *_ in SEEDED_SWEEPS:
        with pytest.raises(ArgumentError, match="count must be >= 1"):
            sweep(count=0)
        with pytest.raises(ArgumentError, match="dim_max must be >= [12]"):
            sweep(dim_max=0)
    with pytest.raises(ArgumentError, match="^jordan-strictness: k_max must be >= 1$"):
        suites.run_jordan_strictness(k_max=0)


def test_only_the_sweep_and_generate_derive_an_instance_rng():
    # Instance i of seed S is gen.derive_rng(S, i) in exactly these two places;
    # gen.gen_rotated_jordan seeds its fixed basis of dimension n as (basis, n).
    callers = set()
    for path in Path(suites.__file__).parent.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    if (
                        isinstance(node, ast.Call)
                        and ast.unparse(node.func) in ("derive_rng", "gen.derive_rng")
                        and len(node.args) + len(node.keywords) > 1
                    ):
                        callers.add(func.name)
    assert callers == {"_instance", "_cmd_generate", "gen_rotated_jordan"}


def test_suites_call_no_private_name_of_metric():
    # A sweep's oracle must not share the rule it checks, e.g. metric's phase merge.
    tree = ast.parse(Path(suites.__file__).read_text())
    private = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "metric"
        and node.attr.startswith("_")
    }
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("metric")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private | imported == set()


SEEDED_GATES = [gate for gate in suites.GATES if gate.seeded]


@pytest.mark.parametrize("gate", SEEDED_GATES, ids=[gate.name for gate in SEEDED_GATES])
def test_each_seeded_gate_passes_up_to_n_64(gate):
    # The run the README states: 40 instances at n <= 64, suite seed 0, about
    # 0.9 s for the six; pf-ascent's Kronecker oracle costs O(n^6), so 12 at n <= 10.
    count, dim_max = (12, 10) if gate.name == "pf-ascent" else (40, 64)
    result = gate.runner(seed=0, count=count, dim_max=dim_max)
    assert result.passed, result.violations[:3]
