"""The benchmark's names for library functions and gates must match the library."""

import ast
import importlib
import inspect
import json
from pathlib import Path

from opslab import cli, matcore, suites

ROOT = Path(__file__).resolve().parents[1]
LIBRARY_MODULES = ("cli", "suites", "metric", "conj", "minv", "gen", "matcore")


def test_traced_functions_are_public():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = [
        parts[:2]
        for parts in (metric["name"].split(".") for metric in spec["per_layer"])
        if len(parts) == 3 and parts[0] in LIBRARY_MODULES
    ]
    assert traced
    for module, function in traced:
        mod = importlib.import_module(f"opslab.{module}")
        public = getattr(mod, "__all__", [name for name in vars(mod) if not name.startswith("_")])
        assert function in public and callable(getattr(mod, function)), f"{module}.{function}"


def test_cli_imports_only_public_matcore_names():
    # perfbench's tracer wraps the names in matcore.__all__; one the CLI
    # calls but that list omits would count as time of the CLI layer.
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "matcore"
        for alias in node.names
    ]
    assert imported
    assert set(imported) <= set(matcore.__all__)


def test_dump_json_is_the_one_matrix_writer():
    # The matrix schema has one writer, matcore.dump_json: the library
    # modules hand it their arrays, and only the CLI calls it.
    readers = {"load_json", "load_matrix", "matrix_from_json_dict"}
    writers = {name for name in matcore.__all__ if "json" in name} - readers | {"orjson"}

    def imported(module):
        tree = ast.parse(Path(importlib.import_module(f"opslab.{module}").__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                yield from (alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield from (alias.name if node.module == "matcore" else node.module for alias in node.names)

    for module in ("metric", "conj", "gen", "suites"):
        assert not set(imported(module)) & writers, module
    assert set(imported("cli")) & (readers | writers) == {"dump_json", "load_json", "load_matrix"}


def test_benchmark_gates_match_the_gate_table():
    # perfbench/workloads.py keeps its own copy of the gates, read here without
    # importing it: a gate resized in suites must be resized there as well.
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    frozen = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["GATES"]
    )

    def size(runner):  # a gate's size is its sweep's defaults
        return {name: p.default for name, p in inspect.signature(runner).parameters.items() if name != "seed"}

    assert frozen == tuple((gate.runner.__name__, size(gate.runner), gate.seeded) for gate in suites.GATES)
