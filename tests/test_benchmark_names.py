"""The library functions that the benchmark's per-layer metrics trace must exist."""

import importlib
import json
from pathlib import Path

LIBRARY_MODULES = ("cli", "suites", "metric", "conj", "minv", "gen", "matcore")


def test_traced_functions_are_public():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
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
