"""The benchmark's per-layer metrics name public functions of the package.

``perfbench/tracer.py`` traces only public functions and methods defined in
each ``meansense`` module, and the traced benchmark run stops when a metric
names one that is gone.  This test applies the same rule to
``BENCHMARK.json`` so that a rename fails here first.
"""

import importlib
import inspect
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _public_function(owner, attr, module_name):
    raw = vars(owner).get(attr)
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module_name)


def test_per_layer_names_resolve_to_public_functions():
    metrics = json.loads(BENCHMARK.read_text())["per_layer"]
    checked = 0
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) not in (3, 4):  # <module>.<stat>: a whole layer
            continue
        module_name = f"meansense.{parts[0]}"
        module = importlib.import_module(module_name)
        owner = module
        if len(parts) == 4:
            owner = vars(module).get(parts[1])
            assert inspect.isclass(owner) and owner.__module__ == module_name, \
                metric["name"]
        assert _public_function(owner, parts[-2], module_name), metric["name"]
        checked += 1
    assert checked
