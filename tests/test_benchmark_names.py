"""The benchmark's per-layer metrics and check spans name public functions.

``perfbench/tracer.py`` traces only public functions and methods defined in
each ``meansense`` module, and the traced benchmark run stops when a metric
names one that is gone.  These tests apply the same rule to
``BENCHMARK.json`` and to ``checks.REGISTRY`` so that a rename fails here
first.
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


def test_check_registry_holds_public_check_functions():
    # the tracer rewraps each REGISTRY value and names its span
    # checks.<key>, so each value must be a traced public function
    from meansense import checks

    for name, fn in checks.REGISTRY.items():
        assert _public_function(checks, fn.__name__, checks.__name__), name
        assert vars(checks)[fn.__name__] is fn, name
    assert set(checks.NEEDS) <= set(checks.REGISTRY)
    assert set(checks.NEEDS.values()) <= {"S3", "S4"}
