"""Exact subshift constructions and truncated-orbit sensitivity statistics.

The package builds two recursive binary subshift families at large finite
scale (run-length encoded, lengths up to 64 bits), measures orbit
separation through Cesaro and Banach averages and window densities, and
drives the induced finite-set hyperspace dynamics under the Hausdorff
metric.  Every asymptotic statement of the underlying theory is rendered
as an exact finite computation with explicit truncation accounting.

Each public name is imported from its module on first access (PEP 562),
so that ``meansense build`` never loads the checks.
"""

import importlib

_EXPORTS = {
    "constructions": (
        "GeneratorDescriptor", "Level", "S3Construction", "S4Construction",
        "Schedule", "build_schedule_s3", "build_schedule_s4",
        "minimal_generator", "patched_point", "patched_step",
        "verify_schedule"),
    "diagnostics": (
        "IndexSet", "banach_avg_distance",
        "banach_avg_distances", "banach_window_max", "cesaro_avg_distance",
        "diam_of_members", "diam_sequence", "distance_sum", "indicator_set_E",
        "mean_to_density_check", "orbit_diam_sequence", "sensitivity_times",
        "step_distance_array"),
    "errors": (
        "AlphabetMismatchError", "DepthError", "HorizonError",
        "IndexRangeError", "LengthOverflowError", "MeansenseError",
        "ParameterError", "ResourceCapError", "WitnessUnavailableError"),
    "hyperspace": (
        "CylinderTuple", "FiniteSet", "certified_separation_steps",
        "family_hausdorff", "hausdorff_distance",
        "hausdorff_distance_inf_formula", "hyper_mean_avg",
        "hyper_witness_family", "independence_check", "tk_step",
        "union_factor"),
    "language": (
        "check_dense_periodic_desk", "check_transitive_desk",
        "cylinder_members", "subwords"),
    "reports": ("AverageReport", "Report", "fmt17", "series_csv"),
    "words": (
        "BlockFamily", "OccurrenceIndex", "PointView", "Provenance", "Word",
        "concat", "de_bruijn_word", "diff_intervals", "find_occurrences",
        "first_difference", "max_window_count", "point_metric", "power"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the modules too, which the eager imports used to bind as attributes
__all__ = [*_EXPORTS, *_HOME]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
