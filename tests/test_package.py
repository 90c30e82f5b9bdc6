"""The package's public names, resolved on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meansense

ROOT = Path(__file__).resolve().parents[1]

# the public names, by defining module; ``from meansense import *`` binds
# these and the modules themselves
SURFACE = {
    "constructions": [
        "GeneratorDescriptor", "Level", "S3Construction", "S4Construction",
        "Schedule", "build_schedule_s3", "build_schedule_s4",
        "minimal_generator", "patched_point", "patched_step",
        "verify_schedule"],
    "diagnostics": [
        "IndexSet", "banach_avg_distance",
        "banach_avg_distances", "banach_window_max", "cesaro_avg_distance",
        "diam_of_members", "diam_sequence", "distance_sum", "indicator_set_E",
        "mean_to_density_check", "orbit_diam_sequence", "sensitivity_times",
        "step_distance_array"],
    "errors": [
        "AlphabetMismatchError", "DepthError", "HorizonError",
        "IndexRangeError", "LengthOverflowError", "MeansenseError",
        "ParameterError", "ResourceCapError", "WitnessUnavailableError"],
    "hyperspace": [
        "CylinderTuple", "FiniteSet", "certified_separation_steps",
        "family_hausdorff", "hausdorff_distance",
        "hausdorff_distance_inf_formula", "hyper_mean_avg",
        "hyper_witness_family", "independence_check", "tk_step",
        "union_factor"],
    "language": [
        "check_dense_periodic_desk", "check_transitive_desk",
        "cylinder_members", "subwords"],
    "reports": ["AverageReport", "Report", "fmt17", "series_csv"],
    "words": [
        "BlockFamily", "OccurrenceIndex", "PointView", "Provenance", "Word",
        "concat", "de_bruijn_word", "diff_intervals", "find_occurrences",
        "first_difference", "max_window_count", "point_metric", "power"],
}


@pytest.mark.parametrize("module", sorted(SURFACE))
def test_public_names_are_their_modules_objects(module):
    home = importlib.import_module(f"meansense.{module}")
    assert getattr(meansense, module) is home
    for name in SURFACE[module]:
        assert getattr(meansense, name) is getattr(home, name), name
    assert {module, *SURFACE[module]} <= set(dir(meansense))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(meansense, "no_such_name")


def test_star_import_binds_the_names_and_their_modules():
    # in a fresh process, where no module is imported before the star import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("ns = {}\n"
            "exec('from meansense import *', ns)\n"
            "print(' '.join(sorted(set(ns) - {'__builtins__'})))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == set(SURFACE).union(*SURFACE.values())


def test_average_report_loads_from_its_home_module():
    # in a fresh process: the report class is defined in ``reports``, so
    # reaching it loads neither the diagnostics nor the word algebra
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, meansense\n"
            "assert meansense.AverageReport.__module__ == 'meansense.reports'\n"
            "print(' '.join(sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "meansense.reports" in loaded
    assert not loaded & {"meansense.diagnostics", "meansense.words"}
