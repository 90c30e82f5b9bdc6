"""Tests of the benchmark itself: the tracer's wrappers return what they wrap,
tracing leaves the CLI's output bytes unchanged, and the correctness gate and
span arithmetic count what they claim to.

    python3 -m pytest -q perfbench/tests
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))

from meansense import FiniteSet, PointView, Provenance, Word  # noqa: E402
from meansense import diff_intervals, hausdorff_distance  # noqa: E402
from meansense.errors import IndexRangeError  # noqa: E402


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench = _load("run")
tracer = _load("tracer")


def _point(text):
    return PointView(Word.from_string(text), Provenance("explicit-limit"), "test")


def test_wrappers_return_the_wrapped_result():
    rec = tracer.Recorder("r0")
    a, b = Word.from_string("0011010"), Word.from_string("0111000")
    got = rec.wrap("words.diff_intervals", diff_intervals)(a, b)
    want = diff_intervals(a, b)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))

    subword = rec.wrap("words.Word.subword", Word.subword)
    assert subword(a, 2, 3) == a.subword(2, 3)
    with pytest.raises(IndexRangeError):
        subword(a, 0, 3)

    A = FiniteSet.of([_point("0101"), _point("0110")])
    B = FiniteSet.of([_point("0100")])
    hd = rec.wrap("hyperspace.hausdorff_distance", hausdorff_distance)
    assert hd(A, B) == hausdorff_distance(A, B)

    assert [row[0] for row in rec.spans] == [
        "words.diff_intervals", "words.Word.subword", "words.Word.subword",
        "hyperspace.hausdorff_distance"]
    assert all(row[3] == -1 and row[4] == "r0" and row[2] >= row[1]
               for row in rec.spans)
    assert rec.counts == {"words.diff_intervals.intervals": len(want[0]),
                          "hyperspace.hausdorff_distance.pairs": 2}


def test_span_stats_subtract_children_and_count_recursion_once():
    spans = [["f", 0.0, 10.0, -1, "r"], ["g", 1.0, 3.0, 0, "r"],
             ["f", 4.0, 8.0, 0, "r"], ["g", 5.0, 6.0, 2, "r"],
             ["h", 11.0, 12.0, -1, "r"]]
    stats = tracer.span_stats(spans)
    assert stats["f"] == [2, (10 - 2 - 4) + (4 - 1), 10.0]
    assert stats["g"] == [2, 3.0, 3.0]
    assert stats["h"] == [1, 1.0, 1.0]


def test_changed_output_bytes_fail_the_checks_that_wrote_them():
    names = ("lemma-3.1", "lemma-3.2-density")
    series = "series-lemma-3.2-density-banach-density.csv"
    ref = {"A_1.rle": "a", "report-lemma-3.1.json": "b", series: "c"}
    for changed, failed in (({}, set()), ({series: "x"}, {"lemma-3.2-density"}),
                            ({"A_1.rle": "x"}, set(names))):
        rep = bench.Rep(Path("."), None, None, {**ref, **changed}, set())
        bench.compare_digests(ref, rep, names)
        assert rep.failed == failed


@pytest.mark.parametrize("workload", ["s3-windows", "desk-mix"])
def test_traced_run_writes_the_same_bytes_as_an_untraced_run(workload, tmp_path):
    plain = bench.one_rep(workload, 3, tmp_path, 0, False, bench.CPUS[0])
    traced = bench.one_rep(workload, 3, tmp_path, 1, True, bench.CPUS[-1])
    assert plain.failed == set() and traced.failed == set()
    assert any(name.startswith("report-") for name in plain.digests)
    assert plain.digests == traced.digests

    check = json.loads(traced.spans[1].read_text())
    rows = check["spans"]
    assert all(-1 <= row[3] < i and row[4] == check["run_id"]
               for i, row in enumerate(rows))
    seen = {row[0] for row in rows}
    assert {f"checks.{name}" for name in bench.WORKLOADS[workload][1]} <= seen
    assert "words.diff_intervals" in check["traced"]
    stats, _, _, sizes = bench.traced_layers(traced)
    assert all(row[1] >= 0 for row in stats.values())
    assert sizes["reports.report_bytes"] > 0
