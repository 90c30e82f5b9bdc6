"""The two randomized checks: the data they draw, ``hausdorff-axioms``'
exact packed-int oracle and member runs, and verdicts that fail when a
library route is wrong; likewise ``independence``' witness positions,
read back from its word, and the tightness witnesses of ``lemma-3.1``,
``lemma-3.2-density``, ``lemma-count-3``, ``prop-p-system``,
``thm-1.3-banach-equi`` and ``thm-1.3-cofinite``, and
``thm-1.8-witness``' closed-form family columns; and the work the S3
window checks share: deep-cylinder members read from the cylinder before,
and one cached sweep of A_4 at window t_2."""

import itertools
import operator
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from meansense import FiniteSet, OccurrenceIndex, PointView, Provenance, Word
from meansense import (AverageReport, IndexSet, diam_of_members,
                       step_distance_array)
from meansense import checks, hyperspace, language, words
from meansense.checks import (
    _member_runs,
    _packed_hausdorff_j,
    check_hausdorff_axioms,
    check_remark_213,
)
from meansense.diagnostics import mean_to_density_check
from meansense.hyperspace import _hausdorff_first_difference

ROOT = Path(__file__).resolve().parents[1]


def _as_set(packed, horizon):
    return FiniteSet.of([
        PointView(Word.from_string(format(a, f"0{horizon}b")),
                  Provenance("explicit-limit"))
        for a in packed])


def test_packed_oracle_matches_first_difference_table():
    rng = random.Random(71)
    for trial in range(600):
        horizon = rng.choice([3, 8, 48])
        pool = [rng.getrandbits(horizon) for _ in range(rng.randint(1, 6))]
        # near copies of pool members, and repeats within and across sets
        pool += [a ^ (1 << rng.randrange(horizon)) for a in pool[:2]]

        def draw():
            return [rng.choice(pool) for _ in range(rng.randint(1, 6))]

        A, B = draw(), draw()
        if trial % 10 == 0:
            B = list(reversed(A)) + A[:1]  # the same set, members repeated
        want, _ = _hausdorff_first_difference(_as_set(A, horizon),
                                              _as_set(B, horizon))
        assert _packed_hausdorff_j(A, B, horizon) == want
        assert _packed_hausdorff_j(B, A, horizon) == want


def test_member_runs_match_the_string_route():
    # runs crossing one or more byte boundaries, and runs ending on one
    crossing = [0x00FF00FF00FF, 0x0180_0000_0001, 0x7FFF_FFFF_FFFE,
                0x0F0F0F0F0F0F, 0x00000000FFFF, 0x000100000000]
    rng = random.Random(3)
    values = ([0, 2**48 - 1, 0xAAAAAAAAAAAA, 0x555555555555]
              + [1 << i for i in range(48)] + crossing
              + [rng.getrandbits(48) for _ in range(1000)])
    for x in values:
        assert _member_runs(x, 48) == Word.from_string(format(x, "048b")).runs, x


@pytest.mark.parametrize("seed", [7, 8, 100, 12345])
def test_random_sets_replay_a_whole_check(monkeypatch, seed):
    # the check runs on random.Random(7 + its seed): each set is a size
    # randint(1, 5), then that many getrandbits(48) members
    horizon, trials = 48, 1000
    naive = random.Random(seed)
    want = [[[naive.getrandbits(horizon) for _ in range(naive.randint(1, 5))]
             for _ in range(3)] for _ in range(trials)]
    packed, sets = [], []
    oracle = checks._packed_hausdorff_j
    dual = hyperspace.hausdorff_distance_inf_formula

    def recording_oracle(A, B, h):
        packed.append((A, B))
        return oracle(A, B, h)

    def recording_dual(A, B):
        sets.append((A, B))
        return dual(A, B)

    monkeypatch.setattr(checks, "_packed_hausdorff_j", recording_oracle)
    monkeypatch.setattr(hyperspace, "hausdorff_distance_inf_formula",
                        recording_dual)
    assert check_hausdorff_axioms(None, seed - 7, trials).verdict == "PASS"
    assert packed == [pair for pa, pb, pc in want
                      for pair in ((pa, pb), (pa, pc), (pb, pc))]

    def prefixes(X):
        return [(v.prefix.runs, v.prefix.length) for v in X.plain]

    assert [(prefixes(A), prefixes(B)) for A, B in sets] == [
        (prefixes(_as_set(pa, horizon)), prefixes(_as_set(pb, horizon)))
        for pa, pb, _ in want]


@pytest.mark.parametrize("route", ["hausdorff_distance",
                                   "hausdorff_distance_inf_formula"])
def test_hausdorff_axioms_fails_on_a_wrong_route(monkeypatch, route):
    assert check_hausdorff_axioms(None, 0, trials=40).verdict == "PASS"
    right = getattr(hyperspace, route)

    def halved(A, B):
        d, trunc = right(A, B)
        return d / 2, trunc

    monkeypatch.setattr(hyperspace, route, halved)
    rep = check_hausdorff_axioms(None, 0, trials=40)
    assert rep.verdict == "FAIL"
    trials = [f["trial"] for f in rep.witnesses[0]["failures"]]
    assert trials and trials == sorted(set(trials))
    assert all(0 <= t < 40 for t in trials)


def test_hausdorff_axioms_fails_when_equal_words_seem_to_differ(monkeypatch):
    # the library route must compare each member of A with itself: a
    # first difference of 1 for two equal words makes d_H(A, A) nonzero
    assert check_hausdorff_axioms(None, 0, trials=40).verdict == "PASS"
    right = hyperspace.first_difference

    def misreads_equal_words(a, b):
        j = right(a, b)
        return 1 if j is None and a.runs == b.runs else j

    monkeypatch.setattr(hyperspace, "first_difference", misreads_equal_words)
    rep = check_hausdorff_axioms(None, 0, trials=40)
    assert rep.verdict == "FAIL"
    assert all(not f["checks"][2] for f in rep.witnesses[0]["failures"])


@pytest.mark.parametrize("shift", [1, 10_000], ids=["by-one", "past-the-word"])
def test_independence_fails_when_occurrences_shift(monkeypatch, shift):
    # a scan that reports every occurrence late still finds every pattern
    # of the dense word, all at wrong positions; reading the witnesses
    # back from the word must catch them, and a read past its end fails
    # as well, without an IndexRangeError
    assert checks.check_independence().verdict == "PASS"
    right = hyperspace.find_occurrences

    def shifted(text, pattern, **kw):
        return [p + shift for p in right(text, pattern, **kw)]

    monkeypatch.setattr(hyperspace, "find_occurrences", shifted)
    rep = checks.check_independence()
    assert rep.verdict == "FAIL"
    assert rep.witnesses[0]["dense_J012"] == "PASS"


def test_hausdorff_axioms_never_imports_numpy_random():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "from meansense.checks import check_hausdorff_axioms\n"
            "assert check_hausdorff_axioms(None, 0, trials=50).verdict == 'PASS'\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _remark_213_floats(rng):
    """One trial's float values as ``randint``/``choice`` draw them:
    (a, delta, M, sqrt_delta)."""
    length = rng.randint(1, 120)
    M = rng.choice([1, 1, 2, 4])
    a = [rng.randint(0, M * 1024) / 1024 for _ in range(length)]
    r = rng.randint(1, 1024) / 1024
    return a, r * r, M, r


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_remark_213_draws_what_randint_draws(monkeypatch, seed):
    # compared after scaling by D = 2^20
    rng = random.Random(20_000 + seed)
    want = []
    for _ in range(1000):
        a, delta, M, r = _remark_213_floats(rng)
        want.append((1 << 20, [int(v * (1 << 20)) for v in a],
                     int(delta * (1 << 20)), int(r * (1 << 20)), M << 20))
    got = []
    right = checks.scaled_sides

    def recording(*args):
        got.append(args)
        return right(*args)

    monkeypatch.setattr(checks, "scaled_sides", recording)
    assert check_remark_213(None, seed).verdict == "PASS"
    assert got == want


def _sides(rep):
    """(passed, sides) of ``scaled_sides`` as a conversion report prints
    them."""
    return rep.verdict == "PASS", tuple(
        (w["premise_holds"], w["holds"]) for w in rep.witnesses)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_remark_213_integer_route_matches_the_float_route(monkeypatch, seed):
    rng = random.Random(20_000 + seed)
    want = [_sides(mean_to_density_check(*_remark_213_floats(rng)))
            for _ in range(1000)]
    got, made = [], []
    right = checks.scaled_sides

    class Kept(random.Random):
        def __init__(self, x):
            super().__init__(x)
            made.append(self)

    def recording(*args):
        got.append(right(*args))
        return got[-1]

    monkeypatch.setattr(checks, "scaled_sides", recording)
    monkeypatch.setattr(checks.random, "Random", Kept)
    assert check_remark_213(None, seed).verdict == "PASS"
    assert got == want
    assert [m.getstate() for m in made] == [rng.getstate()]


def test_remark_213_fails_on_a_wrong_route(monkeypatch):
    right = checks.scaled_sides

    def side_i_at_delta(D, seq, d, r, m):
        return right(D, seq, d, d, m)

    monkeypatch.setattr(checks, "scaled_sides", side_i_at_delta)
    rep = check_remark_213(None, 0)
    assert rep.verdict == "FAIL"
    trials = rep.witnesses[0]["failing_trials"]
    assert trials and trials == sorted(set(trials))
    assert all(0 <= t < rep.params["trials"] for t in trials)


@pytest.mark.parametrize("unheld", [(0,), (1,), (0, 1)])
def test_remark_213_fails_when_a_premise_never_holds(monkeypatch, unheld):
    # a core whose premise never holds passes every trial vacuously
    right = checks.scaled_sides

    def premise_false(*args):
        passed, sides = right(*args)
        return passed, tuple((False, True) if i in unheld else side
                             for i, side in enumerate(sides))

    monkeypatch.setattr(checks, "scaled_sides", premise_false)
    rep = check_remark_213(None, 0)
    assert rep.verdict == "FAIL"
    held = [0 if i in unheld else n for i, n in enumerate([89, 119])]
    assert rep.witnesses == [{"premise_trials": held}]


def test_banach_equi_fails_when_the_sweep_reports_zero(monkeypatch, s3):
    assert checks.check_thm13_banach_equi(s3).verdict == "PASS"
    right = checks.banach_avg_distances

    def zeros(members, pairs, L, depth):
        return [AverageReport(0.0, r.window, 0.0, r.method, r.upper_exact,
                              r.rounding_bound)
                for r in right(members, pairs, L, depth)]

    monkeypatch.setattr(checks, "banach_avg_distances", zeros)
    assert checks.check_thm13_banach_equi(s3).verdict == "FAIL"


def test_banach_equi_fails_when_the_sweep_reports_a_smaller_window(
        monkeypatch, s3):
    # each report swapped for the window of least sum with that window's
    # true sum: the recomputed reported windows agree, and the dense sup
    # of the pair with the largest upper does not
    right = checks.banach_avg_distances

    def smallest(members, pairs, L, depth):
        out = []
        for (i, j), r in zip(pairs, right(members, pairs, L, depth)):
            x, y = members[i], members[j]
            values, _ = step_distance_array(
                x, y, min(x.horizon, y.horizon) - depth, depth)
            run = list(itertools.accumulate(values, initial=0.0))
            sums = list(map(operator.sub, run[L:], run))
            m = sums.index(min(sums))
            out.append(AverageReport(sums[m] / L, (m, m + L),
                                     r.truncation_correction, r.method,
                                     r.upper_exact, r.rounding_bound))
        return out

    monkeypatch.setattr(checks, "banach_avg_distances", smallest)
    assert checks.check_thm13_banach_equi(s3).verdict == "FAIL"


def test_cofinite_fails_when_the_route_covers_every_step(monkeypatch, s3):
    # steps 0..26 do not separate the family: the witness recomputes the
    # first step the route reports from two materialized members
    assert checks.check_thm13_cofinite(s3).verdict == "PASS"
    monkeypatch.setattr(checks, "sensitivity_times", lambda members, delta,
                        steps: IndexSet([0], [steps - 1], steps))
    assert checks.check_thm13_cofinite(s3).verdict == "FAIL"


def test_thm18_witness_fails_when_family_columns_read_too_near(
        monkeypatch, s3):
    # Q's 10,188 family columns are reduced in closed form; a reduction
    # that reads each column's nearest point of P at half its first
    # difference puts Q beyond epsilon
    assert checks.check_thm18_witness(s3).verdict == "PASS"
    right = hyperspace._family_columns
    monkeypatch.setattr(hyperspace, "_family_columns", lambda marks, cuts:
                        [j // 2 for j in right(marks, cuts)])
    assert checks.check_thm18_witness(s3).verdict == "FAIL"


def test_thm_unpos_fails_when_the_route_skips_the_members(monkeypatch):
    # a patched map that only shifts keeps the all-2 and all-3 members
    # apart, whatever the diameter route reports
    assert checks.check_thm_unpos().verdict == "PASS"
    monkeypatch.setattr(checks, "patched_step", lambda p, y_prefix: p.shift(1))
    monkeypatch.setattr(checks, "orbit_diam_sequence",
                        lambda members, steps, step_fn: ([1.0] + [0.0] * 63,
                                                         [False] * 64))
    assert checks.check_thm_unpos().verdict == "FAIL"


def test_cofinite_builds_no_per_step_list(s3):
    # the tail test reads the disagreement intervals and the CSV takes
    # 2,000 diameters, so the traced peak stays below one list of pointers
    # as long as the 119,999 steps
    checks.check_thm13_cofinite(s3)  # level words and run indexes cached
    tracemalloc.start()
    try:
        assert checks.check_thm13_cofinite(s3).verdict == "PASS"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 119_999


def test_marks_separate_reads_each_step_from_two_members(s3):
    # the step-i diameter of the family exceeds 1/2 exactly when its
    # position i+1 is a mark: every member then carries the lone 1 there
    # or a 0, while before the first mark all members share the block
    family = s3.witness_family(0, 27, 60, 120)
    want = [i for i in range(119)
            if diam_of_members([m.shift(i) for m in family])[0] > 0.5]
    assert want == list(range(27, 87))
    assert [i for i in range(119) if checks._marks_separate(family, i)] == want


def test_lemma31_fails_when_the_sweep_under_counts(monkeypatch, s3):
    assert checks.check_lemma31(s3).verdict == "PASS"
    monkeypatch.setattr(checks, "max_window_count", lambda index, window: (0, 0))
    assert checks.check_lemma31(s3).verdict == "FAIL"


@pytest.mark.parametrize("wrong", [
    lambda cnt, start: (cnt // 2, start),  # keeps the ratios' order
    lambda cnt, start: (cnt, 0),
], ids=["half-count", "start-0"])
def test_lemma32_fails_when_the_sweep_misreports(monkeypatch, s3, wrong):
    assert checks.check_lemma32_density(s3).verdict == "PASS"
    right = checks.banach_window_max
    monkeypatch.setattr(checks, "banach_window_max",
                        lambda F, window: wrong(*right(F, window)))
    assert checks.check_lemma32_density(s3).verdict == "FAIL"


def test_prop_p_system_fails_when_the_route_reports_zero(monkeypatch, s4):
    # every member first differs from x within the steps, so the route
    # must bound at least the harmonic number of the depth
    assert checks.check_prop_p_system(s4).verdict == "PASS"
    right = checks.cesaro_avg_distance

    def zero(x, y, n, depth):
        r = right(x, y, n, depth)
        return AverageReport(0.0, r.window, 0.0, r.method, Fraction(0))

    monkeypatch.setattr(checks, "cesaro_avg_distance", zero)
    assert checks.check_prop_p_system(s4).verdict == "FAIL"


def test_lemma_count3_fails_when_the_index_under_counts(monkeypatch, s4):
    assert checks.check_lemma_count3(s4).verdict == "PASS"
    monkeypatch.setattr(OccurrenceIndex, "count_range", lambda self, i, j: 0)
    assert checks.check_lemma_count3(s4).verdict == "FAIL"


def test_cylinder_member_lists_match_independent_scans(s3, s3_language):
    # each deep cylinder's members, read from those of the cylinder before
    # and a resumed scan, equal its own scan from the start: with lists
    # cut at one member, two, the check's 15 and 40, on the deep cylinders
    # and on a short word whose occurrences sit next to each other
    cases = [(s3_language, checks._s3_deep_cylinders(s3, 10),
              3 * s3.schedule.level(2).t + checks.DEFAULT_DEPTH + 100),
             (Word.from_string("1101100110100"),
              [Word.from_string(u) for u in ("1", "10", "100")], 3)]
    for src, cylinders, member_h in cases:
        for cap in (1, 2, 15, 40):
            lists = checks._cylinder_member_lists(src, cylinders, cap,
                                                  member_h)
            for u, members in zip(cylinders, lists):
                assert members == language.cylinder_members(src, u, cap,
                                                            member_h)


def test_lemma_windows_share_one_sweep_of_a4(monkeypatch, s3):
    # lemma-3.1's case (2, A, 4) and lemma-3.2-density's window t_2 sweep
    # the same word at the same window: the second reads the first's
    # cached result, which equals a sweep of the set's own runs
    t1, t2, t3 = (s3.schedule.level(n).t for n in (1, 2, 3))
    swept = []
    sweep = words.interval_window_max
    monkeypatch.setattr(words, "interval_window_max",
                        lambda *args: swept.append(args[3]) or sweep(*args))
    words.symbol_window_max.cache_clear()
    assert checks.check_lemma31(s3).verdict == "PASS"
    assert checks.check_lemma32_density(s3).verdict == "PASS"
    assert swept == [t1, t1, t2, t1, t3]
    E = checks.indicator_set_E(s3.transitive_prefix(s3.a_word(4).length))
    assert E.source == (s3.a_word(4), 1)
    for L in (t1, t2, t3):
        assert checks.banach_window_max(E, L) == sweep(E.los, E.his,
                                                       E.horizon, L)
    assert len(swept) == 5


def test_s3_window_rows_are_pinned(s3):
    # the recount witnesses only that each reported window holds its
    # reported count; a sweep that reports the first window with its true
    # count still PASSes both checks (3 at t_1 on A_3, B_3 and A_4, where
    # the maximum is 4), so the rows themselves are pinned
    words.symbol_window_max.cache_clear()
    rows = checks.check_lemma31(s3).witnesses[0]["windows"]
    assert [(r["word"], r["window"], r["max_count"], r["at"])
            for r in rows] == [("A_3", 24, 4, 1796), ("B_3", 24, 4, 5),
                               ("A_4", 4443, 117, 1)]
    rows = checks.check_lemma32_density(s3).params["windows"]
    assert [(r["L"], r["count"], r["start"]) for r in rows] == [
        (24, 4, 1795), (4443, 117, 0), (140800719, 31419, 0)]
