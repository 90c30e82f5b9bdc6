import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meansense import (
    BlockFamily,
    HorizonError,
    ParameterError,
    PointView,
    Provenance,
    Word,
    banach_avg_distance,
    banach_avg_distances,
    banach_window_max,
    cesaro_avg_distance,
    diam_of_members,
    diam_sequence,
    distance_sum,
    indicator_set_E,
    mean_to_density_check,
    point_metric,
    sensitivity_times,
    step_distance_array,
)
from meansense import FiniteSet, diagnostics
from meansense.checks import _thm18_points
from meansense.diagnostics import (
    DEFAULT_DEPTH,
    scaled_sides,
)
from meansense.reports import FAIL, PASS, AverageReport, Report, fmt17

from conftest import (
    expand,
    first_disagreement,
    index_set,
    naive_step_distances,
    separation_times,
)


def view(symbols):
    if isinstance(symbols, str):
        w = Word.from_string(symbols)
    else:
        w = Word.from_symbols(list(symbols))
    return PointView(w, Provenance("explicit-limit"))


def random_view(rng, n):
    sym = []
    while len(sym) < n:
        sym.extend([rng.randint(0, 1)] * rng.randint(1, 6))
    return view(sym[:n])


# -- index sets and densities -------------------------------------------


def test_indicator_set_examples(s3):
    assert len(indicator_set_E(view("0" * 40))) == 0
    assert indicator_set_E(view("1" + "0" * 39)).members == [0]
    x27 = s3.transitive_prefix(27)
    E = indicator_set_E(x27)
    assert E.members == [0, 1, 2, 24, 25, 26]
    assert len(E) == 6 and E.contains_range(0, 2) and E.contains_range(24, 26)
    assert not E.contains_range(2, 24) and not E.contains_range(26, 27)


def test_upper_density_of_x_meets_level_one_budget(s3):
    # prefix frequency of the 1-positions of x against the coarse per-level
    # budget (r+1) (|A_1|+|B_1|) / (r t_1) at n = |A_3|
    x = s3.transitive_prefix(s3.schedule.level(3).len_a)
    E = indicator_set_E(x)
    n = s3.schedule.level(3).len_a
    t1 = s3.schedule.level(1).t
    r = n // t1
    count = sum(p < n for p in E.members)
    assert count * (r * t1) <= (r + 1) * 6 * n


def test_index_set_runs_match_python_set_oracle():
    rng = random.Random(41)
    cases = [(set(), 1), (set(), 30), ({0}, 1), ({7}, 30), ({29}, 30),
             (set(range(30)), 30)]
    for _ in range(300):
        horizon = rng.randint(1, 80)
        cases.append((set(rng.sample(range(horizon),
                                     rng.randint(0, horizon))), horizon))
    for want, horizon in cases:
        F = index_set(list(want) * 2, horizon)
        assert F.members == sorted(want)
        assert len(F) == len(want)
        los, his = F.los, F.his
        # maximal runs: each holds members only, with a non-member on
        # either side
        for lo, hi in zip(los, his):
            assert lo <= hi
            assert lo - 1 not in want and hi + 1 not in want
        assert all(h + 1 < lo for h, lo in zip(his, los[1:]))
        for lo in range(-1, horizon + 1):
            for hi in range(lo - 1, horizon + 1):
                assert F.contains_range(lo, hi) == want.issuperset(
                    range(lo, hi + 1)), (want, lo, hi)


def test_index_sets_compare_and_hash_by_identity():
    F = index_set([1, 2, 5], 9)
    G = index_set([1, 2, 5], 9)
    assert F == F and F != G
    assert hash(F) == hash(F)
    assert {F, G, F} == {F, G}


def test_separation_times_match_flatnonzero():
    rng = random.Random(43)
    cases = [[], [1.0] * 9, [0.0] * 9, [0.5, 0.7], [0.7, 0.5, 0.7]]
    for _ in range(200):
        cases.append([rng.choice([0.0, 0.5, 1.0])
                      for _ in range(rng.randint(1, 60))])
    for values in cases:
        F = separation_times(values, 0.5)
        want = [i for i, v in enumerate(values) if v > 0.5]
        assert F.horizon == len(values)
        assert F.members == want
        assert len(F) == len(want)
        # the same maximal runs as the set built from its members
        G = index_set(want, len(values))
        assert (F.los, F.his) == (G.los, G.his)


def test_banach_window_max_examples():
    evens = index_set(range(0, 100, 2), 100)
    cnt, _ = banach_window_max(evens, 10)
    assert cnt == 5
    burst = index_set(range(40, 50), 200)
    cnt, start = banach_window_max(burst, 10)
    assert (cnt, start) == (10, 40)
    # every window of {1, 3} holds one member; the smallest start wins
    assert banach_window_max(index_set([1, 3], 4), 2) == (1, 0)


def test_banach_dominates_prefix_count():
    rng = random.Random(5)
    for _ in range(100):
        horizon = rng.randint(10, 300)
        members = sorted(rng.sample(range(horizon), rng.randint(1, horizon // 2)))
        F = index_set(members, horizon)
        for L in (1, 7, horizon // 2, horizon):
            if L < 1 or L > horizon:
                continue
            cnt, _ = banach_window_max(F, L)
            prefix_cnt = sum(p < L for p in F.members)
            assert cnt >= prefix_cnt


def test_banach_window_max_matches_naive():
    rng = random.Random(11)
    for _ in range(300):
        horizon = rng.randint(5, 250)
        members = sorted(rng.sample(range(horizon),
                                    rng.randint(0, horizon - 1)))
        F = index_set(members, horizon)
        mask = [0] * horizon
        for p in members:
            mask[p] = 1
        cs = list(itertools.accumulate(mask, initial=0))
        L = rng.randint(1, horizon)
        counts = [cs[m + L] - cs[m] for m in range(horizon - L + 1)]
        want = (max(counts), counts.index(max(counts)))
        assert banach_window_max(F, L) == want


# -- pairwise distances --------------------------------------------------


def test_segments_follow_the_per_step_gap_rule():
    # the one statement of the gap rule against its definition: step i's
    # gap is the next disagreement p > i minus i, within the cap from near
    # on; step counts below, inside and past the last interval, and caps
    # from 1 to the depth
    rng = random.Random(239)
    for _ in range(200):
        depth = rng.randint(1, 40)
        marks = sorted(rng.sample(range(1, depth + 1),
                                  rng.randint(0, depth)))
        los, his = [], []
        for p in marks:  # maximal runs: merged, never adjacent
            if his and p == his[-1] + 1:
                his[-1] = p
            else:
                los.append(p)
                his.append(p)

        def gap(i):
            return next((p - i for p in marks if p > i), None)

        step_counts = [rng.randint(0, 5)]
        if los:
            step_counts = [rng.randint(0, los[-1] - 1),
                           rng.randint(los[-1], his[-1]),
                           his[-1] + rng.randint(1, 5)]
        for steps in step_counts:
            for cap in {1, depth, rng.randint(1, depth)}:
                seen = []
                for start, near, lo, end in diagnostics._segments(
                        los, his, steps, cap):
                    assert start <= near <= end <= steps
                    for i in range(start, end):
                        assert max(lo, i + 1) - i == gap(i)
                        assert (i >= near) == (gap(i) <= cap)
                    seen += range(start, end)
                # the segments tile the steps from 0; the steps past them
                # meet no disagreement
                assert seen == list(range(len(seen)))
                assert all(gap(i) is None for i in range(len(seen), steps))


def test_step_distances_match_naive_oracle():
    rng = random.Random(101)
    for trial in range(1000):
        n = rng.randint(80, 10_000 if trial % 100 == 0 else 600)
        depth = rng.choice([4, 16, 64])
        steps = rng.randint(1, n - depth)
        x, y = random_view(rng, n), random_view(rng, n)
        got_v, got_t = step_distance_array(x, y, steps, depth)
        want_v, want_t = naive_step_distances(
            expand(x.prefix), expand(y.prefix), steps, depth)
        assert got_t == want_t
        assert got_v == want_v


@pytest.mark.parametrize("x, y, depth", [
    ("0110" * 10, "0110" * 10, 4),          # no disagreement at all
    ("0" * 40, "0" * 39 + "1", 4),          # only at the horizon
    ("0" * 40, "0" * 39 + "1", 36),
    ("1" + "0" * 39, "0" * 40, 4),          # only at position 1
    ("0011" * 10, "1100" * 10, 1),          # everywhere
])
def test_step_distances_edge_cases_match_naive_oracle(x, y, depth):
    x, y = view(x), view(y)
    n = x.horizon - depth  # the last position compared is the horizon
    got_v, got_t = step_distance_array(x, y, n, depth)
    want_v, want_t = naive_step_distances(
        expand(x.prefix), expand(y.prefix), n, depth)
    assert got_t == want_t
    assert got_v == want_v


def test_distance_sum_matches_array_path():
    rng = random.Random(103)
    for _ in range(300):
        n = rng.randint(80, 500)
        depth = rng.choice([4, 64])
        steps = rng.randint(1, n - depth)
        x, y = random_view(rng, n), random_view(rng, n)
        total, truncated, exact = distance_sum(x, y, steps, depth)
        v, t = step_distance_array(x, y, steps, depth)
        assert truncated == sum(t)
        assert math.isclose(total, sum(v), rel_tol=1e-12, abs_tol=1e-12)
        # exact oracle: 1/g per step from the expanded symbols
        a, b = expand(x.prefix), expand(y.prefix)
        want = Fraction(0)
        for i in range(steps):
            g = first_disagreement(a[i:i + depth], b[i:i + depth])
            if g:
                want += Fraction(1, g)
        assert exact == want


def test_distance_sum_scales_to_huge_ranges():
    # a pair of two-run views compared over 10^12 steps, closed form
    big = 10 ** 12
    x = PointView(Word(2, [(1, 1), (0, big + 100)]), Provenance("explicit-limit"))
    y = PointView(Word(2, [(0, big + 101)]), Provenance("explicit-limit"))
    total, truncated, exact = distance_sum(x, y, big, 64)
    assert total == 1.0  # the single disagreement at position 1
    assert exact == 1
    assert truncated == big - 1


def test_cesaro_examples():
    x = view("1" * 8 + "0" * 72)
    y = view("0" * 80)
    rep = cesaro_avg_distance(x, y, 8, depth=16)
    assert rep.value == 1.0  # every early step differs at the first symbol
    assert rep.upper_exact == 1
    same = cesaro_avg_distance(x, x, 10, depth=16)
    assert same.value == 0.0
    assert math.isclose(same.truncation_correction, 1 / 17)
    assert same.upper_exact == Fraction(1, 17)


def test_banach_avg_dominates_initial_window():
    rng = random.Random(107)
    for _ in range(100):
        n = rng.randint(150, 400)
        x, y = random_view(rng, n), random_view(rng, n)
        L = rng.randint(10, 80)
        b = banach_avg_distance(x, y, L, depth=16)
        v, _ = step_distance_array(x, y, L, 16)
        assert b.value >= sum(v) / L - 1e-12


def test_banach_avg_requires_window_room():
    x, y = view("0" * 50), view("0" * 50)
    with pytest.raises(HorizonError):
        banach_avg_distance(x, y, 64, depth=16)
    with pytest.raises(ParameterError):
        banach_avg_distance(x, y, 0, depth=16)
    with pytest.raises(ParameterError):
        banach_avg_distance(x, y, 4, depth=0)


def naive_banach_avg_distance(x, y, L, depth):
    """The dense sweep: one distance per usable step, running sums added
    in order, window differences and the first argmax."""
    steps = min(x.horizon, y.horizon) - depth
    d, trunc = step_distance_array(x, y, steps, depth)
    cs = list(itertools.accumulate(d, initial=0.0))
    ct = list(itertools.accumulate(trunc, initial=0))
    starts = range(steps - L + 1)
    sums = [cs[m + L] - cs[m] for m in starts]
    tcounts = [ct[m + L] - ct[m] for m in starts]
    best = max(sums)
    value = best / L
    corrected = max(s + t / (depth + 1) for s, t in zip(sums, tcounts)) / L
    m = sums.index(best)
    return AverageReport(value=value, window=(m, m + L),
                         truncation_correction=corrected - value)


def exact_banach_upper(x, y, L, depth):
    """Exact corrected sup: 1/g per step whose first disagreement is g <=
    depth ahead, 1/(depth+1) per truncated step, from expanded symbols."""
    a, b = expand(x.prefix), expand(y.prefix)
    steps = min(x.horizon, y.horizon) - depth
    lcm = math.lcm(*range(1, depth + 2))
    weights = []
    for i in range(steps):
        g = first_disagreement(a[i:i + depth], b[i:i + depth]) or depth + 1
        weights.append(lcm // g)
    cs = [0, *itertools.accumulate(weights)]
    best = max(cs[m + L] - cs[m] for m in range(steps - L + 1))
    return Fraction(best, lcm * L)


def _banach_cases(rng):
    """(x, y, L, depth): random pairs and the edges of the sweep."""
    for trial in range(600):
        n = rng.randint(2, 160)
        depth = rng.choice([1, 1, 2, 3, 5, 16])
        if n <= depth:
            continue
        xs = [rng.randint(0, 1) for _ in range(n)]
        if trial % 3 == 0:  # independent words: dense disagreements
            ys = [rng.randint(0, 1) for _ in range(n)]
        else:  # a few disagreement bursts, ties between windows
            ys = list(xs)
            for _ in range(rng.randint(0, 5)):
                p = rng.randrange(n)
                for q in range(p, min(n, p + rng.randint(1, 4))):
                    ys[q] ^= 1
        steps = n - depth
        L = rng.choice([1, steps, rng.randint(1, steps)])
        yield view(xs), view(ys), L, depth
    zeros = "0" * 40
    for depth in (1, 4, 16):
        for L in (1, 7, 40 - depth):
            yield view(zeros), view(zeros), L, depth  # equal words
            yield view(zeros), view("1" + zeros[1:]), L, depth  # position 1
            yield view(zeros), view(zeros[1:] + "1"), L, depth  # horizon


def test_banach_sweep_matches_dense_oracle_and_exact_upper():
    rng = random.Random(109)
    for x, y, L, depth in _banach_cases(rng):
        got = banach_avg_distance(x, y, L, depth)
        want = naive_banach_avg_distance(x, y, L, depth)
        assert (got.value, got.truncation_correction, got.window) == (
            want.value, want.truncation_correction, want.window)
        exact = exact_banach_upper(x, y, L, depth)
        assert abs(Fraction(got.upper) - exact) <= Fraction(got.rounding_bound)


def _member_lists(rng):
    """(members, L, depth): member lists for the batched sweep, every pair
    of which is compared."""
    for trial in range(60):
        alphabet = 4 if trial % 4 == 3 else 2
        n = rng.randint(20, 140)
        depth = rng.choice([1, 2, 3, 5, 16])
        base = [rng.randrange(alphabet) for _ in range(n)]
        words = [list(base)]
        for _ in range(rng.randint(1, 9)):
            w = list(base)
            for _ in range(rng.randint(0, 6)):  # disagreement bursts
                p = rng.randrange(n)
                for q in range(p, min(n, p + rng.randint(1, 5))):
                    w[q] = rng.randrange(alphabet)
            words.append(w)
        words.append(list(base))  # a duplicate of the base: K = 0 pairs
        if trial % 3 == 1:  # unequal horizons, all beyond the depth
            words = [w[:rng.randint(depth + 1, n)] for w in words]
        rng.shuffle(words)
        # a copy of the first longest member, which the binary lists walk
        # against: its walk is empty too
        words.append(list(max(words, key=len)))
        members = [PointView(Word.from_symbols(w, alphabet),
                             Provenance("explicit-limit")) for w in words]
        steps = min(len(w) for w in words) - depth
        yield members, rng.choice([1, steps, rng.randint(1, steps)]), depth


def test_batched_sweep_matches_each_pair_dense_oracle():
    # binary lists take the shared base walks, alphabet 4 walks each pair;
    # every list also pairs each member with itself
    rng = random.Random(113)
    for members, L, depth in _member_lists(rng):
        pairs = [(i, j) for i in range(len(members))
                 for j in range(i, len(members))]
        got = banach_avg_distances(members, pairs, L, depth)
        assert len(got) == len(pairs)
        for (i, j), r in zip(pairs, got):
            x, y = members[i], members[j]
            want = naive_banach_avg_distance(x, y, L, depth)
            assert (r.value, r.truncation_correction, r.window) == (
                want.value, want.truncation_correction, want.window)
            steps = min(x.horizon, y.horizon) - depth
            _, truncated = step_distance_array(x, y, steps, depth)
            K = truncated.count(False)
            assert r.rounding_bound == (3 * K * (K + 1) / L + 10) * 2.0 ** -53


def _report_fields(r):
    return r.value, r.truncation_correction, r.window


def _sweep_cases(s3):
    """(members, pairs, L, depth): random binary and alphabet-4 member
    lists with each pair in both orders, and the base pairs of
    thm-1.8-witness at S3 depth 4."""
    rng = random.Random(131)
    for members, L, depth in _member_lists(rng):
        yield (members, list(itertools.permutations(range(len(members)), 2)),
               L, depth)
    P = FiniteSet.of(_thm18_points(s3, 10_200))
    yield (P.members, [(0, 1), (0, 2), (1, 2)], s3.schedule.level(2).t,
           DEFAULT_DEPTH)


def _huge_trio(h):
    return [PointView(Word(2, runs), Provenance("explicit-limit"))
            for runs in ([(1, 1), (0, h - 1)],
                         [(0, 40), (1, 2), (0, h - 42)], [(0, h)])]


def test_sweep_matches_dense_oracle_on_reversed_and_s3_pairs(s3):
    for members, pairs, L, depth in _sweep_cases(s3):
        got = banach_avg_distances(members, pairs, L, depth)
        assert len(got) == len(pairs)
        for (i, j), r in zip(pairs, got):
            want = naive_banach_avg_distance(members[i], members[j], L, depth)
            assert _report_fields(r) == _report_fields(want)


def test_repeated_pairs_report_as_single_pairs(s3):
    # a call reports each pair on its own, however many pairs it asks for
    # and however often one repeats: the same pairs asked once and
    # repeated 25 times must report alike, on the oracle cases and on
    # three pairs at horizon 2^62
    cases = list(_sweep_cases(s3))
    cases.append((_huge_trio(2 ** 62), [(0, 1), (0, 2), (1, 2)], 7, 16))
    for members, pairs, L, depth in cases:
        pairs = pairs[:24]
        alone = banach_avg_distances(members, pairs, L, depth)
        repeated = banach_avg_distances(members, pairs * 25, L, depth)
        assert len(repeated) == 25 * len(pairs)
        for k, b in enumerate(repeated):
            a = alone[k % len(pairs)]
            assert (a.value, a.window, a.truncation_correction,
                    a.rounding_bound) == (
                b.value, b.window, b.truncation_correction,
                b.rounding_bound)


def test_batched_sweep_takes_huge_horizons_one_pair_at_a_time():
    # positions near 2^62 must not overflow; the reports equal those of the
    # same pairs at a short horizon, which the dense oracle checks; a call
    # with no pairs returns none
    pairs = [(0, 1), (1, 0), (0, 2), (1, 2), (2, 2)]
    short, huge = _huge_trio(200), _huge_trio(2 ** 62)
    for L in (1, 7, 60):
        at_short = banach_avg_distances(short, pairs, L, 16)
        at_huge = banach_avg_distances(huge, pairs, L, 16)
        for (i, j), a, b in zip(pairs, at_huge, at_short):
            want = naive_banach_avg_distance(short[i], short[j], L, 16)
            assert _report_fields(b) == _report_fields(want)
            assert (a.value, a.truncation_correction, a.window,
                    a.rounding_bound) == (b.value, b.truncation_correction,
                                          b.window, b.rounding_bound)
        assert banach_avg_distances(huge, [], L, 16) == []


def test_sweep_keeps_the_smallest_start_when_sums_tie():
    # real terms never tie, since each is at least 1/depth; a table of
    # zeros and equal terms makes window sums tie, and the plain sup and
    # its smallest start must still match the dense window sums over the
    # same per-step terms
    rng = random.Random(137)
    for _ in range(3000):
        depth = rng.choice([1, 2, 3, 5, 8])
        table = [0.0, *(rng.choice([0.0, 0.5, 1.0]) for _ in range(depth))]
        n = rng.randint(depth + 1, 90)
        steps = n - depth
        los, his, p = [], [], rng.randint(1, 6)
        while p <= n:
            q = min(n, p + rng.randint(0, 3))
            los.append(p)
            his.append(q)
            p = q + rng.randint(2, 12)
        terms = []  # 1.0 inside a disagreement, else table[gap] or 0.0
        for k in range(steps):
            lo = next((lo for lo, hi in zip(los, his) if hi > k), n + depth)
            terms.append(1.0 if k >= lo else
                         table[lo - k] if lo - k <= depth else 0.0)
        run = list(itertools.accumulate(terms, initial=0.0))
        L = rng.randint(1, steps)
        sums = [run[m + L] - run[m] for m in range(steps - L + 1)]
        r = diagnostics._sweep_pair(los, his, steps, L, depth, table)
        assert (r.value, r.window[0]) == (max(sums) / L,
                                          sums.index(max(sums)))


def test_batched_sweep_checks_its_arguments():
    x, y = view("0" * 50), view("1" * 60)
    assert banach_avg_distances([x, y], [], 4, depth=16) == []
    with pytest.raises(HorizonError):
        banach_avg_distances([x, y], [(1, 1), (0, 1)], 40, depth=16)
    with pytest.raises(ParameterError):
        banach_avg_distances([x, y], [(0, 1)], 0, depth=16)


# -- diameters -----------------------------------------------------------


def naive_diam_sequence(members, steps):
    # a found difference at nd <= H dominates every agreeing pair's bias
    # bound 1/(H-i+1), so a step is truncated only when NO pair separates
    values = []
    truncated = []
    H = min(m.horizon for m in members)
    syms = [expand(m.prefix)[:H] for m in members]
    for i in range(steps):
        best = 0.0
        for a in range(len(syms)):
            for b in range(a + 1, len(syms)):
                g = first_disagreement(syms[a][i:], syms[b][i:])
                if g:
                    best = max(best, 1.0 / g)
        values.append(best)
        truncated.append(len(syms) > 1 and best == 0.0)
    return values, truncated


def test_diam_sequence_matches_naive_pairwise():
    rng = random.Random(211)
    for _ in range(120):
        count = rng.randint(1, 6)
        n = rng.randint(30, 200)
        members = [random_view(rng, n) for _ in range(count)]
        steps = rng.randint(1, n)
        got_v, got_t = diam_sequence(members, steps)
        want_v, want_t = naive_diam_sequence(members, steps)
        assert got_v == want_v
        if count > 1:
            assert got_t == want_t


def _random_marks(rng, s, horizon):
    """A random step-1 range of marks inside (s, horizon]."""
    first = rng.randint(s + 1, horizon)
    return range(first, rng.randint(first, horizon) + 1)


def test_block_family_diam_matches_list_and_naive():
    # the family route (marks plus extras, no members) against the member
    # list route and the expanded pairwise oracle
    rng = random.Random(229)
    for _ in range(150):
        s = rng.randint(1, 8)
        block = random_view(rng, s).prefix
        horizon = rng.randint(s + 8, 60)
        marks = _random_marks(rng, s, horizon)
        extras = []
        for _ in range(rng.randint(0, 3)):
            n = rng.randint(horizon - 5, horizon + 5)
            tail = random_view(rng, n - s).prefix
            head = block if rng.random() < 0.5 else random_view(rng, s).prefix
            extras.append(PointView(Word(2, head.runs + tail.runs),
                                    Provenance("explicit-limit")))
        fam = BlockFamily(block, marks, horizon) + extras
        steps = rng.randint(1, min(m.horizon for m in fam))
        got_v, got_t = diam_sequence(fam, steps)
        for want_v, want_t in (diam_sequence(list(fam), steps),
                               naive_diam_sequence(list(fam), steps)):
            assert got_v == want_v
            assert got_t == want_t


def _family(block, marks, horizon, extras=()):
    block = view(block).prefix
    return BlockFamily(block, marks, horizon) + [
        PointView(Word(2, block.runs + view(t).prefix.runs),
                  Provenance("explicit-limit")) for t in extras]


def _gapped(block, marks, horizon, extras=()):
    # marks with gaps, which no family holds: the members as a plain list,
    # one single-mark family per mark, the extras riding on the last one
    return [m for p in marks[:-1]
            for m in _family(block, range(p, p + 1), horizon)] + list(
        _family(block, range(marks[-1], marks[-1] + 1), horizon, extras))


@pytest.mark.parametrize("members, steps", [
    # no disagreement at all
    ([view("0110" * 8)] * 3, 32),
    ([view("0110" * 8), view("0110" * 8 + "11")], 20),
    # a disagreement only at the shared horizon H, over all H steps
    ([view("0" * 30), view("0" * 29 + "1"), view("0" * 30)], 30),
    ([view("0" * 30), view("0" * 29 + "1" + "0101")], 30),
    # steps == H with disagreements throughout
    ([view("0011" * 8), view("0101" * 8), view("0110" * 8)], 32),
    # a random range of marks
    (_family("101", _random_marks(random.Random(239), 3, 24), 24), 24),
    # marks in several runs of consecutive positions, as a member list
    (_gapped("101", [4, 5, 6, 9, 12, 13, 24], 24, ["0" * 21]), 24),
    # marks up to the horizon, an extra with a 1 among them
    (_family("11", range(3, 31), 30, ["0" * 4 + "1" + "0" * 23]), 30),
    # every mark lies past a shorter extra's horizon: no mark enters
    (_family("101", range(50, 56), 60, ["0" * 37]), 40),
    (_family("101", range(50, 56), 60, ["0" * 30 + "1" * 7]), 40),
    (_family("101", range(50, 53), 60, ["0" * 37, "0" * 40]), 38),
])
def test_diam_sequence_edge_cases_match_naive(members, steps):
    got_v, got_t = diam_sequence(members, steps)
    for want_v, want_t in (diam_sequence(list(members), steps),
                           naive_diam_sequence(list(members), steps)):
        assert got_v == want_v
        assert got_t == want_t


def test_cofinite_diam_sequence_stays_within_four_step_arrays(s3):
    # the thm-1.3-cofinite family: its 119,972 marks enter the union as one
    # run, and the sweep holds a single int64 gap buffer beside the step
    # vector, so the traced peak stays below four int64 arrays of the steps
    horizon = 120_000
    steps = horizon - 1
    members = (s3.witness_family(0, 27, horizon - 28, horizon)
               + [s3.shift_view(0, horizon)])
    tracemalloc.start()
    try:
        values, _ = diam_sequence(members, steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(v > 0.5 for v in values[28:])
    assert peak < 4 * 8 * steps


def test_diam_singleton_is_zero():
    v, t = diam_sequence([view("0101")], 4)
    assert all(x == 0 for x in v)
    assert not any(t)


def test_diam_monotone_under_member_inclusion():
    rng = random.Random(223)
    for _ in range(60):
        n = 120
        members = [random_view(rng, n) for _ in range(4)]
        small, _ = diam_sequence(members[:2], 50)
        large, _ = diam_sequence(members, 50)
        assert all(a >= b - 1e-15 for a, b in zip(large, small, strict=True))


def test_sensitivity_times_threshold_monotone():
    rng = random.Random(227)
    members = [random_view(rng, 200) for _ in range(4)]
    weak = sensitivity_times(members, 0.25, 100)
    strong = sensitivity_times(members, 0.5, 100)
    assert set(strong.members) <= set(weak.members)


def _deltas(rng, H):
    # the thresholds of the checks, 1.0/g itself and its float neighbours
    # for gaps g around the rounding boundaries, and the constant readings
    g = rng.randint(1, H)
    return [1 / 3, 0.5, 1.0, 1.0 / g, math.nextafter(1.0 / g, 0.0),
            math.nextafter(1.0 / g, 1.0), 1.0 / H, 0.0, -0.25, 2.0,
            float("nan")]


def test_sensitivity_times_intervals_match_value_route(s3):
    # the interval route against separation_times over diam_sequence's
    # per-step values, on witness families and random member sets
    rng = random.Random(233)
    cases = []
    for horizon in (120, 600, 5000):
        fam = s3.witness_family(0, 27, count=horizon - 28, horizon=horizon)
        cases.append(fam + [s3.shift_view(0, horizon)])
        cases.append(fam + [s3.shift_view(3, horizon - 7)])
    cases.append(s3.witness_family(0, 27, count=40, horizon=600))
    for _ in range(120):
        n = rng.randint(8, 80)
        if rng.random() < 0.5:
            members = [random_view(rng, rng.randint(n, n + 5))
                       for _ in range(rng.randint(1, 4))]
        else:
            s = rng.randint(1, 6)
            block = random_view(rng, s).prefix
            marks = _random_marks(rng, s, n)
            members = BlockFamily(block, marks, n) + [
                random_view(rng, rng.randint(n - 3, n + 3))
                for _ in range(rng.randint(0, 2))]
        cases.append(members)
    for members in cases:
        H = min(m.horizon for m in members)
        steps = rng.choice([H, H - 1, rng.randint(0, H)])
        values = diam_sequence(members, steps)[0]
        for delta in _deltas(rng, H):
            got = sensitivity_times(members, delta, steps)
            want = separation_times(values, delta)
            assert (list(got.los), list(got.his), got.horizon) == \
                (list(want.los), list(want.his), want.horizon), delta


def test_sensitivity_witness_family(s3):
    horizon = 600
    fam = s3.witness_family(0, 27, count=horizon - 28, horizon=horizon)
    members = fam + [s3.shift_view(0, horizon)]
    sens = sensitivity_times(members, 0.5, horizon - 1)
    assert sens.contains_range(28, horizon - 2)


def test_diam_mean_avg_cases():
    assert sum(diam_sequence([view("0" * 30)], 10)[0]) / 10 == 0.0
    two = [view("0" * 30), view("0" * 30)]
    assert sum(diam_sequence(two, 10)[0]) / 10 == 0.0


def test_sensitivity_singleton_is_empty():
    assert len(sensitivity_times([view("0101" * 8)], 0.1, 16)) == 0


def test_diam_mean_of_witness_family_near_half_or_more(s3):
    # past the shared block the family separates fully, so the running
    # average dominates (n - m - s) / n at threshold 1/2 scale
    n, m, s = 400, 0, 27
    fam = s3.witness_family(m, s, count=n - s, horizon=n + 4)
    members = fam + [s3.shift_view(m, n + 4)]
    assert sum(diam_sequence(members, n)[0]) / n >= (n - m - s) / (2 * n)


# -- conversion inequalities ---------------------------------------------


def test_mean_to_density_zero_sequence():
    rep = mean_to_density_check([0.0] * 50, 0.25, 1, sqrt_delta=0.5)
    assert rep.passed
    sides = {w["side"]: w for w in rep.witnesses}
    assert sides["mean->density"]["premise_holds"]
    assert sides["density->mean"]["premise_holds"]


def test_mean_to_density_boundary_case():
    M = 3
    delta = M / (M + 1)
    rep = mean_to_density_check([float(M)] * 40, delta, M)
    assert rep.passed


def test_mean_to_density_rejects_bad_input():
    with pytest.raises(ParameterError, match=r"\[0, M\]"):
        mean_to_density_check([2.0], 0.5, 1)
    with pytest.raises(ParameterError, match="positive"):
        mean_to_density_check([0.5], 0.0, 1)


def test_integer_core_rejects_bad_input():
    # the scaling that opens the check refuses a value past M or below 0
    # after earlier values, and a non-positive delta
    with pytest.raises(ParameterError, match=r"\[0, M\]"):
        mean_to_density_check([0.5, 2.0], 0.5, 1)
    with pytest.raises(ParameterError, match=r"\[0, M\]"):
        mean_to_density_check([-0.25, 0.5], 0.5, 1)
    with pytest.raises(ParameterError, match="positive"):
        mean_to_density_check([0.5], 0.0, 1)


def test_integer_core_reads_an_iterator_once():
    # the check reads each value once, so an iterator reads as its list
    a = [0.5, Fraction(1, 3), 1, 0.25]
    want = mean_to_density_check(a, 0.25, 1, 0.5)
    got = mean_to_density_check(iter(a), 0.25, 1, 0.5)
    assert got.to_json_str() == want.to_json_str()
    assert want.params["length"] == 4


def test_mean_to_density_randomized():
    rng = random.Random(1009)
    for _ in range(300):
        length = rng.randint(1, 60)
        M = rng.choice([1, 2])
        a = [rng.randint(0, M * 64) / 64 for _ in range(length)]
        r = rng.randint(1, 64) / 64
        rep = mean_to_density_check(a, r * r, M, sqrt_delta=r)
        assert rep.passed


def naive_mean_to_density_check(a, delta, M, sqrt_delta=None):
    """Oracle for ``mean_to_density_check``: every value a ``Fraction``,
    every prefix ratio built and compared as a ``Fraction``."""
    if delta <= 0:
        raise ParameterError("delta must be positive")
    seq = [Fraction(v) for v in a]
    Mf = Fraction(M)
    if any(v < 0 or v > Mf for v in seq):
        raise ParameterError("sequence values must lie in [0, M]")
    df = Fraction(delta)
    rt = Fraction(sqrt_delta) if sqrt_delta is not None else Fraction(
        math.sqrt(delta))
    rep = Report("mean-to-density", params={
        "delta": fmt17(delta), "M": fmt17(M), "length": len(seq),
        "sqrt_delta": fmt17(float(rt)),
    })
    if not seq:
        rep.verdict = PASS
        rep.caveats.append("empty sequence: vacuous")
        return rep

    def max_prefix_avg(vals):
        best = Fraction(0)
        run = Fraction(0)
        for n, v in enumerate(vals, start=1):
            run += v
            best = max(best, run / n)
        return best

    def max_prefix_density(thresh):
        best = Fraction(0)
        cnt = 0
        for n, v in enumerate(seq, start=1):
            if v >= thresh:
                cnt += 1
            best = max(best, Fraction(cnt, n))
        return best

    avg = max_prefix_avg(seq)
    side1_premise = avg <= df
    side1_density = max_prefix_density(rt)
    side1_ok = (not side1_premise) or side1_density <= rt
    side2_density = max_prefix_density(df)
    side2_premise = side2_density <= df
    side2_ok = (not side2_premise) or avg <= (Mf + 1) * df
    rep.witnesses = [
        {"side": "mean->density", "premise_holds": side1_premise,
         "max_prefix_avg": fmt17(float(avg)),
         "density_at_sqrt_delta": fmt17(float(side1_density)),
         "holds": side1_ok,
         "margin": fmt17(float(rt - side1_density)) if side1_premise else None},
        {"side": "density->mean", "premise_holds": side2_premise,
         "density_at_delta": fmt17(float(side2_density)),
         "bound": fmt17(float((Mf + 1) * df)),
         "holds": side2_ok,
         "margin": fmt17(float((Mf + 1) * df - avg)) if side2_premise else None},
    ]
    rep.verdict = PASS if (side1_ok and side2_ok) else FAIL
    if sqrt_delta is None:
        rep.caveats.append("sqrt(delta) taken as the nearest float")
    return rep


def _scaled(a, delta, M, sqrt_delta):
    """(D, seq, d, r, m): the sequence, delta, sqrt_delta (the nearest
    float to sqrt(delta) when None) and M, each an integer over their least
    common denominator D, by ``Fraction``."""
    if sqrt_delta is None:
        sqrt_delta = math.sqrt(delta)
    values = [Fraction(v) for v in (delta, sqrt_delta, M, *a)]
    D = math.lcm(*(v.denominator for v in values))
    d, r, m, *seq = (int(v * D) for v in values)
    return D, seq, d, r, m


@st.composite
def _conversion_inputs(draw):
    """Sequences on a dyadic grid (floats j/2^k), a non-dyadic float grid
    (j/7) or a rational grid (Fraction(j, q)); delta either the square of a
    grid point (passed as sqrt_delta) or a grid point (sqrt left to the
    function).  Values equal to delta or sqrt(delta) are drawn on purpose."""
    M = draw(st.sampled_from([0.5, 1, 2, 3, 4]))
    grid = draw(st.sampled_from(["dyadic", "sevenths", "fraction"]))
    if grid == "dyadic":
        q = 2 ** draw(st.integers(0, 10))
        make = lambda j: j / q
    elif grid == "sevenths":
        q = 7
        make = lambda j: j / 7
    else:
        q = draw(st.sampled_from([3, 7, 12]))
        make = lambda j: Fraction(j, q)
    top = math.floor(M * q)
    if draw(st.booleans()):
        sqrt_delta = make(draw(st.integers(1, max(top, 1))))
        delta = sqrt_delta * sqrt_delta
        thresholds = [delta, sqrt_delta]
    else:
        sqrt_delta = None
        delta = make(draw(st.integers(1, max(top, 1))))
        thresholds = [delta, math.sqrt(delta)]
    points = st.integers(0, top).map(make)
    edges = [t for t in thresholds if 0 <= t <= M]
    if edges:
        points = st.one_of(points, st.sampled_from(edges))
    a = draw(st.lists(points, max_size=60))
    return a, delta, M, sqrt_delta


@settings(max_examples=400, deadline=None)
@given(args=_conversion_inputs())
def test_mean_to_density_matches_fraction_oracle(args):
    a, delta, M, sqrt_delta = args
    want = naive_mean_to_density_check(a, delta, M, sqrt_delta=sqrt_delta)
    got = mean_to_density_check(a, delta, M, sqrt_delta=sqrt_delta)
    assert got.verdict == want.verdict
    assert got.params == want.params
    assert got.witnesses == want.witnesses
    assert got.caveats == want.caveats


@settings(max_examples=400, deadline=None)
@given(args=_conversion_inputs())
def test_integer_core_matches_fraction_oracle(args):
    a, delta, M, sqrt_delta = args
    want = naive_mean_to_density_check(a, delta, M, sqrt_delta=sqrt_delta)
    passed, sides = scaled_sides(*_scaled(a, delta, M, sqrt_delta))
    assert passed == (want.verdict == PASS)
    assert sides == tuple((w["premise_holds"], w["holds"])
                          for w in want.witnesses)


@settings(max_examples=200, deadline=None)
@given(args=_conversion_inputs(), k=st.integers(1, 1 << 20))
def test_scaled_core_takes_any_common_denominator(args, k):
    a, delta, M, sqrt_delta = args
    D, seq, d, r, m = _scaled(a, delta, M, sqrt_delta)
    assert scaled_sides(k * D, [k * v for v in seq], k * d, k * r,
                        k * m) == scaled_sides(D, seq, d, r, m)


class _FloatSubclass(float):
    """A float subclass, as numpy's float64 is: its non-finite values take
    the float path and must be refused there too."""


_NON_FINITE = [
    ([math.nan], 0.25, 1, None),
    ([0.5, math.inf], 0.25, 1, None),
    ([0.5, -math.inf], 0.25, 1, 0.5),
    ([0.5], math.nan, 1, None),
    ([0.5], math.inf, 1, None),
    ([0.5], 0.25, math.nan, 0.5),
    ([0.5], 0.25, math.inf, None),
    ([0.5], 0.25, 1, math.nan),
    ([0.5], 0.25, 1, math.inf),
    ([], 0.25, 1, math.nan),
    pytest.param([0.5], 10**400, 1, None, id="delta-beyond-float"),
    pytest.param([0.5], 0.25, 10**400, None, id="M-beyond-float"),
    pytest.param([0.5], 0.25, 1, 10**400, id="sqrt_delta-beyond-float"),
    pytest.param([0.5], 1e200, 1e200, None, id="bound-beyond-float"),
    # sequence values past finite floats, after finite ones
    pytest.param([0.25, 0.5, math.nan], 0.25, 1, 0.5, id="nan-after-floats"),
    pytest.param([0.25, math.inf, 0.5], 0.25, 1, 0.5, id="inf-after-floats"),
    pytest.param([0.5, _FloatSubclass(math.inf)], 0.25, 1, 0.5,
                 id="float-subclass-inf"),
    pytest.param([0.5, _FloatSubclass(math.nan)], 0.25, 1, 0.5,
                 id="float-subclass-nan"),
    pytest.param([0.5, 10**400], 0.25, 1, 0.5, id="int-beyond-float"),
    pytest.param([0.5, Fraction(10**400, 3)], 0.25, 1, 0.5,
                 id="fraction-beyond-float"),
]


@pytest.mark.parametrize("a, delta, M, sqrt_delta", _NON_FINITE)
def test_mean_to_density_rejects_non_finite(a, delta, M, sqrt_delta):
    with pytest.raises(ParameterError, match="finite"):
        mean_to_density_check(a, delta, M, sqrt_delta=sqrt_delta)


@pytest.mark.parametrize("a, delta, M, sqrt_delta", _NON_FINITE)
def test_integer_core_rejects_non_finite(a, delta, M, sqrt_delta):
    # the sequence read once, as an iterator, is refused alike
    with pytest.raises(ParameterError, match="finite"):
        mean_to_density_check(iter(a), delta, M, sqrt_delta=sqrt_delta)
