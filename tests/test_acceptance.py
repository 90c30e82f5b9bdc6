"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here.  Exact claims are asserted in integer or
rational arithmetic; statistical claims state their sample sizes inline.
"""

import itertools
import random
import time

from meansense import (
    FiniteSet,
    IndexSet,
    OccurrenceIndex,
    PointView,
    Provenance,
    Word,
    banach_avg_distance,
    banach_window_max,
    check_dense_periodic_desk,
    check_transitive_desk,
    cylinder_members,
    family_hausdorff,
    hausdorff_distance,
    hausdorff_distance_inf_formula,
    hyper_mean_avg,
    hyper_witness_family,
    indicator_set_E,
    max_window_count,
    mean_to_density_check,
    orbit_diam_sequence,
    sensitivity_times,
    step_distance_array,
    tk_step,
    union_factor,
)
from meansense.checks import (
    _CONTRAST_EPSILON,
    _s3_deep_cylinders,
    _thm18_points,
    _triangle_holds,
    check_prop_p_system,
)
from meansense.constructions import minimal_generator, patched_point, patched_step
from meansense.diagnostics import DEFAULT_DEPTH
from meansense.hyperspace import _hausdorff_first_difference
from meansense.constructions import GeneratorDescriptor

from conftest import naive_step_distances, naive_window_max


def _verdict(num, ok, detail):
    line = f"criterion-{num:02d} {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_01_schedule_exactness(s3):
    t0 = time.time()
    c = s3
    sched = c.schedule
    exact = (
        sched.level(1).k == 9
        and sched.level(2).len_a == 27
        and sched.level(2).len_b == 840
        and sched.level(2).k == 1788
        and sched.level(3).len_a == 4470
    )
    ones_a = {1: c.a_word(1).count(1)}
    ones_b = {1: c.b_word(1).count(1)}
    counts_ok = ones_a[1] == 3 and ones_b[1] == 0
    for n in (2, 3):
        lv = sched.level(n)
        a, b = c.level_words(n)
        ones_b[n] = b.count(1)
        ones_a[n] = a.count(1)
        counts_ok = counts_ok and a.length == lv.len_a and b.length == lv.len_b
        counts_ok = counts_ok and ones_b[n] == (lv.len_a + 1) * ones_a[n - 1] + lv.len_a
        counts_ok = counts_ok and ones_a[n] == 2 * ones_a[n - 1] + ones_b[n - 1]
    elapsed = time.time() - t0
    _verdict(1, exact and counts_ok and elapsed < 1.0,
             f"schedule and 1-counts exact, {elapsed:.3f}s < 1s")


def test_criterion_02_window_count_bound(s3):
    t0 = time.time()
    c = s3
    t1, bound1 = c.schedule.level(1).t, 3 + 3
    t2 = c.schedule.level(2).t
    bound2 = c.schedule.level(2).len_a + c.schedule.level(2).len_b
    m_a3, _ = max_window_count(OccurrenceIndex(c.a_word(3)), t1)
    m_b3, _ = max_window_count(OccurrenceIndex(c.b_word(3)), t1)
    x4 = c.transitive_prefix(c.schedule.level(4).len_a)
    m_a4, _ = max_window_count(OccurrenceIndex(x4.prefix), t2)
    elapsed = time.time() - t0
    ok = (m_a3 <= bound1 and m_b3 <= bound1 and m_a4 <= bound2
          and elapsed < 120.0)
    # frozen exact maxima, independently derived by expanded-word sweeps
    assert (m_a3, m_b3, m_a4) == (4, 4, 117)
    _verdict(2, ok, f"window maxima ({m_a3},{m_b3}) <= {bound1} at L={t1}; "
                    f"{m_a4} <= {bound2} at L={t2} over 1.4e8 symbols; "
                    f"{elapsed:.1f}s < 120s")


def test_criterion_03_banach_density_trend(s3):
    c = s3
    x4 = c.transitive_prefix(c.schedule.level(4).len_a)
    E = indicator_set_E(x4)
    counts = []
    for n in (1, 2, 3):
        L = c.schedule.level(n).t
        cnt, _ = banach_window_max(E, L)
        counts.append((L, cnt))
    # strict decrease, compared as exact cross products
    decreasing = all(counts[i][1] * counts[i + 1][0]
                     > counts[i + 1][1] * counts[i][0] for i in range(2))
    lv3 = c.schedule.level(3)
    budget = counts[2][1] <= 2 * (lv3.len_a + lv3.len_b)
    _verdict(3, decreasing and budget,
             f"ratios {[f'{cnt}/{L}' for L, cnt in counts]} strictly decrease; "
             f"final count {counts[2][1]} <= {2 * (lv3.len_a + lv3.len_b)}")


def test_criterion_04_cofinite_sensitivity_witness(s3):
    c = s3
    horizon = 120_000
    m, s = 0, 27
    family = c.witness_family(m, s, horizon - s - 1, horizon)
    members = family + [c.shift_view(m, horizon)]
    sens = sensitivity_times(members, 0.5, horizon - 1)
    lo, hi = m + s + 1, horizon - 2
    ok = sens.contains_range(lo, hi)
    _verdict(4, ok, f"separation times contain ({m + s}, {hi}] at horizon "
                    f"{horizon} (family of {len(family)})")


def test_criterion_05_banach_mean_equicontinuity(s3):
    c = s3
    la = c.transitive_prefix(c.schedule.level(4).len_a).prefix
    t2 = c.schedule.level(2).t
    eps = 0.05
    member_h = 3 * t2 + DEFAULT_DEPTH + 100
    cylinders = _s3_deep_cylinders(c, 10)
    total_pairs = 0
    worst = 0.0
    ok = True
    for u in cylinders:
        members = cylinder_members(la, u, max_members=15,
                                   member_horizon=member_h)
        pairs = list(itertools.combinations(members, 2))[:100]
        ok = ok and len(pairs) >= 100
        for y1, y2 in pairs:
            r = banach_avg_distance(y1, y2, t2, depth=DEFAULT_DEPTH)
            worst = max(worst, r.upper)
            ok = ok and r.upper + r.rounding_bound < eps
        total_pairs += len(pairs)
    _verdict(5, ok, f"{total_pairs} pairs in {len(cylinders)} cylinders, "
                    f"worst corrected Banach average {worst:.4f} < {eps}")


def test_criterion_06_mean_equicontinuous_transitive_point(s4):
    eps = 0.1
    rep = check_prop_p_system(s4, epsilon=eps)
    ok = rep.passed
    terms = [float(rep.params["term_linear"]), float(rep.params["term_const"]),
             float(rep.params["term_zero_cap"])]
    ok = ok and all(t < eps / 4 for t in terms)
    members = rep.witnesses[1]["members"]
    ok = ok and all(float(r["cesaro_upper"]) < eps for r in members)
    _verdict(6, ok, f"witnessing depth m={rep.params['witnessing_m']}, "
                    f"n={rep.params['steps']:.0f} steps; chain terms "
                    f"{[f'{t:.4f}' for t in terms]} each < {eps / 4}; "
                    f"{len(members)} cylinder members within {eps}")


def test_criterion_07_devaney_desk_checks(s4):
    c = s4
    la = c.transitive_prefix(c.schedule.level(4).len_a).prefix
    r1 = check_transitive_desk(la, 4)
    r2 = check_dense_periodic_desk(c, la, 4)
    witnesses = r2.witnesses[0]["witness_table"] if r2.passed else {}
    ok = r1.passed and r2.passed and len(witnesses) >= 1
    _verdict(7, ok, f"transitive desk PASS and {len(witnesses)} subwords "
                    f"periodic-witnessed at n=4")


def test_criterion_08_patched_system_collapse():
    steps = 64
    horizon = 2 * steps + 8
    y = Word(4, minimal_generator(GeneratorDescriptor("thue-morse"),
                                  horizon).runs)
    members = [
        patched_point(Word(4, [(2, horizon)]), horizon),
        patched_point(Word(4, [(3, horizon)]), horizon),
        patched_point(Word(4, ((2, 1), (3, 1)) * (horizon // 2)), horizon),
    ]
    values, truncated = orbit_diam_sequence(
        members, steps, lambda p: patched_step(p, y))
    ok = all(v == 0.0 for v in values[1:]) and not any(truncated[1:])
    _verdict(8, ok, f"diameter exactly 0 from step 1 through {steps - 1} "
                    f"(reset branch collapses the cylinder)")


def test_criterion_09_hyperspace_witness(s3):
    c = s3
    eps, n = 0.1, 10_000
    horizon = n + 200
    P = FiniteSet.of(_thm18_points(c, horizon))
    assert len(P) <= 3
    Q, wrep = hyper_witness_family(c, P, eps, horizon)
    d_pq = float(wrep.params["hausdorff_P_Q"])
    avg = hyper_mean_avg(P, Q, n)
    contrast_ok = True
    t2 = c.schedule.level(2).t
    for a, b in itertools.combinations(P.members, 2):
        r = banach_avg_distance(a, b, t2, depth=DEFAULT_DEPTH)
        contrast_ok = (contrast_ok
                       and r.upper + r.rounding_bound < _CONTRAST_EPSILON)
    ok = d_pq < eps and avg.value >= 0.9 and contrast_ok
    _verdict(9, ok, f"d_H(P,Q)={d_pq:.4f} < {eps}; induced mean average "
                    f">= {avg.value:.4f} (>= 0.9 at n={n}); base pairs "
                    f"Banach-close (< {_CONTRAST_EPSILON})")


def test_criterion_10_hausdorff_metric_oracle():
    rng = random.Random(7)
    trials = 1000
    ok = True
    for _ in range(trials):
        sets = []
        for _ in range(3):
            members = [
                PointView(Word.from_symbols(
                    [rng.randint(0, 1) for _ in range(40)]),
                    Provenance("explicit-limit"))
                for _ in range(rng.randint(1, 5))
            ]
            sets.append(FiniteSet.of(members))
        A, B, C = sets
        dab = hausdorff_distance(A, B)[0]
        ok = ok and dab == hausdorff_distance_inf_formula(A, B)[0]
        ok = ok and dab == hausdorff_distance(B, A)[0]
        ok = ok and hausdorff_distance(A, A)[0] == 0.0
        # the triangle, decided on the integer first differences
        j_ab = _hausdorff_first_difference(A, B)[0]
        j_ac = _hausdorff_first_difference(A, C)[0]
        j_cb = _hausdorff_first_difference(C, B)[0]
        ok = ok and _triangle_holds(j_ab, j_ac, j_cb)
    _verdict(10, ok, f"max-min equals covering-radius formula and axioms "
                     f"hold on {trials} random finite sets")


def test_criterion_11_union_map_identities():
    rng = random.Random(17)
    trials = 1000
    ok = True
    for _ in range(trials):
        def rand_family():
            fam = []
            for _ in range(rng.randint(1, 3)):
                members = [
                    PointView(Word.from_symbols(
                        [rng.randint(0, 1) for _ in range(24)]),
                        Provenance("explicit-limit"))
                    for _ in range(rng.randint(1, 3))
                ]
                fam.append(FiniteSet.of(members))
            return fam

        famA, famB = rand_family(), rand_family()
        left = union_factor([tk_step(A) for A in famA])
        right = tk_step(union_factor(famA))
        ok = ok and left.members == right.members
        d_pts = hausdorff_distance(union_factor(famA), union_factor(famB))[0]
        d_fam = family_hausdorff(famA, famB)[0]
        # both sides are correctly rounded 1/j, and rounding is monotone
        ok = ok and d_pts <= d_fam
    _verdict(11, ok, f"union map commutes with the induced step and is "
                     f"1-Lipschitz on {trials} random families")


def test_criterion_12_mean_density_conversion():
    rng = random.Random(20_000)
    trials = 1000
    failures = 0
    for _ in range(trials):
        length = rng.randint(1, 120)
        M = rng.choice([1, 1, 2, 4])
        scale = 1 << 10
        a = [rng.randint(0, M * scale) / scale for _ in range(length)]
        r = rng.randint(1, scale) / scale
        if not mean_to_density_check(a, r * r, M, sqrt_delta=r).passed:
            failures += 1
    _verdict(12, failures == 0,
             f"both conversion inequalities hold on {trials} random bounded "
             f"sequences, {failures} counterexamples")


def test_criterion_13_rle_oracle_equivalence():
    rng = random.Random(4242)
    trials_each = 1000
    ok = True

    def rand_symbols(n):
        sym = []
        while len(sym) < n:
            sym.extend([rng.randint(0, 1)] * rng.randint(1, 8))
        return sym[:n]

    # occurrence counts
    for t in range(trials_each):
        n = rng.randint(1, 10_000 if t % 100 == 0 else 300)
        sym = rand_symbols(n)
        idx = OccurrenceIndex(Word.from_symbols(sym))
        i = rng.randint(1, n)
        j = rng.randint(i, n)
        ok = ok and idx.count_range(i, j) == sym[i - 1:j].count(1)
    # window maxima
    for t in range(trials_each):
        n = rng.randint(2, 10_000 if t % 100 == 0 else 300)
        sym = rand_symbols(n)
        L = rng.randint(1, n)
        got, _ = max_window_count(OccurrenceIndex(Word.from_symbols(sym)), L)
        ok = ok and got == naive_window_max(sym, L)[0]
    # per-step distances
    for t in range(trials_each):
        n = rng.randint(80, 10_000 if t % 100 == 0 else 400)
        depth = rng.choice([4, 16, 64])
        steps = rng.randint(1, n - depth)
        a, b = rand_symbols(n), rand_symbols(n)
        x = PointView(Word.from_symbols(a), Provenance("explicit-limit"))
        y = PointView(Word.from_symbols(b), Provenance("explicit-limit"))
        got_v, got_t = step_distance_array(x, y, steps, depth)
        want_v, want_t = naive_step_distances(a, b, steps, depth)
        ok = ok and got_v == want_v and got_t == want_t
    _verdict(13, ok, f"RLE counts, window maxima and per-step distances match "
                     f"naive expanded computation ({trials_each} trials each)")
