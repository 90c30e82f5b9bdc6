"""Named verification checks shared by the CLI and the acceptance suite.

Every check is called as ``check(construction, seed)`` and computes on the
construction it is given: under the CLI, the one built from the build's
``schedule.json``.  ``NEEDS`` names the family a check needs; the checks
absent from it ignore the construction.  Each check asserts the documented
inequality exactly (integer or rational arithmetic wherever the claim is
exact) and returns a Report.  Check names double as CLI tokens.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import random
from fractions import Fraction
from typing import Dict, List

from .constructions import (
    GeneratorDescriptor,
    S3Construction,
    S4Construction,
    build_schedule_s4,
    minimal_generator,
    patched_point,
    patched_step,
)
from .diagnostics import (
    DEFAULT_DEPTH,
    _segments,
    banach_avg_distances,
    banach_window_max,
    cesaro_avg_distance,
    diam_sequence,
    indicator_set_E,
    orbit_diam_sequence,
    scaled_sides,
    sensitivity_times,
    step_distance_array,
)
# ``hyperspace`` is imported inside the three checks that use it, so that
# the S3 window checks never load it, and ``language`` inside the two that
# use it, so that the S3 family checks never load it
from .reports import FAIL, PASS, Report, fmt17, series_csv
from .words import (
    BlockFamily,
    OccurrenceIndex,
    PointView,
    Provenance,
    Word,
    de_bruijn_word,
    find_occurrences,
    first_difference,
    max_window_count,
    point_metric,
    power,
    symbol_runs,
)


def s4_construction_sharpened(base: GeneratorDescriptor,
                              epsilon_key: int = 10) -> S4Construction:
    """Depth-6 S4 variant over ``base`` whose level-5 gap parameter is raised
    so the level-5 density ratio supports a mean-equicontinuity margin of
    1/epsilon_key.

    The recursion only lower-bounds the gap parameters, so any raise that
    re-verifies is legitimate; lengths stay inside 64 bits.
    """
    probe = build_schedule_s4(5, base)
    lv5 = probe.level(5)
    K = 5 * epsilon_key  # agreement depth making 1/(K+1) < eps/5
    # want 2K (|A_5|+|B_5|) / t_5 < eps/4, i.e. t_5 > 8K (|A_5|+|B_5|) / eps;
    # prop-p-system decides that ratio exactly, so it needs no extra margin;
    # the extra 1/32 stays because it fixes the depth-6 schedule, and with it
    # the prop-p-system report bytes
    need_t5 = 8 * K * (lv5.len_a + lv5.len_b) * epsilon_key
    need_t5 += need_t5 // 32
    floor_k5 = (need_t5 - lv5.len_a - lv5.len_b) // 2 + 1
    sched = build_schedule_s4(6, base, k_min={5: floor_k5})
    return S4Construction(sched)


# ---------------------------------------------------------------------------


def check_lemma31(c: S3Construction, seed: int = 0) -> Report:
    """Window 1-count bound: every window of t_n symbols inside a deeper
    level word holds at most |A_n| + |B_n| ones.  Exact RLE sweep; each
    reported window is recounted from its subword's runs, so a sweep whose
    count disagrees with its window fails; the maximum is not witnessed."""
    rep = Report("lemma-3.1")
    rows = []
    ok = True
    cases = [(1, "A", 3), (1, "B", 3), (2, "A", 4)]
    for n, kind, m in cases:
        lvn = c.schedule.level(n)
        bound = lvn.len_a + lvn.len_b
        word = c.a_word(m) if kind == "A" else c.b_word(m)
        cnt, pos = max_window_count(OccurrenceIndex(word), lvn.t)
        rows.append({"n": n, "word": f"{kind}_{m}", "window": lvn.t,
                     "max_count": cnt, "at": pos, "bound": bound})
        ok = (ok and cnt <= bound and 1 <= pos <= word.length - lvn.t + 1
              and word.subword(pos, lvn.t).count(1) == cnt)
    rep.params = {"cases": len(rows)}
    rep.witnesses = [{"windows": rows}]
    rep.verdict = PASS if ok else FAIL
    return rep


def check_lemma32_density(c: S3Construction, seed: int = 0) -> Report:
    """Windowed frequency of the 1-positions of x decays through the level
    window lengths and meets the coarse level-3 budget exactly.  Each
    reported window is recounted from its subword's runs, so a sweep whose
    count disagrees with its window fails; the maximum is not witnessed."""
    E = indicator_set_E(c.transitive_prefix(c.schedule.level(4).len_a))
    t = [c.schedule.level(n).t for n in (1, 2, 3)]
    counts = []
    for L in t:
        cnt, start = banach_window_max(E, L)
        counts.append((L, cnt, start))
    word, symbol = E.source
    recounted = all(0 <= st <= E.horizon - L
                    and word.subword(st + 1, L).count(symbol) == cnt
                    for L, cnt, st in counts)
    lv3 = c.schedule.level(3)
    # exact comparisons via cross-multiplication
    decreasing = all(
        counts[i][1] * counts[i + 1][0] > counts[i + 1][1] * counts[i][0]
        for i in range(2)
    )
    # ratio at t_3 <= 2 (|A_3|+|B_3|) / t_3  <=>  count <= 2 (|A_3|+|B_3|)
    budget_ok = counts[2][1] <= 2 * (lv3.len_a + lv3.len_b)
    rep = Report("lemma-3.2-density", params={
        "windows": [{"L": L, "count": cnt, "start": st,
                     "ratio": fmt17(cnt / L)} for (L, cnt, st) in counts],
        "budget": 2 * (lv3.len_a + lv3.len_b),
    })
    rep.witnesses = [{
        "csv_series": {"name": "banach-density",
                       "body": series_csv([cnt / L for (L, cnt, _) in counts])},
    }]
    rep.verdict = PASS if (decreasing and budget_ok and recounted) else FAIL
    rep.caveats = ["frequencies are exact sups at each finite window length"]
    return rep


def _marks_separate(family: BlockFamily, i: int) -> bool:
    """Whether step i of the shift orbit separates ``family`` beyond 1/2,
    decided on two materialized members by ``point_metric``: the member
    marked i+1 and another marked member differ at position i+1, the first
    symbol after i shifts.  A step whose position i+1 is no mark finds no
    such pair and reads False."""
    marks = family.marks
    k = bisect.bisect_left(marks, i + 1)
    if len(marks) < 2 or k == len(marks) or marks[k] != i + 1:
        return False
    a, b = family[k], family[k - 1 if k else 1]
    return point_metric(a.shift(i), b.shift(i))[0] > 0.5


def check_thm13_cofinite(c: S3Construction, seed: int = 0) -> Report:
    """Past the cylinder block, every single step separates the witness
    family beyond 1/2: the separation-time set contains a full tail.  The
    first separating step reported, the tail's two ends and three steps
    inside it are each recomputed by ``_marks_separate``, so a route that
    reports steps which do not separate fails."""
    horizon = 120_000
    m, s = 0, 27  # cylinder block = the level-2 word, a suffix of itself
    count = horizon - s - 1
    family = c.witness_family(m, s, count, horizon)
    members = family + [c.shift_view(m, horizon)]
    sens = sensitivity_times(members, 0.5, horizon - 1)
    lo, hi = m + s + 1, horizon - 2
    first = sens.los[0] if len(sens) else None
    probes = [lo, hi, *range(lo, hi, (hi - lo) // 4)[1:4]]
    covered = sens.contains_range(lo, hi) and all(
        _marks_separate(family, i)
        for i in probes + ([] if first is None else [first]))
    rep = Report("thm-1.3-cofinite", params={
        "m": m, "s": s, "horizon": horizon, "family": len(family),
        "tail": [lo, hi], "sensitive_steps": len(sens),
    })
    rep.witnesses = [
        {"first_sensitive": first},
        {"csv_series": {"name": "diam-head",
                        "body": series_csv(diam_sequence(members, 2000)[0])}},
    ]
    rep.verdict = PASS if covered else FAIL
    rep.caveats = ["tail membership is exact for the sampled family; "
                   "diameters are lower bounds on the true set diameter"]
    return rep


def _s3_deep_cylinders(c: S3Construction, how_many: int = 10):
    """Cylinder words (level-2 block + long zero run) whose members all sit
    in sparse territory: block-phase copies plus the pre-gap copies.  Each
    word extends the one before it by 50 zeros."""
    a2 = c.a_word(2)
    k2 = c.schedule.level(2).k
    out = []
    for a in range(how_many):
        j = k2 + 1 + 50 * a  # deeper than the level-2 gap: excludes offset 0
        w = Word(2, tuple(a2.runs) + ((0, j),))
        out.append(w)
    return out


def _cylinder_member_lists(src: Word, words, cap: int, member_horizon: int):
    """``cylinder_members(src, u, cap, member_horizon)`` for each word u of
    ``words``, in order, where each word extends the one before it.

    Every occurrence of u is then one of the word before, so u's members
    are the earlier members that start with u, and past them only the
    occurrences after a full earlier list are unread: the scan resumes
    there, one position past its last member.
    """
    from .language import cylinder_members

    members, start = [], 1  # start: the first position not read, if any
    for u in words:
        members = [m for m in members if m.starts_with(u)]
        if start is not None and len(members) < cap:
            members += cylinder_members(src, u, cap - len(members),
                                        member_horizon, start=start)
        start = (members[-1].provenance.offset + 2 if len(members) == cap
                 else None)
        yield members


def _dense_window_agrees(x: PointView, y: PointView, r, L: int,
                         depth: int = DEFAULT_DEPTH) -> bool:
    """Tightness witness for one ``banach_avg_distances`` report ``r``: the
    average over the reported window [m, m+L), summed in step order from
    the per-step distances of ``step_distance_array``, is within
    ``r.rounding_bound`` of ``r.value``.

    Adding a zero term changes no float sum, so the running sums skip them
    and still equal the dense ones; the sweep adds its nonzero terms in the
    same order, so both routes should agree exactly, and a route that
    under-reports its window's sum fails here.
    """
    m = r.window[0]
    if not 0 <= m <= min(x.horizon, y.horizon) - depth - L:
        return False
    values, _ = step_distance_array(x, y, m + L, depth)
    # the running sums through the steps before the window and through its
    # last step
    before = functools.reduce(operator.add, filter(None, values[:m]), 0.0)
    through = functools.reduce(operator.add, filter(None, values[m:]), before)
    return abs((through - before) / L - r.value) <= r.rounding_bound


def _dense_sup_agrees(x: PointView, y: PointView, r, L: int,
                      depth: int = DEFAULT_DEPTH) -> bool:
    """Optimality witness for one ``banach_avg_distances`` report ``r``:
    the sup over every window of length L of the average, from running
    sums in step order of ``step_distance_array``, is within
    ``r.rounding_bound`` of ``r.value``.  A sweep that reports a smaller
    window with that window's true sum passes ``_dense_window_agrees`` and
    fails here."""
    values, _ = step_distance_array(x, y, min(x.horizon, y.horizon) - depth,
                                    depth)
    # the running sums through each window's last step, and before its first
    ends = itertools.islice(itertools.accumulate(values, initial=0.0), L, None)
    starts = itertools.accumulate(values, initial=0.0)
    best = max(map(operator.sub, ends, starts))
    return abs(best / L - r.value) <= r.rounding_bound


def check_thm13_banach_equi(c: S3Construction, seed: int = 0) -> Report:
    """Banach-window averages stay below epsilon for every sampled pair in
    each of ten deep cylinders, truncation correction and rounding bound
    included.  In each cylinder the worst pair (the first while every pair
    reports 0) is recomputed by ``_dense_window_agrees``, so a sweep that
    under-reports fails; the first of them with the largest upper also
    takes ``_dense_sup_agrees``, so one that reports a smaller window
    fails.  The members of each cylinder are read from those of the one
    before by ``_cylinder_member_lists``."""
    pairs_per_cylinder, epsilon = 100, 0.05
    src = c.transitive_prefix(c.schedule.level(4).len_a).prefix
    t2 = c.schedule.level(2).t
    member_h = 3 * t2 + DEFAULT_DEPTH + 100
    rows = []
    ok = True
    top = None  # (worst, x, y, report) of the first cylinder of largest worst
    cylinders = _s3_deep_cylinders(c, 10)
    for u, members in zip(cylinders, _cylinder_member_lists(
            src, cylinders, 15, member_h)):
        pairs = list(itertools.combinations(range(len(members)),
                                            2))[:pairs_per_cylinder]
        if len(pairs) < pairs_per_cylinder:
            ok = False
        worst = 0.0
        worst_pair = None
        witness = 0  # index of the pair the dense sum recomputes
        reports = banach_avg_distances(members, pairs, t2, depth=DEFAULT_DEPTH)
        for k, ((i, j), r) in enumerate(zip(pairs, reports)):
            if r.upper > worst:
                worst = r.upper
                worst_pair = (members[i].provenance.offset,
                              members[j].provenance.offset)
                witness = k
            if r.upper + r.rounding_bound >= epsilon:
                ok = False
        if pairs:
            i, j = pairs[witness]
            ok = ok and _dense_window_agrees(members[i], members[j],
                                             reports[witness], t2)
            if top is None or worst > top[0]:
                top = (worst, members[i], members[j], reports[witness])
        rows.append({"cylinder_len": u.length, "members": len(members),
                     "pairs": len(pairs), "worst_upper": fmt17(worst),
                     "worst_pair": worst_pair})
    if top is not None:
        ok = ok and _dense_sup_agrees(*top[1:], t2)
    rep = Report("thm-1.3-banach-equi", params={
        "epsilon": fmt17(epsilon), "window": t2,
        "pairs_per_cylinder": pairs_per_cylinder,
    })
    rep.witnesses = [{"cylinders": rows}]
    rep.verdict = PASS if ok else FAIL
    rep.caveats = ["averages include the truncation correction; sup over "
                   "all windows inside the member horizon"]
    return rep


def check_lemma_count3(c: S4Construction, seed: int = 0) -> Report:
    """Anchored 1-count bound for the S4 family: ranges that open on a copy
    of A_n hold at most ((len)/t_n + 2)(|A_n|+|B_n|) ones.  Exact integers;
    the first range of each n is recounted from its subword's runs, so an
    index that under-counts fails."""
    x = c.transitive_prefix(c.schedule.level(4).len_a)
    idx = OccurrenceIndex(x.prefix)
    rep = Report("lemma-count-3")
    rows = []
    ok = True
    for n in (1, 2):
        lv = c.schedule.level(n)
        an = c.a_word(n)
        occs = find_occurrences(x.prefix, an, cap=40)
        tested = 0
        for pos in occs[:12]:
            i = pos
            span = lv.len_a + 1
            while i + span - 1 <= x.horizon:
                j = i + span  # range [i, j-1] has span symbols
                cnt = idx.count_range(i, j - 1)
                if tested == 0 and cnt != x.prefix.subword(i, span).count(1):
                    ok = False
                # cnt <= ((j-i)/t_n + 2)(lenA+lenB), integer-exact
                lhs = cnt * lv.t
                rhs = (span + 2 * lv.t) * (lv.len_a + lv.len_b)
                if lhs > rhs:
                    ok = False
                    rows.append({"n": n, "i": i, "len": span, "count": cnt,
                                 "violation": True})
                tested += 1
                span *= 3
        rows.append({"n": n, "anchors": len(occs[:12]), "ranges": tested})
    rep.witnesses = [{"cases": rows}]
    rep.verdict = PASS if ok else FAIL
    return rep


def _harmonic(k: int) -> Fraction:
    """The harmonic number H_k, exactly."""
    lcm = math.lcm(*range(1, k + 1))
    return Fraction(sum(lcm // g for g in range(1, k + 1)), lcm)


def check_prop_p_system(c: S4Construction, seed: int = 0,
                        epsilon: float = 0.1) -> Report:
    """The transitive point of the S4 family is empirically mean
    equicontinuous: at the first cylinder depth whose density term clears
    epsilon/4, every sampled co-member stays within epsilon in Cesaro
    average.  Runs on the sharpened depth-6 variant of ``c``'s base
    generator.

    Each member's Cesaro upper bound is compared with epsilon exactly, as
    the rational ``upper_exact``; the report prints its float.  The bound
    chain's terms are reported, not judged, since each holds by
    construction: ``term_linear`` < epsilon/4 is how the level is chosen,
    ``term_const`` is 1/(8 round(1/epsilon)) < epsilon/4 by the choice of
    the step count, and ``term_zero_window`` is at most epsilon/5.  Each
    member's first difference from x bounds its Cesaro sum from below, so
    a route that reports too small an average fails."""
    c = s4_construction_sharpened(c.schedule.base, int(round(1 / epsilon)))
    K = math.floor(5.0 / epsilon)  # 1/(K+1) < eps/5
    eps_num, eps_den = epsilon.as_integer_ratio()
    rep = Report("prop-p-system", params={
        "epsilon": fmt17(epsilon), "K": K,
    })
    chain_rows = []
    chosen = None
    for m in range(1, c.schedule.depth):
        lv = c.schedule.level(m)
        term_linear = 2 * K * (lv.len_a + lv.len_b) / lv.t
        chain_rows.append({"m": m, "term_linear": fmt17(term_linear)})
        # term_linear < epsilon/4, by integer cross-multiplication
        if chosen is None and (8 * K * (lv.len_a + lv.len_b) * eps_den
                               < eps_num * lv.t):
            chosen = m
    if chosen is None:
        rep.verdict = FAIL
        rep.witnesses = [{"chain": chain_rows}]
        rep.caveats = ["no built level reaches the density ratio"]
        return rep
    m = chosen
    lv = c.schedule.level(m)
    # constant term < eps/4 pins the step count from below
    n = (16 * K * (lv.len_a + lv.len_b) * int(round(1 / epsilon))) * 2
    term_const = 4 * K * (lv.len_a + lv.len_b) / n
    horizon = n + DEFAULT_DEPTH
    x = c.transitive_prefix(horizon)
    # members of the level-m cylinder: occurrence shifts + registered limits
    am = c.a_word(m)
    t_m_shift = None
    src = c.transitive_prefix(
        min(c.schedule.level(m + 1).len_a + lv.len_a, horizon * 2 + lv.len_a)
    )
    occs = find_occurrences(src.prefix, am, cap=8)
    zs: List[PointView] = []
    for pos in occs:
        off = pos - 1
        if off == 0:
            continue
        zs.append(c.shift_view(off, horizon))
        t_m_shift = off
    per = c.periodic_point(m, 0, horizon)
    zs.append(per)
    tail = PointView(
        Word(2, tuple(am.runs) + ((0, horizon - am.length),)),
        Provenance("explicit-limit", detail="zero-tail"),
    )
    zs.append(tail)
    rows = []
    ok = True
    for z in zs:
        r = cesaro_avg_distance(x, z, n, depth=DEFAULT_DEPTH)
        # tightness witness: steps j0 - min(depth, j0) .. j0 - 1 read the
        # gaps 1 .. min(depth, j0) of the first difference j0, so the route
        # must bound their sum, the harmonic number, from above
        j0 = first_difference(x.prefix, z.prefix)
        tight = (j0 is not None and j0 <= n and
                 n * r.upper_exact >= _harmonic(min(DEFAULT_DEPTH, j0)))
        ones_z = z.prefix.count(1)
        # steps whose K-window sees a 1, counted exactly: the steps within
        # cap K of the 1-runs, shifted to 1-based, by the gap rule
        los, his = symbol_runs(z.prefix, 1)
        covered = sum(end - near for _, near, _, end in _segments(
            map((1).__add__, los), map((1).__add__, his), n, K))
        frac_nonzero = covered / n
        term_zero = (epsilon / 5) * (1 - frac_nonzero)
        rows.append({
            "provenance": z.provenance.kind,
            "offset": z.provenance.offset,
            "cesaro_upper": fmt17(r.upper),
            "ones_within_n": ones_z,
            "term_zero_window": fmt17(term_zero),
            "term_nonzero_window": fmt17(frac_nonzero),
        })
        if r.upper_exact >= Fraction(epsilon) or not tight:
            ok = False
    rep.params.update({
        "witnessing_m": m, "steps": n,
        "term_linear": fmt17(2 * K * (lv.len_a + lv.len_b) / lv.t),
        "term_const": fmt17(term_const),
        "term_zero_cap": fmt17(epsilon / 5),
        "shift_member_offset": t_m_shift,
    })
    rep.witnesses = [{"chain": chain_rows}, {"members": rows}]
    rep.verdict = PASS if ok else FAIL
    rep.caveats = [
        "averages are closed-form sums over the finite range with the "
        "depth correction included",
    ]
    return rep


def check_prop_devaney(c: S4Construction, seed: int = 0, n: int = 4) -> Report:
    """Two-half recurrence plus periodic-prefix coverage for the S4 family."""
    from .language import check_dense_periodic_desk, check_transitive_desk

    src = c.transitive_prefix(c.schedule.level(4).len_a).prefix
    r1 = check_transitive_desk(src, n)
    r2 = check_dense_periodic_desk(c, src, n)
    rep = Report("prop-devaney", params={"n": n})
    rep.witnesses = [{"transitive": r1.to_json()}, {"dense-periodic": r2.to_json()}]
    rep.verdict = PASS if (r1.passed and r2.passed) else FAIL
    rep.caveats = r1.caveats + r2.caveats
    return rep


def check_thm_unpos(c=None, seed: int = 0) -> Report:
    """The patched map collapses the {2,3} cylinder to one orbit after a
    single step: its diameter sequence is exactly zero from step 1 on.
    Steps 0 and 1 are recomputed by ``point_metric`` from the all-2 and
    all-3 members, before and after one ``patched_step`` each, so a route
    that reports the collapse without making it fails."""
    steps = 64
    horizon = 2 * steps + 8
    y = GeneratorDescriptor("thue-morse")
    y_prefix = Word(4, minimal_generator(y, horizon).runs)
    members = [
        patched_point(Word(4, [(2, horizon)]), horizon),
        patched_point(Word(4, [(3, horizon)]), horizon),
        patched_point(Word(4, [(2, 1), (3, horizon - 1)]), horizon),
        patched_point(Word(4, ((2, 1), (3, 1)) * (horizon // 2)), horizon),
    ]
    values, truncated = orbit_diam_sequence(
        members, steps, lambda p: patched_step(p, y_prefix)
    )
    a, b = members[:2]
    ok = (values[0] == 1.0 and not any(values[1:])
          and point_metric(a, b)[0] == 1.0
          and point_metric(patched_step(a, y_prefix),
                           patched_step(b, y_prefix))[0] == 0.0)
    rep = Report("thm-unpos", params={"steps": steps, "members": len(members)})
    rep.witnesses = [{"diam_step0": fmt17(values[0]),
                      "max_diam_after": fmt17(max(values[1:]))}]
    rep.verdict = PASS if ok else FAIL
    rep.caveats = ["collapse is exact: all reset-branch members map to the "
                   "same target point"]
    return rep


def _thm18_points(c: S3Construction, horizon: int):
    lv3 = c.schedule.level(3)
    b3_start = lv3.len_a + lv3.k + 1  # 1-based first symbol of the mid block
    block = c.schedule.level(2).len_a + lv3.len_a
    offsets = []
    for blk in (1, 40, 1000):
        start = b3_start + (blk - 1) * block
        offsets.append(start - 1 + 15)
    return [c.shift_view(t, horizon) for t in offsets]


#: Banach-mean closeness required of the base pairs of ``thm-1.8-witness``
_CONTRAST_EPSILON = 0.05


def check_thm18_witness(c: S3Construction, seed: int = 0) -> Report:
    """Hyperspace witness: a point within epsilon of P in Hausdorff distance
    whose induced orbit separates from P's on nearly every step, while the
    base-space pairs of P stay Banach-mean close: each pair's windowed
    upper, rounding bound included, below ``_CONTRAST_EPSILON``."""
    from .hyperspace import FiniteSet, hyper_mean_avg, hyper_witness_family

    epsilon, n = 0.1, 10_000
    horizon = n + 200
    P = FiniteSet.of(_thm18_points(c, horizon))
    Q, wrep = hyper_witness_family(c, P, epsilon, horizon)
    # the certified steps bound the induced mean from below: at least 90 %
    # of them, decided on the exact fraction
    avg = hyper_mean_avg(P, Q, n)
    t2 = c.schedule.level(2).t
    contrast = []
    contrast_ok = True
    base_pairs = list(itertools.combinations(range(len(P.members)), 2))
    for r in banach_avg_distances(P.members, base_pairs, t2,
                                  depth=DEFAULT_DEPTH):
        contrast.append(fmt17(r.upper))
        contrast_ok = (contrast_ok
                       and r.upper + r.rounding_bound < _CONTRAST_EPSILON)
    ok = wrep.passed and avg.upper_exact >= Fraction(9, 10) and contrast_ok
    rep = Report("thm-1.8-witness", params={
        "epsilon": fmt17(epsilon), "steps": n, "P": len(P), "Q": len(Q),
        "hausdorff_P_Q": wrep.params["hausdorff_P_Q"],
        "mean_avg_lower": fmt17(avg.value), "method": avg.method,
        "base_pairs_banach_upper": contrast,
    })
    rep.witnesses = wrep.witnesses or [{"details": wrep.params["members"]}]
    rep.verdict = PASS if ok else FAIL
    rep.caveats = wrep.caveats + [
        "lower bound: counts only steps with certified distance 1"]
    return rep


def check_remark_213(c=None, seed: int = 0) -> Report:
    """Randomized conversion trials between average bounds and density
    bounds, decided exactly by ``scaled_sides``: no counterexample, and
    each side's premise holding in some trial.

    The terms v / 2^10, r = j / 2^10 and delta = j^2 / 2^20 (exact floats)
    are integers over D = 2^20, a multiple of the denominator that
    ``mean_to_density_check`` takes for them, so the verdict is its verdict
    with no float made.
    """
    trials = 1000
    rng = random.Random(20_000 + seed)
    bits = rng.getrandbits
    failures = []
    held = [0, 0]  # trials in which the premise of side (i), (ii) holds
    D = 1 << 20
    for trial in range(trials):
        length = rng.randint(1, 120)
        M = rng.choice([1, 1, 2, 4])
        # each v is rng.randint(0, M << 10), drawn as CPython draws it:
        # getrandbits(k) for the k bits of the range size, again while the
        # value lies past the range
        n = (M << 10) + 1
        k = n.bit_length()
        seq = []
        for _ in range(length):
            while (v := bits(k)) >= n:
                pass
            seq.append(v << 10)
        j = rng.randint(1, 1 << 10)
        passed, ((premise1, _), (premise2, _)) = scaled_sides(
            D, seq, j * j, j << 10, M * D)
        if not passed:
            failures.append(trial)
        held[0] += premise1
        held[1] += premise2
    rep = Report("remark-2.1.3", params={"trials": trials, "seed": seed})
    rep.verdict = FAIL if failures or not all(held) else PASS
    if failures:
        rep.witnesses = [{"failing_trials": failures[:16]}]
    if not all(held):
        rep.witnesses.append({"premise_trials": held})
    return rep


@functools.cache
def _byte_runs():
    """The RLE runs of each byte, top bit first, and the same runs without
    the first; built on first use, so that a process that never runs
    ``hausdorff-axioms`` never builds them."""
    runs = tuple(
        tuple((int(s), len(list(g)))
              for s, g in itertools.groupby(format(b, "08b")))
        for b in range(256))
    return runs, tuple(r[1:] for r in runs)


def _member_runs(x: int, width: int) -> tuple:
    """The RLE runs of the ``width``-bit member ``x``, position 1 at the top
    bit; ``width`` is a multiple of 8.  Each byte's runs come from
    ``_byte_runs``; a byte whose first run continues the last run so far
    lengthens it and adds only its other runs."""
    byte_runs, byte_tails = _byte_runs()
    octets = iter(x.to_bytes(width // 8, "big"))
    runs = [*byte_runs[next(octets)]]
    for b in octets:
        more = byte_runs[b]
        last, head = runs[-1], more[0]
        if last[0] == head[0]:
            runs[-1] = (last[0], last[1] + head[1])
            runs += byte_tails[b]
        else:
            runs += more
    return tuple(runs)


def _packed_hausdorff_j(A, B, horizon: int):
    """j with d_H(A, B) = 1/j by the max-min formula, None for distance 0,
    on members packed as ints with position 1 in the top of ``horizon`` bits.

    Distinct members a and b first differ at position
    ``horizon + 1 - (a ^ b).bit_length()``, the later the smaller their
    xor.  So a member's nearest point of the other set sits at the
    smallest xor of its row or column of the xor table (0 when both sets
    hold it), and j comes from the largest of those minima.
    """
    xors = [[a ^ b for b in B] for a in A]
    worst = max(max(map(min, xors)), max(map(min, zip(*xors))))
    return None if worst == 0 else horizon + 1 - worst.bit_length()


def _triangle_holds(j_ac, j_ab, j_bc) -> bool:
    """d(A,C) <= d(A,B) + d(B,C) for Hausdorff distances 1/j (0 where j is
    None), decided exactly on the integer first differences."""
    if j_ac is None:
        return True
    if j_ab is None or j_bc is None:
        j = j_bc if j_ab is None else j_ab
        return j is not None and j <= j_ac
    # 1/j_ac <= 1/j_ab + 1/j_bc, times j_ac * j_ab * j_bc
    return j_ab * j_bc <= j_ac * (j_ab + j_bc)


def check_hausdorff_axioms(c=None, seed: int = 0, trials: int = 1000) -> Report:
    """Metric axioms plus the equality of the max-min and covering-radius
    formulas on random finite hyperspace points.

    Each library route is held to ``_packed_hausdorff_j``, an exact
    integer oracle on the members packed as ints.  The third set C of a
    trial enters only the triangle term, which the oracle decides, so it
    never becomes a ``FiniteSet``.

    Each set draws its size ``rng.randint(1, 5)``, then that many members
    of ``rng.getrandbits(horizon)``; position 1 of a member is its top bit.
    The size is drawn as CPython's ``randint`` draws it: ``getrandbits(3)``,
    again while the value is 5 or more, plus 1.
    """
    # the routes are read through the module, where a test can swap them
    from . import hyperspace

    horizon = 48
    rng = random.Random(7 + seed)
    bits = rng.getrandbits
    origin = Provenance("explicit-limit")

    def size() -> int:
        while (r := bits(3)) >= 5:
            pass
        return r + 1

    def point(packed) -> hyperspace.FiniteSet:
        return hyperspace.FiniteSet.of([
            PointView(Word(2, _member_runs(x, horizon), _length=horizon), origin)
            for x in packed])

    bad = []
    for trial in range(trials):
        pa, pb, pc = [[bits(horizon) for _ in range(size())]
                      for _ in range(3)]
        A, B = point(pa), point(pb)
        j_ab = _packed_hausdorff_j(pa, pb, horizon)
        j_ac = _packed_hausdorff_j(pa, pc, horizon)
        j_bc = _packed_hausdorff_j(pb, pc, horizon)
        dab = 0.0 if j_ab is None else 1.0 / j_ab  # as hausdorff_distance
        dba, _ = hyperspace.hausdorff_distance(B, A)
        dual, _ = hyperspace.hausdorff_distance_inf_formula(A, B)
        ident, _ = hyperspace.hausdorff_distance(A, A)
        checks = [
            dab == dba,
            dab == dual,
            ident == 0.0,
            _triangle_holds(j_ac, j_ab, j_bc),
        ]
        if not all(checks):
            bad.append({"trial": trial, "checks": checks})
    rep = Report("hausdorff-axioms", params={"trials": trials, "seed": seed})
    if bad:
        rep.verdict = FAIL
        rep.witnesses = [{"failures": bad[:8]}]
    else:
        rep.verdict = PASS
    return rep


def _witnesses_realized(r: Report, tup, text: Word) -> bool:
    """Whether each position t of ``r``'s pattern witnesses realizes its
    pattern in ``text``: the pattern's cylinder for j read back at the
    1-based t + j + 1 for each j of J; a read past the word fails."""
    J = r.params["J"]
    for key, hit in r.witnesses[0]["pattern_witnesses"].items():
        for j, ci in zip(J, key):
            cyl = tup.cylinders[int(ci)]
            start = hit["position"] + j + 1
            if (start + cyl.length - 1 > text.length
                    or text.subword(start, cyl.length) != cyl):
                return False
    return True


def check_independence(c=None, seed: int = 0) -> Report:
    """Brute-force independence-set checks: the dense binary word realizes
    every pattern, at witness positions read back from the word, and a
    two-point periodic orbit cannot."""
    from .hyperspace import CylinderTuple, independence_check

    rep = Report("independence")
    dense = de_bruijn_word(6)
    tup = CylinderTuple((Word(2, [(0, 1)]), Word(2, [(1, 1)])))
    r_full = independence_check(tup, [0, 1, 2], dense)
    r_sub = independence_check(tup, [0, 2], dense)
    periodic = power(Word.from_string("01"), 64)
    r_per = independence_check(tup, [0, 1], periodic)
    ok = (r_full.passed and r_sub.passed and r_per.verdict == FAIL
          and _witnesses_realized(r_full, tup, dense)
          and _witnesses_realized(r_sub, tup, dense))
    rep.witnesses = [
        {"dense_J012": r_full.verdict, "dense_J02": r_sub.verdict,
         "periodic_J01": r_per.verdict},
        {"periodic_missing": r_per.witnesses[-1]},
    ]
    rep.verdict = PASS if ok else FAIL
    rep.caveats = ["FAIL verdicts inside are approximation-relative by design"]
    return rep


REGISTRY: Dict[str, callable] = {
    "lemma-3.1": check_lemma31,
    "lemma-3.2-density": check_lemma32_density,
    "thm-1.3-cofinite": check_thm13_cofinite,
    "thm-1.3-banach-equi": check_thm13_banach_equi,
    "lemma-count-3": check_lemma_count3,
    "prop-p-system": check_prop_p_system,
    "prop-devaney": check_prop_devaney,
    "thm-unpos": check_thm_unpos,
    "thm-1.8-witness": check_thm18_witness,
    "remark-2.1.3": check_remark_213,
    "hausdorff-axioms": check_hausdorff_axioms,
    "independence": check_independence,
}

#: the family each construction-bound check computes on; the rest fit any build
NEEDS: Dict[str, str] = {
    "lemma-3.1": "S3",
    "lemma-3.2-density": "S3",
    "thm-1.3-cofinite": "S3",
    "thm-1.3-banach-equi": "S3",
    "thm-1.8-witness": "S3",
    "lemma-count-3": "S4",
    "prop-p-system": "S4",
    "prop-devaney": "S4",
}
