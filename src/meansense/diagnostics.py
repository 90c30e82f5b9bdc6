"""Truncated-orbit statistics: densities, orbit-average distances, diameters.

Conventions used throughout:

* positions inside points are 1-based, orbit steps are 0-based;
* step i compares the views after i shifts, so the pair disagreeing first
  at position p (1-based) has step-i distance 1/(p - i) while p > i;
* every limsup of the theory becomes "max over the requested finite range",
  labeled as a proxy in the report, never as a limit;
* per-step metric comparisons stop at a fixed depth D; a comparison with no
  disagreement within D contributes 0 to the value and 1/(D+1) to the
  truncation correction, which upper-bounds the unseen remainder.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from typing import Callable, Optional, Sequence

from .errors import HorizonError, ParameterError
from .reports import FAIL, PASS, AverageReport, Report, fmt17
from .words import (
    BlockFamily,
    PointView,
    diff_intervals,
    interval_window_max,
    point_metric,
    symbol_runs,
    symbol_window_max,
)

DEFAULT_DEPTH = 64  # default per-step metric comparison depth

_FLOAT_MAX = int(sys.float_info.max)  # the largest finite float, exactly


class IndexSet:
    """A finite set of non-negative integers below a horizon, held as its
    maximal runs: the inclusive [los[k], his[k]], two sequences of ints
    (lists, or tuples from ``indicator_set_E``), increasing, with a
    non-member between any two runs.  ``source`` is None, or the (word,
    symbol) whose 0-based symbol positions the set holds, its horizon the
    word's length.

    Sets are immutable, and compare and hash by identity: a run list has
    no hash."""

    def __init__(self, los: Sequence[int], his: Sequence[int], horizon: int,
                 source: Optional[tuple] = None):
        vars(self).update(los=los, his=his, horizon=horizon, source=source)

    def __setattr__(self, name, value):
        raise AttributeError("IndexSet is immutable")

    @property
    def members(self) -> list:
        """Every member, sorted: the runs expanded."""
        return [i for lo, hi in zip(self.los, self.his)
                for i in range(lo, hi + 1)]

    def __len__(self):
        return sum(self.his) - sum(self.los) + len(self.los)

    def contains_range(self, lo: int, hi: int) -> bool:
        """True when every integer in [lo, hi] belongs to the set: the
        runs are maximal, so [lo, hi] lies inside the first run ending at
        or after lo."""
        if hi < lo:
            return True
        k = bisect.bisect_left(self.his, lo)
        return k < len(self.his) and self.los[k] <= lo and hi <= self.his[k]


def indicator_set_E(y: PointView, symbol: int = 1) -> IndexSet:
    """0-based positions i < horizon with y_{i+1} equal to ``symbol``: the
    runs are the prefix's cached ``symbol_runs``, and (y.prefix, symbol)
    is the set's source."""
    return IndexSet(*symbol_runs(y.prefix, symbol), y.horizon,
                    (y.prefix, symbol))


def banach_window_max(F: IndexSet, window: int) -> tuple:
    """Exact sup over windows [M, M+window) ⊆ [0, horizon) of the member count.

    Returns (count, smallest attaining window start), sweeping the runs of
    ``F`` with ``interval_window_max``; a set with a source takes its
    word's cached sweep, ``symbol_window_max``, which ``max_window_count``
    shares.
    """
    if not 1 <= window <= F.horizon:
        raise ParameterError("window outside [1, horizon]")
    if F.source is not None:
        return symbol_window_max(*F.source, window)
    return interval_window_max(F.los, F.his, F.horizon, window)


# ---------------------------------------------------------------------------
# pairwise orbit distances


def _pair_limit(x: PointView, y: PointView, n: int, depth: int) -> int:
    limit = min(x.horizon, y.horizon)
    if n + depth > limit:
        raise HorizonError(
            f"{n} steps at comparison depth {depth} need horizon {n + depth}, "
            f"have {limit}"
        )
    return limit


def _segments(los, his, steps: int, cap: int):
    """The steps i < steps, segment by segment, against the merged 1-based
    disagreement intervals [los, his]: the one statement of the gap rule.

    The gap of step i is p - i for the first disagreement p > i; step i
    reads 1/gap, or 0 and truncated when the gap exceeds ``cap`` or no p
    follows.  Step i meets interval [lo, hi] first when the previous hi
    (0 before the first interval) <= i < hi, at max(lo, i+1): its gap is
    lo - i before lo, falling by one per step, and 1 from lo on.  So each
    interval yields (start, near, lo, end), end = min(hi, steps): steps
    start .. near-1 are truncated and steps near .. end-1 are within the
    cap, near = min(max(lo - cap, start), end).  Stops once start >=
    steps; the steps past the last interval meet none and are truncated.
    """
    start = 0
    for lo, hi in zip(los, his):
        if start >= steps:
            return
        end = hi if hi < steps else steps
        near = lo - cap if lo - cap > start else start
        yield start, (near if near < end else end), lo, end
        start = hi


def _gap_distances(los: list, his: list, steps: int, cap: int) -> tuple:
    """(values, truncated), two lists, of each step i < steps by the gap
    rule of ``_segments``.

    The lists grow segment by segment: a run of zeros, the quotients 1/gap
    over a falling range of gaps, and a run of ones, whose entries share
    one float object.  Each quotient divides the float 1.0 by the int gap,
    which converts exactly below 2^53, so it rounds as the integer quotient
    does; every word this package builds is far shorter.
    """
    values, truncated = [], []
    for start, near, lo, end in _segments(los, his, steps, cap):
        values += itertools.repeat(0.0, near - start)
        values += map((1.0).__truediv__, range(lo - near, lo - min(lo, end), -1))
        values += itertools.repeat(1.0, end - max(lo, near))
        truncated += itertools.repeat(True, near - start)
        truncated += itertools.repeat(False, end - near)
    values += itertools.repeat(0.0, steps - len(values))
    truncated += itertools.repeat(True, steps - len(truncated))
    return values, truncated


def step_distance_array(x: PointView, y: PointView, n: int,
                        depth: int = DEFAULT_DEPTH):
    """Per-step distances d(sigma^i x, sigma^i y) for i in [0, n).

    Returns (values, truncated), two lists, where truncated marks steps
    with no disagreement within the comparison depth; those report 0 and
    the true value lies in [0, 1/(depth+1)].
    """
    _pair_limit(x, y, n, depth)
    los, his = diff_intervals(x.prefix, y.prefix, upto=n + depth)
    return _gap_distances(los, his, n, depth)


def distance_sum(x: PointView, y: PointView, n: int,
                 depth: int = DEFAULT_DEPTH) -> tuple:
    """(sum of step distances over [0, n), truncated step count, exact sum),
    closed form.

    Walks the segments of ``_segments`` instead of the steps, so n may be
    astronomically large as long as the views carry the runs.  The float
    sum adds differences of [H_0, ..., H_depth], each 1/k added in order
    as a float cumsum does.  The exact sum is a Fraction:
    the steps of a segment within the cap read each gap g in [lo - min(lo,
    end) + 1, lo - near] once, so an integer difference array over g counts
    c_g, and the sum is the steps inside disagreements plus sum_g c_g / g
    over lcm(1..depth).
    """
    from fractions import Fraction

    _pair_limit(x, y, n, depth)
    los, his = diff_intervals(x.prefix, y.prefix, upto=n + depth)
    table = [0.0, *itertools.accumulate(1.0 / k for k in range(1, depth + 1))]
    total = 0.0
    truncated = n
    inside = 0
    gap_marks = [0] * (depth + 2)  # difference array of the counts c_g
    for _, near, lo, end in _segments(los, his, n, depth):
        truncated -= end - near
        if near < min(lo, end):  # the approach steps within the cap
            g_lo = lo - min(lo, end) + 1
            total += table[lo - near] - table[g_lo - 1]
            gap_marks[g_lo] += 1
            gap_marks[lo - near + 1] -= 1
        if end > lo:  # the steps inside the disagreement, each at 1
            total += float(end - lo)
            inside += end - lo
    lcm = math.lcm(*range(1, depth + 1))
    count = num = 0
    for g in range(1, depth + 1):
        count += gap_marks[g]
        num += count * (lcm // g)
    return total, truncated, inside + Fraction(num, lcm)


def cesaro_avg_distance(x: PointView, y: PointView, n: int,
                        depth: int = DEFAULT_DEPTH) -> AverageReport:
    """Cesaro average (1/n) sum d(sigma^i x, sigma^i y) over i in [0, n),
    with the exact rational upper bound in ``upper_exact``."""
    from fractions import Fraction

    if n < 1:
        raise ParameterError("need at least one step")
    total, truncated, exact = distance_sum(x, y, n, depth)
    return AverageReport(
        value=total / n,
        window=(0, n),
        truncation_correction=truncated / (depth + 1) / n,
        method="closed-form",
        upper_exact=(exact + Fraction(truncated, depth + 1)) / n,
    )


def banach_avg_distance(x: PointView, y: PointView, L: int,
                        depth: int = DEFAULT_DEPTH) -> AverageReport:
    """Exact sup over windows of length L of the windowed average distance.

    The one-pair call of ``banach_avg_distances``, which documents the sweep.
    """
    return banach_avg_distances([x, y], [(0, 1)], L, depth)[0]


def banach_avg_distances(members: Sequence[PointView], pairs, L: int,
                         depth: int = DEFAULT_DEPTH) -> list:
    """``banach_avg_distance`` of each index pair (i, j) of ``members``.

    For each pair, the sup ranges over every window [M, M+L) inside the
    usable horizon (all steps whose depth-capped comparison is fully
    determined).  The correction reports how far the corrected sup
    (counting every truncated comparison at its worst) sits above the plain
    sup.  Returns one report per pair, in order.

    On a binary alphabet a pair disagrees exactly where one of its members
    disagrees with a shared base member, the one of longest horizon.  So
    each member is walked once against the base and keeps its flip points
    (lo and hi+1 of each interval) as a set, and a pair's intervals are the
    sorted symmetric difference of its two sets.  Its points up to the
    pair's shorter horizon are exact, and ``_sweep_pair`` reads no interval
    that opens past it.  Other alphabets walk each pair directly.

    The pairs of one call share one dict of running sums and window sums,
    which lives as long as the call.  A pair's terms depend only on the
    shapes of its segments, not on where they sit: the 1,000 pairs of
    ``thm-1.3-banach-equi`` list 14 term sequences.  So each distinct one
    is added up once, and each distinct run of window sums taken from it
    is subtracted once; ``_sweep_pair`` says why every float stays the same.

    Swept over breakpoints, with no per-step array.  The nonzero steps are
    those within cap ``depth`` by the gap rule of ``_segments``; every
    other step is truncated.  Adding 0.0 is exact, so the running sum of
    the K nonzero terms in step order equals the dense running sum at
    every step, and a window holds L minus its nonzero steps truncated.

    Candidate starts.  Moving a window start from s-1 to s drops step s-1
    and takes in step s+L-1.  When neither is nonzero, both window sums
    keep their value (in floats too: the running-sum indices are the same).
    When only step s-1 is, the plain sum loses a term of at least 1/depth
    and the corrected sum gains at most 1/(depth+1) for the truncated step
    taken in: both fall strictly.  In floats the plain sum cannot rise
    either, since the two differences share their upper running sum and
    the lower one grew; the corrected sum falls while its drop of at least
    1/(depth (depth+1)) exceeds the rounding error of two window sums
    (below), by many orders here.  So start 0 and the starts whose window
    ends on a nonzero step hold both maxima and the smallest start of the
    plain one.  A segment of consecutive nonzero ends gives a stretch of
    consecutive such starts, along which the count j of nonzero steps
    before the start rises by one past each start that is itself a nonzero
    step.  While j stays fixed, the next start only takes in a nonzero
    step: by the same argument the plain sum cannot fall and the corrected
    one rises.  So a stretch needs only its starts on nonzero steps and its
    last start.  Along a run of starts on nonzero steps the window's count
    of nonzero steps is constant: one ``map`` subtracts the run's running
    sums, ``max`` and ``index`` give its best and smallest start, and
    fl(max + count term) its corrected best, as rounding preserves order.
    When a run's first start or a last start sets a new best, the starts
    before it with the same j may tie: ``_tie_start`` finds the smallest.
    So every float matches the dense sweep's.

    ``rounding_bound`` bounds |upper - U| for the exact corrected sup U
    (1/g per nonzero step, 1/(depth+1) per truncated one).  With
    u = 2^-53, each term fl(1/g) is within u of 1/g, and a running sum of
    at most K terms in [0, 1] is off by at most K u + K^2 u (1+u) / (1-Ku)
    <= 1.01 K^2 u + K u (recursive summation, K u < 2^-10); a window sum,
    the difference of two of them rounded once more, by at most
    2.1 K^2 u + 3.1 K u <= 3 K (K+1) u, which is 3 K (K+1) u / L on the
    average.  The window sum and its count term are each at most L, so
    adding ``tcounts/(depth+1)`` (one rounding) and dividing by L (one
    more) add at most 4u to the average, which is at most 1; the max is
    1-Lipschitz and exact in floats; forming
    ``value + (corrected - value)`` adds at most 3u; and 3u more covers
    the caller's sum ``upper + rounding_bound``.
    """
    if L < 1 or depth < 1:
        raise ParameterError("window length and depth must be positive")
    pairs = list(pairs)
    steps = [min(members[i].horizon, members[j].horizon) - depth
             for i, j in pairs]
    for s in steps:
        if s < L:
            raise HorizonError(f"window {L} does not fit in {s} usable steps")
    used = {m for pair in pairs for m in pair}
    if used and all(members[m].alphabet_size == 2 for m in used):
        base = members[max(used, key=lambda m: members[m].horizon)].prefix
        flips = {}
        for m in used:
            los, his = diff_intervals(base, members[m].prefix)
            flips[m] = frozenset([*los, *map((1).__add__, his)])
        walks = (sorted(flips[i] ^ flips[j]) for i, j in pairs)
        walks = ((p[0::2], map((-1).__add__, p[1::2])) for p in walks)
    else:
        walks = (diff_intervals(members[i].prefix, members[j].prefix,
                                upto=s + depth)
                 for (i, j), s in zip(pairs, steps))
    table = [0.0, *map((1.0).__truediv__, range(1, depth + 1))]  # 1/gap
    runs = {}  # shared by this call's pairs, all under one table and depth
    return [_sweep_pair(los, his, s, L, depth, table, runs)
            for (los, his), s in zip(walks, steps)]


def _sweep_pair(los, his, steps: int, L: int, depth: int, table: list,
                runs: Optional[dict] = None) -> AverageReport:
    """The window sweep of ``banach_avg_distances`` for one pair, over its
    merged disagreement intervals [los, his]; ``table[g]`` is 1.0/g for the
    gaps g <= depth, so an approach segment's terms are one slice of it.

    The terms are listed segment by segment of ``_segments`` and ``run``
    adds them from 0 in step order; segment q of consecutive nonzero steps
    is [firsts[q], lasts[q]], its first term at[q].  Each interval opens
    past the steps before it, since the one before ends at least two
    positions earlier.
    The candidates come in increasing start order, and only a strictly
    larger sum replaces the best, which keeps the smallest start.

    A segment's terms depend only on its shape (lo - near, lo - end): the
    gaps lo - near down to max(lo - end, 0) + 1 from ``table``, then
    max(end - lo, 0) ones, end - near terms in all.  So ``runs`` maps the
    tuple of a pair's shapes to its ``run``, built and added up only when
    the tuple is new, and to the (max, first index of max) of each run of
    window sums taken from that ``run``, keyed by its (e, j, length).
    Equal shape tuples list the same terms in the same order, so their
    running sums are the same floats, and so are the differences of equal
    slices.  The length is part of the key, since equal shapes may still
    group their steps into segments apart: an approach capped at ``depth``
    joins the segment before it exactly when it opens on that segment's
    end.  ``banach_avg_distances`` shares one dict among the pairs of a
    call, all under its one ``table``; a call with no dict uses a fresh
    one.  The ties, the corrected sum and the rounding bound are still
    found for each pair.
    """
    firsts, lasts, at, shapes = [], [], [], []
    K = 0  # the terms before the current segment
    for start, near, lo, end in _segments(los, his, steps, depth):
        if near == end:  # past the usable steps, as is every later interval
            break
        if lasts and near == start:
            lasts[-1] = end - 1
        else:
            firsts.append(near)
            lasts.append(end - 1)
            at.append(K)
        shapes.append((lo - near, lo - end))
        K += end - near
    at.append(K)
    key = tuple(shapes)
    if runs is None:
        runs = {}
    shared = runs.get(key)
    if shared is None:
        terms = []
        for top, cut in shapes:
            terms += table[top:max(cut, 0):-1]
            terms += itertools.repeat(1.0, -cut)
        shared = runs[key] = (list(itertools.accumulate(terms, initial=0.0)),
                              {})
    run, window_best = shared
    # start 0: its window holds the nonzero steps below L
    q = bisect.bisect_left(firsts, L)
    j = at[q - 1] + min(lasts[q - 1], L - 1) - firsts[q - 1] + 1 if q else 0
    best, m = run[j], 0
    corrected = best + (L - j) / (depth + 1)
    q = 0  # the first segment not wholly before the current starts
    for first, last, e0 in zip(firsts, lasts, at):
        if last < L - 1:
            continue
        # the starts whose window ends in this segment; start s ends its
        # window at run index s + shift
        lo_s, hi_s = max(first, L - 1) + 1 - L, last + 1 - L
        shift = e0 + L - first
        while lasts[q] < lo_s:
            q += 1
        group = lo_s  # the first start on which j takes its current value
        r = q
        while r < len(firsts) and firsts[r] <= hi_s:
            # the run of starts on the nonzero steps of segment r
            x, y = max(firsts[r], lo_s), min(lasts[r], hi_s)
            e, j = x + shift, at[r] + x - firsts[r]
            n = y - x + 1
            got = window_best.get((e, j, n))
            if got is None:
                sums = list(map(operator.sub, run[e:e + n], run[j:j + n]))
                total = max(sums)
                got = window_best[e, j, n] = total, sums.index(total)
            total, i = got
            corrected = max(corrected, total + (L - e + j) / (depth + 1))
            if total > best:
                best, m = total, (x + i if i else
                                  _tie_start(run, e, j, total, x, group))
            group = y + 1
            r += 1
        if group <= hi_s:  # the last start, on a zero step
            e, j = hi_s + shift, at[r]
            total = run[e] - run[j]
            corrected = max(corrected, total + (L - e + j) / (depth + 1))
            if total > best:
                best, m = total, _tie_start(run, e, j, total, hi_s, group)
    value = best / L
    return AverageReport(
        value=value,
        window=(m, m + L),
        truncation_correction=corrected / L - value,
        method="window-sweep",
        rounding_bound=(3 * K * (K + 1) / L + 10) * 2.0 ** -53,
    )


def _tie_start(run: list, e: int, j: int, total: float, s: int,
               group: int) -> int:
    """The smallest start in [group, s] whose window sum fl(run[e'] -
    run[j]) equals ``total``, that of start s, whose window ends at run
    index e; the sums do not fall along the group, where j is fixed."""
    while s > group and run[e - 1] - run[j] == total:
        s -= 1
        e -= 1
    return s


# ---------------------------------------------------------------------------
# diameters of finite member sets along the shift orbit


def diam_of_members(members: Sequence[PointView]) -> tuple:
    """(max pairwise distance, truncated) over a finite member list."""
    best = 0.0
    trunc = False
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            v, t = point_metric(members[i], members[j])
            best = max(best, v)
            trunc = trunc or t
    return best, trunc


def _merge_intervals(pieces) -> tuple:
    """Union of (los, his) pairs of 1-based inclusive intervals, merged."""
    los, his = [], []
    for lo, hi in sorted(itertools.chain.from_iterable(
            zip(*piece) for piece in pieces)):
        if his and lo <= his[-1] + 1:
            his[-1] = max(his[-1], hi)
        else:
            los.append(lo)
            his.append(hi)
    return los, his


def _orbit_disagreements(members: Sequence[PointView], steps: int) -> tuple:
    """(los, his, H): the merged positions p <= H where the members do not
    all agree, H their shared horizon, which ``steps`` must not exceed.

    Any pairwise disagreement at p forces a disagreement with the base
    member at p, so the union over pairs equals the union over
    (base, other) pairs; the base is chosen with the fewest runs.

    A ``BlockFamily`` answers H without materializing a member, and with at
    least two marks it needs no member at all.  Let z = w 0^(horizon-s) be
    its zero-tail word.  At a position that is not a mark every marked
    member equals z, so the members disagree there exactly when some extra
    differs from z.  At a mark the member carrying it reads 1 and every
    other marked member reads 0.  Hence the union is the marks together
    with the disagreement sets of z and each extra.
    """
    if not members:
        raise ParameterError("need at least one member")
    if isinstance(members, BlockFamily):
        H = min([members.horizon] + [e.horizon for e in members.extras])
    else:
        H = min(m.horizon for m in members)
    if steps > H:
        raise HorizonError(f"{steps} steps exceed shared horizon {H}")
    if isinstance(members, BlockFamily) and len(members.marks) >= 2:
        z, marks = members.zero_tail, members.marks
        pieces = [diff_intervals(z, e.prefix, upto=H) for e in members.extras]
        if marks.start <= H:  # an extra may end before the marks
            pieces.append(([marks.start], [min(marks.stop - 1, H)]))
    else:
        members = list(members)
        base = min(members, key=lambda m: len(m.prefix.runs))
        pieces = [diff_intervals(base.prefix, m.prefix, upto=H)
                  for m in members if m is not base]
    return (*_merge_intervals(pieces), H)


def diam_sequence(members: Sequence[PointView], steps: int):
    """diam(sigma^i U) for the sampled member set U, i in [0, steps).

    Exact for the sampled members (hence a lower bound on the true set
    diameter).  Returns (values, truncated), two lists: a truncated step
    means the members all agree to the shared horizon and only the bias
    bound 1/(horizon - i + 1) is known.  A ``BlockFamily`` is handled from
    its block, marks and extras, without materializing its members.
    """
    los, his, H = _orbit_disagreements(members, steps)
    if len(members) == 1:
        return [0.0] * steps, [False] * steps
    # every disagreement lies within H, so only a step with none later has
    # a gap above H
    return _gap_distances(los, his, steps, H)


def orbit_diam_sequence(members: Sequence[PointView], steps: int,
                        step_fn: Callable[[PointView], PointView]):
    """Naive diameter sequence under an arbitrary one-step map.

    Deduplicates members between steps (the induced map may collapse
    points).  Meant for small member lists such as the patched-system sets.
    Returns (values, truncated) as lists.
    """
    values = []
    truncated = []
    cur = list(members)
    for _ in range(steps):
        seen = {}
        for m in cur:
            seen.setdefault(m.key(), m)
        cur = list(seen.values())
        v, t = diam_of_members(cur)
        values.append(v)
        truncated.append(t)
        cur = [step_fn(m) for m in cur]
    return values, truncated


def sensitivity_times(members: Sequence[PointView], delta: float,
                      steps: int) -> IndexSet:
    """Steps i < steps with diam(sigma^i U) > delta over the sampled members.

    Built on exact lower bounds, so membership certifies the separation;
    absence only means no sampled pair separates.

    Read from the merged disagreement intervals, with no per-step value:
    ``diam_sequence`` gives step i the value 1/gap by the gap rule of
    ``_segments`` with cap H, the shared horizon.  1.0/g falls as g grows,
    so the gaps g <= H with 1.0/g > delta (the float test of the value
    route, ``separation_times`` in ``tests/conftest.py``) are 1 .. G, G
    found by bisection; and a step reading 0 is above delta for every step
    or none.  So the steps above delta are the steps within cap G of
    ``_segments``: near .. end-1 of each segment.
    """
    los, his, H = _orbit_disagreements(members, steps)
    if 0.0 > delta:  # every step reads at least 0
        return IndexSet(*(([0], [steps - 1]) if steps else ([], [])), steps)
    G = bisect.bisect_left(range(1, H + 1), True,
                           key=lambda g: not 1.0 / g > delta)
    if not G:  # no gap reads above delta; cap 0 would keep the gaps of 1
        return IndexSet([], [], steps)
    out_los, out_his = [], []
    for _, near, _, end in _segments(los, his, steps, G):
        if out_his and out_his[-1] == near - 1:
            out_his[-1] = end - 1  # unchanged when near == end
        elif near < end:
            out_los.append(near)
            out_his.append(end - 1)
    return IndexSet(out_los, out_his, steps)


# ---------------------------------------------------------------------------
# mean condition <-> density condition conversion


def _exact_ratio(value, name: str):
    """``value`` as an exact (numerator, denominator) pair; finite and within
    float range only, since the report prints every input as a float."""
    from fractions import Fraction

    try:
        if not hasattr(value, "as_integer_ratio"):
            value = Fraction(value)  # decimal strings such as "0.25"
        float(value)  # ints and Fractions beyond float range overflow here
        return value.as_integer_ratio()
    except (ValueError, OverflowError):
        raise ParameterError(
            f"{name} must be a finite number within float range") from None


def scaled_sides(D: int, seq: Sequence[int], d: int, r: int, m: int) -> tuple:
    """(passed, sides) as ``mean_to_density_check`` decides them, from its
    inputs times one common denominator D: the sequence, delta, sqrt_delta
    and M.  ``sides`` holds (premise, holds) of side (i), then of side (ii), and is
    empty for an empty sequence.

    A running maximum of prefix ratios is at most a bound exactly when
    every prefix is, so each side compares every prefix sum with the bound
    times its length: cross-multiplication, no ``Fraction``.  Any common
    denominator gives the same answer: each comparison is homogeneous in
    D, of degree 1 in side (i) and in the premise of side (ii), of degree 2
    in the conclusion of (ii), and the thresholds compare values with values.
    """
    if not seq:
        return True, ()

    def within(terms, per) -> bool:
        # every prefix sum of terms is at most per times its length
        return all(map(operator.le, itertools.accumulate(terms),
                       itertools.count(per, per)))

    def hits(thresh):
        # D at each value >= thresh, 0 elsewhere: D times the hit count
        return map(D.__mul__, map(thresh.__le__, seq))

    # (i): max prefix average <= delta  =>  max density at sqrt_delta <= it
    premise1 = within(seq, d)
    holds1 = not premise1 or within(hits(r), r)
    # (ii): max density at delta <= delta  =>  max prefix average is at
    # most (M + 1) delta = (m + D) d / D^2
    premise2 = within(hits(d), d)
    holds2 = not premise2 or within(map(D.__mul__, seq), (m + D) * d)
    return (holds1 and holds2), ((premise1, holds1), (premise2, holds2))


def _best_prefix_ratio(terms) -> tuple:
    """(sum, n) of the largest prefix average of ``terms``, starting from
    0/1; ratios compare by cross-multiplication."""
    best_s, best_n = 0, 1
    for n, s in enumerate(itertools.accumulate(terms), start=1):
        if s * best_n > best_s * n:
            best_s, best_n = s, n
    return best_s, best_n


def mean_to_density_check(a: Sequence[float], delta: float, M: float,
                          sqrt_delta: Optional[float] = None) -> Report:
    """Check both conversion inequalities on a finite bounded sequence.

    (i)  if every prefix average is <= delta then the prefix-max density of
         {i : a_i >= sqrt(delta)} is <= sqrt(delta);
    (ii) if the prefix-max density of {i : a_i >= delta} is <= delta then
         every prefix average is <= (M+1) delta.

    Every input becomes an integer over one common denominator D, read by
    ``_exact_ratio``, and ``scaled_sides`` decides the two sides on them;
    the report adds the running maxima and margins, each an exact ratio of
    integers whose int division rounds as ``float(Fraction)`` does.  Pass
    ``sqrt_delta`` when delta is a perfect square of a rational to keep
    side (i) exact too.
    """
    nd, dd = _exact_ratio(delta, "delta")
    if nd <= 0:
        raise ParameterError("delta must be positive")
    nm, dm = _exact_ratio(M, "M")
    nr, dr = _exact_ratio(math.sqrt(delta) if sqrt_delta is None else sqrt_delta,
                          "sqrt_delta")
    ratios = [_exact_ratio(v, "sequence value") for v in a]
    D = math.lcm(dd, dm, dr, *{den for _, den in ratios})
    seq = [num * (D // den) for num, den in ratios]
    d, r, m = nd * (D // dd), nr * (D // dr), nm * (D // dm)
    if seq and (min(seq) < 0 or max(seq) > m):
        raise ParameterError("sequence values must lie in [0, M]")
    # side (ii)'s (M + 1) delta = (nm + dm) nd / (dm dd)
    if (nm + dm) * nd > _FLOAT_MAX * dm * dd:
        raise ParameterError("(M + 1) delta must be finite within float range")
    passed, sides = scaled_sides(D, seq, d, r, m)
    rep = Report("mean-to-density", params={
        "delta": fmt17(delta), "M": fmt17(M), "length": len(seq),
        "sqrt_delta": fmt17(r / D),
    })
    if not seq:
        rep.verdict = PASS
        rep.caveats.append("empty sequence: vacuous")
        return rep
    (premise1, holds1), (premise2, holds2) = sides
    s, n = _best_prefix_ratio(seq)  # max prefix average s / (D n)
    c1, n1 = _best_prefix_ratio([int(v >= r) for v in seq])
    c2, n2 = _best_prefix_ratio([int(v >= d) for v in seq])
    bound = (m + D) * d  # (M + 1) delta times D^2
    rep.witnesses = [
        {"side": "mean->density", "premise_holds": premise1,
         "max_prefix_avg": fmt17(s / (D * n)),
         "density_at_sqrt_delta": fmt17(c1 / n1),
         "holds": holds1,
         "margin": fmt17((r * n1 - c1 * D) / (D * n1)) if premise1 else None},
        {"side": "density->mean", "premise_holds": premise2,
         "density_at_delta": fmt17(c2 / n2),
         "bound": fmt17(bound / (D * D)),
         "holds": holds2,
         "margin": (fmt17((bound * n - s * D) / (D * D * n)) if premise2
                    else None)},
    ]
    rep.verdict = PASS if passed else FAIL
    if sqrt_delta is None:
        rep.caveats.append("sqrt(delta) taken as the nearest float")
    return rep
