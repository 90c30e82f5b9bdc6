import json

import pytest

from meansense import (
    BlockFamily,
    GeneratorDescriptor,
    Level,
    LengthOverflowError,
    OccurrenceIndex,
    ParameterError,
    PointView,
    Provenance,
    ResourceCapError,
    S3Construction,
    S4Construction,
    Schedule,
    Word,
    WitnessUnavailableError,
    build_schedule_s3,
    build_schedule_s4,
    find_occurrences,
    minimal_generator,
    patched_point,
    patched_step,
    verify_schedule,
)
from meansense.checks import s4_construction_sharpened
from meansense.words import RunBuilder

from conftest import expand


def test_s3_schedule_frozen_values():
    sched = build_schedule_s3(3)
    lv1, lv2, lv3 = sched.levels
    assert (lv1.k, lv1.len_a, lv1.len_b, lv1.t) == (9, 3, 3, 24)
    assert (lv2.k, lv2.len_a, lv2.len_b, lv2.t) == (1788, 27, 840, 4443)
    assert lv3.len_a == 4470


def test_s3_overflow_fails_loudly_naming_level():
    with pytest.raises(LengthOverflowError, match="at level 5 "):
        build_schedule_s3(5)


def test_s4_schedule_frozen_values():
    sched = build_schedule_s4(2, GeneratorDescriptor("constant-zero"))
    lv1, lv2 = sched.levels
    assert (lv1.k, lv1.len_a, lv1.len_b) == (7, 3, 1)
    assert (lv2.len_a, lv2.len_b, lv2.k) == (21, 26, 469)


def test_s4_ratio_condition_holds_strictly():
    sched = build_schedule_s4(4, GeneratorDescriptor("constant-zero"))
    for hi in sched.levels:
        for lo in sched.levels:
            if lo.n < hi.n:
                assert hi.k * lo.len_b > lo.t * hi.len_b


def test_s4_rejects_bad_user_schedule():
    sched = build_schedule_s4(3, GeneratorDescriptor("constant-zero"))
    levels = list(sched.levels)
    bad = levels[2].__class__(3, levels[2].k // 2, levels[2].len_a,
                              levels[2].len_b, levels[2].t)
    with pytest.raises(ParameterError):
        verify_schedule(Schedule("S4", (levels[0], levels[1], bad), sched.base))


def test_schedule_json_round_trip():
    sched = build_schedule_s4(3, GeneratorDescriptor("thue-morse"))
    again = Schedule.from_json(json.loads(sched.to_json_str()))
    assert again == sched


def _smallest_levels(construction, len_a, len_b, depth):
    """Levels with the given level-1 lengths and the smallest k_n, from the
    recursions of the module docstring written out once more."""
    levels = []
    for n in range(1, depth + 1):
        if levels:
            prev = levels[-1]
            len_a = 2 * prev.len_a + 2 * prev.k + prev.len_b
            lens_a = [lv.len_a for lv in levels] + [len_a]
            len_b = ((len_a + 1) * (prev.len_a + len_a) if construction == "S3"
                     else n + sum((n - i) * (lens_a[i - 1] + lens_a[i])
                                  for i in range(1, n)))
        k = n * (2 * len_a + len_b)
        if construction == "S4":
            # smallest k with k |B_m| > t_m |B_n| for every m < n
            k = max([k] + [lv.t * len_b // lv.len_b + 1 for lv in levels])
        levels.append(Level(n, k, len_a, len_b, len_a + 2 * k + len_b))
    return tuple(levels)


@pytest.mark.parametrize("construction, len_a, len_b",
                         [("S3", 5, 3), ("S4", 3, 2)])
def test_verify_schedule_checks_level_one(construction, len_a, len_b):
    # every later level follows the recursion from the wrong level 1
    levels = _smallest_levels(construction, len_a, len_b, 4)
    base = GeneratorDescriptor("constant-zero") if construction == "S4" else None
    sched = Schedule(construction, levels, base)
    with pytest.raises(ParameterError, match="level 1 "):
        verify_schedule(sched)
    with pytest.raises(ParameterError, match="level 1 "):
        Schedule.from_json(json.loads(sched.to_json_str()))


def test_verify_schedule_accepts_every_built_schedule():
    schedules = []
    for depth in range(1, 5):
        schedules.append(build_schedule_s3(depth))
        assert schedules[-1].levels == _smallest_levels("S3", 3, 3, depth)
    for kind in ("constant-zero", "thue-morse", "sturmian"):
        base = GeneratorDescriptor(kind)
        for depth in range(1, 8):
            schedules.append(build_schedule_s4(depth, base))
            assert schedules[-1].levels == _smallest_levels("S4", 3, 1, depth)
        schedules.append(s4_construction_sharpened(base).schedule)
    for sched in schedules:
        verify_schedule(sched)
        assert Schedule.from_json(json.loads(sched.to_json_str())) == sched


def test_records_compare_by_value_and_stay_frozen():
    prov = Provenance("periodic", offset=3, period=4)
    views = [PointView(Word.from_string("0110"), Provenance("periodic", 3, 4))
             for _ in range(2)]
    assert prov == views[0].provenance and hash(prov) == hash(views[1].provenance)
    assert views[0] == views[1] and hash(views[0]) == hash(views[1])
    assert views[0] != PointView(Word.from_string("0110"), prov, "note")
    sched = build_schedule_s4(3, GeneratorDescriptor("sturmian", (1, 2), 7))
    again = Schedule.from_json(sched.to_json())
    assert again == sched and again.levels == sched.levels
    assert again.base == GeneratorDescriptor("sturmian", (1, 2), 7)
    for record, name in ((views[0], "prefix"), (sched, "levels"),
                         (sched.base, "kind")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_s3_built_words_match_schedule(s3):
    for n in (1, 2, 3):
        a, b = s3.level_words(n)
        lv = s3.schedule.level(n)
        assert a.length == lv.len_a
        assert b.length == lv.len_b


def test_s3_b_words_match_their_definition(s3):
    # B_n = (A_{n-1} 0^{i-1} 1 0^{|A_n|-i} for i = 1..|A_n|) ++ A_{n-1} 0^{|A_n|},
    # laid out symbol group by symbol group and merged by RunBuilder
    for n in (2, 3):
        L, prev_a = s3.schedule.level(n).len_a, s3.a_word(n - 1)
        b = RunBuilder()
        for i in range(1, L + 1):
            b.extend(prev_a)
            b.append(0, i - 1)
            b.append(1, 1)
            b.append(0, L - i)
        b.extend(prev_a)
        b.append(0, L)
        want = b.build(2)
        got = S3Construction(s3.schedule).b_word(n)
        assert got.runs == want.runs and got.length == want.length
    assert s3.b_word(2).as_string() == "".join(
        "111" + "0" * (i - 1) + "1" + "0" * (27 - i) for i in range(1, 28)
    ) + "111" + "0" * 27
    with pytest.raises(ResourceCapError):
        s3.b_word(4)  # about 5.6e8 runs


def test_s3_level_one_words(s3):
    assert s3.a_word(1) == Word.from_string("111")
    assert s3.b_word(1) == Word.from_string("000")
    assert s3.a_word(2).runs == ((1, 3), (0, 21), (1, 3))


def test_s3_b2_ones_closed_form(s3):
    # each decorated block adds one extra 1 beyond its leading level word
    b2 = s3.b_word(2)
    a1_ones = s3.a_word(1).count(1)
    assert b2.count(1) == (27 + 1) * a1_ones + 27 == 111


def test_s3_b_ones_closed_form_all_levels(s3):
    for n in (2, 3):
        lv = s3.schedule.level(n)
        prev_ones = s3.a_word(n - 1).count(1)
        assert s3.b_word(n).count(1) == (lv.len_a + 1) * prev_ones + lv.len_a


def test_every_a_starts_and_ends_with_previous(s3, s4):
    for c in (s3, s4):
        for n in (2, 3):
            a_prev, a = c.a_word(n - 1), c.a_word(n)
            assert a.starts_with(a_prev)
            assert a.ends_with(a_prev)


def test_s3_b_contains_expected_block_count(s3):
    # every decorated block opens with the previous level word
    from meansense import find_occurrences
    b2 = s3.b_word(2)
    occs = find_occurrences(b2, s3.a_word(1), cap=10_000)
    assert len(occs) >= 27 + 1


def test_s3_a2_subword_is_core_block(s3):
    assert s3.a_word(2).subword(13, 3) == Word.from_string("000")


def test_s3_a2_ones_count(s3):
    assert OccurrenceIndex(s3.a_word(2)).count_range(1, 27) == 6


def test_transitive_prefix_small_horizons(s3, s4):
    assert s3.transitive_prefix(3).prefix == Word.from_string("111")
    assert s3.transitive_prefix(27).prefix == s3.a_word(2)
    assert s4.transitive_prefix(3).prefix == Word.from_string("101")


def test_transitive_prefix_is_a_prefix_chain(s3, s4):
    for c in (s3, s4):
        x3 = c.transitive_prefix(c.schedule.level(3).len_a)
        assert x3.prefix == c.a_word(3)
        x_small = c.transitive_prefix(5)
        assert c.a_word(3).starts_with(x_small.prefix)


def test_transitive_prefix_extends_into_gap(s4):
    top = s4.schedule.level(4)
    h = top.len_a + 10
    x = s4.transitive_prefix(h)
    assert x.horizon == h
    assert x.prefix.subword(top.len_a + 1, 10) == Word(2, [(0, 10)])
    from meansense import DepthError
    with pytest.raises(DepthError):
        s4.transitive_prefix(top.len_a + top.k + 1)


def test_s4_b_words_with_constant_zero_base(s4):
    assert s4.a_word(1) == Word.from_string("101")
    assert s4.b_word(1) == Word.from_string("0")
    assert s4.a_word(2).runs == ((1, 1), (0, 1), (1, 1), (0, 15), (1, 1),
                                 (0, 1), (1, 1))
    b2 = s4.b_word(2)
    assert b2.length == 26
    assert b2 == Word(2, [(0, 2), (1, 1), (0, 1), (1, 1), (0, 21)])


def test_generators():
    assert minimal_generator(GeneratorDescriptor("constant-zero"), 5) == \
        Word(2, [(0, 5)])
    assert minimal_generator(GeneratorDescriptor("thue-morse"), 8) == \
        Word.from_string("01101001")
    assert minimal_generator(GeneratorDescriptor("sturmian"), 5) == \
        Word.from_string("10110")


def test_sturmian_balancedness():
    # any two equal-length windows hold 1-counts within one of each other
    y = minimal_generator(GeneratorDescriptor("sturmian"), 4000)
    idx = OccurrenceIndex(y)
    for n in (1, 2, 3, 5, 8, 13, 55, 200):
        counts = {idx.count_range(i, i + n - 1)
                  for i in range(1, y.length - n + 2, 7)}
        assert max(counts) - min(counts) <= 1


def test_periodic_point_periodicity(s4):
    lv1, lv2 = s4.schedule.level(1), s4.schedule.level(2)
    period = lv1.len_a + lv2.len_a
    pv = s4.periodic_point(1, 0, 2 * period)
    sym = expand(pv.prefix)
    assert sym[:period] == sym[period:2 * period]
    assert pv.prefix.starts_with(s4.a_word(1))
    assert s4.periodic_point(1, 1, 4).prefix == Word.from_string("0100")
    with pytest.raises(ParameterError):
        s4.periodic_point(1, period, 8)


def test_witness_family_shape(s3):
    fam = s3.witness_family(0, 27, count=4, horizon=64)
    a2 = s3.a_word(2)
    assert fam.block == a2 and len(fam) == 4
    for j, z in enumerate(fam):
        assert z.prefix.starts_with(a2)
        assert z.horizon == 64
        # the extra 1 sits right after the j zeros
        assert z.prefix.symbol_at(27 + j + 1) == 1
        assert z.prefix.count(1) == a2.count(1) + 1
        b = RunBuilder()
        b.extend(a2)
        b.append(0, j)
        b.append(1, 1)
        b.append(0, 64 - 27 - j - 1)
        assert z.prefix == b.build(2)
        assert z.provenance == Provenance("explicit-limit", detail=f"j={j}")
        assert fam[j - 4] == z
    with pytest.raises(IndexError):
        fam[4]
    extra = s3.shift_view(0, 64)
    more = fam + [extra]
    assert len(more) == 5 and len(fam) == 4
    assert more[-1] is extra and list(more)[:4] == list(fam)
    with pytest.raises(ParameterError):
        BlockFamily(a2, range(27, 29), 64)  # a mark inside the block
    for bad in ([], range(30, 30), [28, 28], [29, 28], [28, 65], range(60, 66)):
        with pytest.raises(ParameterError):
            BlockFamily(a2, bad, 64)
    with pytest.raises(WitnessUnavailableError):
        s3.witness_family(1, 5, count=2, horizon=64)  # x[2..6] ends no A_i


def test_block_family_marks_are_one_range(s3):
    # marks are one non-empty step-1 range; a list of marks, gapped or
    # not, is rejected
    a2 = s3.a_word(2)
    assert s3.witness_family(0, 27, count=4, horizon=64).marks == range(28, 32)
    for marks in ([28, 29, 30, 33, 35, 36], list(range(28, 40)), [30],
                  range(30, 61, 3)):
        with pytest.raises(ParameterError):
            BlockFamily(a2, marks, 64)


def test_witness_family_level_one_block(s3):
    # aligned on the level-1 block 111: j zeros then a lone 1, then zeros
    fam = s3.witness_family(0, 3, count=3, horizon=16)
    assert fam[0].prefix == Word(2, [(1, 4), (0, 12)])
    assert fam[2].prefix == Word(2, [(1, 3), (0, 2), (1, 1), (0, 10)])


def test_suffix_alignments_surface_choices(s3):
    options = s3.suffix_alignments(0, s_min=1)
    assert (1, 3) in options  # the level-1 word is a suffix of itself
    assert all(s >= 1 for _, s in options)


def _suffix_alignments_scanned(c, m, s_min, cap):
    """The alignments as first written: each level's first 16 occurrences
    from its first usable start, filtered to the usable ones, no more than
    4 cap pairs in all, then sorted."""
    out = []
    host = c.a_word(c.schedule.depth)
    for i in range(1, c.schedule.depth + 1):
        ai = c.a_word(i)
        if s_min > ai.length:
            continue
        start = max(1, m + s_min - ai.length + 1)
        for pos in find_occurrences(host, ai, cap=16, start=start):
            s = pos + ai.length - 1 - m
            if s_min <= s <= ai.length:
                out.append((i, s))
            if len(out) >= cap * 4:
                break
    return sorted(set(out), key=lambda p: (p[1], p[0]))[:cap]


def test_suffix_alignments_match_the_scan_to_the_end(s3):
    # every usable alignment, from uncapped scans: x_{[m+1, m+s]} is a
    # suffix of A_i exactly when A_i ends at m+s and starts by m+1
    lv3 = s3.schedule.level(3)
    b3 = lv3.len_a + lv3.k + 1
    offsets = [0, 1, 2, 26, 27, 4469, 4470, 4471 + 1788,
               *(b3 + (blk - 1) * (27 + 4470) + 14 for blk in (1, 40, 1000)),
               *range(b3 - 3, b3 + 60, 7)]
    host = s3.a_word(4)
    ends = {i: [(pos + s3.a_word(i).length - 1, pos) for pos in
                find_occurrences(host, s3.a_word(i), cap=10 ** 6)]
            for i in range(1, 5)}
    # offsets where a level word starts at m+1 or just past it, at m+2
    offsets += [pos - d for i in (1, 2, 3) for _, pos in ends[i][1:4]
                for d in (1, 2)]
    for m in offsets:
        for s_min in (1, 3, 11, 28, 4470):
            every = sorted(((i, end - m) for i in ends for end, pos in ends[i]
                            if m + s_min <= end and pos <= m + 1),
                           key=lambda p: (p[1], p[0]))
            for cap in (1, 2, 8):
                got = s3.suffix_alignments(m, s_min=s_min, cap=cap)
                assert got == every[:cap], (m, s_min, cap)
            # the first pair is the one the occurrence scans gave first
            assert (s3.suffix_alignments(m, s_min=s_min, cap=1)
                    == _suffix_alignments_scanned(s3, m, s_min, 8)[:1])


def test_patched_step_branches():
    y = Word(4, [(0, 1), (1, 1), (0, 1), (1, 1)])
    p = patched_point(Word(4, [(2, 2), (3, 2)]), 4)
    assert patched_step(p, y).prefix == y
    q = patched_point(Word(4, [(0, 1), (1, 1), (0, 1), (1, 1)]), 4)
    assert patched_step(q, y).prefix == Word(4, [(1, 1), (0, 1), (1, 1)])


def test_patched_step_collapses_reset_cylinder():
    y = Word(4, [(0, 2), (1, 2)])
    u = [patched_point(Word(4, [(2, 6)]), 6),
         patched_point(Word(4, [(3, 6)]), 6),
         patched_point(Word(4, [(2, 3), (3, 3)]), 6)]
    stepped = {patched_step(p, y).key() for p in u}
    assert len(stepped) == 1
