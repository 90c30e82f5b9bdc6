import functools
import random

import pytest

from meansense import (
    GeneratorDescriptor,
    ParameterError,
    ResourceCapError,
    S4Construction,
    Word,
    build_schedule_s4,
    check_dense_periodic_desk,
    check_transitive_desk,
    cylinder_members,
    de_bruijn_word,
    power,
    subwords,
)
from meansense import language

from conftest import expand


def naive_subwords(text: str, n: int):
    return {text[i:i + n] for i in range(len(text) - n + 1)}


def test_subwords_matches_naive_on_random_words():
    rng = random.Random(3)
    for _ in range(200):
        text = "".join(rng.choice("01") for _ in range(rng.randint(3, 400)))
        la = Word.from_string(text)
        n = rng.randint(1, min(8, len(text)))
        got = {w.as_string() for w in subwords(la, n)}
        assert got == naive_subwords(text, n)


def test_subwords_of_full_shift_oracle():
    # a dense word of order n exhibits every length-n word
    for n in (2, 3, 4):
        la = de_bruijn_word(n)
        assert len(subwords(la, n)) == 2 ** n
        # exactly ``cap`` distinct words is not past the cap
        assert len(subwords(la, n, cap=2 ** n)) == 2 ** n


def test_subwords_prefix_closure(s3_language):
    small = {w.subword(1, 3) for w in subwords(s3_language, 4)}
    assert small <= set(subwords(s3_language, 3))


def test_subwords_s3_pair_example(s3):
    la = s3.a_word(2)
    got = {w.as_string() for w in subwords(la, 2)}
    assert got == {"11", "10", "00", "01"}


def test_subwords_raises_past_cap():
    la = de_bruijn_word(5)
    with pytest.raises(ResourceCapError):
        subwords(la, 5, cap=7)
    with pytest.raises(ResourceCapError):
        subwords(la, 5, cap=2 ** 5 - 1)


def test_cylinder_members_start_with_word(s3_language, s3):
    u = s3.a_word(1)
    members = cylinder_members(s3_language, u, max_members=12,
                               member_horizon=256)
    assert members
    assert all(m.starts_with(u) for m in members)
    assert all(m.horizon == 256 for m in members)


def test_cylinder_members_match_string_search():
    # the members are the first max_members occurrences whose view of
    # member_horizon symbols fits in the source, the last usable start
    # (len - member_horizon + 1) included
    rng = random.Random(5)
    at_edge = 0
    for trial in range(600):
        text = "".join(rng.choice("01") * rng.randint(1, 4)
                       for _ in range(rng.randint(2, 40)))
        plen = rng.randint(1, min(5, len(text)))
        p0 = rng.randint(0, len(text) - plen)
        u = text[p0:p0 + plen]
        horizon = rng.randint(plen, len(text) + 1)
        if trial % 2:  # the last usable start holds an occurrence
            horizon = len(text) - p0
        cap = rng.choice([1, 2, 4, 32])
        got = cylinder_members(Word.from_string(text), Word.from_string(u),
                               max_members=cap, member_horizon=horizon)
        starts = [i for i in range(len(text) - horizon + 1)
                  if text.startswith(u, i)][:cap]
        assert [(m.provenance.offset, m.prefix.as_string()) for m in got] == \
            [(i, text[i:i + horizon]) for i in starts], trial
        at_edge += bool(starts) and starts[-1] == len(text) - horizon
    assert at_edge > 50


def test_cylinder_members_empty_is_not_error(s3_language):
    # no four consecutive ones occur anywhere in the built prefix
    got = cylinder_members(s3_language, Word.from_string("11111"),
                           max_members=4, member_horizon=64)
    assert got == []


def test_s4_has_no_adjacent_ones(s4):
    la = s4.transitive_prefix(s4.schedule.level(4).len_a).prefix
    assert cylinder_members(la, Word.from_string("1111"), 4, 64) == []
    assert {w.as_string() for w in subwords(la, 1)} == {"0", "1"}
    assert Word.from_string("11") not in set(subwords(la, 2))


def test_cylinder_members_rejects_empty_word(s3_language):
    with pytest.raises(ParameterError):
        cylinder_members(s3_language, Word.empty(), 4, 16)


def test_transitive_desk_passes_on_recurrent_prefixes(s3_x4):
    la = s3_x4.prefix
    rep = check_transitive_desk(la, 3)
    assert rep.passed


def test_transitive_desk_trivial_and_failing_cases():
    assert check_transitive_desk(Word(2, [(0, 4000)]), 1).passed
    bad = Word(2, [(1, 1), (0, 3999)])
    rep = check_transitive_desk(bad, 1)
    assert rep.verdict == "FAIL"
    assert rep.witnesses[0]["non_recurring"]


def capped_subwords(monkeypatch, cap):
    """Make both desk checks sample with a ``cap`` far below their own."""
    monkeypatch.setattr(language, "subwords",
                        functools.partial(language.subwords, cap=cap))


def test_transitive_desk_raises_on_capped_sample(monkeypatch):
    # 8 distinct length-3 words, all recurring: PASS with the default cap
    la = power(de_bruijn_word(6), 2)
    assert check_transitive_desk(la, 3).passed
    capped_subwords(monkeypatch, 4)
    with pytest.raises(ResourceCapError):
        check_transitive_desk(la, 3)


def test_dense_periodic_desk_raises_on_capped_sample(s4, monkeypatch):
    la = s4.transitive_prefix(s4.schedule.level(3).len_a).prefix
    assert check_dense_periodic_desk(s4, la, 3).passed
    capped_subwords(monkeypatch, 2)
    with pytest.raises(ResourceCapError):
        check_dense_periodic_desk(s4, la, 3)


def test_transitive_desk_guard_is_inconclusive():
    la = Word(2, [(0, 40)])
    assert check_transitive_desk(la, 39).verdict == "INCONCLUSIVE"


def test_dense_periodic_desk_small_n(s4):
    la = s4.transitive_prefix(s4.schedule.level(3).len_a).prefix
    for n in (1, 3):
        rep = check_dense_periodic_desk(s4, la, n)
        assert rep.passed
        table = rep.witnesses[0]["witness_table"]
        if n == 3:
            assert table[Word.from_string("101").to_text()] == {"i": 1, "t": 0}


def expanded_periodic_witnesses(c, src, n):
    """Witness table and unwitnessed list by comparing expanded symbols at
    every offset t < period of two periods' worth of each periodic word."""
    levels = range(1, min(2, c.schedule.depth - 1) + 1)
    period_words = {}
    for i in levels:
        period = c.schedule.level(i).len_a + c.schedule.level(i + 1).len_a
        sym = expand(c.periodic_point(i, 0, period + n).prefix)
        period_words[i] = (period, sym)
    table, missing = {}, []
    for w in subwords(src, n):
        target = expand(w)
        found = None
        for i in levels:
            period, sym = period_words[i]
            for t in range(period):
                if sym[t:t + n] == target:
                    found = (i, t)
                    break
            if found:
                break
        if found:
            table[w.to_text()] = {"i": found[0], "t": found[1]}
        else:
            missing.append(w.to_text())
    return table, missing


@pytest.mark.parametrize("kind", ["constant-zero", "thue-morse", "sturmian"])
def test_dense_periodic_desk_matches_expanded_scan(kind):
    c = S4Construction(build_schedule_s4(4, GeneratorDescriptor(kind)))
    src = c.transitive_prefix(c.schedule.level(4).len_a).prefix
    for n in range(3, 7):
        rep = check_dense_periodic_desk(c, src, n)
        table, missing = expanded_periodic_witnesses(c, src, n)
        assert rep.witnesses[0]["witness_table"] == table
        assert rep.verdict == ("FAIL" if missing else "PASS")
        assert rep.witnesses[1:] == ([{"unwitnessed": missing}] if missing
                                     else [])


def test_dense_periodic_desk_requires_s4(s3, s3_language):
    with pytest.raises(ParameterError):
        check_dense_periodic_desk(s3, s3_language, 2)


def test_full_shift_transitivity_oracle():
    la = power(de_bruijn_word(6), 2)
    for n in (1, 2, 3):
        assert check_transitive_desk(la, n).passed
