import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from meansense import (
    AlphabetMismatchError,
    IndexRangeError,
    OccurrenceIndex,
    ParameterError,
    PointView,
    Provenance,
    Word,
    concat,
    de_bruijn_word,
    diff_intervals,
    find_occurrences,
    first_difference,
    max_window_count,
    point_metric,
    power,
)
from meansense.checks import _member_runs
from meansense.words import RunBuilder, interval_window_max, symbol_runs

from conftest import expand, first_disagreement, naive_window_max

words = st.lists(st.integers(0, 1), min_size=0, max_size=60).map(
    lambda xs: Word.from_symbols(xs)
)
nonempty_words = st.lists(st.integers(0, 1), min_size=1, max_size=60).map(
    lambda xs: Word.from_symbols(xs)
)


def test_canonical_form_merges_runs():
    w = Word(2, [(1, 3), (0, 9), (0, 3), (0, 9), (1, 3)])
    assert w.runs == ((1, 3), (0, 21), (1, 3))
    assert w.length == 27


_feeds = {
    "list": list,
    "generator": lambda xs: (x for x in xs),
}


@given(data=st.data(), k=st.sampled_from([2, 4]), feed=st.sampled_from(sorted(_feeds)))
def test_from_symbols_matches_run_builder(data, k, feed):
    syms = data.draw(st.lists(st.integers(0, k - 1), max_size=80))
    b = RunBuilder()
    for s in syms:
        b.append(s, 1)
    w = Word.from_symbols(_feeds[feed](syms), k)
    assert w.runs == b.build(k).runs
    assert w.length == len(syms)
    bad = data.draw(st.sampled_from([-1, k, k + 5]))
    at = data.draw(st.integers(0, len(syms)))
    with pytest.raises(ParameterError) as exc:
        Word.from_symbols(_feeds[feed](syms[:at] + [bad] + syms[at:]), k)
    assert str(exc.value) == f"symbol {bad} outside alphabet {k}"


def test_concat_examples():
    assert concat([Word.from_string("101"), Word.from_string("0")]) == \
        Word.from_string("1010")
    assert concat([]) == Word.empty(2)
    parts = [Word.from_string("111"), Word(2, [(0, 9)]), Word.from_string("000"),
             Word(2, [(0, 9)]), Word.from_string("111")]
    assert concat(parts).runs == ((1, 3), (0, 21), (1, 3))


def test_concat_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        concat([Word(2, [(1, 1)]), Word(4, [(3, 1)])])


def test_power_examples():
    assert power(Word.from_string("10"), 3) == Word.from_string("101010")
    assert power(Word.from_string("0"), 5).runs == ((0, 5),)
    assert power(Word.from_string("101"), 2) == Word.from_string("101101")
    assert power(Word.from_string("10"), 0) == Word.empty(2)


@given(u=words, v=words)
def test_ones_additive_under_concat(u, v):
    assert concat([u, v]).count(1) == u.count(1) + v.count(1)


@given(u=words, v=words, w=words)
def test_concat_associative(u, v, w):
    assert concat([concat([u, v]), w]) == concat([u, concat([v, w])])


def test_occurrence_examples():
    assert OccurrenceIndex(Word.from_string("101")).count_range(1, 3) == 2
    assert OccurrenceIndex(Word.from_string("000")).count_range(1, 3) == 0
    with pytest.raises(IndexRangeError):
        OccurrenceIndex(Word.from_string("101")).count_range(0, 3)


def test_occurrence_counts_match_naive_scan():
    rng = random.Random(13)
    for trial in range(1000):
        n = rng.randint(1, 10_000 if trial % 50 == 0 else 400)
        sym = [rng.randint(0, 1) for _ in range(n)]
        w = Word.from_symbols(sym)
        idx = OccurrenceIndex(w)
        i = rng.randint(1, n)
        j = rng.randint(i, n)
        assert idx.count_range(i, j) == sym[i - 1:j].count(1)


def test_window_max_examples():
    cnt, pos = max_window_count(OccurrenceIndex(Word.from_string("10101")), 3)
    assert (cnt, pos) == (2, 1)
    cnt, pos = max_window_count(OccurrenceIndex(Word(2, [(0, 100)])), 7)
    assert (cnt, pos) == (0, 1)
    with pytest.raises(ParameterError):
        max_window_count(OccurrenceIndex(Word.from_string("101")), 9)


def test_window_max_matches_naive_sweep():
    rng = random.Random(29)
    for trial in range(1000):
        n = rng.randint(2, 10_000 if trial % 100 == 0 else 300)
        # biased runs exercise long stretches, not just coin flips
        sym = []
        while len(sym) < n:
            sym.extend([rng.randint(0, 1)] * rng.randint(1, 9))
        sym = sym[:n]
        w = Word.from_symbols(sym)
        L = rng.randint(1, n)
        # the witness is the smallest optimal start, the naive first argmax
        assert max_window_count(OccurrenceIndex(w), L) == naive_window_max(sym, L)
    # marks {2, 3, 6, 7} of 10, window 5: starts 2 and 3 both hold 3
    # marks, and the smaller wins
    sym = [0, 0, 1, 1, 0, 0, 1, 1, 0, 0]
    assert naive_window_max(sym, 5) == (3, 3)  # 1-based
    assert interval_window_max([2, 6], [3, 7], 10, 5) == (3, 2)


def test_interval_window_max_matches_expanded_oracle():
    # marked intervals against the window counts of their expanded mask:
    # window 1, the whole span, a random window, and no marks at all
    rng = random.Random(31)
    for trial in range(600):
        span = rng.randint(1, 120)
        mask = [0] * span
        los, his = [], []
        p = rng.randint(0, 6)
        while trial % 10 and p < span:
            q = min(span - 1, p + rng.randint(0, 8))
            mask[p:q + 1] = [1] * (q - p + 1)
            los.append(p)
            his.append(q)
            p = q + rng.randint(2, 9)
        cs = [0, *itertools.accumulate(mask)]
        for window in {1, span, rng.randint(1, span)}:
            counts = [cs[m + window] - cs[m] for m in range(span - window + 1)]
            best = max(counts)
            assert interval_window_max(los, his, span, window) == (
                best, counts.index(best))


def test_subword_examples():
    w = Word.from_string("10110")
    assert w.subword(2, 3) == Word.from_string("011")
    assert w.subword(1, w.length) is w
    with pytest.raises(IndexRangeError):
        w.subword(3, 9)


@given(data=st.data(), w=nonempty_words)
def test_subword_matches_string_slice(data, w):
    s = w.as_string()
    start = data.draw(st.integers(1, len(s)))
    length = data.draw(st.integers(0, len(s) - start + 1))
    assert w.subword(start, length).as_string() == s[start - 1:start - 1 + length]
    assert w.subword(1, len(s)) is w
    assert w.symbol_at(start) == int(s[start - 1])
    assert "".join(map(str, expand(w))) == s
    for sym in (0, 1):
        los, his = symbol_runs(w, sym)
        # each 0-based run is maximal, and together they hold exactly the
        # sym positions
        assert [p for lo, h in zip(los, his)
                for p in range(lo, h + 1)] == [
                    p for p in range(len(s)) if s[p] == str(sym)]
        for lo, h in zip(los, his):
            assert lo == 0 or s[lo - 1] != str(sym)
            assert h == len(s) - 1 or s[h + 1] != str(sym)
        assert len(los) == sum(1 for x, _ in w.runs if x == sym)
        assert w.count(sym) == s.count(str(sym))


@given(data=st.data(), w=words, u=words)
def test_starts_with_matches_str_startswith(data, w, u):
    s = w.as_string()
    k = data.draw(st.integers(0, len(s)))
    # a random word, a true prefix, a longer word and the empty prefix
    for prefix in (u, w.subword(1, k), concat([w, u]), Word.empty(2)):
        assert w.starts_with(prefix) == s.startswith(prefix.as_string())
    # the alphabet check comes first, so another alphabet raises at any
    # length, a longer prefix included
    for n in (0, k, len(s) + 1):
        with pytest.raises(AlphabetMismatchError):
            w.starts_with(Word(4, [(0, n)]))


def test_point_metric_examples():
    def view(text, h=None):
        w = Word.from_string(text)
        return PointView(w, Provenance("explicit-limit"))

    assert point_metric(view("0011"), view("0011")) == (0.0, True)
    assert point_metric(view("1000"), view("0000")) == (1.0, False)
    assert point_metric(view("0010"), view("0000")) == (1 / 3, False)


@given(a=nonempty_words, b=nonempty_words)
def test_point_metric_symmetry(a, b):
    x = PointView(a, Provenance("explicit-limit"))
    y = PointView(b, Provenance("explicit-limit"))
    assert point_metric(x, y) == point_metric(y, x)


@given(a=nonempty_words, b=nonempty_words, c=nonempty_words)
def test_prefix_agreement_transitive(a, b, c):
    # if x,y agree through j and y,z agree through j then x,z agree through j
    x, y, z = (PointView(w, Provenance("explicit-limit")) for w in (a, b, c))
    h = min(x.horizon, y.horizon, z.horizon)
    jxy = first_difference(a, b) or h + 1
    jyz = first_difference(b, c) or h + 1
    jxz = first_difference(a, c) or h + 1
    j = min(jxy, jyz, h + 1)
    assert jxz >= min(j, h + 1)


@st.composite
def _word_pairs(draw):
    """Two words over one alphabet built from a common list of runs and two
    drawn tails: a changed symbol, a run of the same symbol and another
    count, or one word a prefix of the other."""
    k = draw(st.sampled_from([2, 4]))
    runs = st.lists(st.tuples(st.integers(0, k - 1), st.integers(1, 5)),
                    max_size=10)
    common = draw(runs)
    return Word(k, common + draw(runs)), Word(k, common + draw(runs))


@example(pair=(Word.from_string("0011"), Word.from_string("00110")))
@example(pair=(Word.from_string("0001"), Word.from_string("0011")))
@example(pair=(Word.from_string("001"), Word.from_string("0001")))
@given(pair=_word_pairs())
def test_first_difference_matches_expanded(pair):
    a, b = pair
    want = first_disagreement(expand(a), expand(b))
    assert first_difference(a, b) == want
    assert first_difference(b, a) == want


def _assert_canonical(w):
    assert isinstance(w.runs, tuple)
    assert all(c > 0 for _, c in w.runs)
    assert all(x[0] != y[0] for x, y in zip(w.runs, w.runs[1:]))
    assert w.length == sum(c for _, c in w.runs)


@given(data=st.data(), k=st.sampled_from([2, 4]))
def test_constructors_return_canonical_runs(data, k):
    syms = data.draw(st.lists(st.integers(0, k - 1), max_size=60))
    w = Word.from_symbols(syms, k)
    b = RunBuilder()
    for s, c in data.draw(st.lists(st.tuples(st.integers(0, k - 1),
                                             st.integers(0, 4)), max_size=12)):
        b.append(s, c)
    built = b.build(k)
    m = data.draw(st.integers(0, 3))
    start = data.draw(st.integers(1, len(syms) + 1))
    sub = w.subword(start, data.draw(st.integers(0, len(syms) - start + 1)))
    cases = [
        (w, syms),
        (built, list(expand(built))),
        (concat([w, built, w]), syms + list(expand(built)) + syms),
        (power(built, m), list(expand(built)) * m),
        (sub, syms[start - 1:start - 1 + sub.length]),
    ]
    for word, want in cases:
        _assert_canonical(word)
        assert list(expand(word)) == want


@given(row=st.integers(1, 6).flatmap(lambda n: st.lists(
    st.integers(0, 1), min_size=8 * n, max_size=8 * n)))
def test_member_runs_are_canonical(row):
    runs = _member_runs(int("".join(map(str, row)), 2), len(row))
    w = Word(2, runs, _length=len(row))
    _assert_canonical(w)
    assert list(expand(w)) == row


def test_rle_text_round_trip():
    cases = [Word.empty(2), Word.from_string("1010011"),
             Word(2, [(1, 3), (0, 21), (1, 3)]), Word(4, [(2, 5), (3, 1)])]
    for w in cases:
        assert Word.from_text(w.to_text()) == w
    assert Word(2, [(1, 3), (0, 21), (1, 3)]).to_text() == \
        "alphabet=2; 1:3 0:21 1:3"
    with pytest.raises(ParameterError):
        Word.from_text("alphabet=2; 1:3 1:4")  # not canonical


def test_rle_text_matches_the_per_run_format(s3):
    # to_text formats every run with one ``%``, a binary word's counts only;
    # the .rle files keep the bytes of the former f-string per run
    def per_run(w):
        pairs = " ".join(f"{sym}:{count}" for sym, count in w.runs)
        return f"alphabet={w.alphabet_size};" + (f" {pairs}" if pairs else "")

    binary = [Word.from_string(text) for text in (
        "0", "1", "01", "10", "001", "110", "0110", "1001", "0100011",
        "1011100")]  # one to four runs and seven, from each first symbol
    for w in (Word.empty(2), *binary, Word(2, [(1, 3), (0, 10**15)]),
              Word(4, [(0, 1), (3, 2), (1, 7), (2, 10**15)]),
              Word(4, [(2, 5)]), Word(4, [(1, 2), (0, 3), (1, 4)]),
              s3.a_word(4), s3.b_word(3)):
        assert w.to_text() == per_run(w)
    assert Word.empty(4).to_text() == "alphabet=4;"


def test_find_occurrences_basics():
    text = Word.from_string("0110110")
    pat = Word.from_string("11")
    assert find_occurrences(text, pat) == [2, 5]
    assert find_occurrences(text, Word.from_string("000")) == []
    assert find_occurrences(Word(2, [(0, 6)]), Word.from_string("00")) == \
        [1, 2, 3, 4, 5]
    assert find_occurrences(text, pat, start=3) == [5]


@pytest.mark.parametrize("pattern", ["11", "0110", "0110110110"])
@pytest.mark.parametrize("cap", [0, -1])
def test_find_occurrences_rejects_cap_below_one(pattern, cap):
    # a single-run pattern, a multi-run pattern and the whole text
    text = Word.from_string("0110110110")
    with pytest.raises(ParameterError):
        find_occurrences(text, Word.from_string(pattern), cap=cap)
    assert find_occurrences(text, Word.from_string(pattern), cap=1) != []


@pytest.mark.parametrize("text", ["0110110", "1111", "0", "011"])
def test_find_occurrences_pattern_as_long_as_text(text):
    word = Word.from_string(text)
    flipped = Word.from_string(text[:-1] + "10"[int(text[-1])])
    assert find_occurrences(word, Word.from_string(text)) == [1]
    assert find_occurrences(word, word, cap=1, last=1) == [1]
    assert find_occurrences(word, flipped) == []
    assert find_occurrences(word, word, start=2) == []
    assert find_occurrences(word, word, last=0) == []


def _run_spanning_pattern(rng, runs):
    """A substring of the text of ``runs`` covering 3 to 40 runs, its end
    runs cut at random; the whole text when there are too few runs."""
    k = rng.randint(3, 40)
    if k >= len(runs):
        return "".join(str(s) * c for s, c in runs)
    i = rng.randrange(len(runs) - k + 1)
    head, tail = runs[i], runs[i + k - 1]
    return (str(head[0]) * rng.randint(1, head[1])
            + "".join(str(s) * c for s, c in runs[i + 1:i + k - 1])
            + str(tail[0]) * rng.randint(1, tail[1]))


def test_find_occurrences_matches_string_search():
    rng = random.Random(31)
    for trial in range(1600):
        # from trial 800 on, texts over the patched system's four letters
        k = 2 if trial < 800 else 4
        if trial % 800 < 400:
            text = "".join(rng.choice("0123"[:k])
                           for _ in range(rng.randint(4, 120)))
            plen = rng.randint(1, min(6, len(text)))
            p0 = rng.randint(0, len(text) - plen)
            pat, cap = text[p0:p0 + plen], 10_000
        else:  # patterns of 3 to 40 runs, over texts of short runs
            runs, sym = [], 0
            for _ in range(rng.randint(3, 60)):
                runs.append((sym, rng.randint(1, 3)))
                # the next run's symbol differs; over four letters, any other
                sym = (sym + (1 if k == 2 else rng.randint(1, 3))) % k
            text = "".join(str(s) * c for s, c in runs)
            pat = _run_spanning_pattern(rng, runs)
            cap = rng.choice([1, 2, 3, 10_000])
        got = find_occurrences(Word.from_string(text, k),
                               Word.from_string(pat, k), cap=cap)
        want = [i + 1 for i in range(len(text) - len(pat) + 1)
                if text[i:i + len(pat)] == pat]
        assert got == want[:cap]


def test_find_occurrences_from_start_matches_string_search():
    rng = random.Random(37)
    for trial in range(820):
        # the last texts run to thousands of runs; half of them alternate
        # single symbols, so a match sits at every other run
        nruns = rng.randint(1, 40) if trial < 800 else rng.randint(8200, 9000)
        most = 1 if trial >= 800 and trial % 2 else 5
        runs = [(k % 2, rng.randint(1, most)) for k in range(nruns)]
        text = "".join(str(s) * c for s, c in runs)
        if trial < 400:
            plen = rng.randint(1, min(8, len(text)))
            p0 = rng.randint(0, len(text) - plen)
            pat = text[p0:p0 + plen]
            start = rng.randint(2, len(text) + 2)
            cap = rng.choice([1, 3, 10_000])
        else:  # patterns of 3 to 40 runs, the whole text among them
            pat = _run_spanning_pattern(rng, runs)
            start = rng.randint(1, len(text) + 2)
            cap = rng.choice([1, 2, 3, 10_000]) if trial < 800 else 10_000
        got = find_occurrences(Word.from_string(text), Word.from_string(pat),
                               cap=cap, start=start)
        want = [i + 1 for i in range(start - 1, len(text) - len(pat) + 1)
                if text[i:i + len(pat)] == pat]
        assert got == want[:cap]


def test_find_occurrences_up_to_last_matches_string_search():
    rng = random.Random(41)
    seen_single = seen_below_start = 0
    for trial in range(1200):
        nruns = rng.randint(1, 40) if trial < 1100 else rng.randint(2000, 3000)
        runs = [(k % 2, rng.randint(1, 5)) for k in range(nruns)]
        text = "".join(str(s) * c for s, c in runs)
        if trial % 3 == 0:  # one run, often longer than most text runs
            pat = str(rng.randint(0, 1)) * rng.randint(1, 6)
        elif trial % 3 == 1:
            plen = rng.randint(1, min(8, len(text)))
            p0 = rng.randint(0, len(text) - plen)
            pat = text[p0:p0 + plen]
        else:  # patterns of 3 to 40 runs, the whole text among them
            pat = _run_spanning_pattern(rng, runs)
        start = rng.randint(1, len(text) + 2)
        last = rng.randint(-2, len(text) + 3)
        cap = rng.choice([1, 2, 3, 10_000])
        got = find_occurrences(Word.from_string(text), Word.from_string(pat),
                               cap=cap, start=start, last=last)
        want = [i + 1 for i in range(start - 1, min(last, len(text)))
                if text[i:i + len(pat)] == pat]
        assert got == want[:cap], (trial, text, pat, start, last, cap)
        seen_single += len(set(pat)) == 1 and bool(want)
        seen_below_start += last < start
    assert seen_single > 100 and seen_below_start > 100
    # a run holding ``last`` whose occurrences pass it, under a cap
    text = Word.from_string("0011111100111")
    assert find_occurrences(text, Word.from_string("11"), last=5) == [3, 4, 5]
    assert find_occurrences(text, Word.from_string("11"), cap=2, last=4) == \
        [3, 4]
    assert find_occurrences(text, Word.from_string("011"), last=9) == [2]
    assert find_occurrences(text, Word.from_string("011"), last=10) == [2, 10]
    assert find_occurrences(text, Word.from_string("1"), start=4, last=3) == []


def test_de_bruijn_contains_every_word():
    for order in (1, 2, 3, 4, 6):
        w = de_bruijn_word(order)
        s = w.as_string()
        assert len(s) == 2 ** order + order - 1
        seen = {s[i:i + order] for i in range(2 ** order)}
        assert len(seen) == 2 ** order


def test_diff_intervals_match_expanded():
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(1, 150)
        a = [rng.randint(0, 1) for _ in range(n)]
        b = [rng.randint(0, 1) for _ in range(rng.randint(1, 150))]
        los, his = diff_intervals(Word.from_symbols(a), Word.from_symbols(b))
        m = min(len(a), len(b))
        want = {p + 1 for p in range(m) if a[p] != b[p]}
        got = {p for lo, hi in zip(los, his) for p in range(lo, hi + 1)}
        assert got == want


def test_shift_view():
    p = PointView(Word.from_string("10110"), Provenance("explicit-limit"))
    q = p.shift(2)
    assert q.prefix == Word.from_string("110")
    assert q.provenance.offset == 2
    from meansense import HorizonError
    with pytest.raises(HorizonError):
        p.shift(5)


def test_length_overflow_guard():
    from meansense import LengthOverflowError
    with pytest.raises(LengthOverflowError):
        Word(2, [(0, 2 ** 63 - 1), (1, 10)])
