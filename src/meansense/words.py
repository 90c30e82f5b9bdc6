"""Exact finite-word algebra over run-length-encoded binary (or small) alphabets.

Words are immutable and always stored in canonical RLE form: adjacent runs
carry distinct symbols and every run length is positive.  All public
positions are 1-based; lengths are plain Python ints checked against a
64-bit ceiling so that oversized constructions fail loudly instead of
silently producing wrong sizes.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import abc
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    AlphabetMismatchError,
    HorizonError,
    IndexRangeError,
    LengthOverflowError,
    ParameterError,
)

MAX_LENGTH = 2**63 - 1

_SYMBOL = operator.itemgetter(0)  # the symbol of a (symbol, count) run
_COUNT = operator.itemgetter(1)  # the count of a (symbol, count) run

#: expansion guard: Word.as_string refuses beyond this many symbols
EXPAND_LIMIT = 50_000_000


def _check_length(n: int, context: str):
    if n > MAX_LENGTH:
        raise LengthOverflowError(f"{context}: length {n} exceeds 64-bit limit")
    return n


class RunBuilder:
    """Accumulates (symbol, count) runs, merging adjacent equal symbols."""

    __slots__ = ("runs", "total")

    def __init__(self):
        self.runs = []
        self.total = 0

    def append(self, symbol: int, count: int):
        if count < 0:
            raise ParameterError("negative run length")
        if count == 0:
            return
        runs = self.runs
        if runs and runs[-1][0] == symbol:
            runs[-1] = (symbol, runs[-1][1] + count)
        else:
            runs.append((symbol, count))
        self.total = _check_length(self.total + count, "builder")

    def extend(self, word: "Word"):
        """Append a word's runs: they are canonical, so only the first can
        merge, at the seam."""
        runs, new = self.runs, word.runs
        if runs and new and runs[-1][0] == new[0][0]:
            runs[-1] = (new[0][0], runs[-1][1] + new[0][1])
            new = new[1:]
        runs.extend(new)
        self.total = _check_length(self.total + word.length, "builder")

    def build(self, alphabet_size: int) -> "Word":
        return Word(alphabet_size, tuple(self.runs), _length=self.total)


class Word:
    """An immutable run-length-encoded word.

    ``runs`` is the only storage.  Position lookups bisect ``run_index``,
    the plain list of run ends built from it on first use.

    ``_length`` is the private path of the constructors in this package
    that already hold canonical runs as a tuple and know their total
    length: the runs are then stored as given, unchecked.
    """

    __slots__ = ("alphabet_size", "runs", "length", "_hash", "_index")

    def __init__(self, alphabet_size: int, runs: Sequence[tuple] = (),
                 _length: Optional[int] = None):
        if alphabet_size not in (2, 4):
            raise ParameterError(f"unsupported alphabet size {alphabet_size}")
        if _length is None:
            b = RunBuilder()
            for s, c in runs:
                if not 0 <= s < alphabet_size:
                    raise ParameterError(f"symbol {s} outside alphabet {alphabet_size}")
                b.append(s, c)
            runs, _length = tuple(b.runs), b.total
        _SET_ALPHABET(self, alphabet_size)
        _SET_RUNS(self, runs)
        _SET_LENGTH(self, _length)
        _SET_HASH(self, None)
        _SET_INDEX(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty(alphabet_size: int = 2) -> "Word":
        return Word(alphabet_size, ())

    @staticmethod
    def from_symbols(symbols: Iterable[int], alphabet_size: int = 2) -> "Word":
        return Word(alphabet_size, [(s, len(list(group)))
                                    for s, group in itertools.groupby(symbols)])

    @staticmethod
    def from_string(text: str, alphabet_size: int = 2) -> "Word":
        return Word.from_symbols((int(ch) for ch in text), alphabet_size)

    # -- RLE text format ----------------------------------------------
    # one line per word: ``alphabet=<k>; sym:count sym:count ...``

    def to_text(self) -> str:
        # one ``%`` over the flattened runs: about 30 % faster than an
        # f-string per run on A_4's 27k runs
        runs = self.runs
        if self.alphabet_size == 2 and runs:
            # canonical binary runs alternate, so the symbols are literals
            # of the format and ``%`` formats only the counts: about half
            # the time again on A_4 and B_3
            first, n = runs[0][0], len(runs)
            fmt = (f" {first:d}:%d {1 - first:d}:%d" * (n >> 1)
                   + (f" {first:d}:%d" if n & 1 else ""))
            return "alphabet=2;" + fmt % tuple(map(_COUNT, runs))
        pairs = (" %d:%d" * len(runs)) % tuple(itertools.chain.from_iterable(runs))
        return f"alphabet={self.alphabet_size};" + pairs

    @staticmethod
    def from_text(line: str) -> "Word":
        """Parse one line written by ``to_text``.  The package never reads
        words back; this stays because ``tests/test_cli.py`` reads the
        CLI's ``.rle`` output with it."""
        line = line.strip()
        if not line.startswith("alphabet="):
            raise ParameterError(f"malformed RLE line: {line[:40]!r}")
        head, _, rest = line.partition(";")
        try:
            alphabet = int(head[len("alphabet="):])
            runs = [(int(s), int(c))
                    for s, _, c in (tok.partition(":") for tok in rest.split())]
        except ValueError:
            raise ParameterError(f"malformed RLE line: {line[:40]!r}") from None
        w = Word(alphabet, runs)
        if w.runs != tuple(runs):
            raise ParameterError("RLE text not in canonical form")
        return w

    # -- basics --------------------------------------------------------

    def __len__(self):
        return self.length

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.alphabet_size == other.alphabet_size
            and self.runs == other.runs
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.alphabet_size, self.runs))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if self.length <= 40:
            return f"Word({self.as_string()!r})"
        return f"Word(<{self.length} symbols, {len(self.runs)} runs>)"

    def as_string(self) -> str:
        if self.length > EXPAND_LIMIT:
            raise ParameterError(f"refusing to stringify {self.length} symbols")
        return "".join(str(s) * c for s, c in self.runs)

    @property
    def run_index(self) -> list:
        """The 1-based inclusive end of each run, in order: a plain list
        built from ``runs`` on first use and cached on the word."""
        if self._index is None:
            object.__setattr__(self, "_index", list(
                itertools.accumulate(map(_COUNT, self.runs))))
        return self._index

    def symbol_at(self, pos: int) -> int:
        """Symbol at 1-based position ``pos``."""
        if not 1 <= pos <= self.length:
            raise IndexRangeError(f"position {pos} outside [1, {self.length}]")
        return self.runs[bisect.bisect_left(self.run_index, pos)][0]

    def count(self, symbol: int = 1) -> int:
        runs = self.runs
        if self.alphabet_size == 2 and symbol in (0, 1) and runs:
            # canonical binary runs alternate: every other run holds symbol
            return sum(map(_COUNT, runs[runs[0][0] != symbol::2]))
        return sum(c for s, c in runs if s == symbol)

    def subword(self, start: int, length: int) -> "Word":
        """Extract ``length`` symbols starting at 1-based ``start`` by run slicing."""
        if start == 1 and length == self.length:
            return self  # words are immutable
        if length == 0:
            return Word.empty(self.alphabet_size)
        if length < 0 or start < 1 or start + length - 1 > self.length:
            raise IndexRangeError(
                f"slice [{start}, {start + length - 1}] outside [1, {self.length}]"
            )
        ends = self.run_index
        end = start + length - 1
        i = bisect.bisect_left(ends, start)  # run holding the first symbol
        j = bisect.bisect_left(ends, end, i)  # run holding the last symbol
        runs = self.runs
        if i == j:
            canon = ((runs[i][0], length),)
        else:
            canon = (((runs[i][0], ends[i] - start + 1),) + runs[i + 1:j]
                     + ((runs[j][0], end - ends[j - 1]),))
        return Word(self.alphabet_size, canon, _length=length)

    def starts_with(self, prefix: "Word") -> bool:
        if prefix.alphabet_size != self.alphabet_size:
            raise AlphabetMismatchError("alphabet mismatch in starts_with")
        return (prefix.length <= self.length
                and first_difference(self, prefix) is None)

    def ends_with(self, suffix: "Word") -> bool:
        if suffix.length > self.length:
            return False
        return self.subword(self.length - suffix.length + 1, suffix.length) == suffix


# Word.__init__ writes each slot once through its descriptor's setter, past
# the immutability guard, at about half the cost of object.__setattr__
_SET_ALPHABET, _SET_RUNS, _SET_LENGTH, _SET_HASH, _SET_INDEX = (
    getattr(Word, name).__set__ for name in Word.__slots__)


def concat(parts: Sequence[Word], alphabet_size: Optional[int] = None) -> Word:
    """Concatenate words; the empty list yields the empty word."""
    sizes = {w.alphabet_size for w in parts}
    if len(sizes) > 1:
        raise AlphabetMismatchError(f"mixed alphabet sizes {sorted(sizes)}")
    if alphabet_size is None:
        alphabet_size = sizes.pop() if sizes else 2
    elif sizes and sizes.pop() != alphabet_size:
        raise AlphabetMismatchError("explicit alphabet size disagrees with parts")
    b = RunBuilder()
    for w in parts:
        b.extend(w)
    return b.build(alphabet_size)


def power(w: Word, m: int) -> Word:
    """m-fold concatenation; power(w, 0) is the empty word."""
    if m < 0:
        raise ParameterError("negative power")
    _check_length(w.length * m, "power")
    return concat([w] * m, w.alphabet_size)


# ---------------------------------------------------------------------------
# occurrence counting


class OccurrenceIndex:
    """Prefix-count index answering symbol counts over ranges in O(log R)."""

    def __init__(self, word: Word, symbol: int = 1):
        self.word = word
        self.symbol = symbol

    @cached_property
    def _prefix(self) -> list:
        """Occurrences in the first i runs, for each i; built on the first
        count, since ``max_window_count`` reads only the runs."""
        return [0, *itertools.accumulate(
            c if s == self.symbol else 0 for s, c in self.word.runs)]

    def _count_prefix(self, pos: int) -> int:
        """Occurrences of the designated symbol in [1, pos], 0 <= pos <= length."""
        if pos <= 0:
            return 0
        ends = self.word.run_index
        i = bisect.bisect_left(ends, pos)  # run holding pos
        if self.word.runs[i][0] == self.symbol:
            return self._prefix[i + 1] - (ends[i] - pos)
        return self._prefix[i]

    def count_range(self, i: int, j: int) -> int:
        """Count of the designated symbol at positions p with i <= p <= j."""
        if not 1 <= i <= j <= self.word.length:
            raise IndexRangeError(
                f"range [{i}, {j}] outside [1, {self.word.length}]"
            )
        return self._count_prefix(j) - self._count_prefix(i - 1)


def interval_window_max(los: Sequence[int], his: Sequence[int], span: int,
                        window: int) -> tuple:
    """Exact maximum count of marked positions over windows inside [0, span).

    The marked positions are the sorted, disjoint, inclusive intervals
    [los[k], his[k]] inside [0, span).  Returns (max_count, smallest
    optimal window start).

    A window starting on an unmarked position holds no fewer marks one step
    to its right, and one starting inside an interval no fewer one step to
    its left.  So the maximum is attained at an interval start or at the
    last start, span - window.  The window at interval i's start holds at
    least min(len_i, window) marks, and exactly that many when interval
    i + 1 opens at or past its end.  So the best starts as min(max len_i,
    window) at the first interval reaching it, and the loop visits only
    the starts whose window reaches the next interval, in order, taking a
    larger count or an equal one at an earlier start: q is then the first
    optimal interval start.  A start p < q holds the marks of q's window
    plus those in [p, q) less those in [p + window, q + window).  An
    optimal p is unmarked and slides right into q, so both ranges hold
    none; and when the second holds none, the first holds none too, or p
    would beat q.  So the smallest optimal start is the last mark below
    q + window less window - 1, or 0.
    """
    n = len(los)
    if not n:
        return 0, 0
    last = span - window
    d = list(map(operator.sub, his, los))  # each len_i - 1
    cum = list(itertools.accumulate(d, initial=0))  # marks before i, less i
    m = bisect.bisect_right(los, last)  # the intervals that start a window
    best, q = -1, 0
    if m:
        best = min(max(itertools.islice(d, m)) + 1, window)
        q = los[next(itertools.compress(itertools.count(), map(
            operator.le, itertools.repeat(best - 1), d)))]
        j = 0  # the first interval ending at or past x; only moves forward
        for i in itertools.compress(itertools.count(), map(
                operator.lt, map(operator.sub, itertools.islice(los, 1, m + 1),
                                 los), itertools.repeat(window))):
            lo = los[i]
            x = lo + window
            if j < n and his[j] < x:
                j = bisect.bisect_left(his, x, j)
            # the intervals i .. j - 1, and j's part below x
            c = (cum[j] - cum[i] + j - i
                 + (x - los[j] if j < n and x > los[j] else 0))
            if c >= best and (c > best or lo < q):
                best, q = c, lo
    k = bisect.bisect_left(his, last)
    c = cum[n] - cum[k] + n - k - (max(last - los[k], 0) if k < n else 0)
    if c > best:
        best, q = c, last
    # the last mark below q + window; q's window holds one, as best > 0
    k = bisect.bisect_left(los, q + window) - 1
    return best, max(min(his[k], q + window - 1) - window + 1, 0)


@lru_cache(maxsize=4)
def symbol_runs(word: Word, symbol: int) -> tuple:
    """(los, his): tuples of the 0-based inclusive runs of ``symbol`` in
    ``word``, read from the run ends; cached on the word object (its hash
    is computed once), since the S3 window checks read A_4's up to four
    times."""
    runs, ends = word.runs, word.run_index
    if word.alphabet_size == 2 and symbol in (0, 1) and runs:
        # canonical binary runs alternate: the symbol's runs end at every
        # other run end, and start at every other entry of [0, *ends]
        i = runs[0][0] != symbol
        # the starts list is held until both tuples are built: freed at
        # once, it left the S3 window checks' peak RSS about 0.3 MB higher
        starts = [0, *ends]
        return (tuple(starts[i:-1:2]),
                tuple(map(operator.sub, ends[i::2], itertools.repeat(1))))
    hit = list(map(symbol.__eq__, map(_SYMBOL, runs)))
    return (tuple(itertools.compress([0, *ends], hit)),
            tuple(map((-1).__add__, itertools.compress(ends, hit))))


@lru_cache(maxsize=16)
def symbol_window_max(word: Word, symbol: int, window: int) -> tuple:
    """``interval_window_max`` over ``symbol_runs(word, symbol)``, cached
    on the word object: ``lemma-3.1`` and ``lemma-3.2-density`` both sweep
    A_4 at window t_2."""
    return interval_window_max(*symbol_runs(word, symbol), word.length,
                               window)


def max_window_count(index: OccurrenceIndex, window: int) -> tuple:
    """Exact maximum designated-symbol count over all windows of ``window`` symbols.

    Sweeps the designated runs with ``symbol_window_max``; never expands
    the word.  Returns (max_count, smallest attaining 1-based start).
    """
    w = index.word
    if not 1 <= window <= w.length:
        raise ParameterError(f"window {window} outside [1, {w.length}]")
    count, start = symbol_window_max(w, index.symbol, window)
    return count, start + 1


# ---------------------------------------------------------------------------
# comparisons


def first_difference(a: Word, b: Word) -> Optional[int]:
    """Smallest 1-based position where ``a`` and ``b`` disagree.

    Compares at most ``min(len(a), len(b))`` symbols and returns None when
    they agree throughout that range.

    Both words are canonical, so they agree up to the start of their first
    unequal pair of runs.  If the two runs differ in symbol, that start is
    the answer.  If they differ only in count, the word with the shorter
    run moves on to another symbol (or ends) just past it, while the other
    still reads the same symbol there.
    """
    if a.alphabet_size != b.alphabet_size:
        raise AlphabetMismatchError("alphabet mismatch in first_difference")
    if a.runs == b.runs:  # equal words: no unequal pair of runs
        return None
    start = 0  # symbols before the current pair of runs
    for x, y in zip(a.runs, b.runs):
        if x != y:
            if x[0] != y[0]:
                return start + 1  # inside both words
            j = start + (x[1] if x[1] < y[1] else y[1]) + 1
            return j if j <= a.length and j <= b.length else None
        start += x[1]
    return None


def diff_intervals(a: Word, b: Word, upto: Optional[int] = None):
    """Disagreement set of two words as merged 1-based inclusive intervals.

    Returns (los, his), two lists covering exactly the positions p <= limit
    with a_p != b_p, where limit = min(len(a), len(b), upto).
    """
    if a.alphabet_size != b.alphabet_size:
        raise AlphabetMismatchError("alphabet mismatch in diff_intervals")
    limit = min(a.length, b.length)
    if upto is not None:
        limit = min(limit, upto)
    los, his = [], []
    ia = ib = 0
    pos = 0
    off_a = off_b = 0
    while pos < limit:
        sa, ca = a.runs[ia]
        sb, cb = b.runs[ib]
        avail = min(ca - off_a, cb - off_b, limit - pos)
        if sa != sb:
            lo, hi = pos + 1, pos + avail
            if los and his[-1] == lo - 1:
                his[-1] = hi
            else:
                los.append(lo)
                his.append(hi)
        pos += avail
        off_a += avail
        off_b += avail
        if off_a == ca:
            ia += 1
            off_a = 0
        if off_b == cb:
            ib += 1
            off_b = 0
    return los, his


def find_occurrences(text: Word, pattern: Word, cap: int = 10_000,
                     start: int = 1, last: Optional[int] = None) -> list:
    """1-based start positions p, ``start <= p <= last``, where ``pattern``
    occurs in ``text``.

    RLE-aware: interior pattern runs must match text runs exactly, boundary
    runs may sit inside longer text runs.  At most ``cap`` positions are
    returned, scanning left to right from ``start``; the scan begins at the
    first text run ending at or after ``start``, since no occurrence at or
    after ``start`` begins in an earlier run.  ``last`` (no bound when
    None) is the last start position the caller can use: one ``bisect``
    turns it into the run where the scan stops, so no run past it is read.
    A pattern of three or more runs is matched only at the text copies of
    its second run, which ``tuple.index`` finds in C; the other runs are
    compared as tuples.  A pattern as long as the text is one comparison.
    """
    if pattern.alphabet_size != text.alphabet_size:
        raise AlphabetMismatchError("alphabet mismatch in find_occurrences")
    if pattern.length == 0:
        raise ParameterError("empty pattern")
    if cap < 1:
        raise ParameterError(f"cap must be at least 1, not {cap}")
    if pattern.length >= text.length:
        # only position 1 can hold it, and only when the runs are equal
        return [1] if (pattern.length == text.length and start <= 1
                       and (last is None or last >= 1)
                       and pattern.runs == text.runs) else []
    out = []
    pruns = pattern.runs
    truns = text.runs
    tends = text.run_index
    first = bisect.bisect_left(tends, start)
    end = tends[first - 1] if first else 0  # last position before run
    if len(pruns) == 1:
        psym, plen = pruns[0]
        # runs before the one holding ``last`` end before it, and so do the
        # occurrences inside them; only that run's may pass it
        stop = None if last is None else bisect.bisect_left(tends, last) + 1
        for s, c in itertools.islice(truns, first, stop):
            tpos, end = end + 1, end + c
            if s != psym or c < plen:
                continue
            out += itertools.islice(range(max(tpos, start), end - plen + 2),
                                    cap - len(out))
            if len(out) >= cap:
                break
        if last is not None and out and out[-1] > last:
            del out[bisect.bisect_right(out, last):]
        return out
    # candidate runs i hold the first pattern run at their end, the interior
    # runs exactly after it and the last run at the start of run i + R - 1
    R = len(pruns)
    (s0, l0), (sL, lL) = pruns[0], pruns[-1]
    inner = pruns[1:-1]
    stop = len(truns) - R + 1  # candidate runs are first .. stop - 1
    if last is not None:
        # run i's candidate starts at tends[i] - l0 + 1, increasing in i
        stop = min(stop, bisect.bisect_right(tends, last + l0 - 1))
    i = first
    while i < stop:
        if R > 2:
            try:
                i = truns.index(inner[0], i + 1, stop + 1) - 1
            except ValueError:
                break
        s, c = truns[i]
        if (s == s0 and c >= l0 and tends[i] - l0 + 1 >= start
                and truns[i + R - 1][0] == sL and truns[i + R - 1][1] >= lL
                and truns[i + 1:i + R - 1] == inner):
            out.append(tends[i] - l0 + 1)
            if len(out) >= cap:
                break
        i += 1
    return out


def de_bruijn_word(order: int, alphabet_size: int = 2) -> Word:
    """A linear word containing every length-``order`` word over the alphabet.

    Classic Lyndon-word concatenation, with the first order-1 symbols
    appended so that the cyclic sequence reads off linearly.  Each Lyndon
    word is the successor of the last: repeated to length ``order``, its
    trailing largest symbols dropped and the last symbol left raised.
    """
    if order < 1:
        raise ParameterError("order must be >= 1")
    k, n = alphabet_size, order
    seq, w = [], [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if n % m == 0:
            seq += w
        w = [w[i % m] for i in range(n)]
        while w and w[-1] >= k - 1:  # ends at once for an empty alphabet
            w.pop()
    seq = seq + seq[:n - 1]
    return Word.from_symbols(seq, alphabet_size)


# ---------------------------------------------------------------------------
# truncated points


class Provenance(NamedTuple):
    """Where a truncated point came from.

    kind is one of: shift-of-transitive-point, periodic, explicit-limit,
    patched-system.  ``offset`` is the shift applied so far; ``period`` is
    set for periodic points.
    """

    kind: str
    offset: int = 0
    period: Optional[int] = None
    detail: str = ""

    def shifted(self, k: int) -> "Provenance":
        return Provenance(self.kind, self.offset + k, self.period, self.detail)


class PointView:
    """A point known exactly up to a finite horizon.

    ``prefix`` holds the first ``horizon`` symbols; anything beyond is
    unknown and every consumer must account for that through truncation
    flags or explicit correction terms.  No code in the package writes a
    ``truncation_note``; ``shift`` and ``patched_step`` carry one along.
    Views are immutable, and equal when all three fields are.
    """

    __slots__ = ("prefix", "provenance", "truncation_note")

    def __init__(self, prefix: Word, provenance: Provenance,
                 truncation_note: str = ""):
        _SET_PREFIX(self, prefix)
        _SET_PROVENANCE(self, provenance)
        _SET_NOTE(self, truncation_note)

    def __setattr__(self, name, value):
        raise AttributeError("PointView is immutable")

    def __eq__(self, other):
        return (isinstance(other, PointView) and self.prefix == other.prefix
                and self.provenance == other.provenance
                and self.truncation_note == other.truncation_note)

    def __hash__(self):
        return hash((self.prefix, self.provenance, self.truncation_note))

    @property
    def horizon(self) -> int:
        return self.prefix.length

    @property
    def alphabet_size(self) -> int:
        return self.prefix.alphabet_size

    def symbol_at(self, pos: int) -> int:
        return self.prefix.symbol_at(pos)

    def shift(self, k: int) -> "PointView":
        """View of the point after k applications of the shift map."""
        if k < 0:
            raise ParameterError("negative shift")
        if k == 0:
            return self
        if k >= self.horizon:
            raise HorizonError(f"shift by {k} exhausts horizon {self.horizon}")
        return PointView(
            self.prefix.subword(k + 1, self.horizon - k),
            self.provenance.shifted(k),
            self.truncation_note,
        )

    def starts_with(self, u: Word) -> bool:
        return self.prefix.starts_with(u)

    def key(self):
        return (self.prefix.alphabet_size, self.prefix.runs)


_SET_PREFIX, _SET_PROVENANCE, _SET_NOTE = (
    getattr(PointView, name).__set__ for name in PointView.__slots__)


class BlockFamily(abc.Sequence):
    """The points ``w 0^(p-s-1) 1 0^(horizon-p)``, one per mark p, then extras.

    A family sharing the block ``w`` (length s): ``marks`` is a non-empty
    ``range`` of step 1 inside (s, horizon], the 1-based position of each
    member's lone 1.  ``extras`` are further views appended with ``+``.  A
    member is materialized only when indexed or iterated, marked members
    first, with provenance ``explicit-limit``, detail ``j=<p-s-1>`` and no
    truncation note.
    """

    __slots__ = ("block", "marks", "horizon", "extras")

    def __init__(self, block: Word, marks: range, horizon: int,
                 extras: Sequence[PointView] = ()):
        if (not isinstance(marks, range) or marks.step != 1 or not marks
                or marks.start <= block.length or marks.stop - 1 > horizon):
            raise ParameterError(f"marks must be a non-empty step-1 range "
                                 f"inside ({block.length}, {horizon}]")
        self.block = block
        self.marks = marks
        self.horizon = horizon
        self.extras = tuple(extras)

    @property
    def zero_tail(self) -> Word:
        """The block followed by zeros up to the horizon, ``w 0^(horizon-s)``."""
        return Word(self.block.alphabet_size,
                    self.block.runs + ((0, self.horizon - self.block.length),))

    def _member(self, p: int) -> PointView:
        s = self.block.length
        w = Word(self.block.alphabet_size,
                 self.block.runs + ((0, p - s - 1), (1, 1), (0, self.horizon - p)))
        return PointView(w, Provenance("explicit-limit", detail=f"j={p - s - 1}"))

    def __len__(self):
        return len(self.marks) + len(self.extras)

    def __getitem__(self, i: int):
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"member {i} outside a family of {n}")
        i %= n
        if i < len(self.marks):
            return self._member(self.marks[i])
        return self.extras[i - len(self.marks)]

    def __iter__(self):
        for p in self.marks:
            yield self._member(p)
        yield from self.extras

    def __add__(self, views):
        return BlockFamily(self.block, self.marks, self.horizon,
                           self.extras + tuple(views))


def point_metric(x: PointView, y: PointView) -> tuple:
    """Shift-space distance between two truncated points.

    Returns (value, truncated).  Exact value 1/j when the prefixes first
    differ at position j within the shared horizon H = min(h_x, h_y);
    otherwise (0.0, True) and the true distance lies in [0, 1/(H+1)].
    """
    if x.alphabet_size != y.alphabet_size:
        raise AlphabetMismatchError("alphabet mismatch in point_metric")
    j = first_difference(x.prefix, y.prefix)
    if j is None:
        return 0.0, True
    return 1.0 / j, False
