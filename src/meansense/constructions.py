"""Builders for the two recursive subshift families and their companions.

Family S3 (binary, cofinitely sensitive yet Banach-mean equicontinuous):

    A_1 = 111, B_1 = 000,
    A_{n+1} = A_n 0^{k_n} B_n 0^{k_n} A_n,
    B_{n+1} = (A_n 0^{i-1} 1 0^{|A_{n+1}|-i} for i = 1..|A_{n+1}|) ++ A_n 0^{|A_{n+1}|},
    with k_n >= n (2|A_n| + |B_n|).

Family S4 (binary, Devaney chaotic and almost mean equicontinuous), seeded
by a minimal generator y:

    A_1 = 101, B_1 = C_1 = y_1,
    A_{n+1} = A_n 0^{k_n} B_n 0^{k_n} A_n,
    B_{n+1} = C_{n+1} ++ (A_i 0^{|A_{i+1}|})^{n+1-i} for i = 1..n,
    with (1) k_m |B_n| > t_n |B_m| for all n < m, where t_n = |A_n|+2k_n+|B_n|,
    and (2) k_n >= n (2|A_n| + |B_n|).

In both families x = lim A_n 0^infinity generates the subshift as its orbit
closure.  Schedules fix the k_n; the default is the smallest choice
satisfying the constraints, and any user-supplied schedule is re-verified
before words are built.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, NamedTuple, Optional, Tuple

from .errors import (
    DepthError,
    HorizonError,
    LengthOverflowError,
    ParameterError,
    ResourceCapError,
    WitnessUnavailableError,
)
from .reports import canonical_json
from .words import (
    MAX_LENGTH,
    BlockFamily,
    PointView,
    Provenance,
    RunBuilder,
    Word,
    find_occurrences,
    power,
)

#: run-count guard for materializing a word (S3 B_4 would need ~5.6e8 runs)
BUILD_RUN_CAP = 2_000_000

#: most continued-fraction terms of a sturmian descriptor, as ``cf_depth`` or
#: ``cf_terms``: a build's time grows about quadratically with their number
MAX_CF_TERMS = 10_000


# ---------------------------------------------------------------------------
# minimal generators


class GeneratorDescriptor:
    """Seed sequence for the S4 family.

    kind: constant-zero | sturmian | thue-morse.  For sturmian the slope is
    the continued-fraction convergent of [0; a_1, a_2, ...] truncated at
    ``cf_depth`` terms (golden slope by default), kept rational so the
    coding is exact integer arithmetic.  Descriptors are immutable, and
    equal when all three fields are.
    """

    def __init__(self, kind: str, cf_terms: Tuple[int, ...] = (),
                 cf_depth: int = 40):
        if kind not in ("constant-zero", "sturmian", "thue-morse"):
            raise ParameterError(f"unknown generator kind {kind!r}")
        if not all(isinstance(v, int) for v in (*cf_terms, cf_depth)):
            raise ParameterError("continued-fraction terms and depth must be integers")
        if not 1 <= cf_depth <= MAX_CF_TERMS or len(cf_terms) > MAX_CF_TERMS:
            raise ParameterError(f"cf_depth must lie in [1, {MAX_CF_TERMS}] and "
                                 f"cf_terms hold at most {MAX_CF_TERMS} terms")
        vars(self).update(kind=kind, cf_terms=cf_terms, cf_depth=cf_depth)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorDescriptor is immutable")

    def __eq__(self, other):
        return isinstance(other, GeneratorDescriptor) and vars(self) == vars(other)

    def to_json(self) -> dict:
        return {"kind": self.kind, "cf_terms": list(self.cf_terms),
                "cf_depth": self.cf_depth}

    @staticmethod
    def from_json(d: dict) -> "GeneratorDescriptor":
        try:
            return GeneratorDescriptor(d["kind"], tuple(d.get("cf_terms", ())),
                                       d.get("cf_depth", 40))
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParameterError(f"malformed generator descriptor: {exc!r}") from None


def minimal_generator(desc: GeneratorDescriptor, horizon: int) -> Word:
    """Prefix y_1 ... y_horizon of the seed point, deterministically."""
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    if desc.kind == "constant-zero":
        return Word(2, [(0, horizon)])
    if desc.kind == "thue-morse":
        syms = [bin(j).count("1") & 1 for j in range(horizon)]
        return Word.from_symbols(syms, 2)
    # the slope p/q is the continued fraction [0; a_1, a_2, ...], folded
    # from the empty tail 0/1 by x -> 1 / (a + x); all-ones terms give the
    # golden slope (sqrt(5)-1)/2 via Fibonacci convergents
    p, q = 0, 1
    for a in reversed(desc.cf_terms or (1,) * desc.cf_depth):
        if a < 1:
            raise ParameterError("continued-fraction terms must be >= 1")
        p, q = q, a * q + p
    if not 0 < p < q:
        raise ParameterError("sturmian slope must lie strictly in (0, 1)")
    # y_j = floor((j+1) a) - floor(j a), exact in integers
    syms = [((j + 1) * p) // q - (j * p) // q for j in range(1, horizon + 1)]
    return Word.from_symbols(syms, 2)


# ---------------------------------------------------------------------------
# schedules


class Level(NamedTuple):
    n: int
    k: int
    len_a: int
    len_b: int
    t: int


class Schedule:
    """Per-level parameters of one construction, lengths included.

    ``construction`` is "S3" or "S4"; ``base`` is the S4 generator.
    Schedules are immutable, and equal when all three fields are.
    """

    def __init__(self, construction: str, levels: Tuple[Level, ...],
                 base: Optional[GeneratorDescriptor] = None):
        vars(self).update(construction=construction, levels=levels, base=base)

    def __setattr__(self, name, value):
        raise AttributeError("Schedule is immutable")

    def __eq__(self, other):
        return isinstance(other, Schedule) and vars(self) == vars(other)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> Level:
        if not 1 <= n <= self.depth:
            raise ParameterError(f"level {n} outside schedule depth {self.depth}")
        return self.levels[n - 1]

    def to_json(self) -> dict:
        return {
            "construction": self.construction,
            "base": self.base.to_json() if self.base else None,
            "levels": [
                {"n": l.n, "k_n": l.k, "len_A": l.len_a, "len_B": l.len_b,
                 "t_n": l.t}
                for l in self.levels
            ],
        }

    def to_json_str(self) -> str:
        return canonical_json(self.to_json())

    @staticmethod
    def from_json(d: dict) -> "Schedule":
        try:
            fields = [(l["n"], l["k_n"], l["len_A"], l["len_B"], l["t_n"])
                      for l in d["levels"]]
            base = GeneratorDescriptor.from_json(d["base"]) if d.get("base") else None
            construction = d["construction"]
        except (KeyError, TypeError, AttributeError) as exc:
            raise ParameterError(f"malformed schedule: {exc!r}") from None
        if construction not in ("S3", "S4") or not fields:
            raise ParameterError("a schedule needs construction S3 or S4 and "
                                 "at least one level")
        for i, f in enumerate(fields, start=1):
            if f[0] != i or not all(isinstance(v, int) and v >= 1 for v in f):
                raise ParameterError(f"schedule level {i} needs n = {i} and "
                                     f"positive integer sizes")
        sched = Schedule(construction, tuple(Level(*f) for f in fields), base)
        verify_schedule(sched)
        return sched


def _checked(value: int, level: int, what: str) -> int:
    if value > MAX_LENGTH:
        raise LengthOverflowError(
            f"{what} at level {level} is {value}, beyond the 64-bit limit")
    return value


def _grow_levels(construction: str, depth: int, pick_k):
    """Yield levels 1..depth of an S3 or S4 schedule, one at a time.

    Level 1 is fixed: (|A_1|, |B_1|) is (3, 3) for S3 and (3, 1) for S4.
    Later lengths follow the family's recursion from the levels before.
    ``pick_k(n, floor)`` chooses k_n given its smallest allowed value:
    n (2|A_n| + |B_n|), and for S4 also floor(t_m |B_n| / |B_m|) + 1 for
    every m < n, the integer form of k_n |B_m| > t_m |B_n|.  Every length
    is held to the 64-bit limit at the level it belongs to.
    """
    if depth < 1:
        raise ParameterError("depth must be >= 1")
    levels = []
    len_a, len_b = 3, (3 if construction == "S3" else 1)
    for n in range(1, depth + 1):
        if levels:
            prev = levels[-1]
            len_a = _checked(2 * prev.len_a + 2 * prev.k + prev.len_b, n, "|A|")
            if construction == "S3":
                len_b = (len_a + 1) * (prev.len_a + len_a)
            else:
                lens_a = [lv.len_a for lv in levels] + [len_a]
                len_b = n + sum((n - i) * (lens_a[i - 1] + lens_a[i])
                                for i in range(1, n))
            len_b = _checked(len_b, n, "|B|")
        floor = n * (2 * len_a + len_b)
        if construction != "S3":
            floor = max([floor] + [lv.t * len_b // lv.len_b + 1 for lv in levels])
        k = _checked(pick_k(n, floor), n, "k")
        levels.append(Level(n, k, len_a, len_b,
                            _checked(len_a + 2 * k + len_b, n, "t")))
        yield levels[-1]


def build_schedule_s3(depth: int) -> Schedule:
    """Smallest S3 schedule: k_n = n (2|A_n| + |B_n|) exactly."""
    return Schedule("S3", tuple(_grow_levels("S3", depth, lambda n, floor: floor)))


def build_schedule_s4(depth: int, base: GeneratorDescriptor,
                      k_min: Optional[Dict[int, int]] = None) -> Schedule:
    """Greedy smallest S4 schedule for the given base generator.

    At each level m the two constraints pin k_m from below; |B_m| depends
    only on k_1..k_{m-1}, so the greedy order is well defined.  ``k_min``
    optionally raises individual levels: larger k_m values sharpen the
    level-m density ratio (|A_m|+|B_m|)/t_m, which the mean-equicontinuity
    reports need.
    """
    k_min = k_min or {}
    levels = _grow_levels("S4", depth,
                          lambda n, floor: max(floor, k_min.get(n, 0)))
    return Schedule("S4", tuple(levels), base)


def verify_schedule(sched: Schedule):
    """Grow the schedule again from its own k_n; raise ParameterError when
    a k_n is below its floor or a level differs from the regrown one."""
    def given_k(n, floor):
        k = sched.levels[n - 1].k
        if k < floor:
            raise ParameterError(f"level {n}: k = {k} below floor {floor}")
        return k

    grown = _grow_levels(sched.construction, sched.depth, given_k)
    for lv, want in zip(sched.levels, grown):
        if lv != want:
            raise ParameterError(f"level {lv.n} breaks the recursion: "
                                 f"{lv} where it gives {want}")


# ---------------------------------------------------------------------------
# word builders


class _ConstructionBase:
    """Caches level words and exposes the shared transitive-point views."""

    def __init__(self, schedule: Schedule):
        verify_schedule(schedule)
        self.schedule = schedule
        self._a: Dict[int, Word] = {}
        self._b: Dict[int, Word] = {}

    # subclasses fill _a[1], _b[1] and _build_b(n)

    def a_word(self, n: int) -> Word:
        """A_n, built recursively with run-count guards."""
        lv = self.schedule.level(n)
        if n not in self._a:
            prev_a = self.a_word(n - 1)
            prev_b = self.b_word(n - 1)
            k = self.schedule.level(n - 1).k
            b = RunBuilder()
            b.extend(prev_a)
            b.append(0, k)
            b.extend(prev_b)
            b.append(0, k)
            b.extend(prev_a)
            w = b.build(2)
            if w.length != lv.len_a:
                raise AssertionError(
                    f"A_{n}: built length {w.length} != schedule {lv.len_a}"
                )
            self._a[n] = w
        return self._a[n]

    def b_word(self, n: int) -> Word:
        lv = self.schedule.level(n)
        if n not in self._b:
            w = self._build_b(n)
            if w.length != lv.len_b:
                raise AssertionError(
                    f"B_{n}: built length {w.length} != schedule {lv.len_b}"
                )
            self._b[n] = w
        return self._b[n]

    def level_words(self, n: int) -> tuple:
        """(A_n, B_n) for a built level."""
        return self.a_word(n), self.b_word(n)

    def transitive_prefix(self, horizon: int) -> PointView:
        """Prefix of x = lim A_n 0^infinity.

        Every A_{n+1} starts with A_n, so the prefix is exact for any
        horizon <= |A_depth|; beyond the deepest A the point continues with
        0^{k_depth}, which extends the exactly-known range by k_depth.
        """
        if horizon < 1:
            raise ParameterError("horizon must be >= 1")
        top = self.schedule.level(self.schedule.depth)
        if horizon > top.len_a + top.k:
            raise DepthError(
                f"horizon {horizon} beyond |A_{top.n}| + k_{top.n} = "
                f"{top.len_a + top.k}; build a deeper schedule"
            )
        n = 1
        while self.schedule.level(n).len_a < min(horizon, top.len_a):
            n += 1
        a = self.a_word(n)
        if horizon <= a.length:
            w = a.subword(1, horizon)
        else:
            b = RunBuilder()
            b.extend(a)
            b.append(0, horizon - a.length)
            w = b.build(2)
        return PointView(
            w,
            Provenance("shift-of-transitive-point", offset=0),
        )

    def shift_view(self, offset: int, horizon: int) -> PointView:
        """View of sigma^offset(x) over ``horizon`` symbols."""
        base = self.transitive_prefix(offset + horizon)
        return PointView(
            base.prefix.subword(offset + 1, horizon),
            Provenance("shift-of-transitive-point", offset=offset),
        )


class S3Construction(_ConstructionBase):
    def __init__(self, schedule: Schedule):
        if schedule.construction != "S3":
            raise ParameterError("S3Construction needs an S3 schedule")
        super().__init__(schedule)
        self._a[1] = Word(2, [(1, 3)])
        self._b[1] = Word(2, [(0, 3)])

    def _build_b(self, n: int) -> Word:
        # B_n strings |A_n|+1 blocks of A_{n-1} decorated with a roaming 1,
        # laid out as a run list block by block, never expanded.
        len_a = self.schedule.level(n).len_a
        prev_a = self.a_word(n - 1)
        est_runs = (len_a + 1) * (len(prev_a.runs) + 3)
        if est_runs > BUILD_RUN_CAP:
            raise ResourceCapError(
                f"B_{n} needs about {est_runs} runs, beyond the build cap",
                required=est_runs,
            )
        # A_{n-1} opens and closes on a 1-run, so the lone 1 of block 1
        # lengthens A's last run, that of block |A_n| the next A's first
        # run, and nothing else merges
        a, L = prev_a.runs, len_a
        runs = [*a[:-1], (1, a[-1][1] + 1), (0, L - 1)]
        one = (1, 1)
        for i in range(2, L):
            runs += a
            runs += ((0, i - 1), one, (0, L - i))
        runs += (*a, (0, L - 1), (1, a[0][1] + 1), *a[1:], (0, L))
        return Word(2, tuple(runs),
                    _length=_checked(sum(map(itemgetter(1), runs)), n, "|B|"))

    # -- witness machinery ---------------------------------------------

    def suffix_alignments(self, m: int, s_min: int = 1, cap: int = 8) -> list:
        """Ways to read x_{[m+1, m+s]} as a suffix of a built A_i.

        Returns up to ``cap`` (i, s) pairs with s_min <= s <= |A_i|, smallest
        s first.  x_{[m+1, m+s]} is a suffix of A_i exactly when some A_i
        occurrence in x ends at position m+s with its start at or before
        m+1; scanning occurrence ends beyond m surfaces the choices instead
        of guessing one.  The usable starts of level i are
        [m + s_min - |A_i| + 1, m + 1], and s grows with the start, so each
        level scans only those and keeps its first ``cap``.
        """
        out = []
        depth = self.schedule.depth
        host = self.a_word(depth)
        for i in range(1, depth + 1):
            ai = self.a_word(i)
            if s_min > ai.length:
                continue
            start = max(1, m + s_min - ai.length + 1)
            out += [(i, pos + ai.length - 1 - m) for pos in find_occurrences(
                host, ai, cap=cap, start=start, last=m + 1)]
        return sorted(out, key=lambda p: (p[1], p[0]))[:cap]

    def witness_family(self, m: int, s: int, count: int,
                       horizon: int) -> BlockFamily:
        """The points w 0^j 1 0^... for j < count, w = x_{[m+1, m+s]}.

        Precondition: w is a suffix of some built A_i, which makes each of
        these points a limit of shifts of x (the decorated blocks of every
        deeper B realize w 0^j 1).  Raises WitnessUnavailableError otherwise.
        The members share w, so they come back as one ``BlockFamily`` whose
        marks are the positions s+1 .. s+count of the lone 1.
        """
        if s < 1 or count < 1:
            raise ParameterError("s and count must be >= 1")
        w = self.shift_view(m, s).prefix
        if not any(s <= self.a_word(i).length and self.a_word(i).ends_with(w)
                   for i in range(1, self.schedule.depth + 1)):
            raise WitnessUnavailableError(
                f"x[{m + 1}..{m + s}] is not a suffix of any built A_i; "
                f"try suffix_alignments({m})"
            )
        if horizon < s + count + 1:
            raise ParameterError("horizon too small for the requested family")
        return BlockFamily(w, range(s + 1, s + count + 1), horizon)


class S4Construction(_ConstructionBase):
    def __init__(self, schedule: Schedule):
        if schedule.construction != "S4":
            raise ParameterError("S4Construction needs an S4 schedule")
        if schedule.base is None:
            raise ParameterError("S4 schedule must carry a base generator")
        super().__init__(schedule)
        self.base = schedule.base
        y1 = minimal_generator(self.base, 1)
        self._a[1] = Word(2, [(1, 1), (0, 1), (1, 1)])
        self._b[1] = y1

    def _build_b(self, n: int) -> Word:
        c_n = minimal_generator(self.base, n)
        b = RunBuilder()
        b.extend(c_n)
        for i in range(1, n):
            ai = self.a_word(i)
            gap = self.schedule.level(i + 1).len_a
            for _ in range(n - i):
                b.extend(ai)
                b.append(0, gap)
        return b.build(2)

    def periodic_point(self, n: int, t: int, horizon: int) -> PointView:
        """Prefix of sigma^t (A_n 0^{|A_{n+1}|})^infinity."""
        if n + 1 > self.schedule.depth:
            raise ParameterError(f"periodic level {n} needs schedule depth {n + 1}")
        period = self.schedule.level(n).len_a + self.schedule.level(n + 1).len_a
        if not 0 <= t < period:
            raise ParameterError(f"offset {t} outside [0, {period})")
        b = RunBuilder()
        b.extend(self.a_word(n))
        b.append(0, self.schedule.level(n + 1).len_a)
        cell = b.build(2)
        reps = (t + horizon + period - 1) // period + 1
        full = power(cell, reps)
        return PointView(
            full.subword(t + 1, horizon),
            Provenance("periodic", offset=t, period=period),
        )


def construction_for(schedule: Schedule):
    """The S3 or S4 builder for ``schedule``, named by its construction."""
    if schedule.construction == "S3":
        return S3Construction(schedule)
    return S4Construction(schedule)


# ---------------------------------------------------------------------------
# patched system: shift on a base subshift, everything else resets to y


def patched_point(w: Word, horizon: int) -> PointView:
    """The first ``horizon`` symbols of ``w`` as a point of the 4-letter
    patched system."""
    if w.length < horizon:
        raise ParameterError("fewer symbols than the requested horizon")
    return PointView(w.subword(1, horizon), Provenance("patched-system"))


def patched_step(p: PointView, y_prefix: Word) -> PointView:
    """One application of the patched map.

    Points over {0,1} shift; points over {2,3} map to the fixed target y
    (given as a prefix).  The first symbol decides the branch since the
    phase space only contains pure-{0,1} and pure-{2,3} points.
    """
    if p.alphabet_size != 4:
        raise ParameterError("patched system uses alphabet size 4")
    if p.horizon == 0:
        raise HorizonError("patched_step on an exhausted view")
    lead = p.symbol_at(1)
    if lead in (2, 3):
        if y_prefix.alphabet_size != 4:
            y_prefix = Word(4, y_prefix.runs)
        return PointView(
            y_prefix,
            Provenance("patched-system", detail="reset-to-y"),
        )
    return PointView(
        p.prefix.subword(2, p.horizon - 1),
        p.provenance.shifted(1),
        p.truncation_note,
    )
