"""Desk-scale approximation of a subshift's language.

The language is under-approximated by the subwords of one long prefix of
the transitive point.  Every verdict that depends on the approximation says
so.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import ParameterError
from .reports import FAIL, INCONCLUSIVE, PASS, Report
from .words import PointView, Provenance, Word, find_occurrences

SUBWORD_CAP = 65_536


@dataclass
class LanguageApprox:
    """The subwords of ``source_prefix``."""

    source_prefix: Word

    @property
    def horizon(self) -> int:
        return self.source_prefix.length


@dataclass
class SubwordSample:
    words: List[Word]
    truncated: bool


def subwords(la: LanguageApprox, n: int, cap: int = SUBWORD_CAP) -> SubwordSample:
    """Distinct length-n subwords of the source prefix (an under-approximation).

    RLE-aware: windows wholly inside one run contribute a single constant
    word, so only windows near run boundaries need enumerating.
    """
    src = la.source_prefix
    if not 1 <= n <= src.length:
        raise ParameterError(f"subword length {n} outside [1, {src.length}]")
    seen = set()
    truncated = False
    # constant windows from long runs
    for s, c in src.runs:
        if c >= n:
            seen.add(Word(src.alphabet_size, [(s, n)]))
    # windows crossing a run boundary: starts within n-1 of each boundary
    _, ends = src.run_index
    for boundary in (ends[:-1] + 1).tolist():
        for p in range(max(1, boundary - n + 1), boundary + 1):
            if p + n - 1 > src.length:
                continue
            if len(seen) >= cap:
                truncated = True
                break
            seen.add(src.subword(p, n))
        if truncated:
            break
    # equal-length digit strings sort like the symbol tuples
    return SubwordSample(sorted(seen, key=Word.as_string), truncated)


def cylinder_members(la: LanguageApprox, u: Word, max_members: int = 32,
                     member_horizon: int = 4096) -> List[PointView]:
    """Known points of the cylinder of ``u``, truncated to ``member_horizon``.

    Members are the shifts of the source point at each occurrence of ``u``
    (RLE occurrence scan, left to right).  An empty result is not an error:
    it only means the approximation holds no witness.
    """
    if u.length == 0:
        raise ParameterError("empty cylinder word")
    src = la.source_prefix
    out = []
    occs = find_occurrences(src, u, cap=max_members * 4)
    for pos in occs:
        t = pos - 1
        if t + member_horizon > src.length:
            continue
        view = PointView(
            src.subword(pos, member_horizon),
            Provenance("shift-of-transitive-point", offset=t),
            "occurrence-scan member",
        )
        assert view.starts_with(u)
        out.append(view)
        if len(out) >= max_members:
            break
    return out


def check_transitive_desk(la: LanguageApprox, n: int) -> Report:
    """Two-half recurrence proxy for transitivity.

    PASS when every length-n subword of the first half of the prefix occurs
    again in the second half.  A proxy, never a proof; the guard
    n <= horizon/4 keeps recurrence observable at all.
    """
    rep = Report("transitive-desk", params={"n": n, "horizon": la.horizon})
    if n > la.horizon // 4:
        rep.verdict = INCONCLUSIVE
        rep.caveats.append("window too long relative to horizon; no verdict")
        return rep
    half = la.horizon // 2
    first = LanguageApprox(la.source_prefix.subword(1, half))
    second = la.source_prefix.subword(half + 1, la.horizon - half)
    missing = []
    sample = subwords(first, n)
    for w in sample.words:
        if not find_occurrences(second, w, cap=1):
            missing.append(w.to_text())
    rep.params["distinct_subwords"] = len(sample.words)
    if missing:
        rep.verdict = FAIL
        rep.witnesses = [{"non_recurring": missing[:32]}]
    else:
        rep.verdict = PASS
    rep.caveats.append("desk proxy over a finite prefix, not a proof")
    return rep


def check_dense_periodic_desk(construction, la: LanguageApprox, n: int,
                              max_level: Optional[int] = None) -> Report:
    """Dense-periodic-points proxy for the S4 family.

    PASS when every observed length-n subword is the prefix of some shifted
    periodic point sigma^t (A_i 0^{|A_{i+1}|})^infinity; the report maps
    each subword to a witnessing (i, t).
    """
    if construction.schedule.construction != "S4":
        raise ParameterError("dense-periodic check applies to the S4 family")
    rep = Report("dense-periodic-desk", params={"n": n, "horizon": la.horizon})
    depth = construction.schedule.depth
    max_level = max_level or min(2, depth - 1)
    # two periods of each candidate periodic word, expanded once per level
    period_words = {}
    for i in range(1, max_level + 1):
        period = (construction.schedule.level(i).len_a
                  + construction.schedule.level(i + 1).len_a)
        doubled = construction.periodic_point(i, 0, period + n)
        period_words[i] = (period, doubled.prefix.expand())
    table = {}
    missing = []
    for w in subwords(la, n).words:
        target = tuple(w.expand())
        found = None
        for i in range(1, max_level + 1):
            period, sym = period_words[i]
            for t in range(period):
                if t + n <= len(sym) and tuple(sym[t:t + n]) == target:
                    found = (i, t)
                    break
            if found:
                break
        if found:
            table[w.to_text()] = {"i": found[0], "t": found[1]}
        else:
            missing.append(w.to_text())
    rep.witnesses = [{"witness_table": table}]
    if missing:
        rep.verdict = FAIL
        rep.witnesses.append({"unwitnessed": missing})
    else:
        rep.verdict = PASS
    rep.caveats.append(
        "subword set is an under-approximation from one finite prefix"
    )
    return rep
