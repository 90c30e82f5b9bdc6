"""Desk-scale approximation of a subshift's language.

The language is under-approximated by the subwords of one long prefix of
the transitive point.  Every verdict that depends on the approximation says
so.
"""

from __future__ import annotations

from typing import List

from .errors import ParameterError, ResourceCapError
from .reports import FAIL, INCONCLUSIVE, PASS, Report
from .words import PointView, Provenance, Word, find_occurrences

SUBWORD_CAP = 65_536


def subwords(src: Word, n: int, cap: int = SUBWORD_CAP) -> List[Word]:
    """Distinct length-n subwords of the source prefix ``src`` (an
    under-approximation of the language), sorted.

    RLE-aware: windows wholly inside one run contribute a single constant
    word, so only windows near run boundaries need enumerating.  Raises
    ResourceCapError once more than ``cap`` distinct words turn up, so no
    caller ever judges part of the sample.
    """
    if not 1 <= n <= src.length:
        raise ParameterError(f"subword length {n} outside [1, {src.length}]")
    seen = set()
    # constant windows from long runs
    for s, c in src.runs:
        if c >= n:
            seen.add(Word(src.alphabet_size, [(s, n)]))
    # windows crossing a run end: starts from end - n + 2 to end + 1
    for end in src.run_index[:-1]:
        for p in range(max(1, end - n + 2), end + 2):
            if p + n - 1 <= src.length:
                seen.add(src.subword(p, n))
        if len(seen) > cap:
            raise ResourceCapError(
                f"more than {cap} distinct length-{n} subwords")
    # equal-length digit strings sort like the symbol tuples
    return sorted(seen, key=Word.as_string)


def cylinder_members(src: Word, u: Word, max_members: int = 32,
                     member_horizon: int = 4096,
                     start: int = 1) -> List[PointView]:
    """Known points of the cylinder of ``u``, truncated to ``member_horizon``.

    Members are the shifts of the source prefix ``src`` at each occurrence
    of ``u`` at or after position ``start`` (RLE occurrence scan, left to
    right) whose view fits inside ``src``: the scan stops at the last such
    start and after ``max_members`` occurrences, which must be at least 1.
    An empty result is not an error: it only means the approximation holds
    no witness.
    """
    if u.length == 0:
        raise ParameterError("empty cylinder word")
    out = []
    for pos in find_occurrences(src, u, cap=max_members, start=start,
                                last=src.length - member_horizon + 1):
        view = PointView(
            src.subword(pos, member_horizon),
            Provenance("shift-of-transitive-point", offset=pos - 1),
        )
        assert view.starts_with(u)
        out.append(view)
    return out


def check_transitive_desk(src: Word, n: int) -> Report:
    """Two-half recurrence proxy for transitivity.

    PASS when every length-n subword of the first half of the source prefix
    ``src`` is among the subwords of the second half; each half's are taken
    once.  A proxy, never a proof; the guard n <= len(src)/4 keeps
    recurrence observable at all.  Past the ``subwords`` cap, in either
    half, it raises ResourceCapError instead of a verdict.
    """
    horizon = src.length
    rep = Report("transitive-desk", params={"n": n, "horizon": horizon})
    if n > horizon // 4:
        rep.verdict = INCONCLUSIVE
        rep.caveats.append("window too long relative to horizon; no verdict")
        return rep
    half = horizon // 2
    first = src.subword(1, half)
    second = src.subword(half + 1, horizon - half)
    sample = subwords(first, n)
    recurring = set(subwords(second, n))
    missing = [w.to_text() for w in sample if w not in recurring]
    rep.params["distinct_subwords"] = len(sample)
    if missing:
        rep.verdict = FAIL
        rep.witnesses = [{"non_recurring": missing[:32]}]
    else:
        rep.verdict = PASS
    rep.caveats.append("desk proxy over a finite prefix, not a proof")
    return rep


def check_dense_periodic_desk(construction, src: Word, n: int) -> Report:
    """Dense-periodic-points proxy for the S4 family.

    PASS when every length-n subword of the source prefix ``src`` is the
    prefix of some shifted periodic point sigma^t (A_i 0^{|A_{i+1}|})^infinity
    with i in 1..min(2, depth-1); the report maps each subword to a
    witnessing (i, t).  Each level's periodic word is searched over one
    period plus n symbols, and its first occurrence gives t: the word is
    periodic, so that t is below the period and the smallest that works.
    Past the ``subwords`` cap it raises ResourceCapError instead of a verdict.
    """
    if construction.schedule.construction != "S4":
        raise ParameterError("dense-periodic check applies to the S4 family")
    rep = Report("dense-periodic-desk", params={"n": n, "horizon": src.length})
    sched = construction.schedule
    levels = range(1, min(2, sched.depth - 1) + 1)
    periodic = [construction.periodic_point(
        i, 0, sched.level(i).len_a + sched.level(i + 1).len_a + n).prefix
        for i in levels]
    table = {}
    missing = []
    for w in subwords(src, n):
        for i, word in zip(levels, periodic):
            occ = find_occurrences(word, w, cap=1)
            if occ:
                table[w.to_text()] = {"i": i, "t": occ[0] - 1}
                break
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
