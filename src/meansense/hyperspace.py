"""Finite-set hyperspace dynamics under the Hausdorff metric.

Hyperspace points are finite sets of truncated point views; finite sets are
dense in the full hyperspace, so at desk scale nothing else is attempted.
The induced map shifts every member and deduplicates.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from functools import cached_property
from typing import Sequence, Tuple

from .errors import (
    HorizonError,
    ParameterError,
    ResourceCapError,
    WitnessUnavailableError,
)
from .reports import CAPPED, FAIL, PASS, AverageReport, Report, fmt17
from .words import (
    BlockFamily,
    PointView,
    Provenance,
    Word,
    diff_intervals,
    find_occurrences,
    first_difference,
    symbol_runs,
)

#: occurrences of one cylinder scanned by ``independence_check``; a pattern
#: missing past this many makes the verdict CAPPED, not FAIL
OCCURRENCE_CAP = 200_000


def _family_shape(fam: BlockFamily) -> tuple:
    """(alphabet, block runs without a trailing zero run, horizon).

    Two families of one shape have equal members exactly at equal marks.
    Families of different shapes share no member: a member's last nonzero
    symbol is its lone 1, so its word determines the block up to trailing
    zeros, and its length is the horizon.
    """
    runs = fam.block.runs
    if runs and runs[-1][0] == 0:
        runs = runs[:-1]
    return fam.block.alphabet_size, runs, fam.horizon


def _is_marked_member(view: PointView, fam: BlockFamily) -> bool:
    """Whether ``view`` equals one of the marked members of ``fam``.

    A view with the family's alphabet and horizon does exactly when one of
    its first differences with them is 0: in its ``head``, or its ``tail``
    when some mark follows the head.
    """
    if (view.alphabet_size, view.horizon) != (fam.block.alphabet_size,
                                              fam.horizon):
        return False
    k, head, tail = _family_cut(view, fam)
    return 0 in head or (tail == 0 and k + len(head) < len(fam.marks))


class FiniteSet:
    """A non-empty finite set of point views, deduplicated by prefix.

    ``plain`` holds single views sorted by prefix.  ``families`` holds
    ``BlockFamily`` parts without extras, kept whole as a block and marks,
    with no member in common with each other or with ``plain``.
    ``members`` is the expanded view: every member, sorted by prefix, built
    on first use.  Distinct true points that agree through their horizons
    collapse here.  Two sets are equal when their members are.
    """

    def __init__(self, plain: Tuple[PointView, ...],
                 families: Tuple[BlockFamily, ...] = ()):
        vars(self).update(plain=plain, families=families)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteSet is immutable")

    @staticmethod
    def of(items: Sequence) -> "FiniteSet":
        """The set of the given views and ``BlockFamily`` members.

        A family's extras join the plain views.  Of a family's range of
        marks, only the pieces below and above each earlier part of the
        same shape (see ``_family_shape``) are kept, each piece its own
        part.  A plain view equal to a marked member is dropped; of equal
        plain views the first is kept.
        """
        if not items:
            raise ParameterError("a hyperspace point needs at least one member")
        views, families = [], []
        for item in items:
            if isinstance(item, PointView):
                views.append(item)
                continue
            views.extend(item.extras)
            pieces = [item.marks]
            for other in families:
                if _family_shape(other) == _family_shape(item):
                    held = other.marks
                    pieces = [piece for m in pieces for piece in (
                        range(m.start, min(m.stop, held.start)),
                        range(max(m.start, held.stop), m.stop)) if piece]
            families += [BlockFamily(item.block, piece, item.horizon)
                         for piece in pieces]
        # the sort is stable, so the first of equal views leads its group;
        # it stays, and every view equal to the one before it goes
        ranked = sorted(views, key=PointView.key)
        keys = [v.key() for v in ranked]
        plain = [v for v, k, before in zip(ranked, keys, [None, *keys])
                 if k != before]
        if families:
            plain = [v for v in plain
                     if not any(_is_marked_member(v, fam) for fam in families)]
        return FiniteSet(tuple(plain), tuple(families))

    @cached_property
    def members(self) -> Tuple[PointView, ...]:
        """Every member as a view, sorted by prefix; family parts are
        expanded here, on first use."""
        if not self.families:
            return self.plain
        return tuple(sorted(itertools.chain(self.plain, *self.families),
                            key=PointView.key))

    @property
    def horizon(self) -> int:
        return min([m.horizon for m in self.plain]
                   + [fam.horizon for fam in self.families])

    def __len__(self):
        return len(self.plain) + sum(len(fam.marks) for fam in self.families)

    def __eq__(self, other):
        return isinstance(other, FiniteSet) and self.members == other.members

    def __hash__(self):
        return hash(self.members)


def tk_step(A: FiniteSet) -> FiniteSet:
    """The induced map: shift every member, then deduplicate."""
    if A.horizon < 2:
        raise HorizonError("tk_step needs member horizons >= 2")
    return FiniteSet.of([m.shift(1) for m in A.members])


def union_factor(family: Sequence[FiniteSet]) -> FiniteSet:
    """The union map from families of hyperspace points down to one point."""
    if not family:
        raise ParameterError("empty family")
    members = [m for A in family for m in A.members]
    return FiniteSet.of(members)


# ---------------------------------------------------------------------------
# Hausdorff metric, two independent routes


def _family_cut(p: PointView, fam: BlockFamily) -> tuple:
    """(k, head, tail): the first differences of ``p`` with the marked
    members of ``fam``, in mark order, are marks[:k], then ``head`` (a
    tuple of at most one value), then ``tail`` for every later mark; 0
    stands where they agree through the shared horizon H (as
    ``point_metric`` truncates).

    Let D be the positions <= H where p disagrees with the zero tail, and
    d0 < d1 its first two.  The member marked m is the zero tail with a 1 at
    m, so it disagrees with p on D minus m, and at m itself when m <= H and
    p does not read 1 there; m lies past the block, where the zero tail
    reads 0.  Its first difference is therefore min(d0, m) when m is not in
    D (m alone when D is empty, none when also m > H), d1 when m = d0 and p
    reads 1 there (none when D = {m}), and d0 otherwise.  The marks
    increase, so one cut by ``bisect`` splits them into the marks kept and
    those replaced.
    """
    H = min(p.horizon, fam.horizon)
    marks = fam.marks
    los, his = diff_intervals(p.prefix, fam.zero_tail)
    if not los:
        return bisect.bisect_right(marks, H), (), 0
    d0 = los[0]
    k = bisect.bisect_left(marks, d0)
    if k < len(marks) and marks[k] == d0 and p.symbol_at(d0) == 1:
        return k, (d0 + 1 if his[0] > d0 else
                   (los[1] if len(los) > 1 else 0),), d0
    return k, (), d0


_AGREE = 2**63 - 1  # a pair agreeing throughout: distance 0


def _family_columns(marks, cuts) -> list:
    """The maxima of the family columns that hold no 0, one per stretch of
    columns that the rows' ``_family_cut`` results do not split.

    Row r reads marks[t] in column t < k_r, its head at k_r, then its
    tail.  Between two consecutive cut points (0, each k_r, each
    k_r + len(head_r)) every row keeps one reading: the marks, which
    increase, or one value.  So on such a stretch a column holds a 0
    exactly when its first one does, and the column maxima do not fall;
    the first column stands for the stretch.
    """
    n = len(marks)
    starts = {0, *(k for k, _, _ in cuts),
              *(k + len(head) for k, head, _ in cuts)} - {n}
    out = []
    for t in starts:
        col = [marks[t] if t < k else head[t - k] if t - k < len(head)
               else tail for k, head, tail in cuts]
        if all(col):
            out.append(max(col))
    return out


def _hausdorff_first_difference(A: FiniteSet, B: FiniteSet) -> tuple:
    """(j, truncated) with d_H(A, B) = 1/j by the max-min formula, j None
    when the distance is 0.

    The distance 1/j shrinks as j grows, so the nearest point of B to a is
    at the largest first difference in a's row, and the farthest of those
    nearest points is the smallest such maximum.  A row or column holding
    a 0 has a point at distance 0 and bounds nothing.

    Family columns are never expanded: ``_family_columns`` reduces them
    from each row's ``_family_cut``, and a row takes, for each family, the
    values that hold its maximum and any 0 of its part: the last mark
    before the cut, the head, and the tail when a mark follows the head.
    """
    if A.families and (not B.families or len(A) > len(B)):
        A, B = B, A  # rows: the side without families, or the smaller
    views = (list(itertools.chain(A.plain, *A.families)) if A.families
             else A.plain)
    cols = [b.prefix for b in B.plain]
    J = [[first_difference(a.prefix, b) or 0 for b in cols] for a in views]
    maxima = [*map(max, filter(all, zip(*J)))]
    for fam in B.families:
        marks = fam.marks
        cuts = [_family_cut(a, fam) for a in views]
        maxima += _family_columns(marks, cuts)
        for row, (k, head, tail) in zip(J, cuts):
            row += marks[k - 1:k]  # the last mark before the cut, if any
            row += head
            if k + len(head) < len(marks):
                row.append(tail)
    maxima += map(max, filter(all, J))
    return min(maxima, default=None), not all(map(all, J))


def hausdorff_distance(A: FiniteSet, B: FiniteSet) -> tuple:
    """max-min formula; the truncated flag propagates from any comparison."""
    j, trunc = _hausdorff_first_difference(A, B)
    return (0.0 if j is None else 1.0 / j), trunc


def hausdorff_distance_inf_formula(A: FiniteSet, B: FiniteSet) -> tuple:
    """Covering-radius route: smallest epsilon whose closed epsilon-balls
    around either set swallow the other.

    Scans the candidate radii (the pairwise distances) in increasing order
    and returns the first that covers both ways; on finite sets this equals
    the max-min formula, which the acceptance suite checks exhaustively.
    The scan runs on the first differences of every expanded member pair,
    with no closed form: radius 1/c covers a point when the point's nearest
    first difference is at least c, and agreement (distance 0) reads as
    ``_AGREE``, past every first difference.
    """
    cols = [b.prefix for b in B.members]
    J = [[first_difference(a.prefix, b) or 0 for b in cols] for a in A.members]
    K = [[j or _AGREE for j in row] for row in J]
    nearest = [*map(max, K), *map(max, zip(*K))]
    for c in sorted(set(itertools.chain(*K)), reverse=True):
        if all(map(c.__le__, nearest)):
            return (0.0 if c == _AGREE else 1.0 / c), not all(map(all, J))
    raise AssertionError("unreachable: the largest candidate always covers")


def family_hausdorff(famA: Sequence[FiniteSet], famB: Sequence[FiniteSet]) -> tuple:
    """Hausdorff distance between two finite families of hyperspace points,
    with the member-level Hausdorff distance as the ground metric."""
    table = [[hausdorff_distance(a, b) for b in famB] for a in famA]
    vals = [[v for v, _ in row] for row in table]
    value = max(max(map(min, vals)), max(map(min, zip(*vals))))
    return value, any(t for row in table for _, t in row)


# ---------------------------------------------------------------------------
# independence sets (brute force over the language approximation)


class CylinderTuple:
    """An immutable tuple of non-empty cylinder words."""

    def __init__(self, cylinders: Tuple[Word, ...]):
        if not cylinders or any(c.length == 0 for c in cylinders):
            raise ParameterError("cylinder tuple needs non-empty words")
        vars(self)["cylinders"] = cylinders

    def __setattr__(self, name, value):
        raise AttributeError("CylinderTuple is immutable")

    @property
    def arity(self) -> int:
        return len(self.cylinders)


def independence_check(tup: CylinderTuple, J: Sequence[int],
                       text: Word, exhaust_cap: int = 4096) -> Report:
    """Brute-force independence of the times in J for the cylinder tuple.

    For every assignment of cylinders to the times of J, searches the
    source prefix ``text`` for one position realizing the whole pattern.
    PASS and the witness table certify independence relative to the true
    language; FAIL only means no witness exists in the approximation.
    """
    J = sorted(set(int(j) for j in J))
    if not J or J[0] < 0:
        raise ParameterError("J must be non-empty, non-negative times")
    k = tup.arity
    n_patterns = k ** len(J)
    if n_patterns > exhaust_cap:
        raise ResourceCapError(
            f"{n_patterns} patterns exceed the cap {exhaust_cap}",
            required=n_patterns,
        )
    # 0-based occurrence starts per cylinder
    occ = []
    capped = False
    for cyl in tup.cylinders:
        hits = find_occurrences(text, cyl, cap=OCCURRENCE_CAP)
        capped = capped or len(hits) >= OCCURRENCE_CAP
        occ.append([p - 1 for p in hits])
    table = {}
    missing = []
    for pattern in itertools.product(range(k), repeat=len(J)):
        # positions t >= 0 with the pattern's cylinder for j at t + j
        common = set.intersection(*({p - j for p in occ[ci] if p >= j}
                                    for j, ci in zip(J, pattern)))
        key = "".join(str(c) for c in pattern)
        if common:
            table[key] = {"text": "source", "position": min(common)}
        else:
            missing.append(key)
    rep = Report("independence", params={
        "J": J, "arity": k, "patterns": n_patterns,
    })
    rep.witnesses = [{"pattern_witnesses": table}]
    if missing:
        rep.witnesses.append({"unrealized_patterns": missing})
        rep.verdict = CAPPED if capped else FAIL
        rep.caveats.append(
            "FAIL is approximation-relative: no witness in the finite "
            "language approximation, not a proof of dependence"
        )
    else:
        rep.verdict = PASS
    return rep


# ---------------------------------------------------------------------------
# the hyperspace mean-sensitivity witness


def hyper_witness_family(construction, P: FiniteSet, epsilon: float,
                         horizon: int) -> tuple:
    """Perturb P into a nearby hyperspace point Q whose induced orbit
    separates from P's on a full-density set of steps.

    Every member p_k of P must be a shift of the transitive point whose
    leading block aligns with the tail of a built level word; Q collects,
    for each member, the points sharing that block and continuing
    0^j 1 0^... for every j the horizon supports, plus the all-zero tail.
    Each such family stays one ``BlockFamily`` part of Q, never expanded.
    Returns (Q, report); the report certifies d_H(P, Q) = 1/j < epsilon,
    decided exactly on the integer first difference j.
    """
    from fractions import Fraction

    if epsilon <= 0 or epsilon >= 1:
        raise ParameterError("epsilon must lie in (0, 1)")
    for m in P.members:
        if m.provenance.kind != "shift-of-transitive-point":
            raise WitnessUnavailableError(
                f"member with provenance {m.provenance.kind!r} is not a "
                f"shift of the transitive point"
            )
    s_min = math.floor(1.0 / epsilon) + 1  # agreement depth making 1/(s+1) < eps
    families = []
    details = []
    for m in P.members:
        t = m.provenance.offset
        align = construction.suffix_alignments(t, s_min=s_min, cap=1)
        if not align:
            raise WitnessUnavailableError(
                f"no built level word ends at a usable depth past offset {t}"
            )
        (i, s), = align
        count = horizon - s - 1
        if count < 1:
            raise ParameterError("horizon leaves no room for the tail family")
        fam = construction.witness_family(t, s, count, horizon)
        fam = fam + [PointView(fam.zero_tail,
                               Provenance("explicit-limit", detail="zero-tail"))]
        families.append(fam)
        details.append({"offset": t, "aligned_level": i, "block_len": s,
                        "family_size": len(fam)})
    Q = FiniteSet.of(families)
    j, trunc = _hausdorff_first_difference(P, Q)
    rep = Report("hyper-witness", params={
        "epsilon": fmt17(epsilon), "horizon": horizon,
        "hausdorff_P_Q": fmt17(0.0 if j is None else 1.0 / j),
        "members": details,
    })
    # no first difference: distance 0 up to the horizon, flagged below
    close = j is None or Fraction(1, j) < Fraction(epsilon)
    rep.verdict = PASS if close else FAIL
    if trunc:
        rep.caveats.append("some metric comparisons were horizon-truncated")
    rep.caveats.append(
        "tail members realize the separating blocks available at this "
        "horizon; deeper blocks exist beyond it"
    )
    return Q, rep


def _ones_mask(S: FiniteSet, n: int) -> bytearray:
    """Mask over the 0-based positions 0..n-1, 1 where some member carries
    a 1: the ``symbol_runs`` of the plain members and of each family block,
    and each family's mark range, each cut at n and set by one slice
    assignment; none of a family's members is built."""
    runs = ([symbol_runs(m.prefix, 1) for m in S.plain]
            + [symbol_runs(fam.block, 1) for fam in S.families]
            + [((fam.marks.start - 1,), (fam.marks.stop - 2,))
               for fam in S.families])
    mask = bytearray(n)
    for los, his in runs:
        for lo, hi in zip(los, his):
            if lo >= n:
                break
            hi = min(hi + 1, n)
            mask[lo:hi] = b"\x01" * (hi - lo)
    return mask


def certified_separation_steps(P: FiniteSet, Q: FiniteSet, n: int) -> list:
    """Steps i < n where d_H of the induced orbits is exactly 1.

    Certified whenever one side has a member carrying 1 at position i+1
    while every member of the other side carries 0 there (binary alphabet),
    putting some point at first-symbol distance 1 from the whole other set;
    the metric never exceeds 1, so the value is pinned.
    """
    if min(P.horizon, Q.horizon) < n:
        raise HorizonError("horizon below the requested step count")
    if any(m.alphabet_size != 2 for m in P.plain + Q.plain) or any(
            fam.block.alphabet_size != 2 for fam in P.families + Q.families):
        raise ParameterError("certification needs the binary alphabet")
    return list(itertools.compress(range(n), map(
        operator.ne, _ones_mask(P, n), _ones_mask(Q, n))))


def hyper_mean_avg(P: FiniteSet, Q: FiniteSet, n: int) -> AverageReport:
    """Certified lower bound on the Cesaro average of the Hausdorff distance
    along the induced orbits, steps 0..n-1.

    Counts only the steps where the distance is provably 1 (see
    ``certified_separation_steps``), so it scales to member sets far too
    large to walk step by step.  ``upper_exact`` holds the same count over
    n as a ``Fraction``, for verdicts to compare.
    """
    from fractions import Fraction

    if n < 1:
        raise ParameterError("need at least one step")
    cert = certified_separation_steps(P, Q, n)
    return AverageReport(
        value=len(cert) / n,
        window=(0, n),
        truncation_correction=0.0,
        method="certified-lower",
        upper_exact=Fraction(len(cert), n),
    )
