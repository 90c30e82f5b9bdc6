import random
from fractions import Fraction

import pytest

from meansense import (
    BlockFamily,
    CylinderTuple,
    FiniteSet,
    HorizonError,
    PointView,
    Provenance,
    ResourceCapError,
    Word,
    certified_separation_steps,
    de_bruijn_word,
    family_hausdorff,
    first_difference,
    hausdorff_distance,
    hausdorff_distance_inf_formula,
    hyper_mean_avg,
    hyper_witness_family,
    independence_check,
    point_metric,
    power,
    tk_step,
    union_factor,
)
from meansense.checks import _triangle_holds, check_thm18_witness
from meansense.hyperspace import (
    _family_cut,
    _hausdorff_first_difference,
)
from meansense.reports import fmt17

from conftest import expand


def view(text):
    return PointView(Word.from_string(text), Provenance("explicit-limit"))


def rand_set(rng, horizon=40, max_members=5):
    members = []
    for _ in range(rng.randint(1, max_members)):
        sym = [rng.randint(0, 1) for _ in range(horizon)]
        members.append(PointView(Word.from_symbols(sym),
                                 Provenance("explicit-limit")))
    return FiniteSet.of(members)


def test_finite_set_dedup():
    a = view("0101")
    b = view("0101")
    c = view("0110")
    s = FiniteSet.of([a, b, c])
    assert len(s) == 2
    assert s.members == (a, c)


def test_finite_sets_equal_by_members_whatever_the_duplicates():
    # a set is its members: duplicates that went in, as plain views or as
    # marks held by an earlier family part, leave no trace
    a, b = view("0101"), view("0110")
    twin = PointView(a.prefix, Provenance("explicit-limit", detail="twin"))
    block = Word.from_string("1101")
    fam = BlockFamily(block, range(8, 12), 16)
    for more, fewer in (([a, a, b], [a, b]), ([a, b, a, a, b], [b, a]),
                        ([a, twin, b], [a, b]),
                        ([fam, BlockFamily(block, range(9, 11), 16), a],
                         [fam, a]),
                        ([fam, *fam, a], [fam, a])):
        got, want = FiniteSet.of(more), FiniteSet.of(fewer)
        assert got == want and hash(got) == hash(want)
    assert FiniteSet.of([a, a]) != FiniteSet.of([a, b])


@pytest.mark.parametrize("first, second", [
    ((8, 14), (9, 12)),    # contained: nothing left
    ((9, 12), (8, 14)),    # containing: two pieces, two parts
    ((8, 12), (10, 15)),   # overlapping: the part above
    ((10, 15), (8, 12)),   # overlapping: the part below
    ((8, 10), (12, 15)),   # disjoint
    ((8, 12), (12, 15)),   # adjacent
    ((8, 15), (8, 15)),    # equal
])
def test_finite_set_of_range_marks_matches_the_list_route(first, second):
    # the range parts against the set of the expanded members
    block = Word.from_string("1101")
    plain = view("1101000100000000")  # the member at mark 8
    fams = [BlockFamily(block, range(*first), 16),
            BlockFamily(block, range(*second), 16)]
    got = FiniteSet.of([*fams, plain])
    want = FiniteSet.of([*fams[0], *fams[1], plain])
    assert not want.families
    assert (got.members, len(got)) == (want.members, len(want))
    if (first, second) == ((9, 12), (8, 14)):
        assert [fam.marks for fam in got.families] == [
            range(9, 12), range(8, 9), range(12, 14)]


def test_hausdorff_examples():
    A = FiniteSet.of([view("001111"), view("000000")])
    assert hausdorff_distance(A, A)[0] == 0.0
    x, y = view("110000"), view("000000")
    d_single = hausdorff_distance(FiniteSet.of([x]), FiniteSet.of([y]))
    assert d_single[0] == point_metric(x, y)[0] == 1.0
    # one-sided enlargement: d_H({x}, {x, z}) = d(x, z)
    z = view("111000")
    got, _ = hausdorff_distance(FiniteSet.of([x]), FiniteSet.of([x, z]))
    assert got == point_metric(x, z)[0] == 1 / 3


def test_hausdorff_formulas_agree_and_axioms_hold():
    rng = random.Random(59)
    for _ in range(400):
        A, B, C = (rand_set(rng) for _ in range(3))
        dab, _ = hausdorff_distance(A, B)
        dual, _ = hausdorff_distance_inf_formula(A, B)
        assert dab == dual
        assert dab == hausdorff_distance(B, A)[0]
        assert hausdorff_distance(A, A)[0] == 0.0
        # the triangle, decided on the integer first differences
        j_ab = _hausdorff_first_difference(A, B)[0]
        j_ac = _hausdorff_first_difference(A, C)[0]
        j_cb = _hausdorff_first_difference(C, B)[0]
        assert _triangle_holds(j_ab, j_ac, j_cb)


def test_triangle_decided_on_integer_first_differences():
    # 1/5 = 1/6 + 1/30 exactly, yet the float 1/5 exceeds 1/6 + 1/30
    assert 1 / 5 > 1 / 6 + 1 / 30
    assert _triangle_holds(5, 6, 30)
    assert not _triangle_holds(4, 6, 30)
    # no first difference is distance 0
    assert _triangle_holds(None, None, None)
    assert _triangle_holds(7, None, 7)
    assert not _triangle_holds(7, None, None)


def test_tk_step_shifts_and_dedups():
    A = FiniteSet.of([view("10110"), view("00110")])
    B = tk_step(A)
    assert len(B) == 1  # the two members merge after one shift
    assert B.members[0].prefix == Word.from_string("0110")
    with pytest.raises(HorizonError):
        tk_step(FiniteSet.of([view("1")]))


def test_tk_step_matches_elementwise_definition():
    rng = random.Random(61)
    for _ in range(100):
        A = rand_set(rng)
        B = rand_set(rng)
        stepped = hausdorff_distance(tk_step(A), tk_step(B))[0]
        direct = hausdorff_distance(
            FiniteSet.of([m.shift(1) for m in A.members]),
            FiniteSet.of([m.shift(1) for m in B.members]),
        )[0]
        assert stepped == direct


def test_union_factor_identities():
    rng = random.Random(67)
    singleton = rand_set(rng)
    assert union_factor([singleton]) == FiniteSet.of(singleton.members)
    for _ in range(200):
        family = [rand_set(rng) for _ in range(rng.randint(1, 4))]
        # commutes with the induced map
        left = union_factor([tk_step(A) for A in family])
        right = tk_step(union_factor(family))
        assert left.members == right.members
    for _ in range(200):
        famA = [rand_set(rng) for _ in range(rng.randint(1, 4))]
        famB = [rand_set(rng) for _ in range(rng.randint(1, 4))]
        # union is 1-Lipschitz for the family-level metric
        d_points = hausdorff_distance(union_factor(famA), union_factor(famB))[0]
        d_family = family_hausdorff(famA, famB)[0]
        # both sides are correctly rounded 1/j, and rounding is monotone
        assert d_points <= d_family


def test_independence_on_dense_word():
    la = de_bruijn_word(6)
    tup = CylinderTuple((Word.from_string("0"), Word.from_string("1")))
    rep = independence_check(tup, [0, 1, 2], la)
    assert rep.passed
    assert len(rep.witnesses[0]["pattern_witnesses"]) == 8
    assert {w["text"] for w in rep.witnesses[0]["pattern_witnesses"].values()} \
        == {"source"}
    # single-position case passes whenever both cylinders occur
    assert independence_check(tup, [0], la).passed


def test_independence_subset_monotone():
    la = de_bruijn_word(6)
    tup = CylinderTuple((Word.from_string("0"), Word.from_string("1")))
    full = independence_check(tup, [0, 1, 3], la)
    assert full.passed
    for sub in ([0], [1], [0, 3], [1, 3], [0, 1]):
        assert independence_check(tup, sub, la).passed


def test_independence_fails_on_periodic_orbit():
    la = power(Word.from_string("01"), 50)
    tup = CylinderTuple((Word.from_string("0"), Word.from_string("1")))
    rep = independence_check(tup, [0, 1], la)
    assert rep.verdict == "FAIL"
    missing = rep.witnesses[-1]["unrealized_patterns"]
    assert "00" in missing and "11" in missing


def test_independence_witnesses_start_inside_the_text():
    # over "0110" at times {1, 2}, pattern 01 reads text positions t + 1 and
    # t + 2: only t = -1 fits, which is not a point of the text
    tup = CylinderTuple((Word.from_string("0"), Word.from_string("1")))
    rep = independence_check(tup, [1, 2], Word.from_string("0110"))
    assert rep.verdict == "FAIL"
    assert rep.witnesses[0]["pattern_witnesses"] == {
        "11": {"text": "source", "position": 0},
        "10": {"text": "source", "position": 1}}
    assert rep.witnesses[-1]["unrealized_patterns"] == ["00", "01"]


def test_independence_cap_refusal():
    la = de_bruijn_word(4)
    tup = CylinderTuple((Word.from_string("0"), Word.from_string("1")))
    with pytest.raises(ResourceCapError) as exc:
        independence_check(tup, list(range(20)), la, exhaust_cap=100)
    assert exc.value.required == 2 ** 20


def test_hyper_witness_small_scale(s3):
    horizon = 700
    P = FiniteSet.of([s3.shift_view(0, horizon)])
    Q, rep = hyper_witness_family(s3, P, epsilon=0.25, horizon=horizon)
    assert rep.passed
    d, _ = hausdorff_distance(P, Q)
    assert d < 0.25
    # past the shared block, every step separates by exactly 1
    cert = certified_separation_steps(P, Q, 600)
    lo = max(int(m["block_len"]) for m in rep.params["members"])
    assert set(range(lo, 600)) <= set(cert)


def naive_hyper_mean_avg(P, Q, n):
    """(average, distances): the Hausdorff distance at each of the steps
    0..n-1, walking both induced orbits with ``tk_step``, and its mean."""
    a, b = P, Q
    distances = []
    for i in range(n):
        distances.append(hausdorff_distance(a, b)[0])
        if i + 1 < n:
            a, b = tk_step(a), tk_step(b)
    return sum(distances) / n, distances


def test_hyper_mean_avg_is_a_lower_bound_on_the_walked_average(s3):
    horizon = 260
    P = FiniteSet.of([s3.shift_view(0, horizon)])
    Q, _ = hyper_witness_family(s3, P, epsilon=0.25, horizon=horizon)
    n = 160
    avg = hyper_mean_avg(P, Q, n)
    cert = certified_separation_steps(P, Q, n)
    assert avg.upper_exact == Fraction(len(cert), n)
    assert avg.value == len(cert) / n and avg.method == "certified-lower"
    exact, distances = naive_hyper_mean_avg(P, Q, n)
    assert exact >= avg.value
    # on certified steps the walked distance is exactly 1
    assert all(distances[i] == 1.0 for i in cert)
    assert 0 < len(cert) < n


def test_hyper_mean_avg_identity():
    A = FiniteSet.of([view("0101010101")])
    rep = hyper_mean_avg(A, A, 5)
    assert rep.value == 0.0 and rep.upper_exact == 0
    assert naive_hyper_mean_avg(A, A, 5) == (0.0, [0.0] * 5)


def test_hyper_witness_rejects_wrong_provenance():
    from meansense import WitnessUnavailableError
    bad = FiniteSet.of([view("10110")])
    from meansense import build_schedule_s3, S3Construction
    c = S3Construction(build_schedule_s3(2))
    with pytest.raises(WitnessUnavailableError):
        hyper_witness_family(c, bad, 0.25, 64)


def naive_hausdorff(A_members, B_members):
    """max-min formula over ``point_metric`` on expanded member lists."""
    rows = [[point_metric(a, b) for b in B_members] for a in A_members]
    trunc = any(t for row in rows for _, t in row)
    forward = max(min(v for v, _ in row) for row in rows)
    backward = max(min(row[k][0] for row in rows)
                   for k in range(len(B_members)))
    return max(forward, backward), trunc


def random_family_items(rng, horizon, alphabet=2):
    """Families and views in one list, with the expanded oracle list.

    Most families sit on one block, and the other blocks share its prefix
    and trailing zeros, so families of different blocks can share members;
    each family's range of marks comes from a narrow stretch, so the ranges
    overlap, straddle and nest.  Plain views are family members, zero tails
    with ones put on marks, and their one-symbol flips, so that marks land
    on a view's ones and on its first disagreement with a zero tail.  On
    four letters a mark may also carry 2 or 3.
    """
    blocks = [Word.from_string(t, alphabet)
              for t in ("1101", "110100", "11", "1100")]
    fams, views = [], []
    shared = rng.choice(blocks)
    for _ in range(rng.randint(1, 4)):
        block = rng.choice([shared, shared, rng.choice(blocks)])
        h = rng.choice([horizon, horizon, horizon - 3])
        first = rng.randint(block.length + 1, 8)
        last = rng.randint(first, min(h, 12))
        fams.append(BlockFamily(block, range(first, last + 1), h))
    pool = []
    for fam in fams:
        z = list(expand(fam.zero_tail))
        pool.append(z)
        pool.extend(list(expand(m.prefix)) for m in fam)
        on = z[:]
        for m in rng.sample(list(fam.marks), rng.randint(1, len(fam.marks))):
            on[m - 1] = rng.choice([1, 1, 2, 3][:alphabet])
        pool.append(on)
    for _ in range(rng.randint(1, 4)):
        sym = list(rng.choice(pool))
        if rng.random() < 0.5:
            i = rng.randrange(len(sym))
            sym[i] = rng.choice([x for x in range(alphabet) if x != sym[i]])
        cut = rng.choice([len(sym), len(sym), len(sym) - 2])
        views.append(PointView(Word.from_symbols(sym[:cut], alphabet),
                               Provenance("explicit-limit", detail="plain")))
    items = []
    for fam in fams:
        if rng.random() < 0.5:
            fam = fam + [rng.choice(views)]
        items.append(fam)
    items.extend(views)
    rng.shuffle(items)
    # the oracle keeps a marked member over an equal plain view, and the
    # first of equal views otherwise
    marked = [m for it in items if isinstance(it, BlockFamily)
              for m in list(it)[:len(it.marks)]]
    plain = [v for it in items for v in
             (it.extras if isinstance(it, BlockFamily) else [it])]
    return items, marked + plain


def expanded_first_difference(A, B):
    """``_hausdorff_first_difference`` on the expanded table: the maxima of
    every row and every column holding no 0, family columns included."""
    J = [[first_difference(a.prefix, b.prefix) or 0 for b in B.members]
         for a in A.members]
    maxima = [*map(max, filter(all, J)), *map(max, filter(all, zip(*J)))]
    return min(maxima, default=None), not all(map(all, J))


def test_family_route_matches_expanded_route():
    rng = random.Random(71)
    readings = set()  # the (head, agreeing tail) kinds of the family cuts
    for trial in range(400):
        horizon = rng.randint(12, 20)
        alphabet = 4 if trial % 4 == 3 else 2
        items_a, flat_a = random_family_items(rng, horizon, alphabet)
        if rng.random() < 0.7:
            items_a = [v for v in flat_a if v.provenance.detail == "plain"][:3] \
                or flat_a[:1]
            flat_a = items_a
        items_b, flat_b = random_family_items(rng, horizon, alphabet)
        A, B = FiniteSet.of(items_a), FiniteSet.of(items_b)
        A_x, B_x = FiniteSet.of(flat_a), FiniteSet.of(flat_b)
        assert not A_x.families and not B_x.families
        for got, want in ((A, A_x), (B, B_x)):
            assert len(got) == len(want), trial
            assert got.members == want.members, trial
            assert got.horizon == want.horizon
        want = naive_hausdorff(A_x.members, B_x.members)
        assert hausdorff_distance(A_x, B_x) == want
        assert hausdorff_distance(A, B) == want, trial
        assert hausdorff_distance(B, A) == want, trial
        assert hausdorff_distance_inf_formula(A, B) == want, trial
        assert hausdorff_distance_inf_formula(B, A) == want, trial
        # the closed-form family columns against the expanded table
        for X, Y in ((A, B), (B, A)):
            assert (_hausdorff_first_difference(X, Y)
                    == expanded_first_difference(X, Y)), trial
            for fam in Y.families:
                for v in (X.members if X.families else X.plain):
                    k, head, tail = _family_cut(v, fam)
                    readings.add((len(head), 0 in head or (
                        tail == 0 and k + len(head) < len(fam.marks))))
        if alphabet != 2:
            continue  # certification reads the binary alphabet only
        n = min(A.horizon, B.horizon)
        assert (certified_separation_steps(A, B, n)
                == certified_separation_steps(A_x, B_x, n)), trial
    # cuts with and without a head, each with and without a member that
    # agrees with the row through the horizon
    assert readings == {(0, True), (0, False), (1, False), (1, True)}


def test_thm18_witness_outputs_on_s3_depth_4(s3):
    rep = check_thm18_witness(s3)
    assert rep.passed
    params = rep.params
    assert (params["P"], params["Q"]) == (3, 10188)
    assert params["hausdorff_P_Q"] == fmt17(1 / 14) == "0.071428571428571425"
    assert params["mean_avg_lower"] == "0.99680000000000002"
    assert params["method"] == "certified-lower"
    assert params["base_pairs_banach_upper"] == [
        "0.017076839340991884", "0.017053041798756011", "0.017076839340991884"]
    details = rep.witnesses[0]["details"]
    assert [d["family_size"] for d in details] == [10188] * 3
    assert [d["offset"] for d in details] == [60524949, 64842069, 60349566]
    assert {(d["aligned_level"], d["block_len"]) for d in details} == {(2, 12)}
    assert rep.caveats == [
        "tail members realize the separating blocks available at this "
        "horizon; deeper blocks exist beyond it",
        "lower bound: counts only steps with certified distance 1",
    ]
