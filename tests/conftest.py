import itertools

import pytest

from meansense import (
    GeneratorDescriptor,
    IndexSet,
    ParameterError,
    S3Construction,
    S4Construction,
    Word,
    build_schedule_s3,
    build_schedule_s4,
)
from meansense.words import EXPAND_LIMIT


@pytest.fixture(scope="session")
def s3():
    return S3Construction(build_schedule_s3(4))


@pytest.fixture(scope="session")
def s4():
    return S4Construction(build_schedule_s4(4, GeneratorDescriptor("constant-zero")))


@pytest.fixture(scope="session")
def s3_x4(s3):
    return s3.transitive_prefix(s3.schedule.level(4).len_a)


@pytest.fixture(scope="session")
def s3_language(s3_x4):
    return s3_x4.prefix


def expand(word: Word) -> bytes:
    """The symbols of ``word`` as bytes, one per symbol; guarded against
    huge words."""
    if word.length > EXPAND_LIMIT:
        raise ParameterError(f"refusing to expand {word.length} symbols")
    return b"".join(bytes((sym,)) * count for sym, count in word.runs)


def first_disagreement(a, b):
    """The 1-based first index at which the sequences ``a`` and ``b`` differ,
    scanned over their common length; None when they agree there."""
    return next((i for i, (p, q) in enumerate(zip(a, b), 1) if p != q), None)


def index_set(it, horizon: int) -> IndexSet:
    """The IndexSet of the integers in ``it``, all in [0, horizon)."""
    members = sorted(set(map(int, it)))
    if members and (members[0] < 0 or members[-1] >= horizon):
        raise ParameterError("index set member outside [0, horizon)")
    los, his = [], []
    for p in members:  # maximal runs of consecutive members
        if his and p == his[-1] + 1:
            his[-1] = p
        else:
            los.append(p)
            his.append(p)
    return IndexSet(los, his, horizon)


def separation_times(values, delta: float) -> IndexSet:
    """Steps i < len(values) of a diameter sequence with values[i] > delta,
    the value-route oracle of ``sensitivity_times``; each run opens at the
    next True of the mask and closes before the next False, both found by
    ``list.index``."""
    above = [v > delta for v in values]
    n = len(above)
    above += (True, False)  # sentinels: every scan finds what it seeks
    los, his = [], []
    lo = above.index(True)
    while lo < n:
        hi = min(above.index(False, lo), n)
        los.append(lo)
        his.append(hi - 1)
        lo = above.index(True, hi)
    return IndexSet(los, his, n)


def naive_window_max(symbols, window: int, target: int = 1):
    """Sliding-window maximum count by direct prefix sums, with first
    witness."""
    cs = list(itertools.accumulate((s == target for s in symbols), initial=0))
    counts = [cs[i + window] - cs[i] for i in range(len(cs) - window)]
    best = max(counts)
    return best, counts.index(best) + 1


def naive_step_distances(a, b, steps: int, depth: int):
    """Reference per-step distances, as two lists, from expanded symbol
    sequences: 1/g for the first disagreement g of the depth symbols from
    step i, else 0.0 and truncated."""
    values, truncated = [], []
    for i in range(steps):
        g = first_disagreement(a[i:i + depth], b[i:i + depth])
        values.append(0.0 if g is None else 1.0 / g)
        truncated.append(g is None)
    return values, truncated
