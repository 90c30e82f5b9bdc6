import numpy as np
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


def expand(word: Word) -> np.ndarray:
    """The symbols of ``word`` as a uint8 array; guarded against huge words."""
    if word.length > EXPAND_LIMIT:
        raise ParameterError(f"refusing to expand {word.length} symbols")
    syms, lens = np.array(word.runs, dtype=np.int64).reshape(-1, 2).T
    return np.repeat(syms.astype(np.uint8), lens)


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


def naive_window_max(symbols: np.ndarray, window: int, target: int = 1):
    """Sliding-window maximum count by direct cumsum, with first witness."""
    hits = (symbols == target).astype(np.int64)
    cs = np.concatenate([[0], np.cumsum(hits)])
    counts = cs[window:] - cs[:-window]
    best = int(counts.max())
    return best, int(np.argmax(counts)) + 1


def naive_step_distances(a: np.ndarray, b: np.ndarray, steps: int, depth: int):
    """Reference per-step distances from expanded symbol arrays."""
    values = np.zeros(steps)
    truncated = np.zeros(steps, dtype=bool)
    for i in range(steps):
        window_a = a[i:i + depth]
        window_b = b[i:i + depth]
        diff = np.nonzero(window_a != window_b)[0]
        if len(diff):
            values[i] = 1.0 / (int(diff[0]) + 1)
        else:
            truncated[i] = True
    return values, truncated
