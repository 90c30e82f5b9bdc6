"""The bulk random-set replay of ``hausdorff-axioms`` and its exact oracle."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from meansense import FiniteSet, PointView, Provenance, Word
from meansense import checks
from meansense.checks import _mt_outputs, _packed_hausdorff_j, _random_sets
from meansense.hyperspace import _hausdorff_first_difference

ROOT = Path(__file__).resolve().parents[1]


def _random_finite_set(rng, horizon=48):
    """The members of one random finite set, in draw order, drawn call by
    call: the naive oracle that ``checks._random_sets`` replays in bulk."""
    return tuple(Word.from_symbols([rng.randint(0, 1) for _ in range(horizon)])
                 for _ in range(rng.randint(1, 5)))


def _replays(seed, count, horizon=48):
    naive, bulk = random.Random(seed), random.Random(seed)
    want = [_random_finite_set(naive, horizon) for _ in range(count)]
    got = list(_random_sets(bulk, count, horizon))
    assert [runs for runs, _ in got] == [tuple(w.runs for w in words)
                                         for words in want]
    assert [packed for _, packed in got] == [
        tuple(int(w.as_string(), 2) for w in words) for words in want]
    assert bulk.getstate() == naive.getstate()
    assert bulk.random() == naive.random()


def test_outputs_come_in_stream_order():
    # getrandbits(32 m) puts the first output in the least significant word
    for seed in (0, 7, 12345):
        a, b = random.Random(seed), random.Random(seed)
        assert _mt_outputs(a, 50).tolist() == [b.getrandbits(32)
                                               for _ in range(50)]
        assert a.getstate() == b.getstate()


@pytest.mark.parametrize("seed", range(20))
def test_random_sets_replay_the_per_call_stream(seed):
    # counts below, at and across the 15-set blocks
    for count in (1, 2, 14, 15, 16, 29, 30, 31, 46, 100):
        _replays(seed, count)
    _replays(seed, 7, horizon=5)


@pytest.mark.parametrize("seed", [7, 8, 100, 12345])
def test_random_sets_replay_a_whole_check(seed):
    _replays(seed, 3000)


def test_random_sets_replay_when_the_overdraw_runs_short(monkeypatch):
    # one output per set is never enough: every set extends its block's draw
    monkeypatch.setattr(checks, "_OUTPUTS_PER_SET", 1)
    for seed in range(5):
        for count in (1, 15, 16, 40):
            _replays(seed, count)


def _as_set(packed, horizon):
    return FiniteSet.of([
        PointView(Word.from_string(format(a, f"0{horizon}b")),
                  Provenance("explicit-limit"))
        for a in packed])


def test_packed_oracle_matches_first_difference_table():
    rng = random.Random(71)
    for trial in range(600):
        horizon = rng.choice([3, 8, 48])
        pool = [rng.getrandbits(horizon) for _ in range(rng.randint(1, 6))]
        # near copies of pool members, and repeats within and across sets
        pool += [a ^ (1 << rng.randrange(horizon)) for a in pool[:2]]

        def draw():
            return [rng.choice(pool) for _ in range(rng.randint(1, 6))]

        A, B = draw(), draw()
        if trial % 10 == 0:
            B = list(reversed(A)) + A[:1]  # the same set, members repeated
        want, _ = _hausdorff_first_difference(_as_set(A, horizon),
                                              _as_set(B, horizon))
        assert _packed_hausdorff_j(A, B, horizon) == want
        assert _packed_hausdorff_j(B, A, horizon) == want


def test_hausdorff_axioms_never_imports_numpy_random():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys\n"
            "from meansense.checks import check_hausdorff_axioms\n"
            "assert check_hausdorff_axioms(None, 0, trials=50).verdict == 'PASS'\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
