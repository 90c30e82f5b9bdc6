"""Brute-force independence sets over a finite language approximation.

An independence set for a tuple of cylinders demands every assignment of
cylinders to times be realized by some point.  On a dense word all patterns
appear; a two-point periodic orbit cannot realize the constant patterns.
"""

from meansense import (
    CylinderTuple,
    Word,
    de_bruijn_word,
    independence_check,
    power,
)

tup = CylinderTuple((Word.from_string("0"), Word.from_string("1")))

dense = de_bruijn_word(6)
rep = independence_check(tup, [0, 1, 2], dense)
print("dense word, times {0,1,2}:", rep.verdict)
for pattern, wit in sorted(rep.witnesses[0]["pattern_witnesses"].items()):
    print(f"  pattern {pattern} realized at position {wit['position']}")

periodic = power(Word.from_string("01"), 50)
rep = independence_check(tup, [0, 1], periodic)
print()
print("two-point periodic orbit, times {0,1}:", rep.verdict)
print("  unrealized:", rep.witnesses[-1]["unrealized_patterns"])
print("  (FAIL is relative to the approximation: no witness exists in it)")
