"""A non-sensitive patch: shift on {0,1}-points, everything else resets.

The four-letter phase space splits into a base subshift (shift branch) and
the {2,3} cylinder, which the map sends wholesale to one chosen point.
After a single step that cylinder has diameter zero — no sensitivity can
ever be witnessed inside it.
"""

from meansense import Word, orbit_diam_sequence
from meansense.constructions import (
    GeneratorDescriptor,
    minimal_generator,
    patched_point,
    patched_step,
)

horizon = 120
y = Word(4, minimal_generator(GeneratorDescriptor("thue-morse"), horizon).runs)
print("reset target y starts:", y.subword(1, 24).as_string())

cylinder = [
    patched_point(Word(4, [(2, horizon)]), horizon),
    patched_point(Word(4, [(3, horizon)]), horizon),
    patched_point(Word(4, ((2, 1), (3, 1)) * (horizon // 2)), horizon),
    patched_point(Word(4, [(3, 5), (2, horizon - 5)]), horizon),
]
values, _ = orbit_diam_sequence(cylinder, 40,
                                lambda p: patched_step(p, y))
print("diameters along the orbit of the {2,3} cylinder:")
print("  step 0:", values[0], "(distinct points before the map acts)")
print("  steps 1..39 all zero:", all(v == 0 for v in values[1:]))
