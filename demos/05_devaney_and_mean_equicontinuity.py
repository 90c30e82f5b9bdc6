"""Family S4: transitive with dense periodic points, yet its transitive
point is mean equicontinuous.

The desk checks run on one long prefix.  The mean-equicontinuity report is
the interesting part: the bound chain needs a level whose gap parameter
dwarfs the block lengths, and the closed-form average runs over 10^11 steps
without iterating them.
"""

import json

from meansense import (
    GeneratorDescriptor,
    S4Construction,
    build_schedule_s4,
    check_dense_periodic_desk,
    check_transitive_desk,
)
from meansense.checks import check_prop_p_system

c = S4Construction(build_schedule_s4(4, GeneratorDescriptor("constant-zero")))
la = c.transitive_prefix(c.schedule.level(4).len_a).prefix

r1 = check_transitive_desk(la, 4)
print("two-half recurrence at word length 4:", r1.verdict,
      f"({r1.params['distinct_subwords']} distinct subwords)")

r2 = check_dense_periodic_desk(c, la, 4)
print("periodic-prefix coverage at word length 4:", r2.verdict)
for word, wit in r2.witnesses[0]["witness_table"].items():
    print(f"  {word:28s} <- level {wit['i']}, offset {wit['t']}")

print()
rep = check_prop_p_system(c, epsilon=0.1)
print("mean equicontinuity at the transitive point:", rep.verdict)
print(json.dumps({k: rep.params[k] for k in
                  ("witnessing_m", "steps", "term_linear", "term_const")},
                 indent=2))
for row in rep.witnesses[1]["members"]:
    print(f"  member {row['provenance']:26s} cesaro upper {row['cesaro_upper']}")
