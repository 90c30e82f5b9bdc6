"""The same family S3 is Banach-mean equicontinuous: windowed orbit
averages stay small for pairs sharing a deep cylinder.

The contrast with the previous demo is the whole point: every cylinder
separates at almost every single TIME (diameter sense), yet no pair of
nearby points accumulates AVERAGE separation over any window.
"""

import itertools

from meansense import banach_avg_distance, cylinder_members
from meansense.checks import _s3_deep_cylinders
from meansense.constructions import S3Construction, build_schedule_s3

c = S3Construction(build_schedule_s3(4))
la = c.transitive_prefix(c.schedule.level(4).len_a).prefix
t2 = c.schedule.level(2).t
member_h = 3 * t2 + 64 + 100

for u in _s3_deep_cylinders(c, 3):
    members = cylinder_members(la, u, max_members=8, member_horizon=member_h)
    print(f"cylinder depth {u.length}: {len(members)} sampled members")
    worst = 0.0
    for y1, y2 in itertools.combinations(members, 2):
        r = banach_avg_distance(y1, y2, t2, depth=64)
        worst = max(worst, r.upper)
    print(f"  worst corrected sup over {t2}-windows: {worst:.5f}")
print()
print("every pair stays far below 0.05 — average separation never builds "
      "up, even though single-time separation is cofinite.")
