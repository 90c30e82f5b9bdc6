"""Induced set dynamics: mean sensitivity upstairs, mean rigidity downstairs.

P is a small finite set of orbit points of family S3.  The witness Q sits
within Hausdorff distance epsilon of P, yet along the induced orbits the
Hausdorff distance equals 1 on a full-density set of steps — while every
pair of base points in P keeps a tiny windowed average distance.
"""

import itertools

from meansense import (
    FiniteSet,
    S3Construction,
    banach_avg_distance,
    build_schedule_s3,
    certified_separation_steps,
    hausdorff_distance,
    hyper_mean_avg,
    hyper_witness_family,
)
from meansense.checks import _thm18_points

c = S3Construction(build_schedule_s3(4))
n = 10_000
horizon = n + 200
P = FiniteSet.of(_thm18_points(c, horizon))
print(f"P: {len(P)} orbit points, shared leading block")

Q, rep = hyper_witness_family(c, P, epsilon=0.1, horizon=horizon)
print(f"Q: {len(Q)} points, d_H(P, Q) = {rep.params['hausdorff_P_Q']}")

cert = certified_separation_steps(P, Q, n)
print(f"steps with certified induced distance 1: {len(cert)} of {n}")

avg = hyper_mean_avg(P, Q, n)
print(f"induced mean average over {n} steps: >= {avg.value:.4f} ({avg.method})")

print()
print("base-space contrast (windowed pair averages):")
t2 = c.schedule.level(2).t
for a, b in itertools.combinations(P.members, 2):
    r = banach_avg_distance(a, b, t2, depth=64)
    print(f"  offsets {a.provenance.offset}, {b.provenance.offset}: "
          f"{r.upper:.5f}")
