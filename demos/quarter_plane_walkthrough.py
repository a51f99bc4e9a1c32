"""Full pipeline on a five-step quarter-plane walk.

The walk takes steps E, S, W, N, NE with equal weight 1/5 and is confined to
the first quadrant. Its drift (1/5, 1/5) points into the cone, so the walk
escapes with positive probability; we pin that probability between exact
two-sided bounds, and check that the survival sequence shows no sign of a
linear recurrence.

Run:  python3 demos/quarter_plane_walkthrough.py
"""

from conewalk import (
    analyze,
    escape_probability_bounds,
    guess_recurrence,
    survival_sequence,
)
from conewalk._zoo import FIVE_STEP as model

dist = model.dist

print("model:", dict(dist.steps))
print("drift:", tuple(str(c) for c in dist.drift))

an = analyze(dist, model.cone)
print(f"\ndrift classification: {an.classification.value}")
print(f"dual-cone minimizer t0 = {an.t0}, rho = {an.rho:.6f}")
print("(interior drift => t0 = 0 and rho = 1: no exponential decay)")

seq = survival_sequence(model, 120)
print("\nfirst survival terms:", [str(t) for t in seq.terms[:5]])

bounds = escape_probability_bounds(model, 100)
lo, hi = bounds.best
print(f"\nescape probability bounds after 100 steps:")
print(f"  {float(lo):.8f} <= P(never exits) <= {float(hi):.8f}")
print(f"  interval width {float(hi - lo):.2e}")

verdict = guess_recurrence(seq.terms, 30)
print(f"\nrecurrence search on 120 exact terms: {verdict}")
print("(no recurrence of order <= 30 fits: the generating function shows "
      "no sign of being rational)")
