"""Importance sampling for deep-tail survival probabilities.

With drift pointing out of the cone, a_n decays like rho^n and plain Monte
Carlo needs ~1/a_n samples per surviving path. Tilting the step law by
e^{<t0, v>} / L(t0) centres the drift; weighting each surviving path by
rho^n e^{<t0, x - S_n>} keeps the estimator unbiased while collapsing its
variance. The sampler splits work over 16 counter-based substreams, so the
result is bit-identical no matter how many workers run.

Run:  python3 demos/rare_event_sampling.py
"""

from conewalk import (
    analyze,
    simulate_survival,
    simulate_tilted,
    survival_sequence,
)
from conewalk._zoo import EXTERIOR as model

an = analyze(model.dist, model.cone)
print(f"drift {tuple(str(c) for c in model.dist.drift)} -> rho = {an.rho:.6f}")
print(f"tilted weights: {[(v, round(w, 4)) for v, w in an.tilted_steps]}")
print(f"tilted drift:   {tuple(round(c, 12) for c in an.tilted_drift)}")

n, samples = 60, 100_000
exact = float(survival_sequence(model, n).terms[n])
plain = simulate_survival(model, n, samples, seed=1)
tilted = simulate_tilted(model, an, n, samples, seed=1)

print(f"\nexact  a_{n} = {exact:.6e}")
print(f"plain  MC    = {plain.mean:.6e}  (stderr {plain.std_error:.1e})")
print(f"tilted MC    = {tilted.mean:.6e}  (stderr {tilted.std_error:.1e})")
print(f"tilted relative error: {abs(tilted.mean - exact) / exact:.2%}")

w1 = simulate_tilted(model, an, n, samples, seed=1, workers=1)
w8 = simulate_tilted(model, an, n, samples, seed=1, workers=8)
print(f"\n1 worker vs 8 workers bit-identical: {w1.mean == w8.mean}")
