"""Testing sequences for linear recurrences over exact rationals.

A sequence has a rational generating function exactly when it eventually
satisfies a fixed linear recurrence. We synthesize the minimal candidate on a
fitting window (Berlekamp-Massey over Fractions), then verify it exactly on
every held-out term — one wrong term rejects the candidate. Control sequences
with known recurrences confirm the machinery; confined-walk survival
sequences then come back recurrence-free up to a large order cap.

Run:  python3 demos/recurrence_guessing.py
"""

from fractions import Fraction as F

from conewalk import (
    RecurrenceModel,
    excursion_sequence,
    guess_recurrence,
    survival_sequence,
)
from conewalk._zoo import SIMPLE as model

# --- controls with known answers -------------------------------------------
fib = [F(1), F(1)]
while len(fib) < 80:
    fib.append(fib[-1] + fib[-2])
found = guess_recurrence(fib, 10)
print(f"Fibonacci: order {found.order}, coefficients "
      f"{[str(c) for c in found.coefficients]}")
root = max(found.decomposition.roots, key=abs)
print(f"  dominant characteristic root {root.real:.9f} (golden ratio)")

geo = [F(2, 3) ** k for k in range(80)]
found = guess_recurrence(geo, 10)
print(f"geometric (2/3)^n: order {found.order}, "
      f"coefficients {[str(c) for c in found.coefficients]}")

# --- quarter-plane walks ----------------------------------------------------
survival = survival_sequence(model, 120).terms
print(f"\nsimple-walk survival, 120 exact terms: "
      f"{guess_recurrence(survival, 30)}")

excursion = excursion_sequence(model, (0, 0), 120).terms
verdict = guess_recurrence(excursion, 30)
print(f"simple-walk excursion at the origin:    {verdict}")
if not isinstance(verdict, RecurrenceModel):
    print("  (consistent with the n^{-3} power-law factor, which no "
          "exponential-polynomial reproduces)")
