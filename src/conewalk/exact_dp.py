"""Exact layer-by-layer dynamic programming over confined lattice states.

Layers carry integer numerators over ``D^k`` (D = common weight denominator),
which keeps the arithmetic exact while avoiding per-operation gcd reduction.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal

from .errors import (
    DriftNotInterior,
    MemoryBudgetExceeded,
    NotSmallStep,
    PointOutsideCone,
    Trapped,
    UnsupportedCone,
)
from .laplace import DriftClass, classify_drift, tilt_distribution
from .model import WalkModel

DEFAULT_MEM_BUDGET = 2 * 2 ** 30  # bytes

SequenceKind = Literal["survival", "excursion", "g_functional"]


@dataclass(frozen=True)
class ExactSequence:
    """Exact rational sequence with provenance metadata."""

    terms: tuple[Fraction, ...]
    kind: SequenceKind
    model_hash: str
    horizon: int
    target: tuple[int, ...] | None = None

    def floats(self) -> list[float]:
        return [float(t) for t in self.terms]

    def to_csv(self) -> str:
        lines = ["n,numerator,denominator,value"]
        for n, t in enumerate(self.terms):
            lines.append(f"{n},{t.numerator},{t.denominator},{float(t)!r}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StateLayer:
    """Exact distribution of the confined walk at a fixed time."""

    index: int
    masses: dict[tuple[int, ...], Fraction]

    @property
    def total(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))


@dataclass(frozen=True)
class EscapeBounds:
    """Two-sided bounds on the escape probability, one interval per horizon,
    with the survival sequence a_k the intervals are built from."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    best: tuple[Fraction, Fraction]
    g_sequence: ExactSequence
    survival: ExactSequence


def _mem_budget() -> int:
    env = os.environ.get("CONEWALK_MEM_BUDGET")
    return int(env) if env else DEFAULT_MEM_BUDGET


def _dp_bytes(model: WalkModel, n: int) -> float:
    """Predicted DP memory at horizon n: box volume times bytes per state."""
    step_bound = max(abs(c) for v, _ in model.dist.steps for c in v)
    volume = math.prod(x + n * step_bound + 1 for x in model.start)
    return volume * (120 + n * max(math.log2(model.dist.common_denominator), 1.0) / 8)


def _budget_states(model: WalkModel, n: int) -> None:
    need = _dp_bytes(model, n)
    budget = _mem_budget()
    if need > budget:
        lo, hi = 0, n
        while lo < hi:  # largest horizon that fits
            mid = (lo + hi + 1) // 2
            if _dp_bytes(model, mid) <= budget:
                lo = mid
            else:
                hi = mid - 1
        raise MemoryBudgetExceeded(
            f"horizon {n} needs ~{need / 2**30:.1f} GiB (budget "
            f"{budget / 2**30:.1f} GiB); try horizon <= {lo}"
        )


def _advance(layer: dict, steps, upper=None) -> dict:
    """One DP transition restricted to the orthant (and an optional box)."""
    if not layer:
        return {}
    new: dict = {}
    get = new.get
    d = len(next(iter(layer)))
    if d == 1:
        u0 = upper[0] if upper else None
        for (i,), mass in layer.items():
            for (di,), c in steps:
                ii = i + di
                if ii >= 0 and (u0 is None or ii <= u0):
                    key = (ii,)
                    new[key] = get(key, 0) + c * mass
    elif d == 2:
        u0, u1 = (upper if upper else (None, None))
        for (i, j), mass in layer.items():
            for (di, dj), c in steps:
                ii = i + di
                jj = j + dj
                if ii >= 0 and jj >= 0 and (u0 is None or (ii <= u0 and jj <= u1)):
                    key = (ii, jj)
                    new[key] = get(key, 0) + c * mass
    else:
        for pos, mass in layer.items():
            for dv, c in steps:
                q = tuple(a + b for a, b in zip(pos, dv))
                if all(x >= 0 for x in q) and (
                    upper is None or all(x <= u for x, u in zip(q, upper))
                ):
                    new[q] = get(q, 0) + c * mass
    return new


def _integer_layers(model: WalkModel, n: int, target=None) -> Iterator[dict]:
    """Yield layers 0..n of integer numerators over D^k.

    With a target point given, states that cannot reach the target within the
    remaining time are pruned; this leaves every ``layer_k[target]`` intact.
    """
    if not model.cone.is_orthant:
        raise UnsupportedCone("exact DP supports orthant cones only")
    _budget_states(model, n)
    steps, _den = model.dist.integer_weights()
    steps = [(v, c) for v, c in steps]
    step_bound = max(abs(c) for v, _ in model.dist.steps for c in v)

    layer = {tuple(model.start): 1}
    yield layer
    for k in range(1, n + 1):
        upper = None
        if target is not None:
            upper = tuple(
                min(x + k * step_bound, y + (n - k) * step_bound)
                for x, y in zip(model.start, target)
            )
        layer = _advance(layer, steps, upper)
        yield layer
        if not layer:
            for _ in range(k + 1, n + 1):
                yield layer
            return


def survival_layers(model: WalkModel, n: int) -> Iterator[StateLayer]:
    """Exact state distributions P^x(tau>k, S_k = .) for k = 0..n."""
    den = model.dist.common_denominator
    for k, layer in enumerate(_integer_layers(model, n)):
        scale = den ** k
        yield StateLayer(index=k, masses={
            pos: Fraction(mass, scale) for pos, mass in layer.items()
        })


def survival_sequence(model: WalkModel, n: int) -> ExactSequence:
    """Exact survival probabilities a_0..a_n."""
    den = model.dist.common_denominator
    terms = [
        Fraction(sum(layer.values()), den ** k)
        for k, layer in enumerate(_integer_layers(model, n))
    ]
    return ExactSequence(tuple(terms), "survival", model.model_hash(), n)


def excursion_sequence(model: WalkModel, y, n: int) -> ExactSequence:
    """Exact excursion probabilities e_k = P^x(tau>k, S_k=y), k = 0..n."""
    y = tuple(int(c) for c in y)
    if not model.cone.contains(y):
        raise PointOutsideCone(f"target {y} is outside the cone")
    den = model.dist.common_denominator
    terms = [
        Fraction(layer.get(y, 0), den ** k)
        for k, layer in enumerate(_integer_layers(model, n, target=y))
    ]
    return ExactSequence(tuple(terms), "excursion", model.model_hash(), n, target=y)


def tilted_survival_functional(model: WalkModel, t0, n: int) -> list[float]:
    """Expectation of e^{-<t0,S_k>} over confined paths under the tilted law.

    Multiplying term k by rho^k e^{<t0,x>} reconstructs a_k; this is the
    floating-point cross-check of the exact sequences.
    """
    if not model.cone.is_orthant:
        raise UnsupportedCone("tilted DP supports orthant cones only")
    _budget_states(model, n)
    tilted, _drift = tilt_distribution(model.dist, t0)
    steps = [(v, w) for v, w in tilted]
    t0 = [float(c) for c in t0]

    def readout(layer: dict) -> float:
        return math.fsum(
            mass * math.exp(-math.fsum(a * b for a, b in zip(t0, pos)))
            for pos, mass in layer.items()
        )

    layer: dict = {tuple(model.start): 1.0}
    out = [readout(layer)]
    for _ in range(n):
        layer = _advance(layer, steps)
        out.append(readout(layer))
    return out


def _interior_smallstep_gamma(model: WalkModel) -> dict[int, Fraction]:
    """Per-coordinate descent/ascent weight ratios for the exit functional."""
    if not model.small_step:
        raise NotSmallStep("the boundary exit functional needs steps in {-1,0,1}^d")
    if classify_drift(model.dist.drift, model.cone) is not DriftClass.INTERIOR:
        raise DriftNotInterior("the boundary exit functional needs an interior drift")
    gammas = {}
    for i in range(model.dimension):
        p, _r, q = model.dist.marginal(i)
        if q > 0:
            # interior drift forces p > q > 0 on this coordinate
            gammas[i] = q / p
    if not gammas:
        raise Trapped("no coordinate ever decreases; the walk cannot exit")
    return gammas


def boundary_exit_g(model: WalkModel, y) -> Fraction:
    """Exact upper harmonic bound g(y) on the exit probability from y."""
    y = tuple(int(c) for c in y)
    gammas = _interior_smallstep_gamma(model)
    return sum((g ** (y[i] + 1) for i, g in gammas.items()), Fraction(0))


def escape_probability_bounds(model: WalkModel, n: int) -> EscapeBounds:
    """Per-horizon intervals [a_k - g_k, a_k - g_k/d] around P^x(tau=inf)."""
    gammas = _interior_smallstep_gamma(model)
    if model.trapped:
        raise Trapped("trapped walk: the escape probability is exactly 1")
    d = model.dimension
    den = model.dist.common_denominator

    # cache of gamma_i^(c+1) powers, grown on demand
    powers: dict[int, list[Fraction]] = {i: [g] for i, g in gammas.items()}

    intervals = []
    a_terms = []
    g_terms = []
    for k, layer in enumerate(_integer_layers(model, n)):
        scale = den ** k
        a_k = Fraction(sum(layer.values()), scale)
        a_terms.append(a_k)
        g_num = Fraction(0)
        for i, g in gammas.items():
            marg: dict[int, int] = {}
            for pos, mass in layer.items():
                c = pos[i]
                marg[c] = marg.get(c, 0) + mass
            pw = powers[i]
            top = max(marg)
            while len(pw) <= top:
                pw.append(pw[-1] * g)
            g_num += sum((Fraction(m) * pw[c] for c, m in marg.items()), Fraction(0))
        g_k = g_num / scale
        g_terms.append(g_k)
        intervals.append((a_k - g_k, a_k - g_k / d))

    best_lo = max(lo for lo, _ in intervals)
    best_hi = min(hi for _, hi in intervals)
    if best_lo > best_hi:
        raise RuntimeError(
            "escape-bound intervals do not intersect; this indicates a bug"
        )
    h = model.model_hash()
    return EscapeBounds(intervals=tuple(intervals), best=(best_lo, best_hi),
                        g_sequence=ExactSequence(tuple(g_terms), "g_functional", h, n),
                        survival=ExactSequence(tuple(a_terms), "survival", h, n))
