"""Exact layer-by-layer dynamic programming over confined lattice states.

Layer k covers the box ``[0, x + k*grow]`` (x the start, grow the largest
positive step in each coordinate).  The walk at step k lies in one coset of
the lattice L spanned by the step differences v - v0; with m the index of L
in Z^d, it occupies at most m^(d-1) residue classes mod m.  A layer stores
only those: it maps each live class r to a dense array whose entry j holds
the confined mass at r + m*j, so it holds about volume/m entries.  A step v
moves class r to class r' = (r + v) mod m, shifted by (r + v - r') // m,
which makes every read and write of the one shift-and-add kernel a
contiguous slice; m = 1 is the same code with a single class.  Exact streams
use ``object`` dtype with integer numerators over ``D^k`` (D = common weight
denominator), which keeps the arithmetic exact while avoiding per-operation
gcd reduction, and group their steps by weight so each weight scales the
stored classes once; the tilted functional uses ``float64``.

``_read`` reads survival, the excursion and the escape bounds' g-functional
off one unpruned pass, and ``survival_pass`` is the one call for all three.
It carries the survival total and the g-functional from layer to layer by
subtracting what exits through the boundary slabs of each class: both f = 1
and g are harmonic for the free walk, so neither sums the layer.  The
excursion readout is one entry of one class.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterator, Literal

import numpy as np

from .errors import (
    ConewalkError,
    DriftNotInterior,
    MemoryBudgetExceeded,
    NotSmallStep,
    Trapped,
    UnsupportedCone,
)
from .laplace import DriftClass, classify_drift, tilt_distribution
from .model import WalkModel, _echelon_pivots, excursion_target

DEFAULT_MEM_BUDGET = 2 * 2 ** 30  # bytes
A_INF_HORIZON = 100  # escape bounds at horizons 0..100 estimate P(tau = inf)

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
    with the survival sequence a_k the intervals are built from and, when a
    target was given, the excursion sequence read off the same pass."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    best: tuple[Fraction, Fraction]
    g_sequence: ExactSequence
    survival: ExactSequence
    excursion: ExactSequence | None

    @property
    def a_inf(self) -> float:
        """The estimate of P(tau = inf): the midpoint of the best interval
        over horizons 0..A_INF_HORIZON."""
        head = self.intervals[:A_INF_HORIZON + 1]
        return float(max(lo for lo, _ in head) + min(hi for _, hi in head)) / 2.0


def _mem_budget() -> int:
    env = os.environ.get("CONEWALK_MEM_BUDGET")
    return int(env) if env else DEFAULT_MEM_BUDGET


def _step_bound(model: WalkModel) -> int:
    return max(abs(c) for v, _ in model.dist.steps for c in v)


def _below_hyperplane(box, start, reach: int) -> int:
    """Number of points x of the box prod [0, s) with sum(x - start) <= reach,
    by inclusion-exclusion over the coordinates that overshoot their side."""
    d, top = len(box), reach + sum(start)
    return sum((-1) ** len(over) * math.comb(top - sum(over) + d, d)
               for j in range(d + 1) for over in itertools.combinations(box, j)
               if top - sum(over) >= 0)


def _dp_bytes(model: WalkModel, n: int) -> float:
    """Predicted peak DP memory at horizon n, in bytes.

    A layer stores at most m^(d-1) residue classes (the cosets of m Z^d in
    the step-difference lattice), each about 1/m^d of the box: about volume/m
    entries.  The last step holds three layers of Python ints: its input, its
    output and the product ``c * layer`` of one weight; ``+=`` on an object
    slice also buffers up to ``np.getbufsize()`` sums before writing them
    back.  The escape bounds keep four Fractions (eight ints) per horizon:
    a_k, g_k and the two interval ends.  Every entry costs an 8-byte slot.
    An int costs a header with allocator rounding (about 40 bytes) and 4
    bytes per 30 bits of a numerator below D^n on top, except in the layer
    entries past the hyperplane sum(x - start) = n * max_v sum(v), which no
    walk reaches in n steps: they all point at the cached int 0.
    """
    m = _modulus(model)
    grow = _grow(model.dist.steps, model.dimension)  # the box as _layers builds it
    box = [x + n * g + 1 for x, g in zip(model.start, grow)]
    stored = m ** (model.dimension - 1) * math.prod(-(-s // m) for s in box)
    reach = n * max(0, *(sum(v) for v, _ in model.dist.steps))
    zeros = stored - stored * _below_hyperplane(box, model.start, reach) / math.prod(box)
    entries = 3 * stored + min(stored, np.getbufsize()) + 8 * (n + 1)
    bits = n * max(math.log2(model.dist.common_denominator), 1.0)
    return 8 * entries + (entries - 3 * zeros) * (40 + bits / 7.5)


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


def _lattice_index(vectors) -> int:
    """Index in Z^d of the lattice spanned by the differences v - v0 of the
    given vectors, or 1 when that lattice is not of full rank."""
    v0, *rest = vectors
    pivots = _echelon_pivots([[a - b for a, b in zip(v, v0)] for v in rest], len(v0))
    return abs(math.prod(pivots)) if len(pivots) == len(v0) else 1


def _modulus(model: WalkModel) -> int:
    """The modulus m of the residue classes a layer stores: the index of the
    step-difference lattice."""
    return _lattice_index([v for v, _ in model.dist.steps])


def _grow(steps, dimension: int) -> list[int]:
    """How far the box grows per step: the largest positive step coordinate."""
    return [max(0, *(v[i] for v, _ in steps)) for i in range(dimension)]


def _class_shape(shape, r, m: int) -> list[int]:
    """Shape of class r of a box: the entries r + m*j inside it."""
    return [(s - c + m - 1) // m for s, c in zip(shape, r)]


def _moves(r, v, m: int):
    """The class r' = (r + v) mod m that step v moves class r to, and the
    shift s = (r + v - r') // m: entry j of class r lands at entry j + s."""
    to = tuple((c + a) % m for c, a in zip(r, v))
    return to, [(c + a - t) // m for c, a, t in zip(r, v, to)]


def _advance(classes: dict, steps, shape, m: int) -> dict:
    """One DP transition into a box of the given shape: each step v adds
    c_v * layer[x] at x + v, for every x with x + v in the orthant and the box.

    A class is stored once a step writes to it: the first such step assigns
    its slice into zeros, and later steps add into it.  Each run of adjacent
    steps with equal weight scales the stored classes once.
    """
    new = {}
    for c, group in itertools.groupby(steps, key=itemgetter(1)):
        scaled = classes if c == 1 else {r: c * a for r, a in classes.items()}
        for v, _ in group:
            for r, a in scaled.items():
                to, shift = _moves(r, v, m)
                out = new.get(to)
                bounds = _class_shape(shape, to, m) if out is None else out.shape
                src, dst = [], []
                for s, size, bound in zip(shift, a.shape, bounds):
                    lo, hi = max(-s, 0), min(size, bound - s)
                    src.append(slice(lo, hi))
                    dst.append(slice(lo + s, hi + s))
                if any(x.start >= x.stop for x in src):
                    continue  # every entry leaves the orthant or the box
                if out is None:
                    out = new[to] = np.zeros(bounds, dtype=a.dtype)
                    out[tuple(dst)] = a[tuple(src)]
                else:
                    out[tuple(dst)] += a[tuple(src)]
        del scaled  # free this product before the next weight forms its own
    return new


def _layers(model: WalkModel, n: int, steps, dtype, target=None) -> Iterator[dict]:
    """Yield layers 0..n, each a dict from live residue class r to the
    confined masses at r + m*j under the given step weights.

    With a target point given, states that cannot reach the target within the
    remaining time are cut off each class; this leaves every entry at the
    target intact.
    """
    if not model.cone.is_orthant:
        raise UnsupportedCone("exact DP supports orthant cones only")
    _budget_states(model, n)
    grow = _grow(steps, model.dimension)
    step_bound = _step_bound(model)
    m = _modulus(model)
    shape = [x + 1 for x in model.start]
    r = tuple(x % m for x in model.start)
    first = np.zeros(_class_shape(shape, r, m), dtype=dtype)
    first[tuple(x // m for x in model.start)] = 1
    layer = {r: first}
    yield layer
    for k in range(1, n + 1):
        shape = [s + g for s, g in zip(shape, grow)]
        if target is not None:
            shape = [min(s, y + (n - k) * step_bound + 1) for s, y in zip(shape, target)]
        layer = _advance(layer, steps, shape, m)
        yield layer


def _integer_layers(model: WalkModel, n: int, target=None) -> Iterator[dict]:
    """Yield layers 0..n of integer numerators over D^k.

    Integer sums do not depend on the order of the steps, so equal weights
    are made adjacent here, each in its first-appearance order.  Float layers
    keep the caller's order, which fixes the order of every float sum.
    """
    steps, _den = model.dist.integer_weights()
    first_seen = {}
    for _, c in steps:
        first_seen.setdefault(c, len(first_seen))
    steps.sort(key=lambda step: first_seen[step[1]])
    return _layers(model, n, steps, object, target)


def survival_layers(model: WalkModel, n: int) -> Iterator[StateLayer]:
    """Exact state distributions P^x(tau>k, S_k = .) for k = 0..n."""
    den = model.dist.common_denominator
    m = _modulus(model)
    for k, layer in enumerate(_integer_layers(model, n)):
        scale = den ** k
        masses = {}
        for r, a in layer.items():
            for j in map(tuple, np.argwhere(a).tolist()):
                masses[tuple(c + m * i for c, i in zip(r, j))] = Fraction(a[j], scale)
        yield StateLayer(index=k, masses=dict(sorted(masses.items())))


def _exit_slabs(layer: dict, v, m: int):
    """Yield, per stored class, the disjoint slabs j_i < -s_i with j_l >= -s_l
    on the earlier axes l (s the class's shift under v), which together hold
    the entries x with x + v outside the orthant; each with ``corner``, the
    point x + v at its first entry.  Entries of a slab lie m apart."""
    for r, a in layer.items():
        to, shift = _moves(r, v, m)
        for i, s in enumerate(shift):
            if s < 0:
                lo = [max(-b, 0) for b in shift[:i]] + [0] * (len(shift) - i)
                slab = tuple(slice(c, None) for c in lo[:i]) + (slice(-s),)
                yield a[slab], [t + m * (c + b) for t, c, b in zip(to, lo, shift)]


def _read(model: WalkModel, n: int, target=None, carried=()):
    """Read the survival sequence, the excursion sequence at ``target`` (None
    without one) and one term list per carried functional off one unpruned
    pass over the integer layers 0..n.

    A carried functional F_k = sum_x layer_k[x] f(x) has an f harmonic for the
    free walk, sum_v c_v f(x + v) = D f(x), so it starts at f(start) and steps
    to sum_v c_v (F_k - sum of layer_k[x] f(x + v) over the x with x + v
    outside the orthant).  It is given as the pair (f(start), exit_sum), where
    ``exit_sum(slab, corner, m)`` sums slab[c] f(corner + m*c) over one slab
    of ``_exit_slabs``.  Survival is the functional f = 1.  The step holds only
    when every layer is the whole confined mass; so no target prunes it.
    """
    den = model.dist.common_denominator
    steps, _den = model.dist.integer_weights()
    m = _modulus(model)
    readouts = []
    if target is not None:
        target, readout = _excursion_readout(model, target)
        readouts.append(readout)
    carried = [(1, lambda slab, _corner, _m: slab.sum()), *carried]
    values = [start for start, _ in carried]
    sequences = [[] for _ in range(len(carried) + len(readouts))]
    for k, layer in enumerate(_integer_layers(model, n)):
        scale = den ** k
        terms = values + [readout(layer) for readout in readouts]
        for sequence, term in zip(sequences, terms):
            sequence.append(Fraction(term, scale))
        values = [sum(c * (value - sum(exit_sum(slab, corner, m)
                                       for slab, corner in _exit_slabs(layer, v, m)))
                      for v, c in steps)
                  for value, (_, exit_sum) in zip(values, carried)]
    h = model.model_hash()
    survival, *carried_terms = sequences[:len(carried)]
    excursion = (ExactSequence(tuple(sequences[-1]), "excursion", h, n, target=target)
                 if readouts else None)
    return ExactSequence(tuple(survival), "survival", h, n), excursion, carried_terms


def _excursion_readout(model: WalkModel, y):
    """Check an excursion target y; return it as a tuple with the readout of
    entry y // m of class y mod m, which is 0 where that class is not stored
    or y lies outside the box."""
    y = excursion_target(model, y)
    m = _modulus(model)
    r, j = tuple(c % m for c in y), tuple(c // m for c in y)

    def readout(layer: dict):
        a = layer.get(r)
        return a[j] if a is not None and all(c < s for c, s in zip(j, a.shape)) else 0

    return y, readout


def survival_sequence(model: WalkModel, n: int) -> ExactSequence:
    """Exact survival probabilities a_0..a_n."""
    return _read(model, n)[0]


def excursion_sequence(model: WalkModel, y, n: int) -> ExactSequence:
    """Exact excursion probabilities e_k = P^x(tau>k, S_k=y), k = 0..n."""
    y, readout = _excursion_readout(model, y)
    den = model.dist.common_denominator
    terms = tuple(Fraction(readout(layer), den ** k)
                  for k, layer in enumerate(_integer_layers(model, n, y)))
    return ExactSequence(terms, "excursion", model.model_hash(), n, target=y)


def tilted_survival_functional(model: WalkModel, t0, n: int) -> list[float]:
    """Expectation of e^{-<t0,S_k>} over confined paths under the tilted law.

    Multiplying term k by rho^k e^{<t0,x>} reconstructs a_k; this is the
    floating-point cross-check of the exact sequences.
    """
    tilted, _drift = tilt_distribution(model.dist, t0)
    t0 = [float(c) for c in t0]
    m = _modulus(model)
    grow = _grow(tilted, model.dimension)
    axes = np.ogrid[tuple(slice(x + n * g + 1) for x, g in zip(model.start, grow))]
    weight = np.exp(-sum(t * a for t, a in zip(t0, axes)))

    def readout(layer: dict) -> float:
        # fsum is exactly rounded, so leaving out the zero products changes
        # no bit of the sum
        products = (a * weight[tuple(slice(c, c + m * s, m) for c, s in zip(r, a.shape))]
                    for r, a in layer.items())
        return math.fsum(itertools.chain.from_iterable(
            p[p != 0].tolist() for p in products))

    return [readout(layer) for layer in _layers(model, n, tilted, float)]


def bounds_error(model: WalkModel) -> ConewalkError | None:
    """The rule for when the escape bounds apply: a small-step, non-trapped
    orthant walk whose drift is interior by ``classify_drift``.  Return the
    typed error of the first condition the model fails, or None."""
    if not model.cone.is_orthant:
        return UnsupportedCone("the boundary exit functional needs the orthant")
    if not model.small_step:
        return NotSmallStep("the boundary exit functional needs steps in {-1,0,1}^d")
    if classify_drift(model.dist.drift, model.cone) is not DriftClass.INTERIOR:
        return DriftNotInterior("the boundary exit functional needs an interior drift")
    if model.trapped:
        return Trapped("no coordinate ever decreases; the walk cannot exit")
    return None


def _gammas(model: WalkModel) -> dict[int, Fraction]:
    """Per-coordinate descent/ascent weight ratios q_i/p_i of the exit
    functional, over the coordinates that can decrease."""
    error = bounds_error(model)
    if error is not None:
        raise error
    marginals = [model.dist.marginal(i) for i in range(model.dimension)]
    # interior drift forces p > q > 0 on each coordinate that can decrease
    return {i: q / p for i, (p, _r, q) in enumerate(marginals) if q > 0}


def _power_sum(marginal, g: Fraction, e: int, m: int) -> Fraction:
    """sum_c marginal[c] g^(e + m*c) over a 1D integer array of length K.
    With g = q/p and G = g^m = Q/P this is q^e h / (P^(K-1) p^e), where
    h = sum_c marginal[c] Q^c P^(K-1-c) by Horner on ints."""
    q, p = g.numerator, g.denominator
    big_q, big_p = q ** m, p ** m
    h, p_pow = 0, 1
    for x in marginal[::-1]:
        h = h * big_q + x * p_pow
        p_pow *= big_p
    return Fraction(h * big_p * q ** e, p_pow * p ** e)


def escape_probability_bounds(model: WalkModel, n: int, target=None) -> EscapeBounds:
    """Per-horizon intervals [a_k - g_k, a_k - g_k/d] around P^x(tau=inf).

    g(x) = sum_i g_i^(x_i + 1) is the exact upper harmonic bound on the exit
    probability from x, and g_k = sum_x P^x(tau > k, S_k = x) g(x) is carried
    by exit mass like a_k, from g_0 = g(start).  With a target y, the same
    pass also reads the excursion sequence at y.
    """
    gammas = _gammas(model)
    d = model.dimension
    g_start = sum((g ** (model.start[i] + 1) for i, g in gammas.items()), Fraction(0))

    def exit_g(slab: np.ndarray, corner, m: int) -> Fraction:
        # g(x) = sum_i g_i^(x_i + 1), so each term is a power sum in g_i^m
        # over the slab's coordinate-i marginal
        return sum((_power_sum(slab.sum(axis=tuple(j for j in range(d) if j != i)),
                               g, corner[i] + 1, m) for i, g in gammas.items()),
                   Fraction(0))

    survival, excursion, [g_terms] = _read(
        model, n, target, [(g_start, exit_g)])
    intervals = [(a_k - g_k, a_k - g_k / d) for a_k, g_k in zip(survival.terms, g_terms)]

    best_lo = max(lo for lo, _ in intervals)
    best_hi = min(hi for _, hi in intervals)
    if best_lo > best_hi:
        raise RuntimeError(
            "escape-bound intervals do not intersect; this indicates a bug"
        )
    return EscapeBounds(intervals=tuple(intervals), best=(best_lo, best_hi),
                        g_sequence=ExactSequence(tuple(g_terms), "g_functional",
                                                 survival.model_hash, n),
                        survival=survival, excursion=excursion)


def survival_pass(model: WalkModel, n: int, target=None) -> tuple[
        ExactSequence, ExactSequence | None, EscapeBounds | None]:
    """Survival a_0..a_n, the excursion at ``target`` (None without one) and
    the escape bounds (None where ``bounds_error`` rejects the model), off one
    unpruned pass: on a bounds model it is the pass of
    ``escape_probability_bounds``."""
    if bounds_error(model) is None:
        bounds = escape_probability_bounds(model, n, target)
        return bounds.survival, bounds.excursion, bounds
    survival, excursion, _ = _read(model, n, target)
    return survival, excursion, None
