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
stored classes once; the tilted functional uses ``float64``.  A pass plans
once: the box growth, the weight runs and a lazy ``_Moves`` table of each
class's moves, which the kernel and ``_read``'s exit sweep share and
``_dp_bytes`` charges.

Every walk has a lattice tilt w_k(x), the weight of each path from the start
to x in k steps (``lattice_tilt``: the exact lattice form of the Laplace
tilt), which is the identity w_k = 1 unless the integer weights are an
exponential family on the step lattice.  The kernel runs the weights
c_v / w_1(start + v), and layer k holds N_k with numerators w_k N_k: on a
family, N_k counts unit-weight paths, so no step scales a class and a
numerator grows by log2 |S| bits a step, not log2 D.  The readouts apply w_k
where they read.  Within class r, w_k(r + m*j) is w_k(r) times one geometric
factor per axis, so a slab is weighed by one integer vector per axis over
one fixed scale (``_contract``), as the float functional is.

``_read`` is the one readout of every exact sequence: survival, the
excursion and the escape bounds' g-functional, off one pass.
``survival_pass`` is the one call for all three, and ``excursion_sequence``
the readout carrying nothing.  ``_read`` carries survival and g from layer
to layer by subtracting what exits through the boundary slabs of each class:
both f = 1 and g are harmonic for the free walk, so neither sums the layer.
Each carried functional is a lattice tilt with an integer start value over
its own fixed scale: survival is the walk's tilt over 1, and
g(x) = sum_i g_i^(x_i + 1) is d more tilts, the walk's times
g_i^(x_i - start_i), over a product of powers of the g_i denominators.  So
the carry runs on Python ints with no gcd, and one sweep over each step's
exit slabs weighs every functional by one rule.  The excursion readout is
one entry of one class.

So a layer matters only where it can still exit by the horizon n or reach
the target, and the kernel writes each class only inside a list of disjoint
keep boxes (``_keep``).  With q_i the largest descent of a step on axis i,
an entry x of layer k can exit by step n only if x_i < (n - k) q_i on some
axis: the band, d slabs.  It can reach the target y only if
x_i <= y_i + (n - k) q_i on every axis: one box, of which a carrying pass
keeps the corner beyond the band and the excursion alone the whole.  Both
sets hold the predecessors of their entries, so every kept entry is exact
and the rest stay zero; this halves the entries a 2D pass writes.
``survival_layers`` and the tilted functional read whole layers and keep the
whole box.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
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
from .lattice_tilt import LatticeTilt, lattice_tilt
from .model import WalkModel, _integers, excursion_target

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
    env = os.environ.get("CONEWALK_MEM_BUDGET") or str(DEFAULT_MEM_BUDGET)
    if not (env.isascii() and env.isdigit()):
        raise ConewalkError(f"CONEWALK_MEM_BUDGET must be a whole number of bytes, "
                            f"got {env!r}")
    return int(env)


def _below_hyperplane(box, start, reach: int) -> int:
    """Number of points x of the box prod [0, s) with sum(x - start) <= reach,
    by inclusion-exclusion over the coordinates that overshoot their side."""
    d, top = len(box), reach + sum(start)
    return sum((-1) ** len(over) * math.comb(top - sum(over) + d, d)
               for j in range(d + 1) for over in itertools.combinations(box, j)
               if top - sum(over) >= 0)


def _dp_bytes(model: WalkModel, n: int, steps, keep=None, dtype=object) -> float:
    """Predicted peak memory, in bytes, of a DP pass to horizon n on ``steps``
    that keeps the boxes ``keep`` (see ``_keep``; None keeps the whole box).

    Layer k stores each class in the smallest array that holds its boxes: at
    most m^(d-1) residue classes (the cosets of m Z^d in the step-difference
    lattice) of the boxes' hull, each about 1/m^d of it.  The step into layer
    k holds layer k - 1, its product ``c * layer`` with one weight unless
    every weight of ``steps`` is 1, and layer k;
    ``+=`` on a strided slice buffers up to ``np.getbufsize()`` entries of
    each of its three operands.  The escape bounds keep four Fractions (eight
    ints) per horizon: a_k, g_k and the two interval ends.  Every entry costs
    an 8-byte slot.  An int costs a header with allocator rounding (about 40
    bytes) and 4 bytes per 30 bits of a numerator below C^k on top, C the sum
    of the kernel's weights (|S| on an exponential family), except in the
    entries outside the keep boxes or past the hyperplane
    sum(x - start) = k * max_v sum(v), which no walk reaches in k steps: they
    all point at the cached int 0.  A float entry is its slot alone: the
    tilted functional's readout, a float sum that is not exactly rounded,
    contracts each class with one weight vector per axis, so it holds nothing
    the size of the box.
    With no int rounding to cover them, a float step charges 64 KiB for the
    interpreter's own objects instead: index tuples, slices and the free
    lists that keep them.  The peak is the largest step, the last one when
    the whole box is kept; horizon 0 holds layer 0 and its terms.  On top,
    ``_Moves``: 152 + 16 d bytes per step and class of layers 0..n-1, on
    min(n, m) cosets of m^(d-1) classes.
    """
    m, d, start = model.dist.lattice_index, model.dimension, model.start
    classes = m ** (d - 1)
    reach = max(0, *(sum(v) for v, _ in model.dist.steps))
    held, bits = 2, 0.0
    if dtype is object:
        bits = max(math.log2(sum(c for _, c in steps)), 1.0)
        held = 1 if all(c == 1 for _, c in steps) else 2

    def entries(k: int):
        """The stored and the live entries of layer k, none before layer 0."""
        if k < 1:
            return (1, 1) if k == 0 else (0, 0)
        boxes = _boxes(_box(model, k), n, k, keep)
        hull = [max((box[i][1] for box in boxes), default=0) for i in range(d)]
        stored = classes * math.prod(-(-s // m) for s in hull)
        below = sum(_below_hyperplane([hi - lo for lo, hi in box],
                                      [x - lo for x, (lo, _) in zip(start, box)], k * reach)
                    for box in boxes)
        return stored, stored * below / math.prod(hull) if stored else 0

    peak, before = 0.0, None
    # every layer of the whole box holds more than the one before
    for k in range(min(n, 1) if keep is not None else n, n + 1):
        (stored_before, live_before), (stored, live) = before or entries(k - 1), entries(k)
        buffered, terms = 3 * min(stored, np.getbufsize()), 8 * (n + 1)
        step = 8 * (held * stored_before + stored + buffered + terms) + (
            (held * live_before + live + terms) * (40 + k * bits / 7.5)
            if dtype is object else 2 ** 16)
        peak, before = max(peak, step), (stored, live)
    return peak + min(n, m) * classes * len(steps) * (152 + 16 * d)


def _budget_states(model: WalkModel, n: int, steps, keep=None, dtype=object) -> None:
    """Raise MemoryBudgetExceeded, with the largest horizon that fits or that
    none does, when the pass would not fit the budget.  Keeping the whole box
    costs the most and is charged in one step, so only a horizon whose whole
    box would not fit pays for the layer-by-layer peak of its keep boxes."""
    budget = _mem_budget()
    if _dp_bytes(model, n, steps, None, dtype) <= budget:
        return
    need = _dp_bytes(model, n, steps, keep, dtype)
    if need > budget:
        lo, hi = -1, n - 1
        while lo < hi:  # largest horizon that fits, -1 for none
            mid = (lo + hi + 1) // 2
            if _dp_bytes(model, mid, steps, keep, dtype) <= budget:
                lo = mid
            else:
                hi = mid - 1
        raise MemoryBudgetExceeded(
            f"horizon {n} needs ~{_size(need)} (budget {_size(budget)}); "
            + (f"try horizon <= {lo}" if lo >= 0 else "no horizon fits"))


def _size(nbytes: float) -> str:
    """``nbytes`` in the largest binary unit it reaches, up to GiB."""
    for unit in ("B", "KiB", "MiB"):
        if nbytes < 1024:
            return f"{nbytes:.1f} {unit}"
        nbytes /= 1024
    return f"{nbytes:.1f} GiB"


def _kernel_steps(model: WalkModel, tilt: LatticeTilt) -> list:
    """The integer steps the exact kernel runs: the exact quotients
    c_v / w_1(start + v), 1 on an exponential family and c_v under the
    identity tilt, with equal weights made adjacent in first-appearance
    order, so ``_advance`` scales a class once per weight.  Integer sums do
    not depend on the order of the steps."""
    steps, _den = model.dist.integer_weights()
    weights = [tilt.weight(1, [x + a for x, a in zip(model.start, v)]) for v, _ in steps]
    steps = [(v, c * den // num) for (v, c), (num, den) in zip(steps, weights)]
    first_seen = list(dict.fromkeys(c for _, c in steps))
    return sorted(steps, key=lambda step: first_seen.index(step[1]))


def _contract(a: np.ndarray, vectors):
    """``a`` contracted with one weight vector per axis, each cut to the
    length of its axis; a None vector sums its axis.  The summed axes go
    first, then the weighted ones, last axis first."""
    summed = tuple(i for i, w in enumerate(vectors) if w is None)
    if summed:
        a = a.sum(axis=summed)
    for w in vectors[::-1]:
        if w is not None:
            a = a @ w[:a.shape[-1]]
    return a


def _grow(steps, dimension: int) -> list[int]:
    """How far the box grows per step: the largest positive step coordinate."""
    return [max(0, *(v[i] for v, _ in steps)) for i in range(dimension)]


def _descent(steps, dimension: int) -> list[int]:
    """The largest descent of a step in each coordinate, max(0, max_v -v_i)."""
    return [max(0, *(-v[i] for v, _ in steps)) for i in range(dimension)]


def _keep(model: WalkModel, target=None, band: bool = True):
    """The keep boxes of a pass that needs layer k only where it can still
    exit by step n (``band``) or reach ``target`` at a step up to n: a
    function of (n, k) that returns disjoint boxes, [lo, hi) per axis with hi
    None for unbounded, outside which layer k holds nothing a readout needs.

    With q_i the largest descent of a step on axis i and R_i = (n - k) q_i,
    an entry x can exit by step n only if x_i < R_i on some axis, and can
    reach y only if x_i <= y_i + R_i on every axis.  Each set holds every
    predecessor of its entries, so the entries it keeps are exact.  The band
    is d slabs, x_i < R_i with x_l >= R_l on the earlier axes l; the target
    adds its corner beyond them, or is the one box of a pass without band.
    """
    q = _descent(model.dist.steps, model.dimension)

    def boxes(n: int, k: int) -> list:
        reach = [(n - k) * c for c in q]
        kept = [[(lo, None) for lo in reach[:i]] + [(0, r)] + [(0, None)] * (len(q) - i - 1)
                for i, r in enumerate(reach) if band and r > 0]
        if target is not None:
            kept.append([(r if band else 0, y + r + 1) for r, y in zip(reach, target)])
        return kept

    return boxes


def _box(model: WalkModel, k: int) -> list[int]:
    """Shape of the box ``[0, start + k*grow]`` that holds layer k."""
    grow = _grow(model.dist.steps, model.dimension)
    return [x + k * g + 1 for x, g in zip(model.start, grow)]


def _boxes(box, n: int, k: int, keep) -> list:
    """The keep boxes of layer k of a pass to horizon n clipped to the layer's
    box, the empty ones dropped; None keeps the box."""
    boxes = [[(0, None)] * len(box)] if keep is None else keep(n, k)
    clipped = [[(lo, s if hi is None else min(hi, s)) for (lo, hi), s in zip(b, box)]
               for b in boxes]
    return [b for b in clipped if all(lo < hi for lo, hi in b)]


def _class_shape(shape, r, m: int) -> list[int]:
    """Shape of class r of a box: the entries r + m*j inside it."""
    return [(s - c + m - 1) // m for s, c in zip(shape, r)]


def _moves(r, v, m: int):
    """The class r' = (r + v) mod m that step v moves class r to, and the
    shift s = (r + v - r') // m: entry j of class r lands at entry j + s."""
    to = tuple((c + a) % m for c, a in zip(r, v))
    return to, tuple((c + a - t) // m for c, a, t in zip(r, v, to))


class _Moves(dict):
    """Class r -> ``_moves(r, v, m)`` for each step v in order, made when a
    pass first asks."""

    __slots__ = ("steps", "m")

    def __init__(self, steps, m):
        self.steps, self.m = steps, m

    def __missing__(self, r):
        self[r] = row = tuple(_moves(r, v, self.m) for v, _ in self.steps)
        return row


class _Layer(dict):
    """Class r -> its masses at r + m*j, and the pass's ``_Moves``."""

    __slots__ = ("moves",)

    def __init__(self, moves):
        self.moves = moves


def _advance(classes: dict, steps, boxes, moves) -> dict:
    """One DP transition: each step v adds c_v * layer[x] at x + v, for every
    x with x + v in the orthant and in one of the disjoint keep boxes.

    In class r a box [lo, hi) holds the entries j with r + m*j inside it, and
    the class is stored in the smallest array that holds its boxes, once a
    step writes to it.  In each box of a class the first step to write
    assigns its slice into the zeros, and later steps add into it.  Each run
    of adjacent steps with equal weight scales the stored classes once.
    """
    m, new, parts, written, weight = moves.m, _Layer(moves), {}, set(), None
    for i, (v, c) in enumerate(steps):
        if c != weight:
            # free the last product before this one forms
            scaled = a = None
            scaled, weight = classes if c == 1 else {r: c * a for r, a in classes.items()}, c
        for r, a in scaled.items():
            to, shift = moves[r][i]
            if to not in parts:
                parts[to] = [[(-((t - lo) // m), -((t - hi) // m))
                              for t, (lo, hi) in zip(to, box)] for box in boxes]
            for part, ranges in enumerate(parts[to]):
                src, dst = [], []
                for s, size, (lo, hi) in zip(shift, a.shape, ranges):
                    lo, hi = s if s > lo else lo, size + s if size + s < hi else hi
                    if lo >= hi:
                        break  # no entry lands in the orthant and this box
                    src.append(slice(lo - s, hi - s))
                    dst.append(slice(lo, hi))
                else:
                    if (to, part) in written:
                        new[to][tuple(dst)] += a[tuple(src)]
                        continue
                    if to not in new:
                        shape = [max(hi for _, hi in axis) for axis in zip(*parts[to])]
                        new[to] = np.zeros(shape, dtype=a.dtype)
                    new[to][tuple(dst)] = a[tuple(src)]
                    written.add((to, part))
    return new


def _layers(model: WalkModel, n: int, steps, dtype, keep=None) -> Iterator[dict]:
    """Yield layers 0..n, each a dict from live residue class r to the
    confined masses at r + m*j under the given step weights.  Float layers
    keep the caller's order of the steps, which fixes the order of every
    float sum.

    Layers past the first hold only the entries inside the keep boxes of
    ``keep`` (see ``_keep``; None keeps the whole box), which are exact.  The
    horizon, the cone and the memory budget are checked at the call, before
    the first layer is asked for.
    """
    [n] = _integers([n], "the horizon", ConewalkError)
    if n < 0:
        raise ConewalkError(f"the horizon must be non-negative, got {n}")
    if not model.cone.is_orthant:
        raise UnsupportedCone("exact DP supports orthant cones only")
    _budget_states(model, n, steps, keep, dtype)
    m, start = model.dist.lattice_index, model.start
    grow, moves = _grow(model.dist.steps, model.dimension), _Moves(steps, m)
    r = tuple(x % m for x in start)
    first = _Layer(moves)
    first[r] = np.zeros(_class_shape([x + 1 for x in start], r, m), dtype=dtype)
    first[r][tuple(x // m for x in start)] = 1
    return itertools.accumulate(range(1, n + 1), lambda layer, k: _advance(
        layer, steps, _boxes([x + k * g + 1 for x, g in zip(start, grow)], n, k, keep), moves),
        initial=first)


def _integer_layers(model: WalkModel, n: int, tilt: LatticeTilt, keep=None) -> Iterator[dict]:
    """Yield layers 0..n of the path counts N_k under the kernel weights of
    ``tilt``, whose numerators over D^k are w_k N_k (see ``_masses``)."""
    return _layers(model, n, _kernel_steps(model, tilt), object, keep)


def _masses(tilt: LatticeTilt, k: int, layer: dict) -> dict:
    """Layer k of ``_integer_layers`` as the numerators over D^k of the
    confined masses: w_k N_k entry by entry, N_k itself under the identity
    tilt."""
    out = {}
    for r, a in layer.items():
        vectors, scale = tilt.axis_weights(a.shape)
        for i, w in enumerate(vectors):  # a None vector weighs its axis by 1
            a = a if w is None else a * w.reshape([-1] + [1] * (a.ndim - 1 - i))
        num, den = tilt.weight(k, r)
        out[r] = a * num // (den * scale)
    return out


def survival_layers(model: WalkModel, n: int) -> Iterator[StateLayer]:
    """Exact state distributions P^x(tau>k, S_k = .) for k = 0..n."""
    den = model.dist.common_denominator
    tilt = lattice_tilt(model)
    m = tilt.m
    for k, layer in enumerate(_integer_layers(model, n, tilt)):
        scale = den ** k
        masses = {}
        for r, a in _masses(tilt, k, layer).items():
            for j in map(tuple, np.argwhere(a).tolist()):
                masses[tuple(c + m * i for c, i in zip(r, j))] = Fraction(a[j], scale)
        yield StateLayer(index=k, masses=dict(sorted(masses.items())))


def _exit_slabs(layer: _Layer, step: int):
    """Yield, per stored class, the disjoint slabs j_i < -s_i with j_l >= -s_l
    on the earlier axes l (s the class's shift under v, the pass's step
    ``step``), which together hold the entries x with x + v outside the
    orthant; each with ``corner``, the point x + v at its first entry.
    Entries of a slab lie m apart."""
    moves, m = layer.moves, layer.moves.m
    for r, a in layer.items():
        to, shift = moves[r][step]
        for i, s in enumerate(shift):
            if s < 0:
                lo = [max(-b, 0) for b in shift[:i]] + [0] * (len(shift) - i)
                slab = tuple(slice(c, None) for c in lo[:i]) + (slice(-s),)
                yield a[slab], [t + m * (c + b) for t, c, b in zip(to, lo, shift)]


def _read(model: WalkModel, n: int, target=None, gammas=None, survival: bool = True):
    """Read the survival sequence (None without ``survival``), the excursion
    sequence at ``target`` (None without one) and, given the ratios
    ``gammas`` of ``_gammas``, the terms of the escape bounds' g-functional
    (else None) off one pass over the integer layers 0..n.  This is the one
    readout of every exact sequence.

    The excursion is entry y // m of class y mod m, weighed by w_k(y), and 0
    where that class is not stored or y lies outside the box.  A carried
    functional F_k = sum_x layer_k[x] f(x) has an f harmonic for the
    free walk, sum_v c_v f(x + v) = D f(x), so it starts at f(start) and steps
    to D F_k - sum_v c_v (sum of layer_k[x] f(x + v) over the x with x + v
    outside the orthant).  The layer holds N_k and layer_k[x] = w_k(x) N_k(x)
    under the walk's lattice tilt w, and each f has s f(x) = b t_k(x) / w_k(x)
    for a lattice tilt t, an integer start value b and a fixed integer scale
    s: survival is (w, 1, 1) and g is d more (``_g_tilts``).  So F_k is the
    integer b sum_x t_k(x) N_k(x) over D^k s, and c_v w_k(x) = c w_(k+1)(x + v),
    c the kernel's weight of v, makes the exit mass through a slab of
    ``_exit_slabs`` c b t_(k+1)(corner) times the slab weighed by the integer
    ``LatticeTilt.axis_weights`` of t over their scale: an exact quotient of
    ints.  One sweep over each step's slabs serves every functional, and the
    terms need layer k only where it can still exit by step n or reach the
    target: the pass keeps the band and the target's corner of ``_keep``.
    Without ``survival`` nothing is carried, so no slab is swept and the pass
    keeps only the target's box.
    """
    den = model.dist.common_denominator
    tilt = lattice_tilt(model)
    m = tilt.m
    if target is not None:
        target = excursion_target(model, target)
        cls, entry = tuple(c % m for c in target), tuple(c // m for c in target)
    # the call checks the horizon and the memory budget, so before g's scale
    layers = _integer_layers(model, n, tilt, _keep(model, target, band=survival))
    box = _box(model, n)
    scale, carried = _g_tilts(tilt, gammas, box) if gammas is not None else (1, [])
    shape = _class_shape(box, [0] * model.dimension, m)
    carried = [(t, b, *t.axis_weights(shape))
               for t, b in ([(tilt, 1)] + carried if survival else [])]
    values = [b for _, b, _, _ in carried]
    terms, g_terms, excursion = [], [], []
    for k, layer in enumerate(layers):
        power = den ** k
        if survival:
            terms.append(Fraction(values[0], power))
        if gammas is not None:
            g_terms.append(Fraction(sum(values[1:]), power * scale))
        if target is not None:
            a = layer.get(cls)
            count = (a[entry] if a is not None and all(c < s for c, s in zip(entry, a.shape))
                     else 0)
            num, div = tilt.weight(k, target)
            excursion.append(Fraction(count * num // div, power))
        if k == n or not carried:
            continue
        exits = [0] * len(carried)
        for step, (_, c) in enumerate(layer.moves.steps):
            for slab, corner in _exit_slabs(layer, step):
                for j, (t, b, axes, unit) in enumerate(carried):
                    num, div = t.weight(k + 1, corner)
                    exits[j] += c * b * num * _contract(slab, axes) // (div * unit)
        values = [den * value - e for value, e in zip(values, exits)]
    h = model.model_hash()
    return (ExactSequence(tuple(terms), "survival", h, n) if survival else None,
            ExactSequence(tuple(excursion), "excursion", h, n, target=target)
            if target is not None else None,
            tuple(g_terms) if gammas is not None else None)


def _g_tilts(tilt: LatticeTilt, gammas: dict, box) -> tuple[int, list]:
    """The g-functional g(x) = sum_i g_i^(x_i + 1) as ``_read`` carries it:
    the scale s = prod_i p_i^E_i, for g_i = q_i/p_i and E_i the box side of
    the last layer, and per term i the walk's tilt times g_i^(x_i - start_i)
    (``LatticeTilt.times_power``) with its start value s g_i^(start_i + 1).
    No exponent x_i + 1 of a state that a layer before the last holds or
    steps to exceeds E_i, so s g_i^(x_i + 1) is an integer wherever the carry
    reads it."""
    start = tilt.start
    scale = math.prod(g.denominator ** box[i] for i, g in gammas.items())
    carried = []
    for i, g in gammas.items():
        q, p, e = g.numerator, g.denominator, box[i]
        carried.append((tilt.times_power(i, g),
                        q ** (start[i] + 1) * p ** (e - start[i] - 1) * scale // p ** e))
    return scale, carried


def survival_sequence(model: WalkModel, n: int) -> ExactSequence:
    """Exact survival probabilities a_0..a_n."""
    return _read(model, n)[0]


def excursion_sequence(model: WalkModel, y, n: int) -> ExactSequence:
    """Exact excursion probabilities e_k = P^x(tau>k, S_k=y), k = 0..n, off
    a pass that carries nothing and keeps only the states that can still
    reach y."""
    return _read(model, n, y, survival=False)[1]


def tilted_survival_functional(model: WalkModel, t0, n: int) -> list[float]:
    """Expectation of e^{-<t0,S_k>} over confined paths under the tilted law.

    Multiplying term k by rho^k e^{<t0,x>} reconstructs a_k; this is the
    floating-point cross-check of the exact sequences.  The weight
    e^{-<t0,x>} factors over the axes, so each class is contracted with one
    weight vector per axis, last axis first (``_contract``), and the classes
    are added up: a float sum in a fixed order, not an exactly rounded one.
    """
    if len(t0) != model.dimension:
        raise ConewalkError(f"t0 has {len(t0)} coordinates; the walk has "
                            f"dimension {model.dimension}")
    tilted, _drift = tilt_distribution(model.dist, t0)
    m = model.dist.lattice_index
    layers = _layers(model, n, tilted, float)  # checks the horizon before _box reads it
    weights = [np.exp(-float(t) * np.arange(s)) for t, s in zip(t0, _box(model, n))]

    def readout(layer: dict) -> float:
        total = 0.0
        for r, a in layer.items():
            total += float(_contract(a, [w[c::m] for w, c in zip(weights, r)]))
        return total

    return [readout(layer) for layer in layers]


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


def escape_probability_bounds(model: WalkModel, n: int, target=None) -> EscapeBounds:
    """Per-horizon intervals [a_k - g_k, a_k - g_k/d] around P^x(tau=inf).

    g(x) = sum_i g_i^(x_i + 1) is the exact upper harmonic bound on the exit
    probability from x, and g_k = sum_x P^x(tau > k, S_k = x) g(x) is carried
    by exit mass like a_k, from g_0 = g(start): d lattice tilts over one fixed
    scale, stepped by the same sweep over the exit slabs as a_k (see
    ``_read``).  With a target y, the same pass also reads the excursion
    sequence at y.
    """
    d = model.dimension
    survival, excursion, g_terms = _read(model, n, target, _gammas(model))
    intervals = [(a_k - g_k, a_k - g_k / d) for a_k, g_k in zip(survival.terms, g_terms)]

    best_lo = max(lo for lo, _ in intervals)
    best_hi = min(hi for _, hi in intervals)
    if best_lo > best_hi:
        raise RuntimeError(
            "escape-bound intervals do not intersect; this indicates a bug"
        )
    return EscapeBounds(intervals=tuple(intervals), best=(best_lo, best_hi),
                        g_sequence=ExactSequence(g_terms, "g_functional",
                                                 survival.model_hash, n),
                        survival=survival, excursion=excursion)


def survival_pass(model: WalkModel, n: int, target=None) -> tuple[
        ExactSequence, ExactSequence | None, EscapeBounds | None]:
    """Survival a_0..a_n, the excursion at ``target`` (None without one) and
    the escape bounds (None where ``bounds_error`` rejects the model), off one
    banded pass: on a bounds model it is the pass of
    ``escape_probability_bounds``."""
    if bounds_error(model) is None:
        bounds = escape_probability_bounds(model, n, target)
        return bounds.survival, bounds.excursion, bounds
    survival, excursion, _ = _read(model, n, target)
    return survival, excursion, None
