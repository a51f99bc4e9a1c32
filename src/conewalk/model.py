"""Walk/cone data model, model-file ingestion and a path-enumeration oracle.

The model file is a JSON document with fields ``dimension``, ``steps``
(list of ``{"v": [...], "w": "p/q"}``), ``cone`` (``{"type": "orthant"}`` or
``{"type": "halfspaces", "normals": [[...], ...]}``) and ``start``.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (
    EmptyConeInterior,
    HorizonTooLarge,
    MalformedFile,
    PointOutsideCone,
    WeightsNotNormalized,
)

BRUTE_FORCE_MAX_HORIZON = 14
BRUTE_FORCE_MAX_PATHS = 10 ** 8


class DegenerateDistributionWarning(UserWarning):
    """The step set does not span the full ambient dimension."""


def _echelon_pivots(vectors, d: int) -> list[int]:
    """Pivots of an integer row echelon (Hermite) form of the vectors in Z^d,
    one column at a time by the extended Euclidean algorithm on the rows.
    Their number is the rank; at full rank, the absolute value of their
    product is the index in Z^d of the lattice the vectors span."""
    rows = [list(v) for v in vectors]
    pivots = []
    for col in range(d):
        while len(live := [r for r in rows if r[col]]) > 1:
            # subtracting a multiple of one row from another is unimodular
            p = min(live, key=lambda r: abs(r[col]))
            rows = [r if r is p else [x - r[col] // p[col] * y for x, y in zip(r, p)]
                    for r in rows]
        if live:
            pivots.append(live[0][col])
            rows.remove(live[0])
    return pivots


def _lattice_index(vectors) -> int:
    """Index in Z^d of the lattice spanned by the differences v - v0 of the
    given vectors, or 1 when that lattice is not of full rank."""
    v0, *rest = vectors
    pivots = _echelon_pivots([[a - b for a, b in zip(v, v0)] for v in rest], len(v0))
    return abs(math.prod(pivots)) if len(pivots) == len(v0) else 1


def _feasible(rows, rhs, free) -> bool:
    """True iff {y : rows . y <= rhs, y_i >= 0 unless free[i]} is non-empty.

    Exact phase-1 simplex over ``Fraction``: entries may be ints, floats or
    Fractions, and each converts exactly.  A free y_i is split as y_i+ - y_i-,
    every row gets a slack, and a row with negative rhs is negated and starts
    on an artificial basic variable.  Bland's rule (lowest entering column,
    lowest basic variable among tied ratios) cannot cycle, so the loop stops
    at a minimum of the artificial sum, which is 0 iff the system is feasible.
    An artificial that leaves the basis never re-enters.
    """
    m = len(rows)
    ncols = len(free) + sum(map(bool, free)) + m
    zero, one = Fraction(0), Fraction(1)
    tab, basis = [], []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        coeffs = [Fraction(c) for c in row]
        coeffs += [-c for c, f in zip(coeffs, free) if f]
        line = coeffs + [one if k == i else zero for k in range(m)] + [Fraction(b)]
        if line[-1] < 0:
            tab.append([-c for c in line])
            basis.append(ncols + i)  # artificial: indexed after every column
        else:
            tab.append(line)
            basis.append(len(coeffs) + i)
    while True:
        art = [i for i in range(m) if basis[i] >= ncols]
        # the artificial sum falls along column j iff its entries over the
        # artificial rows sum to > 0 (a negative reduced cost)
        col = next((j for j in range(ncols) if sum(tab[i][j] for i in art) > 0), None)
        if col is None:
            return all(tab[i][-1] == 0 for i in art)
        _, _, r = min((tab[i][-1] / tab[i][col], basis[i], i)
                      for i in range(m) if tab[i][col] > 0)
        pivot = tab[r][col]
        tab[r] = prow = [c / pivot for c in tab[r]]
        for i in range(m):
            f = tab[i][col]
            if i != r and f:
                tab[i] = [a - f * b if b else a for a, b in zip(tab[i], prow)]
        basis[r] = col


_SEQUENCES = (list, tuple, np.ndarray)


def _integers(values, what: str, error=MalformedFile) -> tuple[int, ...]:
    """The entries of ``values`` as ints.  Only Python and numpy integers
    pass: int() would truncate a float, parse a string and read a bool."""
    if not isinstance(values, _SEQUENCES) or not all(
            isinstance(c, numbers.Integral) and not isinstance(c, bool) for c in values):
        raise error(f"{what} must be integers, got {values!r}")
    return tuple(map(int, values))


def _dimension(value) -> int:
    [d] = _integers([value], "dimension")
    if d < 1:
        raise MalformedFile(f"dimension must be positive, got {d}")
    return d


def _finite_floats(normal) -> tuple[float, ...]:
    """The entries of a cone normal as floats.  Only real numbers that are
    finite as floats pass (not NaN, an infinity or an int past the largest
    float): float() would parse a string and read a bool."""
    if not isinstance(normal, _SEQUENCES) or not all(
            isinstance(c, numbers.Real) and not isinstance(c, bool)
            and abs(c) <= sys.float_info.max for c in normal):
        raise MalformedFile(f"normal must be finite numbers, got {normal!r}")
    return tuple(map(float, normal))


@dataclass(frozen=True)
class StepDistribution:
    """Finite lattice increment distribution with exact rational weights."""

    dimension: int
    steps: tuple[tuple[tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        d = _dimension(self.dimension)
        if not self.steps:
            raise MalformedFile("empty step set")
        steps = tuple((_integers(v, "step vector"), w) for v, w in self.steps)
        seen = set()
        for v, w in steps:
            if len(v) != d:
                raise MalformedFile(f"step {v} has wrong dimension")
            if v in seen:
                raise MalformedFile(f"duplicate step vector {v}")
            seen.add(v)
            # a float is not exact and a bool is not a weight
            if not isinstance(w, numbers.Rational) or isinstance(w, bool):
                raise MalformedFile(f"weight {w!r} on step {v} must be a Fraction or integer")
            if w <= 0:
                raise MalformedFile(f"non-positive weight {w} on step {v}")
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "steps", tuple((v, Fraction(w)) for v, w in steps))
        total = sum(w for _, w in self.steps)
        if total != 1:
            raise WeightsNotNormalized(f"weights sum to {total}, expected 1")
        if all(all(c == 0 for c in v) for v, _ in self.steps):
            raise MalformedFile("all step vectors are zero")
        if not self.truly_d_dimensional:
            warnings.warn(
                "step vectors do not span the ambient space",
                DegenerateDistributionWarning,
                stacklevel=2,
            )

    @cached_property
    def truly_d_dimensional(self) -> bool:
        pivots = _echelon_pivots([v for v, _ in self.steps], self.dimension)
        return len(pivots) == self.dimension

    @cached_property
    def lattice_index(self) -> int:
        """The index of the step-difference lattice (``_lattice_index``): the
        modulus of the residue classes an exact layer stores."""
        return _lattice_index([v for v, _ in self.steps])

    @property
    def drift(self) -> tuple[Fraction, ...]:
        """Mean increment, computed exactly."""
        m = [Fraction(0)] * self.dimension
        for v, w in self.steps:
            for i, c in enumerate(v):
                m[i] += w * c
        return tuple(m)

    @property
    def common_denominator(self) -> int:
        den = 1
        for _, w in self.steps:
            den = den * w.denominator // math.gcd(den, w.denominator)
        return den

    def integer_weights(self) -> tuple[list[tuple[tuple[int, ...], int]], int]:
        """Steps with integer numerators over the common denominator."""
        den = self.common_denominator
        return [(v, int(w * den)) for v, w in self.steps], den

    def marginal(self, i: int) -> tuple[Fraction, Fraction, Fraction]:
        """(P(X_i = 1), P(X_i = 0-or-other), P(X_i = -1)) for coordinate i."""
        p = sum((w for v, w in self.steps if v[i] == 1), Fraction(0))
        q = sum((w for v, w in self.steps if v[i] == -1), Fraction(0))
        return p, 1 - p - q, q


@dataclass(frozen=True)
class ConeSpec:
    """Polyhedral cone {x : <a_j, x> >= 0 for every normal a_j}; the orthant
    is the cone whose normals are the identity."""

    dimension: int
    normals: tuple[tuple[float, ...], ...] | None = None  # None means orthant

    def __post_init__(self):
        # normals first: ``polyhedral`` reads the dimension off the first one
        if self.normals is not None:
            object.__setattr__(self, "normals", tuple(map(_finite_floats, self.normals)))
        object.__setattr__(self, "dimension", _dimension(self.dimension))
        if self.normals is not None:
            for a in self.normals:
                if len(a) != self.dimension:
                    raise MalformedFile(f"normal {a} has wrong dimension")
            if not self._has_interior_point():
                raise EmptyConeInterior("halfspace system has no strictly feasible point")

    @classmethod
    def orthant(cls, dimension: int) -> "ConeSpec":
        return cls(dimension=dimension)

    @classmethod
    def polyhedral(cls, normals) -> "ConeSpec":
        if not isinstance(normals, _SEQUENCES) or not len(normals):
            raise MalformedFile(f"polyhedral cone needs a list of normals, got {normals!r}")
        first = normals[0]
        return cls(dimension=len(first) if isinstance(first, _SEQUENCES) else 0,
                   normals=normals)

    @property
    def is_orthant(self) -> bool:
        return self.normals is None

    @cached_property
    def halfspace_normals(self) -> np.ndarray:
        """The normals a_j of the cone {x : <a_j, x> >= 0}, one per row; the
        identity for the orthant.  They also generate the dual cone."""
        a = (np.eye(self.dimension) if self.is_orthant
             else np.asarray(self.normals, dtype=float))
        a.setflags(write=False)
        return a

    @cached_property
    def integer_normals(self) -> np.ndarray:
        """Per normal: True iff its entries are integers, so that tests of
        lattice points and rational drifts against it are exact."""
        a = self.halfspace_normals
        return (a == np.round(a)).all(axis=1)

    @cached_property
    def _slack(self) -> np.ndarray | None:
        # membership tolerance per unit of (|x| + 1): 0 for integer normals,
        # None when every normal is integer
        if self.integer_normals.all():
            return None
        norms = np.linalg.norm(self.halfspace_normals, axis=1)
        return np.where(self.integer_normals, 0.0, 1e-12 * norms)

    def _has_interior_point(self) -> bool:
        # some x has <a_j, x> > 0 for every j iff, scaled, <a_j, x> >= 1 does
        return _feasible([[-c for c in a] for a in self.normals],
                         [-1] * len(self.normals), [True] * self.dimension)

    def inside(self, points) -> np.ndarray:
        """Mask of the rows of the (m, d) lattice points that lie in the cone.
        The points may be the transposed view of a coordinate-major (d, m)
        array; every pass then runs along its rows of length m.

        The orthant test x >= 0 and the test <a, x> >= 0 against an integer
        normal are exact; against any other normal it is <a, x> >= -tol with
        tol = 1e-12 |a| (|x| + 1).
        """
        x = np.asarray(points)
        if self.is_orthant:
            return (x >= 0).all(axis=1)
        prods = self.halfspace_normals @ x.T  # one row per normal: reduces fast
        if self._slack is None:
            return (prods >= 0).all(axis=0)
        tol = self._slack[:, None] * (np.linalg.norm(x, axis=1) + 1.0)
        return (prods >= -tol).all(axis=0)

    def contains(self, point) -> bool:
        return bool(self.inside([point])[0])

    def strictly_contains(self, point) -> bool:
        return bool((self.halfspace_normals @ np.asarray(point, dtype=float) > 0).all())


@dataclass(frozen=True)
class ReachabilityWitness:
    """A confined path of the given length reaches the interior point target."""

    length: int
    target: tuple[int, ...]


@dataclass(frozen=True)
class WalkModel:
    dist: StepDistribution
    cone: ConeSpec
    start: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "start", _integers(self.start, "start"))
        if len(self.start) != self.dist.dimension:
            raise MalformedFile("start point has wrong dimension")
        if self.cone.dimension != self.dist.dimension:
            raise MalformedFile("cone dimension does not match step dimension")
        if not self.cone.contains(self.start):
            raise PointOutsideCone(f"start {self.start} is outside the cone")

    @property
    def dimension(self) -> int:
        return self.dist.dimension

    @property
    def small_step(self) -> bool:
        return all(all(c in (-1, 0, 1) for c in v) for v, _ in self.dist.steps)

    @property
    def trapped(self) -> bool:
        return all(self.cone.contains(v) for v, _ in self.dist.steps)

    @cached_property
    def interior_witness(self) -> ReachabilityWitness | None:
        """BFS over confined states from 0, looking for an interior point.

        Depth is capped at 2d + 2; absence of a witness is generically a sign
        of a degenerate model, so ``build_model`` warns of it.
        """
        # dicts as ordered sets: the visit order fixes which witness is found
        frontier = {(0,) * self.dimension: None}
        for depth in range(1, 2 * self.dimension + 3):
            nxt = {}
            for pos in frontier:
                for v, _ in self.dist.steps:
                    q = tuple(a + b for a, b in zip(pos, v))
                    if q in nxt or not self.cone.contains(q):
                        continue
                    nxt[q] = None
                    if self.cone.strictly_contains(q):
                        return ReachabilityWitness(length=depth, target=q)
            frontier = nxt
            if not frontier:
                break
        return None

    @property
    def can_reach_interior(self) -> bool:
        return self.interior_witness is not None

    def model_hash(self) -> str:
        payload = {
            "dimension": self.dimension,
            "steps": sorted(
                (list(v), f"{w.numerator}/{w.denominator}") for v, w in self.dist.steps
            ),
            "cone": "orthant" if self.cone.is_orthant else list(self.cone.normals),
            "start": list(self.start),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_dict(self) -> dict:
        cone = (
            {"type": "orthant"}
            if self.cone.is_orthant
            else {"type": "halfspaces", "normals": [list(a) for a in self.cone.normals]}
        )
        return {
            "dimension": self.dimension,
            "steps": [
                {"v": list(v), "w": f"{w.numerator}/{w.denominator}"}
                for v, w in self.dist.steps
            ],
            "cone": cone,
            "start": list(self.start),
        }


def build_model(dist: StepDistribution, cone: ConeSpec, start) -> WalkModel:
    model = WalkModel(dist=dist, cone=cone, start=start)
    if model.interior_witness is None:
        warnings.warn(
            "no confined path into the cone interior found (searched depth "
            f"{2 * dist.dimension + 2})",
            UserWarning,
            stacklevel=2,
        )
    return model


def _parse_rational(s) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise MalformedFile(f"weight {s!r} must be a 'p/q' string or integer")
    try:
        frac = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedFile(f"bad rational {s!r}") from exc
    return frac


def parse_model(text: str, normalize: bool = False) -> WalkModel:
    """Parse and validate a model file."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedFile("top-level document must be an object")
    for key in ("dimension", "steps", "cone", "start"):
        if key not in doc:
            raise MalformedFile(f"missing field {key!r}")
    raw_steps = doc["steps"]
    if not isinstance(raw_steps, list) or not raw_steps:
        raise MalformedFile("steps must be a non-empty list")
    steps = []
    for entry in raw_steps:
        if not isinstance(entry, dict) or "v" not in entry or "w" not in entry:
            raise MalformedFile(f"bad step entry {entry!r}")
        steps.append((entry["v"], _parse_rational(entry["w"])))

    total = sum(w for _, w in steps)
    if total != 1:
        if not normalize:
            raise WeightsNotNormalized(
                f"weights sum to {total}; pass normalize=True (--normalize) to rescale"
            )
        steps = [(v, w / total) for v, w in steps]
    dist = StepDistribution(dimension=doc["dimension"], steps=tuple(steps))

    cone_doc = doc["cone"]
    if not isinstance(cone_doc, dict) or "type" not in cone_doc:
        raise MalformedFile("cone must be an object with a 'type' field")
    if cone_doc["type"] == "orthant":
        cone = ConeSpec.orthant(dist.dimension)
    elif cone_doc["type"] == "halfspaces":
        if "normals" not in cone_doc:
            raise MalformedFile("halfspace cone needs 'normals'")
        cone = ConeSpec.polyhedral(cone_doc["normals"])
    else:
        raise MalformedFile(f"unknown cone type {cone_doc['type']!r}")
    return build_model(dist, cone, doc["start"])


def load_model(path, normalize: bool = False) -> WalkModel:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"model file is not UTF-8: {exc}") from exc
    return parse_model(text, normalize=normalize)


def _enumerate_layers(model: WalkModel, n: int):
    """Yield (k, positions, weight numerators) for every confined path prefix.

    Explicit path expansion without state merging: this is the test oracle
    the dynamic programming implementation is checked against.
    """
    if n > BRUTE_FORCE_MAX_HORIZON:
        raise HorizonTooLarge(f"horizon {n} exceeds {BRUTE_FORCE_MAX_HORIZON}")
    if len(model.dist.steps) ** n > BRUTE_FORCE_MAX_PATHS:
        raise HorizonTooLarge(f"{len(model.dist.steps)}^{n} paths exceed the guard")
    int_steps, _den = model.dist.integer_weights()
    vecs = np.asarray([v for v, _ in int_steps], dtype=np.int64)
    nums = np.asarray([c for _, c in int_steps], dtype=object)

    pos = np.asarray([model.start], dtype=np.int64)
    wts = np.asarray([1], dtype=object)
    yield 0, pos, wts
    for k in range(1, n + 1):
        pos = (pos[:, None, :] + vecs[None, :, :]).reshape(-1, model.dimension)
        wts = (wts[:, None] * nums[None, :]).reshape(-1)
        keep = model.cone.inside(pos)
        pos, wts = pos[keep], wts[keep]
        yield k, pos, wts


def brute_force_survival(model: WalkModel, n: int) -> list[Fraction]:
    """Survival probabilities a_0..a_n by exhaustive path enumeration."""
    den = model.dist.common_denominator
    out = []
    for k, _pos, wts in _enumerate_layers(model, n):
        out.append(Fraction(int(wts.sum()) if len(wts) else 0, den ** k))
    return out


def excursion_target(model: WalkModel, y) -> tuple[int, ...]:
    """Check that an excursion target y is a point of Z^d in the cone;
    return it as a tuple."""
    y = _integers(y, "target", PointOutsideCone)
    if len(y) != model.dimension:
        raise PointOutsideCone(f"target {y} is not a point of Z^{model.dimension}")
    if not model.cone.contains(y):
        raise PointOutsideCone(f"target {y} is outside the cone")
    return y


def brute_force_excursion(model: WalkModel, y, n: int) -> list[Fraction]:
    """Probabilities of confined paths ending at y, by exhaustive enumeration."""
    y = excursion_target(model, y)
    den = model.dist.common_denominator
    target = np.asarray(y, dtype=np.int64)
    out = []
    for k, pos, wts in _enumerate_layers(model, n):
        at = (pos == target).all(axis=1) if len(pos) else np.zeros(0, dtype=bool)
        out.append(Fraction(int(wts[at].sum()) if at.any() else 0, den ** k))
    return out
