import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from conewalk import (
    analyze,
    brute_force_excursion,
    brute_force_survival,
    escape_probability_bounds,
    excursion_sequence,
    survival_layers,
    survival_sequence,
    tilted_survival_functional,
)
from conewalk import exact_dp
from conewalk._zoo import (DIAGONAL, FIVE_STEP, HEAVY_NE, LONG_BACK, NEG_1D, POS_1D,
                           PRODUCT_DIAGONAL, SKEWED, TILTED_OCTANT, walk)
from conewalk.exact_dp import _dp_bytes
from conewalk.lattice_tilt import lattice_tilt
from conewalk.errors import (
    ConewalkError,
    DriftNotInterior,
    MemoryBudgetExceeded,
    NotSmallStep,
    PointOutsideCone,
    Trapped,
    UnsupportedCone,
)
from conewalk.laplace import tilt_distribution
from conewalk.model import _echelon_pivots, _lattice_index

KREWERAS = walk({(-1, 0): F(1, 3), (0, -1): F(1, 3), (1, 1): F(1, 3)}, (0, 0))
# never decreases: its target passes have no band and keep only what can reach y
UPWARD = walk({(1,): F(1, 2), (2,): F(1, 2)}, (0,))


def _det(rows) -> int:
    """Exact determinant of a square integer matrix, by Gaussian elimination
    over the rationals."""
    a = [[F(x) for x in row] for row in rows]
    det = F(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def _minors_lattice_index(vectors) -> int:
    """Index in Z^d of the lattice spanned by the differences v - v0: the gcd
    of their d x d minors, or 1 when that lattice is not of full rank."""
    v0, *rest = vectors
    diffs = [[a - b for a, b in zip(v, v0)] for v in rest]
    m = 0
    for rows in itertools.combinations(diffs, len(v0)):
        m = math.gcd(m, _det(rows))
    return m or 1


def _reference_advance(layer, steps, grow):
    """The kernel before live residues and weight runs: every step adds its
    whole shifted box, scaled on its own."""
    new = np.zeros([s + g for s, g in zip(layer.shape, grow)], dtype=layer.dtype)
    for v, c in steps:
        src = tuple(slice(max(-a, 0), s) for a, s in zip(v, layer.shape))
        dst = tuple(slice(max(a, 0), max(s + a, 0)) for a, s in zip(v, layer.shape))
        new[dst] += layer[src] if c == 1 else c * layer[src]
    return new


def _scatter(layer, shape, m, dtype):
    """The box of the given shape that holds each class r of a layer at the
    positions r + m*j."""
    box = np.zeros(shape, dtype=dtype)
    for r, a in layer.items():
        view = box[tuple(slice(c, None, m) for c in r)]
        assert view.shape == a.shape
        view[...] = a
    return box


def _weighted_layers(model, n):
    """Layers 0..n of ``_integer_layers`` as the numerators over D^k of the
    confined masses, by the readout ``survival_layers`` uses: w_k N_k."""
    tilt = lattice_tilt(model)
    return (exact_dp._masses(tilt, k, layer)
            for k, layer in enumerate(exact_dp._integer_layers(model, n, tilt)))


def _reference_layers(model, n, steps, dtype):
    grow = [max(0, *(v[i] for v, _ in steps)) for i in range(model.dimension)]
    layer = np.zeros([x + 1 for x in model.start], dtype=dtype)
    layer[tuple(model.start)] = 1
    yield layer
    for _ in range(n):
        layer = _reference_advance(layer, steps, grow)
        yield layer


# every public exact pass, each run as run(model, n)
PASSES = [
    survival_sequence,
    lambda model, n: excursion_sequence(model, (0, 0), n),
    escape_probability_bounds,
    exact_dp.survival_pass,
    lambda model, n: list(survival_layers(model, n)),
    lambda model, n: tilted_survival_functional(model, (0.0, 0.0), n),
]
PASS_IDS = ["survival", "excursion", "bounds", "pass", "layers", "tilted"]


class TestSurvival:
    def test_five_step_prefix(self, five_step_model):
        seq = survival_sequence(five_step_model, 2)
        assert list(seq.terms) == [F(1), F(3, 5), F(13, 25)]

    def test_1d_prefix(self, sym_1d):
        seq = survival_sequence(sym_1d, 3)
        assert list(seq.terms) == [F(1), F(1, 2), F(1, 2), F(3, 8)]

    def test_matches_brute_force(self, five_step_model, exterior_2d, neg_1d,
                                 octant_3d, big_step_2d, big_step_1d):
        for model, n in ((five_step_model, 8), (exterior_2d, 8), (neg_1d, 8),
                         (octant_3d, 7), (big_step_2d, 8), (big_step_1d, 8), (HEAVY_NE, 10)):
            seq = survival_sequence(model, n)
            assert list(seq.terms) == brute_force_survival(model, n)

    def test_trapped_constant(self, trapped_2d):
        seq = survival_sequence(trapped_2d, 10)
        assert all(t == 1 for t in seq.terms)

    def test_non_increasing_in_unit_interval(self, exterior_2d):
        terms = survival_sequence(exterior_2d, 30).terms
        assert all(0 <= t <= 1 for t in terms)
        assert all(a >= b for a, b in zip(terms, terms[1:]))

    def test_offset_start(self):
        model = replace(NEG_1D, start=(2,))
        seq = survival_sequence(model, 6)
        assert list(seq.terms) == brute_force_survival(model, 6)

    def test_metadata(self, five_step_model):
        seq = survival_sequence(five_step_model, 4)
        assert seq.kind == "survival"
        assert seq.horizon == 4
        assert seq.model_hash == five_step_model.model_hash()

    def test_csv_round_trip(self, sym_1d):
        csv = survival_sequence(sym_1d, 3).to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "n,numerator,denominator,value"
        n, num, den, value = lines[4].split(",")
        assert (n, num, den) == ("3", "3", "8")
        assert float(value) == 0.375

    def test_halfspace_cone_rejected(self):
        model = walk({(1, 0): F(1, 2), (-1, 0): F(1, 2)}, (0, 0), [[1, 0], [0, 1]])
        with pytest.raises(UnsupportedCone):
            survival_sequence(model, 3)

    @pytest.mark.parametrize("run", PASSES, ids=PASS_IDS)
    def test_negative_horizon_rejected(self, five_step_model, run):
        with pytest.raises(ConewalkError, match="non-negative"):
            run(five_step_model, -1)

    @pytest.mark.parametrize("n", [True, 2.0, 2.5, "3"], ids=["bool", "float", "fraction", "str"])
    @pytest.mark.parametrize("run", PASSES, ids=PASS_IDS)
    def test_non_integer_horizon_rejected(self, five_step_model, run, n):
        with pytest.raises(ConewalkError, match="the horizon must be integers"):
            run(five_step_model, n)


class TestLayers:
    def test_totals_match_survival(self, five_step_model):
        terms = survival_sequence(five_step_model, 6).terms
        for layer in survival_layers(five_step_model, 6):
            assert layer.total == terms[layer.index]

    def test_masses_positive_and_confined(self, exterior_2d):
        for layer in survival_layers(exterior_2d, 5):
            for pos, mass in layer.masses.items():
                assert mass > 0
                assert all(c >= 0 for c in pos)

    def test_first_layer_is_start(self, five_step_model):
        first = next(iter(survival_layers(five_step_model, 0)))
        assert first.masses == {(0, 0): F(1)}


class TestKernel:
    @pytest.mark.parametrize("vectors, index", [
        ([(1, 0), (0, 1), (-1, 0), (0, -1)], 2),  # exterior, simple walk
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], 2),
        ([(1, 0), (-1, 0), (1, 1), (-1, -1)], 2),  # Gessel
        ([(-1, 0), (0, -1), (1, 1)], 3),  # Kreweras
        ([(1, 1), (-1, 1), (1, -1), (-1, -1)], 4),
        ([(2,), (-3,)], 5),
        ([(1, 0), (0, -1), (-1, 0), (0, 1), (1, 1)], 1),  # five-step
        ([(1, 1), (-1, -1), (2, 2)], 1),  # one line: not of full rank
    ])
    def test_lattice_index(self, vectors, index):
        assert _lattice_index(vectors) == index
        assert _minors_lattice_index(vectors) == index

    def test_lattice_index_and_rank_match_oracles(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            d = int(rng.integers(1, 4))
            vectors = [tuple(int(c) for c in rng.integers(-3, 4, size=d))
                       for _ in range(int(rng.integers(1, 7)))]
            assert _lattice_index(vectors) == _minors_lattice_index(vectors)
            assert len(_echelon_pivots(vectors, d)) == np.linalg.matrix_rank(
                np.array(vectors, dtype=float))

    def test_dead_residues_hold_zero(self, exterior_2d, octant_3d, simple_walk_2d,
                                     big_step_1d):
        # a layer stores exactly the residue classes of its confined states,
        # each with mass, and these lie in the residues of start + (k steps)
        for model in (exterior_2d, octant_3d, simple_walk_2d, big_step_1d,
                      KREWERAS, DIAGONAL):
            vectors = [v for v, _ in model.dist.steps]
            m = _lattice_index(vectors)
            assert m > 1
            steps, _den = model.dist.integer_weights()
            reference = _reference_layers(model, 12, steps, object)
            reach = {tuple(x % m for x in model.start)}
            for layer, ref in zip(exact_dp._integer_layers(model, 12, lattice_tilt(model)),
                                  reference, strict=True):
                confined = {tuple(x % m for x in pos) for pos in np.argwhere(ref).tolist()}
                assert set(layer) == confined <= reach
                assert all(a.any() for a in layer.values())
                reach = {tuple((x + a) % m for x, a in zip(r, v))
                         for r in reach for v in vectors}
            assert len(reach) < m ** model.dimension  # some residues are dead

    def test_exit_mass_total_is_layer_sum(self, pos_1d, big_step_1d, octant_3d,
                                          big_step_2d, exterior_2d):
        offset = replace(NEG_1D, start=(2,))
        with pytest.warns(UserWarning, match="no confined path"):
            dying = walk({(-1, 0): F(1, 2), (0, -1): F(1, 2)}, (1, 1))
        for model in (pos_1d, big_step_1d, octant_3d, big_step_2d, exterior_2d,
                      offset, KREWERAS, DIAGONAL, dying):
            den = model.dist.common_denominator
            layer_sums = [F(sum(a.sum() for a in layer.values()), den ** k)
                          for k, layer in enumerate(_weighted_layers(model, 10))]
            survival = list(survival_sequence(model, 10).terms)
            assert survival == layer_sums
        assert survival[2] > 0 and survival[3:] == [0] * 8

    def test_layers_match_reference_kernel(self, exterior_2d, octant_3d):
        # exterior from (1, 2) starts in residue (1, 0) mod 2; Kreweras has m = 3
        for model, n in ((exterior_2d, 40), (octant_3d, 15),
                         (replace(exterior_2d, start=(1, 2)), 30),
                         (KREWERAS, 30), (replace(KREWERAS, start=(2, 1)), 30)):
            t0 = analyze(model.dist, model.cone).t0
            tilted, _drift = tilt_distribution(model.dist, t0)
            steps, _den = model.dist.integer_weights()
            m = model.dist.lattice_index
            for weights, dtype, layers in (
                    (tilted, float, exact_dp._layers(model, n, tilted, float)),
                    (steps, object, _weighted_layers(model, n))):
                reference = _reference_layers(model, n, weights, dtype)
                for classes, ref in zip(layers, reference, strict=True):
                    layer = _scatter(classes, ref.shape, m, dtype)
                    if dtype is float:
                        assert [x.hex() for x in layer.ravel().tolist()] == \
                            [x.hex() for x in ref.ravel().tolist()]
                    else:
                        assert layer.ravel().tolist() == ref.ravel().tolist()

    def test_a_pass_makes_each_class_move_once(self, five_step_model, exterior_2d,
                                               monkeypatch):
        # a pass makes the move of a class under a step the first time it
        # asks, so the count does not grow with the horizon, and the exit
        # sweep reads the moves the kernel made
        made, moves = [], exact_dp._moves

        def counted(r, v, m):
            made.append((r, v))
            return moves(r, v, m)

        monkeypatch.setattr(exact_dp, "_moves", counted)
        counts = []
        for n in (50, 100):
            made.clear()
            survival_sequence(exterior_2d, n)
            counts.append(len(made))
        assert len(set(made)) == len(made)
        m, d, steps = (exterior_2d.dist.lattice_index, exterior_2d.dimension,
                       exterior_2d.dist.steps)
        assert counts[0] == counts[1] <= m ** d * len(steps) == 16
        # five-step has m = 1: one class, one move per step, kernel and sweep
        made.clear()
        bounds = escape_probability_bounds(five_step_model, 30, (1, 1))
        assert bounds.excursion is not None
        assert sorted(made) == sorted(((0, 0), v) for v, _ in five_step_model.dist.steps)


def _random_walk(rng, d: int, trapped: bool):
    """A walk of 2-4 distinct steps with coordinates in -3..2 (none in a
    trapped walk, and none on a random axis otherwise, below 0) and random
    integer weights, with a start in 0..3 and a target that a confined path
    of at most 8 steps reaches."""
    flat = set() if not trapped else set(range(d))
    if not trapped and d > 1 and rng.random() < 0.5:
        flat.add(int(rng.integers(d)))
    steps = set()
    while len(steps) < int(rng.integers(2, 5)):
        v = tuple(int(rng.integers(0 if i in flat else -3, 3)) for i in range(d))
        if any(v):
            steps.add(v)
    weights = [int(w) for w in rng.integers(1, 4, size=len(steps))]
    start = tuple(int(c) for c in rng.integers(0, 4, size=d))
    target = start
    for _ in range(int(rng.integers(9))):
        v = sorted(steps)[int(rng.integers(len(steps)))]
        if all(c + a >= 0 for c, a in zip(target, v)):
            target = tuple(c + a for c, a in zip(target, v))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return walk({v: F(w, sum(weights)) for v, w in zip(sorted(steps), weights)},
                    start), target


def _box_of(layer, shape, m):
    """The box of the given shape that holds each class r of a layer at the
    positions r + m*j, zero elsewhere."""
    box = np.zeros(shape, dtype=object)
    for r, a in layer.items():
        box[tuple(slice(c, c + m * s, m) for c, s in zip(r, a.shape))] = a
    return box


class TestKeepBoxes:
    """Passes that keep only the entries that can still exit before the
    horizon, or reach the target, against the unpruned layers."""

    @staticmethod
    def kept(x, reach, target, band: bool) -> bool:
        exits = band and any(c < r for c, r in zip(x, reach))
        return exits or all(c <= y + r for c, y, r in zip(x, target, reach))

    def test_banded_passes_match_unpruned_layers(self):
        rng = np.random.default_rng(19)
        cases = [_random_walk(rng, d, trapped) for d in (1, 2, 3)
                 for trapped in (False,) * 9 + (True,)]
        # small-step walks with interior drift, so the escape bounds run
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cases += [
                (replace(FIVE_STEP, start=(1, 2)), (2, 1)),
                (replace(POS_1D, start=(2,)), (1,)),
                (walk({(1, 0, 0): F(3, 10), (0, 1, 0): F(3, 10), (0, 0, 1): F(3, 10),
                       (-1, -1, -1): F(1, 10)}, (0, 1, 0)), (1, 1, 1))]
        assert {model.dist.lattice_index > 1 for model, _ in cases} == {True, False}
        n, with_bounds = 10, 0
        for model, target in cases:
            q = [max(0, *(-v[i] for v, _ in model.dist.steps))
                 for i in range(model.dimension)]
            m = model.dist.lattice_index
            den = model.dist.common_denominator
            tilt = lattice_tilt(model)
            reference = list(exact_dp._integer_layers(model, n, tilt))
            for band in (True, False):
                keep = exact_dp._keep(model, target, band)
                layers = exact_dp._integer_layers(model, n, tilt, keep)
                for k, (layer, ref) in enumerate(zip(layers, reference, strict=True)):
                    full = _box_of(ref, exact_dp._box(model, k), m)
                    pruned = _box_of(layer, full.shape, m)
                    reach = [(n - k) * c for c in q]
                    for x in itertools.product(*map(range, full.shape)):
                        want = full[x] if k == 0 or self.kept(x, reach, target, band) else 0
                        assert pruned[x] == want, (model, target, band, k, x)

            masses = list(_weighted_layers(model, n))
            totals = [F(sum(a.sum() for a in layer.values()), den ** k)
                      for k, layer in enumerate(masses)]
            at_target = [F(_box_of(layer, exact_dp._box(model, k), m)[target], den ** k)
                         if all(c < s for c, s in zip(target, exact_dp._box(model, k)))
                         else F(0) for k, layer in enumerate(masses)]
            survival, excursion, bounds = exact_dp.survival_pass(model, n, target)
            assert list(survival.terms) == totals
            assert list(excursion.terms) == at_target
            assert list(excursion_sequence(model, target, n).terms) == at_target
            assert totals[:9] == brute_force_survival(model, 8)
            assert at_target[:9] == brute_force_excursion(model, target, 8)
            if bounds is not None:
                gammas = exact_dp._gammas(model)
                g = [sum((F(int(layer[pos]), den ** k) * gamma ** (pos[i] + 1)
                          for pos in itertools.product(*map(range, layer.shape))
                          for i, gamma in gammas.items()), F(0))
                     for k, layer in ((k, _box_of(layer, exact_dp._box(model, k), m))
                                      for k, layer in enumerate(masses))]
                assert list(bounds.g_sequence.terms) == g
                with_bounds += 1
        assert with_bounds >= 3


class TestExcursion:
    def test_five_step_origin(self, five_step_model):
        seq = excursion_sequence(five_step_model, (0, 0), 2)
        assert list(seq.terms) == [F(1), F(0), F(2, 25)]

    def test_matches_brute_force(self, five_step_model, simple_walk_2d,
                                 big_step_2d, octant_3d, big_step_1d):
        cases = [(model, target, 7)
                 for model in (five_step_model, simple_walk_2d, big_step_2d)
                 for target in ((0, 0), (1, 1), (2, 0), (9, 9))]
        cases += [(octant_3d, (0, 0, 0), 7), (octant_3d, (1, 0, 1), 7),
                  (big_step_1d, (0,), 7), (big_step_1d, (3,), 7), (HEAVY_NE, (1, 1), 10),
                  (PRODUCT_DIAGONAL, (1, 2), 10), (UPWARD, (1,), 10)]
        for model, target, n in cases:
            seq = excursion_sequence(model, target, n)
            assert list(seq.terms) == brute_force_excursion(model, target, n)
            if target == (9, 9):  # not reachable in 7 steps from any start here
                assert not any(seq.terms)
        assert excursion_sequence(UPWARD, (1,), 2).terms == (0, F(1, 2), 0)

    def test_pruning_preserves_target_mass(self, exterior_2d):
        # the pruned DP must agree with the unpruned full layers
        n = 12
        layers = list(survival_layers(exterior_2d, n))
        seq = excursion_sequence(exterior_2d, (0, 0), n)
        for k, layer in enumerate(layers):
            assert seq.terms[k] == layer.masses.get((0, 0), F(0))

    def test_carries_nothing_and_keeps_the_target_cut(self, five_step_model, exterior_2d,
                                                      monkeypatch):
        # the excursion-only pass sweeps no exit slab and keeps the target's
        # box alone, not the band that survival needs
        slabs, passes = [], []
        exit_slabs, integer_layers = exact_dp._exit_slabs, exact_dp._integer_layers

        def counted(*args):
            slabs.append(args)
            return exit_slabs(*args)

        def recorded(*args):
            passes.append(list(integer_layers(*args)))
            return iter(passes[-1])

        monkeypatch.setattr(exact_dp, "_exit_slabs", counted)
        monkeypatch.setattr(exact_dp, "_integer_layers", recorded)
        survival_sequence(five_step_model, 5)
        assert slabs
        n = 30
        for model, y in ((five_step_model, (1, 1)), (exterior_2d, (0, 0))):
            slabs.clear()
            passes.clear()
            excursion_sequence(model, y, n)
            assert not slabs
            tilt = lattice_tilt(model)
            [kept] = passes
            cut = list(integer_layers(model, n, tilt, exact_dp._keep(model, y, band=False)))
            banded = list(integer_layers(model, n, tilt, exact_dp._keep(model, y)))
            assert len(kept) == n + 1
            for layer, want, wide in zip(kept, cut, banded):
                assert layer.keys() == want.keys()
                for r, a in layer.items():
                    assert a.shape == want[r].shape and (a == want[r]).all()
            assert any(a.shape != wide[r].shape
                       for layer, wide in zip(kept, banded) for r, a in layer.items())

    def test_one_pass_reads_the_excursion(self, exterior_2d, simple_walk_2d,
                                          big_step_2d, octant_3d, five_step_model):
        # the unpruned pass reads y off class y mod m, and reads 0 while that
        # class is not stored
        cases = [(model, y, 15) for model in (exterior_2d, simple_walk_2d)
                 for y in ((0, 0), (1, 0), (3, 2))]
        cases += [(KREWERAS, (0, 0), 15), (KREWERAS, (2, 0), 15), (big_step_2d, (2, 1), 15),
                  (octant_3d, (1, 0, 1), 15), (DIAGONAL, (1, 2), 15), (DIAGONAL, (0, 3), 15),
                  (five_step_model, (1, 2), 15), (HEAVY_NE, (1, 1), 15),
                  (PRODUCT_DIAGONAL, (1, 2), 150), (UPWARD, (1,), 60)]
        for model, y, n in cases:
            survival, excursion, bounds = exact_dp.survival_pass(model, n, y)
            assert survival == survival_sequence(model, n)
            assert excursion == excursion_sequence(model, y, n)
            assert (bounds is None) == (exact_dp.bounds_error(model) is not None)
            if bounds is not None:
                assert bounds == escape_probability_bounds(model, n, y)
                assert (bounds.survival, bounds.excursion) == (survival, excursion)

    def test_periodicity_of_simple_walk(self, simple_walk_2d):
        terms = excursion_sequence(simple_walk_2d, (0, 0), 10).terms
        assert all(terms[k] == 0 for k in range(1, 11, 2))
        assert all(terms[k] > 0 for k in range(2, 11, 2))

    def test_target_outside_cone(self, five_step_model):
        for target in ((0, -1), (0,), (0, 0, 0)):
            with pytest.raises(PointOutsideCone):
                excursion_sequence(five_step_model, target, 4)
            with pytest.raises(PointOutsideCone):
                escape_probability_bounds(five_step_model, 4, target=target)

    def test_unreachable_target_is_zero(self, trapped_2d):
        seq = excursion_sequence(trapped_2d, (0, 0), 4)
        assert list(seq.terms) == [F(1), F(0), F(0), F(0), F(0)]


class TestTiltedFunctional:
    def test_reconstructs_survival(self, exterior_2d, octant_3d):
        for model, n, rel in ((exterior_2d, 40, 1e-11), (octant_3d, 20, 1e-11),
                              (exterior_2d, 400, 1e-12)):
            an = analyze(model.dist, model.cone)
            func = tilted_survival_functional(model, an.t0, n)
            exact = survival_sequence(model, n).floats()
            pref = math.exp(sum(t * x for t, x in zip(an.t0, model.start)))
            assert len(func) == n + 1
            for k in range(n + 1):
                recon = an.rho ** k * pref * func[k]
                assert recon == pytest.approx(exact[k], rel=rel, abs=0)

    def test_matches_the_box_readout(self, exterior_2d, octant_3d):
        # fsum of the whole reference box times a fresh weight box: the
        # per-axis contraction is not exactly rounded, so it agrees to 1e-14
        for model, n in ((exterior_2d, 60), (octant_3d, 12),
                         (replace(KREWERAS, start=(2, 1)), 30)):
            t0 = analyze(model.dist, model.cone).t0
            tilted, _drift = tilt_distribution(model.dist, t0)
            expected = []
            for box in _reference_layers(model, n, tilted, float):
                axes = np.ogrid[tuple(slice(s) for s in box.shape)]
                weight = np.exp(-sum(float(t) * a for t, a in zip(t0, axes)))
                expected.append(math.fsum((box * weight).ravel().tolist()))
            assert tilted_survival_functional(model, t0, n) == \
                pytest.approx(expected, rel=1e-14, abs=0)

    def test_starts_at_one_from_origin(self, exterior_2d):
        an = analyze(exterior_2d.dist, exterior_2d.cone)
        func = tilted_survival_functional(exterior_2d, an.t0, 0)
        assert func[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("t0", [(0.3,), (0.3, 0.2, 0.1)], ids=["short", "long"])
    def test_t0_of_the_wrong_length_rejected(self, exterior_2d, t0):
        with pytest.raises(ConewalkError, match="dimension 2"):
            tilted_survival_functional(exterior_2d, t0, 5)


class TestBoundaryExitG:
    """g(start), the first term of the bounds' g-functional."""

    @staticmethod
    def g(model, y):
        return escape_probability_bounds(replace(model, start=y), 0).g_sequence.terms[0]

    def test_five_step_values(self, five_step_model):
        assert self.g(five_step_model, (0, 0)) == F(1)
        assert self.g(five_step_model, (2, 0)) == F(5, 8)

    def test_1d_ratio_power(self, pos_1d):
        assert self.g(pos_1d, (0,)) == F(1, 3)
        assert self.g(pos_1d, (3,)) == F(1, 3) ** 4

    def test_needs_small_steps(self):
        model = walk({(2,): F(3, 4), (-1,): F(1, 4)}, (0,))
        with pytest.raises(NotSmallStep):
            escape_probability_bounds(model, 0)

    def test_needs_interior_drift(self, sym_1d):
        with pytest.raises(DriftNotInterior):
            escape_probability_bounds(sym_1d, 0)

    def test_trapped_has_no_exit(self, trapped_2d):
        with pytest.raises(Trapped):
            escape_probability_bounds(trapped_2d, 0)


class TestEscapeBounds:
    def test_1d_interval_is_exact(self, pos_1d):
        # for p=3/4 the escape probability is exactly 2/3 and the interval
        # closes on it completely
        bounds = escape_probability_bounds(pos_1d, 40)
        assert bounds.survival == survival_sequence(pos_1d, 40)
        lo, hi = bounds.best
        assert lo <= F(2, 3) <= hi
        assert float(hi - lo) < 1e-6

    def test_intervals_contain_best(self, five_step_model):
        bounds = escape_probability_bounds(five_step_model, 30)
        lo, hi = bounds.best
        assert lo <= hi
        for a, b in bounds.intervals:
            assert a <= lo or a == lo
            assert b >= hi or b == hi

    def test_interval_width_shrinks(self, five_step_model):
        bounds = escape_probability_bounds(five_step_model, 30)
        widths = [float(b - a) for a, b in bounds.intervals]
        assert widths[-1] < widths[0]
        assert widths[-1] < 1e-2

    def test_g_sequence_matches_pointwise_sum(self, five_step_model, pos_1d):
        five_step_off = replace(five_step_model, start=(2, 1))
        with pytest.warns(UserWarning, match="do not span"):
            flat_3d = walk({(0, -1, -1): F(1, 4), (1, 1, 1): F(1, 2),
                            (0, 0, 0): F(1, 4)}, (0, 0, 0))
        # (-1, -1) exits through two slabs, x < 1 and (x >= 1, y < 1)
        corner_exit = walk({(-1, -1): F(1, 6), (1, 0): F(1, 3), (0, 1): F(1, 3),
                            (0, 0): F(1, 6)}, (1, 0))
        # classes mod 2 and mod 3: g is a power sum in g_i^m over each class
        mod_2 = walk({(1, 0): F(1, 3), (0, 1): F(1, 3), (-1, 0): F(1, 6),
                      (0, -1): F(1, 6)}, (1, 0))
        mod_3 = walk({(1, 0): F(2, 5), (0, 1): F(2, 5), (-1, -1): F(1, 5)}, (2, 0))
        # g_0 = 2/3 and g_1 = 3/5 over classes mod 4, from (1, 1): the exits
        # read both ends of each weight vector, g_i^0 where the walk leaves
        # and g_i^(n + 2) where (1, -1) or (-1, 1) leaves from the far edge
        assert exact_dp._gammas(SKEWED) == {0: F(2, 3), 1: F(3, 5)}
        assert SKEWED.dist.lattice_index == 4
        # E, N, U at 1/4 and W, S, D at 1/12: a tilted 3D walk with m = 2 that
        # can exit on all three axes, g_i = 1/3 on each
        assert exact_dp._gammas(TILTED_OCTANT) == {0: F(1, 3), 1: F(1, 3), 2: F(1, 3)}
        assert TILTED_OCTANT.dist.lattice_index == 2 and lattice_tilt(TILTED_OCTANT).powers != ()
        # tilt 2^(k + x + y) and g_0 = 1/2: term 0 of g weighs axis 0 by 2 * 1/2,
        # ratio 1 after a base of the walk's tilt enters both sides of it
        ratio_1 = walk({(1, 0): F(4, 11), (-1, 1): F(2, 11), (0, -1): F(1, 11),
                        (0, 1): F(4, 11)}, (0, 0))
        assert exact_dp._gammas(ratio_1)[0] == F(1, 2)
        assert lattice_tilt(ratio_1).powers == ((2, 1, (1, 1)),)
        for model, n in ((five_step_model, 12), (five_step_off, 12), (flat_3d, 12),
                         (pos_1d, 12), (corner_exit, 12), (mod_2, 12), (mod_3, 12),
                         (SKEWED, 12), (TILTED_OCTANT, 12), (TILTED_OCTANT, 30),
                         (ratio_1, 12)):
            bounds = escape_probability_bounds(model, n)
            layers = list(survival_layers(model, n))
            gammas = exact_dp._gammas(model)
            assert len(bounds.intervals) == len(layers) == n + 1
            for k, (g_k, interval) in enumerate(zip(bounds.g_sequence.terms, bounds.intervals)):
                direct = sum(
                    (mass * g ** (pos[i] + 1)
                     for pos, mass in layers[k].masses.items()
                     for i, g in gammas.items()),
                    F(0),
                )
                assert g_k == direct
                a_k = layers[k].total
                assert interval == (a_k - direct, a_k - direct / model.dimension)

    def test_survival_minus_g_is_lower_bound(self, five_step_model):
        bounds = escape_probability_bounds(five_step_model, 25)
        survival = survival_sequence(five_step_model, 25)
        assert bounds.survival == survival
        a = survival.terms
        for k, (lo, _) in enumerate(bounds.intervals):
            assert lo == a[k] - bounds.g_sequence.terms[k]

    def test_bounds_pass_reads_the_excursion(self, five_step_model, pos_1d):
        # the unpruned bounds layers hold every layer[y] of the pruned pass
        cases = [(five_step_model, y) for y in ((0, 0), (1, 1), (2, 0), (0, 3), (9, 9))]
        cases += [(pos_1d, (0,)), (pos_1d, (3,))]
        for n in (8, 20):
            for model, target in cases:
                bounds = escape_probability_bounds(model, n, target=target)
                assert bounds.excursion == excursion_sequence(model, target, n)
                # the target adds a readout and changes none of the others
                assert replace(bounds, excursion=None) == \
                    escape_probability_bounds(model, n)
        assert not any(escape_probability_bounds(five_step_model, 8, (9, 9))
                       .excursion.terms)  # (9, 9) needs nine steps
        assert escape_probability_bounds(five_step_model, 8).excursion is None

    def test_prefix_best_is_shorter_horizon_best(self, five_step_model):
        full = escape_probability_bounds(five_step_model, 30)
        for k in (0, 1, 12, 30):
            head = full.intervals[:k + 1]
            best = (max(lo for lo, _ in head), min(hi for _, hi in head))
            assert best == escape_probability_bounds(five_step_model, k).best

    def test_a_inf_is_the_midpoint_up_to_its_horizon(self, five_step_model):
        # past A_INF_HORIZON the later, tighter intervals do not enter a_inf
        long = escape_probability_bounds(five_step_model, exact_dp.A_INF_HORIZON + 10)
        short = escape_probability_bounds(five_step_model, exact_dp.A_INF_HORIZON)
        assert long.best != short.best
        lo, hi = short.best
        assert long.a_inf == short.a_inf == float(lo + hi) / 2.0
        lo, hi = escape_probability_bounds(five_step_model, 10).best
        assert escape_probability_bounds(five_step_model, 10).a_inf == float(lo + hi) / 2.0


class TestMemoryBudget:
    def test_budget_exceeded_suggests_horizon(self, five_step_model, monkeypatch):
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", str(10_000))
        with pytest.raises(MemoryBudgetExceeded) as exc:
            survival_sequence(five_step_model, 500)
        assert "try horizon" in str(exc.value)

    def test_budget_allows_small_horizon(self, five_step_model, monkeypatch):
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", str(2 * 2 ** 30))
        seq = survival_sequence(five_step_model, 5)
        assert len(seq.terms) == 6

    @pytest.mark.parametrize("value", ["abc", "1e9", "-5", "1.5", " 7", "2GiB", "\u0663"])
    def test_malformed_budget_rejected(self, five_step_model, monkeypatch, value):
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", value)
        with pytest.raises(ConewalkError, match="CONEWALK_MEM_BUDGET must be") as exc:
            survival_sequence(five_step_model, 5)
        assert type(exc.value) is ConewalkError

    def test_empty_budget_is_the_default_and_zero_is_a_budget(self, five_step_model,
                                                               monkeypatch):
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", "")
        assert exact_dp._mem_budget() == exact_dp.DEFAULT_MEM_BUDGET
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", "0")
        with pytest.raises(MemoryBudgetExceeded):
            survival_sequence(five_step_model, 5)

    def test_budget_message_reads_below_a_gib(self, five_step_model, monkeypatch):
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", str(40_000_000))
        with pytest.raises(MemoryBudgetExceeded, match=r"\(budget 38\.1 MiB\); try horizon <= \d+$"):
            survival_sequence(five_step_model, 1000)
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", str(10_000))
        with pytest.raises(MemoryBudgetExceeded, match=r"needs ~\d+\.\d MiB \(budget 9\.8 KiB\)"):
            survival_sequence(five_step_model, 500)

    @pytest.mark.parametrize("budget", ["0", "200"])
    def test_no_horizon_fits(self, five_step_model, monkeypatch, budget):
        # horizon 0 holds layer 0 and its terms, more than these budgets
        steps = exact_dp._kernel_steps(five_step_model, lattice_tilt(five_step_model))
        assert _dp_bytes(five_step_model, 0, steps, exact_dp._keep(five_step_model)) > int(budget)
        monkeypatch.setenv("CONEWALK_MEM_BUDGET", budget)
        with pytest.raises(MemoryBudgetExceeded) as exc:
            survival_sequence(five_step_model, 5)
        assert str(exc.value).endswith(f"(budget {budget}.0 B); no horizon fits")
        with pytest.raises(MemoryBudgetExceeded, match="no horizon fits"):
            survival_sequence(five_step_model, 0)

    def test_prediction_covers_traced_peak(self, five_step_model, exterior_2d,
                                           octant_3d, simple_walk_2d, monkeypatch):
        # survival and the escape bounds keep the exit band, the excursion the
        # states that can reach its target, and the float tilted functional
        # the whole box.  The exterior's integer weights 1, 1, 2, 2 are tilted
        # to unit weights, so no scaled layer lives through a step, while
        # five-step at weights 1, 1, 1, 1, 2 is no exponential family and keeps
        # one; the exterior and the octant store half the box.  Two walks have
        # long negative steps: the box grows only by the largest positive
        # coordinate of a step.
        diagonal_back = walk({(1, 0): F(3, 8), (0, 1): F(3, 8), (-5, -5): F(1, 4)}, (0, 0))
        assert lattice_tilt(HEAVY_NE).powers == ()
        assert lattice_tilt(exterior_2d).powers != ()
        t_ext = analyze(exterior_2d.dist, exterior_2d.cone).t0
        t_oct = analyze(octant_3d.dist, octant_3d.cone).t0
        band = exact_dp._keep
        survival_sequence(five_step_model, 2)
        ran, layers = [], exact_dp._layers

        def recorded(model, n, steps, dtype, keep=None):
            ran.append(steps)
            return layers(model, n, steps, dtype, keep)

        monkeypatch.setattr(exact_dp, "_layers", recorded)
        for model, n, passes, keep, dtype in (
                (five_step_model, 60, (survival_sequence, escape_probability_bounds),
                 band(five_step_model), object),
                (exterior_2d, 60, (survival_sequence,), band(exterior_2d), object),
                (exterior_2d, 250, (survival_sequence,), band(exterior_2d), object),
                (octant_3d, 40, (survival_sequence,), band(octant_3d), object),
                (LONG_BACK, 60, (survival_sequence,), band(LONG_BACK), object),
                (LONG_BACK, 200, (survival_sequence,), band(LONG_BACK), object),
                (diagonal_back, 60, (survival_sequence,), band(diagonal_back), object),
                (HEAVY_NE, 60, (survival_sequence,), band(HEAVY_NE), object),
                (simple_walk_2d, 120, (lambda model, n: excursion_sequence(model, (1, 1), n),),
                 band(simple_walk_2d, (1, 1), band=False), object),
                (exterior_2d, 60, (lambda model, n: tilted_survival_functional(model, t_ext, n),),
                 None, float),
                (exterior_2d, 400, (lambda model, n: tilted_survival_functional(model, t_ext, n),),
                 None, float),
                (octant_3d, 40, (lambda model, n: tilted_survival_functional(model, t_oct, n),),
                 None, float)):
            tracemalloc.start()
            try:
                for run in passes:
                    run(model, n)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # charged on the steps the kernel ran
            assert peak <= _dp_bytes(model, n, ran[-1], keep, dtype) <= 2.5 * peak

    @pytest.mark.parametrize("box,start,reach", [
        ((5,), (2,), 1), ((7, 4), (0, 0), 3), ((7, 4), (1, 2), 20),
        ((6, 5, 4), (0, 1, 2), 4), ((6, 5, 4), (3, 3, 3), -2), ((3, 3), (1, 1), -5)])
    def test_points_below_the_hyperplane(self, box, start, reach):
        points = itertools.product(*(range(s) for s in box))
        want = sum(1 for x in points if sum(x) - sum(start) <= reach)
        assert exact_dp._below_hyperplane(box, start, reach) == want

    def test_only_unreachable_entries_drop_to_their_slot(self, five_step_model,
                                                         exterior_2d):
        # Each pass kind at n = 60, from closed forms of the stored entries
        # and the live (int) entries of layer k; R = n - k.  Five-step (m = 1,
        # every weight 1/5) reaches the far corner of its box [0, k]^2 by NE
        # steps, so every entry it keeps is live.  The exterior walk (m = 2,
        # two classes of ceil((k+1)/2)^2) cannot pass x + y = k:
        # tri(k) = (k+1)(k+2)/2 of the (k+1)^2 points.  Its weights 1, 1, 2, 2
        # over 6 are tilted to unit weights, so its layers count paths below
        # 4^k and no step holds a scaled copy.  On top of the largest step
        # sits the pass's table of moves, 184 bytes (d = 2) for each step and
        # class: five-step's 5 steps on 1 class, the exterior's 4 on 4.
        n, band = 60, exact_dp._keep

        def tri(j):
            return (j + 1) * (j + 2) // 2 if j >= 0 else 0

        def peak(counts, held, denominator, moves):
            def step(k):
                (s0, l0), (s, l) = counts(k - 1) if k > 1 else (1, 1), counts(k)
                ints = held * l0 + l + 8 * (n + 1)
                return (8 * (held * s0 + s + 3 * min(s, np.getbufsize()) + 8 * (n + 1))
                        + ints * (40 + k * math.log2(denominator) / 7.5))
            return max(step(k) for k in range(1, n + 1)) + 184 * moves

        def five(k):
            return (k + 1) ** 2, (k + 1) ** 2

        def five_band(k):  # the box less its corner [R, k]^2; nothing at k = n
            return ((k + 1) ** 2, (k + 1) ** 2 - max(0, 2 * k - n + 1) ** 2) if k < n else (0, 0)

        def five_cut(k):  # the box [0, R]^2 of the states that can reach (0, 0)
            return (min(k, n - k) + 1) ** 2, (min(k, n - k) + 1) ** 2

        def exterior(k):
            stored = 2 * ((k + 2) // 2) ** 2
            return stored, stored * tri(k) / (k + 1) ** 2

        def exterior_band(k):  # its corner holds tri(3k - 2n) of the points below x + y = k
            stored = 2 * ((k + 2) // 2) ** 2
            live = stored * (tri(k) - tri(3 * k - 2 * n)) / (k + 1) ** 2
            return (stored, live) if k < n else (0, 0)

        five_steps, exterior_steps = (exact_dp._kernel_steps(model, lattice_tilt(model))
                                      for model in (five_step_model, exterior_2d))
        assert _dp_bytes(five_step_model, n, five_steps) == pytest.approx(peak(five, 1, 5, 5))
        assert _dp_bytes(five_step_model, n, five_steps, band(five_step_model)) == \
            pytest.approx(peak(five_band, 1, 5, 5))
        assert _dp_bytes(five_step_model, n, five_steps,
                         band(five_step_model, (0, 0), band=False)) == \
            pytest.approx(peak(five_cut, 1, 5, 5))
        assert _dp_bytes(exterior_2d, n, exterior_steps) == pytest.approx(peak(exterior, 1, 4, 16))
        assert _dp_bytes(exterior_2d, n, exterior_steps, band(exterior_2d)) == \
            pytest.approx(peak(exterior_band, 1, 4, 16))
        # floats: the same slots, the 64 KiB for the interpreter, the moves
        # and no ints; the whole box peaks at its last step
        (s0, _), (s, _) = exterior(n - 1), exterior(n)
        float_steps, _drift = tilt_distribution(exterior_2d.dist, (0.0, 0.0))
        assert _dp_bytes(exterior_2d, n, float_steps, None, float) == pytest.approx(
            8 * (2 * s0 + s + 3 * min(s, np.getbufsize()) + 8 * (n + 1)) + 2 ** 16 + 184 * 16)
