"""The exact exponential tilt of the DP: layer k of a walk whose weights are
an exponential family on its step lattice is w_k N_k, with N_k the
unit-weight path count, and the kernel runs on unit weights.  Every other
walk has the identity tilt w_k = 1 and is read by the same readouts."""

import math
import warnings
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from conewalk import (
    OneDimModel,
    brute_force_survival,
    closed_form_coefficients,
    excursion_sequence,
    survival_sequence,
)
from conewalk import exact_dp
from conewalk._zoo import DIAGONAL, FIVE_STEP, HEAVY_NE, PRODUCT_DIAGONAL, SKEWED, walk
from conewalk.lattice_tilt import _coprime_base, _multiplicity, lattice_tilt
from test_exact_dp import _minors_lattice_index, _reference_layers, _scatter


def _exponential_walk(rng, d: int, count: int, steps=None):
    """A walk on ``count`` random steps (or the given ones) that span R^d,
    weighted c_v = prod_i a_i^(v_i - lo_i) b_i^(hi_i - v_i) with lo_i and hi_i
    the least and largest coordinate i of a step: an exponential family with
    random per-axis ratios a_i / b_i, not all 1, from a random start."""
    while True:
        vectors = steps or sorted({tuple(int(c) for c in rng.integers(-2, 3, size=d))
                                   for _ in range(count)} - {(0,) * d})
        lo = [min(v[i] for v in vectors) for i in range(d)]
        hi = [max(v[i] for v in vectors) for i in range(d)]
        a, b = rng.integers(1, 5, size=d).tolist(), rng.integers(1, 5, size=d).tolist()
        weights = [math.prod(a[i] ** (v[i] - lo[i]) * b[i] ** (hi[i] - v[i]) for i in range(d))
                   for v in vectors]
        diffs = [[x - y for x, y in zip(v, vectors[0])] for v in vectors[1:]]
        if len(vectors) == count and len(set(weights)) > 1 and \
                np.linalg.matrix_rank(np.array(diffs, dtype=float)) == d:
            break
    start = tuple(rng.integers(0, 3, size=d).tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return walk({v: F(c, sum(weights)) for v, c in zip(vectors, weights)}, start)


def _exponential_walks():
    rng = np.random.default_rng(22)
    pairs = [(1, 0), (-1, 0), (0, 1), (0, -1)]  # symmetric pairs: m = 2
    return [DIAGONAL] + [_exponential_walk(rng, 2, 4, pairs) for _ in range(4)] + [
        _exponential_walk(rng, d, count)
        for d, count in ((2, 3), (2, 3), (2, 3), (2, 4), (1, 2), (1, 3), (1, 2), (3, 4))]


EXPONENTIAL = _exponential_walks()

# walks with no exponential family on their step lattice: the identity tilt,
# from the origin
LAZY_1D = {(1,): F(1, 4), (0,): F(1, 4), (-1,): F(1, 2)}  # 1 * 2 is not 1^2
NO_TILT = {
    "five-step-1-1-1-1-2": HEAVY_NE,
    "skewed": replace(SKEWED, start=(0, 0)),
    "lazy-1d": walk(LAZY_1D, (0,)),
    "uniform": FIVE_STEP,  # the tilt of uniform weights is 1
}
IDENTITY = [HEAVY_NE, SKEWED, walk(LAZY_1D, (1,))]


def _assert_identity(model):
    tilt = lattice_tilt(model)
    assert tilt.powers == ()
    assert tilt.weight(3, [x + 1 for x in model.start]) == (1, 1)
    assert tilt.axis_weights([4] * model.dimension) == ([None] * model.dimension, 1)


class TestLatticeTilt:
    def test_exponential_walks_are_tilted(self):
        assert all(lattice_tilt(model).powers != () for model in EXPONENTIAL)
        assert {model.dist.lattice_index > 2 for model in EXPONENTIAL} == {True, False}
        assert any(model.dimension == 1 for model in EXPONENTIAL)
        assert any(any(model.start) for model in EXPONENTIAL)

    def test_layer_is_weight_times_unit_count(self):
        # every entry of the kernel's layer is the unit-weight count of the
        # plain reference kernel, and w_k(x) times it is the weighted one
        for model in EXPONENTIAL:
            tilt = lattice_tilt(model)
            m = model.dist.lattice_index
            steps, _den = model.dist.integer_weights()
            unit = _reference_layers(model, 8, [(v, 1) for v, _ in steps], object)
            weighted = _reference_layers(model, 8, steps, object)
            layers = exact_dp._integer_layers(model, 8, tilt)
            for k, (layer, count, ref) in enumerate(zip(layers, unit, weighted, strict=True)):
                assert _scatter(layer, count.shape, m, object).tolist() == count.tolist()
                for x in map(tuple, np.argwhere(count).tolist()):
                    num, den = tilt.weight(k, x)
                    assert ref[x] * den == num * count[x]
                    assert num % den == 0  # an integer where a path reaches x
                masses = exact_dp._masses(tilt, k, layer)
                assert _scatter(masses, ref.shape, m, object).tolist() == ref.tolist()

    def test_readouts_match_the_weighted_reference(self):
        # survival, the excursion and, on the bounds walks, g: the tilted walks
        # and the identity tilt's, read by the same readouts
        assert {model.dist.lattice_index for model in IDENTITY} == {1, 4}
        with_bounds = 0
        for model in EXPONENTIAL + IDENTITY:
            den = model.dist.common_denominator
            steps, _den = model.dist.integer_weights()
            ref = list(_reference_layers(model, 10, steps, object))
            alive = max(k for k in range(7) if ref[k].any())
            target = tuple(np.argwhere(ref[alive])[0].tolist())
            survival, excursion, bounds = exact_dp.survival_pass(model, 10, target)
            assert list(survival.terms) == [F(int(a.sum()), den ** k)
                                           for k, a in enumerate(ref)]
            expected = [F(int(a[target]) if all(c < s for c, s in zip(target, a.shape))
                          else 0, den ** k) for k, a in enumerate(ref)]
            assert list(excursion.terms) == expected
            assert list(excursion_sequence(model, target, 10).terms) == expected
            if bounds is not None:
                with_bounds += 1
                gammas = exact_dp._gammas(model)
                assert list(bounds.g_sequence.terms) == [
                    sum((F(int(a[x]), den ** k) * g ** (x[i] + 1)
                         for x in map(tuple, np.argwhere(a).tolist())
                         for i, g in gammas.items()), F(0))
                    for k, a in enumerate(ref)]
        assert with_bounds == 4

    @pytest.mark.parametrize("model", NO_TILT.values(), ids=NO_TILT.keys())
    def test_no_tilt(self, model):
        _assert_identity(model)
        steps, _den = model.dist.integer_weights()
        assert sorted(exact_dp._kernel_steps(model, lattice_tilt(model))) == sorted(steps)

    def test_tilt_carries_the_lattice_index(self):
        # the identity tilt too: m is the modulus of the layers on every walk
        no_tilt = list(NO_TILT.values())
        models = EXPONENTIAL + IDENTITY + no_tilt
        assert all(lattice_tilt(model).m == model.dist.lattice_index
                   == _minors_lattice_index([v for v, _ in model.dist.steps]) for model in models)
        assert {lattice_tilt(model).m for model in IDENTITY + no_tilt} == {1, 4}

    def test_rank_deficient_steps_get_no_tilt(self):
        with pytest.warns(UserWarning, match="do not span"):
            line = walk({(1, 1): F(1, 4), (-1, -1): F(1, 2), (2, 2): F(1, 4)}, (0, 0))
        _assert_identity(line)
        assert lattice_tilt(line).m == line.dist.lattice_index == 1
        assert list(survival_sequence(line, 8).terms) == brute_force_survival(line, 8)

    def test_one_tilt_per_pass(self, monkeypatch, five_step_model, exterior_2d):
        # each exact pass derives its tilt once and hands it to every stage
        calls = []
        tilt = exact_dp.lattice_tilt

        def counted(model):
            calls.append(model)
            return tilt(model)

        monkeypatch.setattr(exact_dp, "lattice_tilt", counted)
        for model, target in ((five_step_model, (1, 1)), (exterior_2d, (0, 0))):
            for run in (lambda: exact_dp.survival_pass(model, 12, target),
                        lambda: exact_dp.survival_pass(model, 12),
                        lambda: excursion_sequence(model, target, 12),
                        lambda: survival_sequence(model, 12)):
                calls.clear()
                run()
                assert calls == [model]

    def test_coprime_base(self):
        for values in ([12, 18, 5], [1, 1], [8, 4, 2, 6, 9, 35, 49], [2 ** 61 - 1, 6]):
            base = _coprime_base(values)
            assert all(math.gcd(a, b) == 1 for i, a in enumerate(base) for b in base[i + 1:])
            for c in values:
                for q in base:
                    c //= q ** _multiplicity(c, q)
                assert c == 1

    def test_advance_runs_unit_weights_on_the_exterior(self, exterior_2d, monkeypatch):
        seen = []
        advance = exact_dp._advance

        def recorded(classes, boxes, moves):
            seen.append([c for _, c in moves.steps])
            return advance(classes, boxes, moves)

        monkeypatch.setattr(exact_dp, "_advance", recorded)
        survival_sequence(exterior_2d, 10)
        excursion_sequence(exterior_2d, (0, 0), 10)
        assert len(seen) == 20 and all(weights == [1, 1, 1, 1] for weights in seen)
        seen.clear()
        survival_sequence(SKEWED, 3)
        assert seen == [[12, 12, 13, 3]] * 3


class TestLongHorizonOracle:
    """Walks whose survival is a product of 1D closed forms, to n = 300."""

    def test_weighted_diagonal_is_a_product_of_1d_walks(self):
        # the coordinates of a walk on (+-1, +-1) with per-axis weights are
        # independent 1D walks, and it survives iff both do
        (p0, q0), (p1, q1) = (F(2, 3), F(1, 3)), (F(1, 4), F(3, 4))
        diagonal = PRODUCT_DIAGONAL
        assert diagonal.start == (1, 2) and diagonal.dist.steps == tuple(
            ((a, b), (p0 if a > 0 else q0) * (p1 if b > 0 else q1))
            for a in (1, -1) for b in (1, -1))
        assert diagonal.dist.lattice_index == 4
        assert lattice_tilt(diagonal).powers != ()
        x_axis = closed_form_coefficients(OneDimModel(p=p0, q=q0, x=1), 300)
        y_axis = closed_form_coefficients(OneDimModel(p=p1, q=q1, x=2), 300)
        assert list(survival_sequence(diagonal, 300).terms) == \
            [a * b for a, b in zip(x_axis, y_axis)]

    def test_weighted_1d_walk(self):
        model = OneDimModel(p=F(2, 5), q=F(3, 5), x=3)
        assert lattice_tilt(model.to_walk_model()).powers != ()
        assert list(survival_sequence(model.to_walk_model(), 300).terms) == \
            closed_form_coefficients(model, 300)
