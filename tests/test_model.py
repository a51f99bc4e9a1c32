import json
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conewalk
from conewalk import (
    ConeSpec,
    StepDistribution,
    brute_force_excursion,
    brute_force_survival,
    build_model,
    excursion_sequence,
    load_model,
    parse_model,
)
from conewalk import _zoo
from conewalk._zoo import walk
from conewalk.errors import (
    EmptyConeInterior,
    HorizonTooLarge,
    MalformedFile,
    PointOutsideCone,
    WeightsNotNormalized,
)
from conewalk.model import DegenerateDistributionWarning, _feasible

FIVE_STEP_DOC = {
    "dimension": 2,
    "steps": [
        {"v": [1, 0], "w": "1/5"}, {"v": [0, -1], "w": "1/5"},
        {"v": [-1, 0], "w": "1/5"}, {"v": [0, 1], "w": "1/5"},
        {"v": [1, 1], "w": "1/5"},
    ],
    "cone": {"type": "orthant"},
    "start": [0, 0],
}


def _doc(**fields):
    return json.dumps(dict(FIVE_STEP_DOC, **fields))


# (input, error type, start of the message); a str input is a model file, a
# callable builds a StepDistribution, which rejects what parse_model never
# hands it
BAD_INPUTS = {
    "empty step set": (lambda: StepDistribution(2, ()), MalformedFile, "empty step set"),
    "step of wrong dimension": (
        _doc(steps=[{"v": [1, 0, 0], "w": "1/2"}, {"v": [0, 1], "w": "1/2"}]),
        MalformedFile, "step (1, 0, 0) has wrong dimension"),
    "non-positive weight": (
        _doc(steps=[{"v": [1, 0], "w": "6/5"}, {"v": [0, 1], "w": "-1/5"}]),
        MalformedFile, "non-positive weight -1/5 on step (0, 1)"),
    "weights off one": (
        lambda: StepDistribution(1, (((1,), F(1, 2)), ((-1,), F(1, 3)))),
        WeightsNotNormalized, "weights sum to 5/6, expected 1"),
    "all steps zero": (_doc(steps=[{"v": [0, 0], "w": 1}]),
                       MalformedFile, "all step vectors are zero"),
    "normal of wrong dimension": (
        _doc(cone={"type": "halfspaces", "normals": [[1, 0], [0, 1, 0]]}),
        MalformedFile, "normal (0.0, 1.0, 0.0) has wrong dimension"),
    "start of wrong dimension": (_doc(start=[0]), MalformedFile,
                                 "start point has wrong dimension"),
    "cone of another dimension": (
        _doc(cone={"type": "halfspaces", "normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
        MalformedFile, "cone dimension does not match step dimension"),
    "bad rational": (_doc(steps=[{"v": [1, 0], "w": "1/0"}]),
                     MalformedFile, "bad rational '1/0'"),
    "top level not an object": ("[]", MalformedFile,
                                "top-level document must be an object"),
    "steps not a list": (_doc(steps={"v": [1, 0], "w": 1}), MalformedFile,
                         "steps must be a non-empty list"),
    "no steps": (_doc(steps=[]), MalformedFile, "steps must be a non-empty list"),
    "bad step entry": (_doc(steps=[{"v": [1, 0]}]), MalformedFile, "bad step entry"),
    "cone without type": (_doc(cone={"normals": [[1, 0], [0, 1]]}), MalformedFile,
                          "cone must be an object with a 'type' field"),
    "halfspaces without normals": (_doc(cone={"type": "halfspaces"}), MalformedFile,
                                   "halfspace cone needs 'normals'"),
    "unknown cone type": (_doc(cone={"type": "wedge"}), MalformedFile,
                          "unknown cone type 'wedge'"),
}


class TestParsing:
    @pytest.mark.parametrize("source, error, message", BAD_INPUTS.values(),
                             ids=BAD_INPUTS.keys())
    def test_bad_input(self, source, error, message):
        with pytest.raises(error, match="^" + re.escape(message)) as info:
            source() if callable(source) else parse_model(source)
        assert type(info.value) is error

    def test_integer_weights(self):
        doc = {"dimension": 1, "steps": [{"v": [1], "w": 1}, {"v": [-1], "w": 3}],
               "cone": {"type": "orthant"}, "start": [0]}
        assert parse_model(json.dumps(doc), normalize=True) == _zoo.NEG_1D

    def test_simple_1d(self):
        doc = {"dimension": 1,
               "steps": [{"v": [1], "w": "1/2"}, {"v": [-1], "w": "1/2"}],
               "cone": {"type": "orthant"}, "start": [0]}
        model = parse_model(json.dumps(doc))
        assert model.small_step
        assert model.dist.drift == (F(0),)

    def test_five_step(self):
        model = parse_model(json.dumps(FIVE_STEP_DOC))
        assert model.small_step
        assert not model.trapped
        assert model.can_reach_interior

    def test_trapped(self):
        doc = {"dimension": 2,
               "steps": [{"v": [1, 0], "w": "1/2"}, {"v": [0, 1], "w": "1/2"}],
               "cone": {"type": "orthant"}, "start": [0, 0]}
        assert parse_model(json.dumps(doc)).trapped

    def test_malformed_json(self):
        with pytest.raises(MalformedFile):
            parse_model("{not json")

    def test_missing_field(self):
        with pytest.raises(MalformedFile):
            parse_model(json.dumps({"dimension": 1}))

    def test_weights_not_normalized(self):
        doc = dict(FIVE_STEP_DOC, steps=[{"v": [1, 0], "w": "1/5"},
                                         {"v": [-1, 0], "w": "1/5"}])
        with pytest.raises(WeightsNotNormalized):
            parse_model(json.dumps(doc))

    def test_normalize_flag(self):
        doc = dict(FIVE_STEP_DOC, steps=[{"v": [1, 0], "w": "1/5"},
                                         {"v": [-1, 0], "w": "1/5"}])
        with pytest.warns(UserWarning, match="no confined path"), \
                pytest.warns(DegenerateDistributionWarning, match="do not span"):
            model = parse_model(json.dumps(doc), normalize=True)
        assert all(w == F(1, 2) for _, w in model.dist.steps)

    def test_unreduced_rational_accepted(self):
        doc = dict(FIVE_STEP_DOC, steps=[{"v": [1, 0], "w": "2/4"},
                                         {"v": [-1, 0], "w": "3/6"}])
        with pytest.warns(UserWarning, match="no confined path"), \
                pytest.warns(DegenerateDistributionWarning, match="do not span"):
            model = parse_model(json.dumps(doc))
        assert all(w == F(1, 2) for _, w in model.dist.steps)

    def test_start_outside_cone(self):
        doc = dict(FIVE_STEP_DOC, start=[-1, 0])
        with pytest.raises(PointOutsideCone):
            parse_model(json.dumps(doc))

    def test_degenerate_distribution_warns(self):
        doc = {"dimension": 2,
               "steps": [{"v": [1, 1], "w": "1/2"}, {"v": [-1, -1], "w": "1/2"}],
               "cone": {"type": "orthant"}, "start": [0, 0]}
        with pytest.warns(DegenerateDistributionWarning):
            model = parse_model(json.dumps(doc))
        assert not model.dist.truly_d_dimensional

    def test_degenerate_step_sets_warn_where_they_are_built(self):
        # the default filter shows a warning once per source location, so two
        # degenerate step sets built at two lines must warn at those lines
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            StepDistribution(2, (((1, 1), F(1, 2)), ((-1, -1), F(1, 2))))
            StepDistribution(2, (((1, 0), F(1, 2)), ((-1, 0), F(1, 2))))
        assert [(w.category, w.filename) for w in caught] == [
            (DegenerateDistributionWarning, __file__)] * 2
        assert caught[1].lineno == caught[0].lineno + 1

    def test_every_way_to_build_a_model_warns_at_the_callers_line(self, tmp_path):
        # both warnings name the line that asked for the model, however many
        # of the package's frames lie between: the default filter then shows
        # two models parsed at two lines twice
        flat = (((1, 0), F(1, 2)), ((-1, 0), F(1, 2)))  # spans one axis, never enters
        text = json.dumps({"dimension": 2, "cone": {"type": "orthant"}, "start": [0, 0],
                           "steps": [{"v": list(v), "w": "1/2"} for v, _ in flat]})
        path = tmp_path / "flat.json"
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            dist = StepDistribution(2, flat)
            build_model(dist, ConeSpec.orthant(2), (0, 0))
            parse_model(text)
            parse_model(text)
            load_model(path)
            walk(dict(flat), (0, 0))
        degenerate, no_path = DegenerateDistributionWarning, UserWarning
        assert {w.filename for w in caught} == {__file__}
        assert [(w.category, w.lineno - caught[0].lineno) for w in caught] == [
            (degenerate, 0), (no_path, 1), (degenerate, 2), (no_path, 2), (degenerate, 3),
            (no_path, 3), (degenerate, 4), (no_path, 4), (degenerate, 5), (no_path, 5)]

    def test_interior_witness_searches_from_the_start(self):
        # (2, 0) -> (0, 2) -> (1, 1); from 0 no step stays in the quadrant
        doc = {"dimension": 2,
               "steps": [{"v": [-2, 2], "w": "3/11"}, {"v": [1, -1], "w": "8/11"}],
               "cone": {"type": "orthant"}, "start": [2, 0]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = parse_model(json.dumps(doc))
        assert not [w for w in caught if "no confined path" in str(w.message)]
        assert (model.interior_witness.length, model.interior_witness.target) == (2, (1, 1))

    def test_halfspace_cone(self):
        doc = dict(FIVE_STEP_DOC,
                   cone={"type": "halfspaces", "normals": [[1, 0], [0, 1]]})
        model = parse_model(json.dumps(doc))
        assert not model.cone.is_orthant
        assert model.cone.contains((3, 0))
        assert not model.cone.contains((-1, 2))

    def test_empty_cone_interior(self):
        doc = dict(FIVE_STEP_DOC,
                   cone={"type": "halfspaces", "normals": [[1, 0], [-1, 0]],
                         },
                   start=[0, 0])
        with pytest.raises(EmptyConeInterior):
            parse_model(json.dumps(doc))

    def test_thin_float_cone_has_an_interior(self):
        # (1, 2e10 + 1) lies strictly inside, but the margin at |x_i| <= 1 is
        # only 5e-11: a float tolerance of 1e-9 would call the cone empty
        cone = ConeSpec.polyhedral([[1, 0], [-1, 1e-10]])
        assert cone.strictly_contains((1, 2 * 10 ** 10 + 1))

    def test_duplicate_step(self):
        doc = dict(FIVE_STEP_DOC, steps=[{"v": [1, 0], "w": "1/2"},
                                         {"v": [1, 0], "w": "1/2"}])
        with pytest.raises(MalformedFile):
            parse_model(json.dumps(doc))

    @pytest.mark.parametrize("dimension", [2.9, 2.0, "2", True, None, [2]])
    def test_dimension_must_be_an_integer(self, dimension):
        with pytest.raises(MalformedFile, match="dimension must be integers"):
            parse_model(json.dumps(dict(FIVE_STEP_DOC, dimension=dimension)))

    @pytest.mark.parametrize("v", [[1.5, 0], [1.0, 0], ["1", 0], [True, 0], 1, "10"])
    def test_step_vector_must_be_integers(self, v):
        steps = [dict(FIVE_STEP_DOC["steps"][0], v=v)] + FIVE_STEP_DOC["steps"][1:]
        with pytest.raises(MalformedFile, match="step vector must be integers"):
            parse_model(json.dumps(dict(FIVE_STEP_DOC, steps=steps)))

    @pytest.mark.parametrize("start", [[0.9, "0"], [0.0, 0], [True, 0], [0, False], 0])
    def test_start_must_be_integers(self, start):
        with pytest.raises(MalformedFile, match="start must be integers"):
            parse_model(json.dumps(dict(FIVE_STEP_DOC, start=start)))

    def test_library_start_must_be_integers(self, five_step_model):
        with pytest.raises(MalformedFile, match="start must be integers"):
            build_model(five_step_model.dist, five_step_model.cone, (0.9, 0))
        with pytest.raises(MalformedFile, match="start must be integers"):
            replace(five_step_model, start=(0.5, 0))
        start = build_model(five_step_model.dist, five_step_model.cone,
                            np.array([1, 2])).start
        assert start == (1, 2) and all(type(c) is int for c in start)

    @pytest.mark.parametrize("dimension", ["2", 2.5, True, 0])
    def test_library_cone_dimension(self, dimension):
        with pytest.raises(MalformedFile, match="dimension must be"):
            ConeSpec.orthant(dimension)

    @pytest.mark.parametrize("v", [(1.5,), (True,)])
    def test_library_step_vector_must_be_integers(self, v):
        with pytest.raises(MalformedFile, match="step vector must be integers"):
            StepDistribution(1, ((v, F(1, 2)), ((-1,), F(1, 2))))

    @pytest.mark.parametrize("w", [0.5, "1/2", True])
    def test_library_weight_must_be_rational(self, w):
        with pytest.raises(MalformedFile, match="must be a Fraction or integer"):
            StepDistribution(1, (((1,), w), ((-1,), F(1, 2))))

    @pytest.mark.parametrize("c", ["1", True, float("nan"), float("inf"), -float("inf"),
                                   10 ** 400])
    def test_normal_must_be_finite_numbers(self, c):
        with pytest.raises(MalformedFile, match="normal must be finite numbers"):
            ConeSpec.polyhedral([[c, 0], [0, 1]])

    @pytest.mark.parametrize("normals, match", [
        ("ab", "needs a list of normals"), ({"a": [1, 0]}, "needs a list of normals"),
        ([5, 6], "normal must be finite")])
    def test_normals_must_be_a_list_of_lists(self, normals, match):
        with pytest.raises(MalformedFile, match=match):
            ConeSpec.polyhedral(normals)

    def test_weight_is_not_a_bool(self):
        steps = [{"v": [1], "w": True}, {"v": [-1], "w": 0}]
        doc = {"dimension": 1, "steps": steps, "cone": {"type": "orthant"}, "start": [0]}
        with pytest.raises(MalformedFile, match="must be a 'p/q' string or integer"):
            parse_model(json.dumps(doc))


class TestBruteForce:
    def test_1d_symmetric(self, sym_1d):
        assert brute_force_survival(sym_1d, 3) == [F(1), F(1, 2), F(1, 2), F(3, 8)]

    def test_trapped_constant(self, trapped_2d):
        assert brute_force_survival(trapped_2d, 5) == [F(1)] * 6

    def test_five_step_two_layers(self, five_step_model):
        assert brute_force_survival(five_step_model, 2) == [F(1), F(3, 5), F(13, 25)]

    def test_excursion_empty_path(self, five_step_model):
        assert brute_force_excursion(five_step_model, (0, 0), 0) == [F(1)]

    def test_excursion_five_step(self, five_step_model):
        e = brute_force_excursion(five_step_model, (0, 0), 2)
        assert e == [F(1), F(0), F(2, 25)]

    def test_excursion_1d(self, sym_1d):
        e = brute_force_excursion(sym_1d, (0,), 2)
        assert e[2] == F(1, 4)

    def test_horizon_guard(self, sym_1d):
        with pytest.raises(HorizonTooLarge):
            brute_force_survival(sym_1d, 15)

    def test_path_count_guard(self, five_step_model):
        with pytest.raises(HorizonTooLarge, match="^5\\^12 paths exceed the guard"):
            brute_force_survival(five_step_model, 12)

    def test_excursion_target_outside(self, five_step_model):
        with pytest.raises(PointOutsideCone):
            brute_force_excursion(five_step_model, (-1, 0), 2)

    @pytest.mark.parametrize("target", [(0,), (0, 0, 0), (0, -1), (0.7, 0), (0.0, 0),
                                        (True, 0), ("0", 0), 0])
    def test_excursion_target_shares_the_dp_rule(self, five_step_model, target):
        for excursion in (brute_force_excursion, excursion_sequence):
            with pytest.raises(PointOutsideCone):
                excursion(five_step_model, target, 2)

    def test_numpy_integer_target(self, five_step_model):
        assert (excursion_sequence(five_step_model, np.array([0, 0]), 4)
                == excursion_sequence(five_step_model, (0, 0), 4))

    def test_survival_non_increasing(self, five_step_model):
        a = brute_force_survival(five_step_model, 6)
        assert all(x >= y for x, y in zip(a, a[1:]))
        assert all(0 <= x <= 1 for x in a)

    def test_mass_conservation(self, five_step_model):
        # excursion masses over all reachable endpoints sum to the survival term
        n = 4
        a = brute_force_survival(five_step_model, n)
        total = sum(
            brute_force_excursion(five_step_model, (i, j), n)[n]
            for i in range(0, n + 2) for j in range(0, n + 2)
        )
        assert total == a[n]


@st.composite
def small_models(draw):
    d = draw(st.integers(1, 2))
    vectors = draw(st.lists(
        st.tuples(*[st.integers(-1, 1)] * d).filter(lambda v: any(v)),
        min_size=1, max_size=4, unique=True,
    ))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(vectors),
                            max_size=len(vectors)))
    total = sum(weights)
    steps = tuple((v, F(w, total)) for v, w in zip(vectors, weights))
    start = tuple(draw(st.integers(0, 2)) for _ in range(d))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        dist = StepDistribution(d, steps)
        return build_model(dist, ConeSpec.orthant(d), start)


class TestRandomizedModels:
    @settings(max_examples=25, deadline=None)
    @given(small_models())
    def test_survival_bounds_and_monotone(self, model):
        a = brute_force_survival(model, 5)
        assert a[0] == 1
        assert all(0 <= x <= 1 for x in a)
        assert all(x >= y for x, y in zip(a, a[1:]))

    @settings(max_examples=15, deadline=None)
    @given(small_models())
    def test_trapped_iff_all_steps_confined(self, model):
        a = brute_force_survival(model, 4)
        if model.trapped:
            assert all(x == 1 for x in a)


# Beale's LP: max 3/4 y0 - 20 y1 + 1/2 y2 - 6 y3 over y >= 0 and the first
# three rows, optimum 5/4.  The last row asks for an objective of at least
# its -rhs, so phase 1 runs the simplex on Beale's objective from the
# degenerate vertex 0, where the largest-coefficient rule cycles.
BEALE_ROWS = [[F(1, 4), -8, -1, 9], [F(1, 2), -12, F(-1, 2), 3], [0, 0, 1, 0],
              [F(-3, 4), 20, F(-1, 2), 6]]


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 5))
    entries = st.integers(-3, 3)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    rhs = draw(st.lists(entries, min_size=m, max_size=m))
    free = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return rows, rhs, free


class TestFeasible:
    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    def test_agrees_with_linprog(self, system):
        rows, rhs, free = system
        linprog = pytest.importorskip("scipy.optimize").linprog
        res = linprog(np.zeros(len(free)), A_ub=rows, b_ub=rhs,
                      bounds=[(None, None) if f else (0, None) for f in free],
                      method="highs")
        assert res.status in (0, 2)  # feasible or infeasible
        assert _feasible(rows, rhs, free) == (res.status == 0)

    def test_beale_cycling_lp_terminates(self):
        # a rule that cycles never returns: run in a child with a timeout
        code = (
            "from fractions import Fraction\n"
            "from conewalk.model import _feasible\n"
            f"rows = {BEALE_ROWS!r}\n"
            "print(_feasible(rows, [0, 0, 1, Fraction(-5, 4)], [False] * 4),\n"
            "      _feasible(rows, [0, 0, 1, Fraction(-126, 100)], [False] * 4))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "False"]


def test_public_surface_is_pinned():
    """Every name ``from conewalk import *`` exports; adding one is a
    deliberate change to this list."""
    assert sorted(conewalk.__all__) == [
        "ConeSpec", "ConewalkError", "DriftClass", "EscapeBounds", "ExactSequence",
        "LaplaceAnalysis", "McEstimate", "NoRecurrenceUpTo", "OneDimModel",
        "RecurrenceModel", "SequenceVerdict", "StateLayer", "StepDistribution",
        "WalkModel", "analyze", "asymptotic_reference", "brute_force_excursion",
        "brute_force_survival", "build_model", "classify_drift",
        "closed_form_coefficients", "escape_prob_1d", "escape_probability_bounds",
        "estimate_rho", "excursion_exponent_fit", "excursion_sequence",
        "guess_recurrence", "laplace_eval", "load_model", "minimize_global",
        "minimize_over_dual", "parse_model", "sequence_verdict",
        "simulate_survival", "simulate_tilted", "subexponential_profile",
        "survival_layers", "survival_sequence", "tilt_distribution",
        "tilted_survival_functional",
    ]
