import math
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from conewalk import (
    ConeSpec,
    DriftClass,
    StepDistribution,
    analyze,
    classify_drift,
    laplace_eval,
    minimize_global,
    minimize_over_dual,
    tilt_distribution,
)
from conewalk._zoo import EXTERIOR, FIVE_STEP, NEG_1D, POS_1D, SYM_1D, walk
from conewalk.errors import NoGlobalMinimum, Unbounded
from conewalk.laplace import ARMIJO_C, DEFAULT_TOL, MAX_ITER, _dual_generators


EXTERIOR_2D = EXTERIOR.dist

# steps +-e_i with weights 1/12 up, 1/4 down: drift -1/3 in every coordinate
EXTERIOR_3D = walk({
    tuple(s if j == i else 0 for j in range(3)): F(1, 12) if s > 0 else F(1, 4)
    for i in range(3) for s in (1, -1)
}, (0, 0, 0)).dist

# rank 1: L is constant along (1, 1), and no step enters the quarter plane
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    ANTIDIAGONAL = walk({(-2, 2): F(3, 11), (1, -1): F(8, 11)}, (0, 0)).dist


class TestEval:
    def test_normalization_at_zero(self):
        d = SYM_1D.dist
        v, g, h = laplace_eval(d, [0.0])
        assert v == pytest.approx(1.0)
        assert g[0] == pytest.approx(0.0)

    def test_negative_drift_saddle(self):
        d = NEG_1D.dist
        v, g, _ = laplace_eval(d, [math.log(3) / 2])
        assert v == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
        assert g[0] == pytest.approx(0.0, abs=1e-14)

    def test_five_step_gradient(self):
        d = FIVE_STEP.dist
        v, g, _ = laplace_eval(d, [0.0, 0.0])
        assert v == pytest.approx(1.0)
        assert g == pytest.approx([0.2, 0.2])

    def test_large_exponent_factoring(self):
        d = SYM_1D.dist
        v, g, h = laplace_eval(d, [600.0])
        assert math.isfinite(v) and v > 0

    def test_gradient_hessian_match_finite_differences(self):
        rng = np.random.default_rng(11)
        d = FIVE_STEP.dist
        for _ in range(5):
            t = rng.uniform(-1, 1, size=2)
            _, g, h = laplace_eval(d, t)
            eps = 1e-5
            for i in range(2):
                e = np.zeros(2)
                e[i] = eps
                vp, gp, _ = laplace_eval(d, t + e)
                vm, gm, _ = laplace_eval(d, t - e)
                fd = (vp - vm) / (2 * eps)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i]))
                fd_h = (gp - gm) / (2 * eps)
                assert np.allclose(fd_h, h[i], rtol=1e-6, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(0, 1))
    def test_convexity_on_segments(self, s, t, alpha):
        d = walk({(1,): F(1, 3), (-1,): F(2, 3)}, (0,)).dist
        vs, _, _ = laplace_eval(d, [s])
        vt, _, _ = laplace_eval(d, [t])
        vm, _, _ = laplace_eval(d, [alpha * s + (1 - alpha) * t])
        assert vm <= alpha * vs + (1 - alpha) * vt + 1e-12


class TestClassifyDrift:
    def test_interior(self):
        d = FIVE_STEP.dist
        assert d.drift == (F(1, 5), F(1, 5))
        assert classify_drift(d.drift, ConeSpec.orthant(2)) is DriftClass.INTERIOR

    def test_boundary(self):
        d = SYM_1D.dist
        assert classify_drift(d.drift, ConeSpec.orthant(1)) is DriftClass.BOUNDARY

    def test_exterior(self):
        d = NEG_1D.dist
        assert d.drift == (F(-1, 2),)
        assert classify_drift(d.drift, ConeSpec.orthant(1)) is DriftClass.EXTERIOR

    @pytest.mark.parametrize("d", [1, 2])
    def test_identity_normals_classify_like_the_orthant(self, d):
        # drift exactly 1e-13 in every coordinate: below the float tolerance,
        # but the integer normals are tested exactly
        eps = F(1, 2 * 10 ** 13)
        dist = walk({
            tuple(s if j == i else 0 for j in range(d)): F(1, 2 * d) + s * eps
            for i in range(d) for s in (1, -1)
        }, (0,) * d).dist
        assert dist.drift == (F(1, 10 ** 13),) * d
        identity = ConeSpec.polyhedral(np.eye(d).tolist())
        for cone in (ConeSpec.orthant(d), identity):
            assert classify_drift(dist.drift, cone) is DriftClass.INTERIOR


class TestMinimizeOverDual:
    def test_negative_drift_1d(self):
        t0, rho, resid = minimize_over_dual(NEG_1D.dist, ConeSpec.orthant(1))
        assert t0[0] == pytest.approx(math.log(3) / 2, abs=1e-10)
        assert rho == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert resid <= 1e-12

    def test_positive_drift_sticks_to_zero(self):
        t0, rho, _ = minimize_over_dual(POS_1D.dist, ConeSpec.orthant(1))
        assert t0[0] == pytest.approx(0.0, abs=1e-12)
        assert rho == pytest.approx(1.0, abs=1e-12)

    def test_exterior_2d(self):
        t0, rho, _ = minimize_over_dual(EXTERIOR_2D, ConeSpec.orthant(2))
        assert t0 == pytest.approx([math.log(2) / 2] * 2, abs=1e-10)
        assert rho == pytest.approx(2 * math.sqrt(2) / 3, abs=1e-12)

    def test_unbounded_when_support_one_sided(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = StepDistribution(1, (((-1,), F(1)),))
        with pytest.raises(Unbounded):
            minimize_over_dual(d, ConeSpec.orthant(1))

    def test_polyhedral_matches_orthant(self):
        # identity normals reproduce the orthant's t0, rho and residual bit for bit
        for dist in (EXTERIOR_2D, EXTERIOR_3D):
            d = dist.dimension
            identity = ConeSpec.polyhedral(np.eye(d).tolist())
            got, want = (minimize_over_dual(dist, cone)
                         for cone in (identity, ConeSpec.orthant(d)))
            for a, b in zip(got, want):
                assert [float(c).hex() for c in np.atleast_1d(a)] == \
                    [float(c).hex() for c in np.atleast_1d(b)]
            assert got[2] <= 1e-12

    @pytest.mark.parametrize("dist, normals, rho_want", [
        (EXTERIOR_2D, [[1, 0], [1, 1], [0, 1]], 2 * math.sqrt(2) / 3),
        (EXTERIOR_3D, [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
         0.8805833483398281),
    ])
    def test_non_simplicial_cone(self, dist, normals, rho_want):
        # more normals than dimensions: the Hessian in the generator
        # coefficients is singular
        t0, rho, resid = minimize_over_dual(dist, ConeSpec.polyhedral(normals))
        assert resid <= 1e-12
        assert rho == pytest.approx(rho_want, abs=1e-12)

    @pytest.mark.parametrize("steps, rho_want", [
        ({(-2, 2): F(3, 4), (1, -1): F(1, 4)}, 3 / 8 * 6 ** (1 / 3)),
        ({(-1, -1): F(7, 13), (1, 1): F(6, 13)}, 2 * math.sqrt(42) / 13),
    ], ids=["antidiagonal", "diagonal"])
    def test_redundant_normal_is_dropped(self, steps, rho_want):
        # x + y >= 0 follows from x, y >= 0; as a third generator of the dual
        # cone it stalls the projected Newton on these collinear steps
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dist = walk(steps, (0, 0)).dist
        got = minimize_over_dual(dist, ConeSpec.polyhedral([[1, 0], [1, 1], [0, 1]]))
        want = minimize_over_dual(dist, ConeSpec.orthant(2))
        for a, b in zip(got, want):
            assert [float(c).hex() for c in np.atleast_1d(a)] == \
                [float(c).hex() for c in np.atleast_1d(b)]
        assert got[1] == pytest.approx(rho_want, abs=1e-12)


@pytest.mark.parametrize("normals, kept", [
    ([[1, 0], [1, 1], [0, 1]], [[1, 0], [0, 1]]),
    ([[1, 0], [2, 0], [0, 1]], [[2, 0], [0, 1]]),  # one of two parallel normals
    ([[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]],
     [[1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]]),
])
def test_dual_generators(normals, kept):
    a = ConeSpec.polyhedral(normals).halfspace_normals
    assert _dual_generators(a).tolist() == kept


class TestMinimizeGlobal:
    def test_symmetric_minimum_at_origin(self):
        t, rho = minimize_global(SYM_1D.dist)
        assert t[0] == pytest.approx(0.0, abs=1e-12)
        assert rho == pytest.approx(1.0)

    def test_interior_minimum(self):
        t, rho = minimize_global(NEG_1D.dist)
        assert t[0] == pytest.approx(math.log(3) / 2, abs=1e-10)
        assert rho == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_half_space_support_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            d = StepDistribution(1, (((1,), F(1)),))
        with pytest.raises(NoGlobalMinimum):
            minimize_global(d)

    def test_collinear_support_has_a_minimizer(self):
        # 0 is in the relative interior of the step hull, not its interior:
        # L is constant along (1, 1) and minimal on a whole line
        d = ANTIDIAGONAL
        t, rho = minimize_global(d)
        # L = 3/11 e^{2s} + 8/11 e^{-s} in s = t_2 - t_1, minimal at e^{3s} = 4/3
        assert t[1] - t[0] == pytest.approx(math.log(4 / 3) / 3, abs=1e-10)
        assert rho == pytest.approx(3 / 11 * (4 / 3) ** (2 / 3)
                                    + 8 / 11 * (4 / 3) ** (-1 / 3), abs=1e-12)

    def test_matches_plain_newton_bit_for_bit(self):
        rng = np.random.default_rng(909)
        dists = [ANTIDIAGONAL]
        dists += [random_orthant_dist(rng, 1 + i % 3) for i in range(150)]
        compared = 0
        for dist in dists:
            vecs = np.asarray([v for v, _ in dist.steps], dtype=float)
            if not _zero_in_relative_interior(vecs):
                with pytest.raises(NoGlobalMinimum):
                    minimize_global(dist)
                continue
            got, want = minimize_global(dist), _reference_newton(dist)
            for a, b in zip(got, want):
                assert [float(c).hex() for c in np.atleast_1d(a)] == \
                    [float(c).hex() for c in np.atleast_1d(b)]
            compared += 1
        assert compared >= 90


@pytest.mark.parametrize("e", [30, 50, 100])
def test_far_minimum_matches_closed_form(e):
    # steps +1 at eps and -1 at 1 - eps: t0 = ln((1 - eps)/eps)/2 and
    # rho = 2 sqrt(eps (1 - eps)), with L(t0) far below the stopping tolerance
    eps = F(1, 10 ** e)
    dist = walk({(1,): eps, (-1,): 1 - eps}, (0,)).dist
    t_want = math.log(10 ** e - 1) / 2
    rho_want = 2 * math.sqrt(float(eps * (1 - eps)))
    t0, rho, _ = minimize_over_dual(dist, ConeSpec.orthant(1))
    tg, rg = minimize_global(dist)
    for t, r in ((t0, rho), (tg, rg)):
        assert t[0] == pytest.approx(t_want, rel=1e-9)
        assert r == pytest.approx(rho_want, rel=1e-9)


def _reference_newton(dist):
    """Plain Newton with an Armijo search for the unconstrained minimum of L,
    stopping on the minimizers' relative gradient test."""
    t = np.zeros(dist.dimension)
    for _ in range(MAX_ITER):
        val, g, h = laplace_eval(dist, t)
        if float(np.linalg.norm(g, ord=np.inf)) <= DEFAULT_TOL * val:
            return t, val
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step = -g
        if g @ step >= 0:
            step = -g
        alpha = 1.0
        while alpha > 1e-18:
            tn = t + alpha * step
            vn, _, _ = laplace_eval(dist, tn)
            if vn <= val + ARMIJO_C * alpha * float(g @ step) + 4e-16 * abs(val):
                break
            alpha *= 0.5
        t = tn
    raise AssertionError("reference Newton did not converge")


def _zero_in_relative_interior(vecs):
    """True iff 0 is in the relative interior of the hull of the rows: the
    max delta with theta >= delta, sum theta = 1, sum theta_v v = 0 is > 0."""
    k, d = vecs.shape
    a_eq = np.vstack([np.hstack([vecs.T, np.zeros((d, 1))]),
                      np.append(np.ones(k), 0.0)])
    res = linprog(np.append(np.zeros(k), -1.0),
                  A_ub=np.hstack([-np.eye(k), np.ones((k, 1))]), b_ub=np.zeros(k),
                  A_eq=a_eq, b_eq=np.append(np.zeros(d), 1.0),
                  bounds=[(None, None)] * k + [(None, 1)], method="highs")
    return bool(res.success and res.x[-1] > 1e-12)


class TestTilt:
    def test_zero_tilt_is_identity(self):
        d = NEG_1D.dist
        tilted, drift = tilt_distribution(d, [0.0])
        for (v, w), (_, orig) in zip(tilted, d.steps):
            assert w == pytest.approx(float(orig))
        assert drift[0] == pytest.approx(-0.5)

    def test_tilt_centers_negative_drift(self):
        d = NEG_1D.dist
        tilted, drift = tilt_distribution(d, [math.log(3) / 2])
        weights = dict((v, w) for v, w in tilted)
        assert weights[(1,)] == pytest.approx(0.5, abs=1e-12)
        assert weights[(-1,)] == pytest.approx(0.5, abs=1e-12)
        assert drift[0] == pytest.approx(0.0, abs=1e-12)

    def test_tilt_centers_2d(self):
        t0, _, _ = minimize_over_dual(EXTERIOR_2D, ConeSpec.orthant(2))
        tilted, drift = tilt_distribution(EXTERIOR_2D, t0)
        assert sum(w for _, w in tilted) == pytest.approx(1.0, abs=1e-12)
        assert drift == pytest.approx([0.0, 0.0], abs=1e-10)

    def test_tilt_then_reanalyze_gives_zero_minimizer(self):
        t0, rho, _ = minimize_over_dual(EXTERIOR_2D, ConeSpec.orthant(2))
        tilted, _ = tilt_distribution(EXTERIOR_2D, t0)
        # L*(t) = L(t0 + t)/L(t0): evaluate directly, minimum must sit at 0
        for probe in ([0.01, 0.0], [0.0, 0.01], [-0.01, -0.01]):
            v0, _, _ = laplace_eval(EXTERIOR_2D, t0)
            vp, _, _ = laplace_eval(EXTERIOR_2D, np.asarray(t0) + probe)
            assert vp / v0 >= 1.0 - 1e-12


def random_orthant_dist(rng, d):
    vectors = set()
    while len(vectors) < 3 + d:
        v = tuple(int(c) for c in rng.integers(-2, 3, size=d))
        if any(v):
            vectors.add(v)
    vectors = sorted(vectors)
    raw = [int(w) for w in rng.integers(1, 10, size=len(vectors))]
    total = sum(raw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return StepDistribution(d, tuple(
            (v, F(w, total)) for v, w in zip(vectors, raw)))


class TestKktGeometry:
    def test_gradient_in_cone_and_orthogonal(self):
        rng = np.random.default_rng(2024)
        checked = 0
        for trial in range(40):
            d = int(rng.integers(1, 4))
            dist = random_orthant_dist(rng, d)
            if not dist.truly_d_dimensional:
                continue
            try:
                t0, rho, _ = minimize_over_dual(dist, ConeSpec.orthant(d))
            except Unbounded:
                continue
            _, g, _ = laplace_eval(dist, t0)
            assert (g >= -1e-9).all()                       # gradient in the cone
            assert abs(float(np.dot(t0, g))) <= 1e-9        # orthogonal to t0
            cls = classify_drift(dist.drift, ConeSpec.orthant(d))
            if cls in (DriftClass.INTERIOR, DriftClass.BOUNDARY):
                assert rho == pytest.approx(1.0, abs=1e-8)
            else:
                assert rho < 1.0 - 1e-10
            checked += 1
        assert checked >= 20


class TestAnalyze:
    def test_bundle_consistency(self):
        an = analyze(EXTERIOR_2D, ConeSpec.orthant(2))
        assert an.classification is DriftClass.EXTERIOR
        assert 0 < an.rho <= 1
        assert an.rho_global is not None and an.rho_global <= an.rho + 1e-12
        assert sum(w for _, w in an.tilted_steps) == pytest.approx(1.0, abs=1e-12)
        assert an.kkt_residual <= 1e-12
