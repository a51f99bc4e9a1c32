"""Increment Laplace transform: evaluation, drift classification, the two
minimizations and the exponential change of measure.

Survival decays at rho = min L over the dual cone, excursions at
rho_global = min L over all of R^d. Both are one projected Newton on the
coefficients lam of t = A^T lam: the dual cone takes the halfspace normals
with lam >= 0, R^d the identity with no bound. One exact recession test over
the same (A, bound) decides beforehand whether the minimum exists.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoGlobalMinimum, NotConverged, Overflow, Unbounded
from .model import ConeSpec, StepDistribution, _feasible

DEFAULT_TOL = 1e-12
MAX_ITER = 200
ARMIJO_C = 1e-4
EXP_GUARD = 700.0


class DriftClass(enum.Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


def laplace_eval(dist: StepDistribution, t):
    """Value, gradient and Hessian of L(t) = sum_v w_v exp(<t, v>).

    Large exponents are handled by factoring out the maximum before summing.
    """
    t = np.asarray(t, dtype=float)
    vecs = np.asarray([v for v, _ in dist.steps], dtype=float)
    wts = np.asarray([float(w) for _, w in dist.steps])
    expo = vecs @ t
    shift = max(float(expo.max()), 0.0)
    scaled = wts * np.exp(expo - shift)
    s = float(scaled.sum())
    if shift > EXP_GUARD and shift + math.log(s) > EXP_GUARD:
        raise Overflow("transform value exceeds the representable range")
    factor = math.exp(shift)
    value = s * factor
    grad = (vecs.T @ scaled) * factor
    hess = (vecs.T * scaled) @ vecs * factor
    if not (math.isfinite(value) and np.isfinite(grad).all() and np.isfinite(hess).all()):
        raise Overflow("transform value exceeds the representable range")
    return value, grad, hess


def classify_drift(m, cone: ConeSpec) -> DriftClass:
    """Position of the mean increment relative to the cone.

    Exact against integer normals (the orthant's included) when ``m`` holds
    rationals; against other normals a product within ``DEFAULT_TOL`` of 0
    counts as 0.
    """
    mv = np.asarray([float(c) for c in m])
    prods = [(sum(int(c) * x for c, x in zip(a, m)), 0) if exact
             else (float(a @ mv), DEFAULT_TOL)
             for a, exact in zip(cone.halfspace_normals, cone.integer_normals)]
    if all(p > eps for p, eps in prods):
        return DriftClass.INTERIOR
    if any(p < -eps for p, eps in prods):
        return DriftClass.EXTERIOR
    return DriftClass.BOUNDARY


def _has_recession_direction(dist: StepDistribution, a, lower) -> bool:
    """True iff some u = A^T lam with lam >= lower has <u, v> <= 0 for every
    step v with at least one strict inequality, so L decreases along u forever.

    With the identity and no bound this is the test over all of R^d: by
    Stiemke's lemma it fails exactly when 0 lies in the relative interior of
    the convex hull of the steps.
    """
    # each lam_j may be rescaled, so a_j can be scaled to an integer vector
    normals = []
    for row in a:
        exact = [Fraction(c) for c in row]
        den = math.lcm(*(x.denominator for x in exact))
        normals.append([int(x * den) for x in exact])
    prods = [[sum(c * x for c, x in zip(v, n)) for n in normals]  # <v, a_j> * den_j
             for v, _ in dist.steps]
    rows = prods + [[sum(col) for col in zip(*prods)]]
    return _feasible(rows, [0] * len(prods) + [-1], [bool(np.isneginf(lower))] * len(a))


def _dual_generators(a):
    """The rows of ``a`` less every row that is a nonnegative combination of
    the rows kept; they generate the same dual cone.

    A redundant generator can stall the projected Newton: collinear steps over
    {x >= 0, x + y >= 0, y >= 0} did not converge in its three coefficients.
    """
    keep = list(range(len(a)))
    for j in range(len(a)):
        others = [a[i] for i in keep if i != j]
        # a_j = sum lam_i a_i with lam >= 0, the equality as two inequalities
        rows = [[o[c] for o in others] for c in range(a.shape[1])]
        rows += [[-x for x in row] for row in rows]
        if _feasible(rows, list(a[j]) + list(-a[j]), [False] * len(others)):
            keep.remove(j)
    return a if len(keep) == len(a) else a[keep]


def _projected_newton(dist: StepDistribution, a, lower):
    """Minimize L(A^T lam) over lam >= lower; returns (t, L(t), residual).

    Gradient A grad L, Hessian A hess L A^T, with the Newton step taken on
    the coordinates that are not held at the bound. At lower = -inf every
    coordinate is free and this is plain Newton with an Armijo line search.
    """
    m = a.shape[0]
    lam = np.zeros(m)
    for it in range(MAX_ITER + 1):
        t = a.T @ lam
        val, g, h = laplace_eval(dist, t)
        gl = a @ g
        # complementarity: coordinates at the bound need gl >= 0, free ones gl = 0;
        # gl scales with L, so the test is relative to it
        resid = float(np.abs(np.minimum(lam - lower, gl)).max())
        if resid <= DEFAULT_TOL * val:
            return t, val, resid
        if it == MAX_ITER:
            raise NotConverged(f"projected Newton stalled at residual {resid:.3e}")
        free = (lam - lower > 1e-14) | (gl <= 0)
        direction = np.zeros(m)
        if free.any():
            gf = gl[free]
            hf = (a @ h @ a.T)[np.ix_(free, free)]
            try:
                step = np.linalg.solve(hf, -gf)
            except np.linalg.LinAlgError:
                step = -gf
            if gf @ step >= 0:  # not a descent direction
                step = -gf
            direction[free] = step
        else:
            direction = -gl
        alpha = 1.0
        while alpha > 1e-18:
            ln = np.maximum(lam + alpha * direction, lower)
            vn, _, _ = laplace_eval(dist, a.T @ ln)
            # accept once the modelled decrease falls below float resolution of L
            if vn <= val + ARMIJO_C * float(gl @ (ln - lam)) + 4e-16 * abs(val):
                break
            alpha *= 0.5
        lam = ln


def minimize_over_dual(dist: StepDistribution, cone: ConeSpec):
    """Minimize L over the dual cone; returns (t0, rho, kkt_residual).

    The dual cone is {A^T lam : lam >= 0}, A the halfspace normals (the
    identity for the orthant) less the redundant ones.
    """
    a = _dual_generators(cone.halfspace_normals)
    if _has_recession_direction(dist, a, 0.0):
        raise Unbounded(
            "transform decreases forever along a dual-cone direction; "
            "no dual-cone minimum exists"
        )
    return _projected_newton(dist, a, 0.0)


def minimize_global(dist: StepDistribution):
    """Unconstrained minimum of L; returns (t0_global, rho_global)."""
    a = np.eye(dist.dimension)
    if _has_recession_direction(dist, a, -np.inf):
        raise NoGlobalMinimum("0 is not in the relative interior of the step hull; "
                              "no global minimum exists")
    t, val, _ = _projected_newton(dist, a, -np.inf)
    return t, val


def tilt_distribution(dist: StepDistribution, t0):
    """Exponentially tilted step weights w_v e^{<t0,v>} / L(t0).

    Returns (tilted steps as (vector, float weight) pairs, tilted drift).
    """
    t0 = np.asarray(t0, dtype=float)
    val, grad, _ = laplace_eval(dist, t0)
    tilted = [
        (v, float(w) * math.exp(float(t0 @ np.asarray(v, dtype=float))) / val)
        for v, w in dist.steps
    ]
    drift = grad / val
    return tilted, drift


@dataclass(frozen=True)
class LaplaceAnalysis:
    """Bundle of everything the rest of the pipeline needs from L."""

    t0: tuple[float, ...]
    rho: float
    drift: tuple[Fraction, ...]
    classification: DriftClass
    kkt_residual: float
    tilted_steps: tuple[tuple[tuple[int, ...], float], ...]
    tilted_drift: tuple[float, ...]
    t0_global: tuple[float, ...] | None = None
    rho_global: float | None = None


def analyze(dist: StepDistribution, cone: ConeSpec) -> LaplaceAnalysis:
    """Run the full transform analysis for a model."""
    t0, rho, resid = minimize_over_dual(dist, cone)
    drift = dist.drift
    cls = classify_drift(drift, cone)
    tilted, tdrift = tilt_distribution(dist, t0)
    try:
        tg, rg = minimize_global(dist)
        t0_global, rho_global = tuple(float(c) for c in tg), float(rg)
    except NoGlobalMinimum:
        t0_global, rho_global = None, None
    return LaplaceAnalysis(
        t0=tuple(float(c) for c in t0),
        rho=float(rho),
        drift=drift,
        classification=cls,
        kkt_residual=float(resid),
        tilted_steps=tuple((v, w) for v, w in tilted),
        tilted_drift=tuple(float(c) for c in tdrift),
        t0_global=t0_global,
        rho_global=rho_global,
    )
