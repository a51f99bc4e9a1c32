"""Increment Laplace transform: evaluation, drift classification, minimization
over the dual cone, and the exponential change of measure."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .errors import NoGlobalMinimum, NotConverged, Overflow, Unbounded
from .model import ConeSpec, StepDistribution

DEFAULT_TOL = 1e-12
MAX_ITER = 200
UNBOUNDED_RADIUS = 50.0
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


def classify_drift(m, cone: ConeSpec, tol: float = 1e-12) -> DriftClass:
    """Position of the mean increment relative to the cone.

    Exact against integer normals (the orthant's included) when ``m`` holds
    rationals; against other normals a product within ``tol`` of 0 counts
    as 0.
    """
    mv = np.asarray([float(c) for c in m])
    prods = [(sum(int(c) * x for c, x in zip(a, m)), 0) if exact else (float(a @ mv), tol)
             for a, exact in zip(cone.halfspace_normals, cone.integer_normals)]
    if all(p > eps for p, eps in prods):
        return DriftClass.INTERIOR
    if any(p < -eps for p, eps in prods):
        return DriftClass.EXTERIOR
    return DriftClass.BOUNDARY


def _check_unbounded(t, trace):
    if float(np.linalg.norm(t)) > UNBOUNDED_RADIUS and all(
        b <= a + 1e-15 for a, b in zip(trace, trace[1:])
    ):
        raise Unbounded(
            "transform decreases monotonically beyond the search radius; "
            "no dual-cone minimum exists"
        )


def _has_recession_direction(dist: StepDistribution, cone: ConeSpec) -> bool:
    """True iff some dual-cone direction u has <u, v> <= 0 for every step v
    with at least one strict inequality, so L decreases along u forever."""
    vecs = np.asarray([v for v, _ in dist.steps], dtype=float)
    k = vecs.shape[0]
    # u = G^T lam, lam >= 0, over the dual-cone generators G
    g = cone.halfspace_normals
    prods = vecs @ g.T  # <v, g_j>
    a_ub = np.vstack([prods, prods.sum(axis=0)])
    b_ub = np.concatenate([np.zeros(k), [-1.0]])
    res = linprog(np.zeros(g.shape[0]), A_ub=a_ub, b_ub=b_ub,
                  bounds=(0, None), method="highs")
    return bool(res.success)


def _armijo_ok(vn, val, predicted):
    # accept once the modelled decrease falls below float resolution of L
    return vn <= val + ARMIJO_C * predicted + 4e-16 * abs(val)


def minimize_over_dual(dist: StepDistribution, cone: ConeSpec, tol: float = DEFAULT_TOL):
    """Minimize L over the dual cone; returns (t0, rho, kkt_residual).

    The dual cone is {A^T lam : lam >= 0}, A the halfspace normals (the
    identity for the orthant), so this is projected Newton on lam >= 0 for
    L(A^T lam): gradient A grad L, Hessian A hess L A^T, with the Newton step
    taken on the coordinates that are not held at the bound.
    """
    if _has_recession_direction(dist, cone):
        raise Unbounded(
            "transform decreases forever along a dual-cone direction; "
            "no dual-cone minimum exists"
        )
    a = cone.halfspace_normals
    m = a.shape[0]
    lam = np.zeros(m)
    values = []
    for _ in range(MAX_ITER):
        t = a.T @ lam
        val, g, h = laplace_eval(dist, t)
        values.append(val)
        gl = a @ g
        # complementarity: coordinates at the bound need gl >= 0, free ones gl = 0
        resid = float(np.abs(np.minimum(lam, gl)).max())
        if resid <= tol:
            return t, val, resid
        free = ~((lam <= 1e-14) & (gl > 0))
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
            ln = np.maximum(lam + alpha * direction, 0.0)
            vn, _, _ = laplace_eval(dist, a.T @ ln)
            if _armijo_ok(vn, val, float(gl @ (ln - lam))):
                break
            alpha *= 0.5
        lam = ln
        _check_unbounded(a.T @ lam, values)
    t = a.T @ lam
    val, g, _ = laplace_eval(dist, t)
    resid = float(np.abs(np.minimum(lam, a @ g)).max())
    if resid <= tol:
        return t, val, resid
    raise NotConverged(f"projected Newton stalled at residual {resid:.3e}")


def _support_spans_all_directions(dist: StepDistribution) -> bool:
    """True iff 0 is interior to the convex hull of the step vectors."""
    vecs = np.asarray([v for v, _ in dist.steps], dtype=float)
    k, d = vecs.shape
    # max delta s.t. theta >= delta, sum theta = 1, sum theta_v v = 0
    c = np.zeros(k + 1)
    c[-1] = -1.0
    a_eq = np.vstack([np.hstack([vecs.T, np.zeros((d, 1))]),
                      np.hstack([np.ones((1, k)), np.zeros((1, 1))])])
    b_eq = np.concatenate([np.zeros(d), [1.0]])
    a_ub = np.hstack([-np.eye(k), np.ones((k, 1))])
    b_ub = np.zeros(k)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                  bounds=[(None, None)] * k + [(None, 1)], method="highs")
    return res.success and res.x is not None and res.x[-1] > 1e-12


def minimize_global(dist: StepDistribution, tol: float = DEFAULT_TOL):
    """Unconstrained minimum of L; returns (t0_global, rho_global)."""
    if not _support_spans_all_directions(dist):
        raise NoGlobalMinimum("step support lies in a closed half-space")
    t = np.zeros(dist.dimension)
    for _ in range(MAX_ITER):
        val, g, h = laplace_eval(dist, t)
        if float(np.linalg.norm(g, ord=np.inf)) <= tol:
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
            if _armijo_ok(vn, val, alpha * float(g @ step)):
                break
            alpha *= 0.5
        t = tn
    val, g, _ = laplace_eval(dist, t)
    if float(np.linalg.norm(g, ord=np.inf)) <= tol:
        return t, val
    raise NotConverged("Newton iteration for the global minimum stalled")


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


def analyze(dist: StepDistribution, cone: ConeSpec, tol: float = DEFAULT_TOL) -> LaplaceAnalysis:
    """Run the full transform analysis for a model."""
    t0, rho, resid = minimize_over_dual(dist, cone, tol)
    drift = dist.drift
    cls = classify_drift(drift, cone)
    tilted, tdrift = tilt_distribution(dist, t0)
    try:
        tg, rg = minimize_global(dist, tol)
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
