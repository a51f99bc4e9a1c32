"""Monte Carlo estimation of survival and escape probabilities.

Sampling is split over a fixed set of counter-based substreams (Philox keyed
by (seed, stream index)), so the estimate is bit-identical regardless of how
many workers process the streams.

Stream invariant: at each step a stream draws one uniform per walker still
in the cone, ``rng.random(live.size)``, and hands them out in walker order;
each uniform picks a step by inverse CDF.  Walkers that left the cone draw
nothing more, and a stream whose last walker left stops.  What a stream
draws depends only on its own walkers, so the estimates do not depend on
how many workers run the streams.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DriftNotInterior
from .exact_dp import A_INF_HORIZON, EscapeBounds, bounds_error, escape_probability_bounds
from .laplace import DriftClass, LaplaceAnalysis, classify_drift
from .model import WalkModel

N_STREAMS = 16


@dataclass(frozen=True)
class McEstimate:
    target: str                    # "survival(n)" or "escape"
    mean: float
    std_error: float
    samples: int
    method: str                    # "plain" | "tilted"
    seed: int
    horizon: int


def _step_sampler(weights):
    """Inverse-CDF sampler: maps uniforms u in [0, 1) to step indices, step j
    for edges[j-1] <= u < edges[j] with edges the normalised cumulative
    weights."""
    w = np.asarray(weights, dtype=float)
    edges = np.cumsum(w)[:-1] / w.sum()
    return lambda u: np.searchsorted(edges, u, side="right")


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_counts(samples: int) -> list[int]:
    base, extra = divmod(samples, N_STREAMS)
    return [base + (1 if s < extra else 0) for s in range(N_STREAMS)]


def _run_streams(worker, samples: int, workers: int):
    counts = _stream_counts(samples)
    jobs = [(s, c) for s, c in enumerate(counts) if c > 0]
    if workers <= 1:
        results = [worker(s, c) for s, c in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda sc: worker(*sc), jobs))
    return results


def _walker(model: WalkModel, weighted_steps, n: int, seed: int):
    """Walker loop: (stream, count) -> end positions and the mask of paths
    that stayed in the cone for all n steps.  Only live walkers are stepped;
    the end-position rows of the others are 0."""
    steps = np.asarray([v for v, _ in weighted_steps], dtype=np.int64)
    pick = _step_sampler([float(w) for _, w in weighted_steps])
    start = np.asarray(model.start, dtype=np.int64)
    inside = model.cone.inside

    def walk(stream: int, count: int):
        rng = _stream_rng(seed, stream)
        live = np.arange(count)          # stream indices of the live walkers
        pos = np.tile(start, (count, 1))  # their positions, row for row
        for _ in range(n):
            pos += steps[pick(rng.random(live.size))]
            stay = inside(pos)
            if not stay.all():
                live, pos = live[stay], pos[stay]
                if not live.size:
                    break
        end = np.zeros((count, len(start)), dtype=np.int64)
        end[live] = pos
        alive = np.zeros(count, dtype=bool)
        alive[live] = True
        return end, alive

    return walk


def simulate_survival(model: WalkModel, n: int, samples: int, seed: int,
                      workers: int = 1) -> McEstimate:
    """Plain Monte Carlo estimate of the survival probability a_n."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    walk = _walker(model, model.dist.steps, n, seed)
    hits = sum(_run_streams(lambda s, c: int(walk(s, c)[1].sum()), samples, workers))
    p = hits / samples
    return McEstimate(
        target=f"survival({n})", mean=p,
        std_error=math.sqrt(p * (1.0 - p) / samples),
        samples=samples, method="plain", seed=seed, horizon=n,
    )


def simulate_tilted(model: WalkModel, analysis: LaplaceAnalysis, n: int,
                    samples: int, seed: int, workers: int = 1) -> McEstimate:
    """Importance-sampling estimate of a_n under the exponentially tilted law.

    Each confined path contributes rho^n e^{<t0,x>} e^{-<t0,S_n>}; the
    estimator is unbiased for a_n and collapses to plain sampling at t0 = 0.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    t0 = np.asarray(analysis.t0, dtype=float)
    walk = _walker(model, analysis.tilted_steps, n, seed)
    prefactor = analysis.rho ** n * math.exp(float(t0 @ np.asarray(model.start, dtype=np.int64)))

    def worker(stream: int, count: int):
        pos, alive = walk(stream, count)
        vals = np.where(alive, np.exp(-(pos @ t0)), 0.0) * prefactor
        return float(vals.sum()), float((vals ** 2).sum())

    parts = _run_streams(worker, samples, workers)
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / samples
    var = max(total_sq / samples - mean ** 2, 0.0)
    return McEstimate(
        target=f"survival({n})", mean=mean,
        std_error=math.sqrt(var / samples),
        samples=samples, method="tilted", seed=seed, horizon=n,
    )


@dataclass(frozen=True)
class EscapeEstimate:
    estimate: McEstimate
    bounds: EscapeBounds | None


def estimate_escape(model: WalkModel, n: int, samples: int, seed: int,
                    workers: int = 1) -> EscapeEstimate:
    """Finite-horizon proxy for P^x(tau = infinity).

    The plain estimate of a_n is upper-biased by the (exponentially small)
    tail; the exact two-sided bounds are attached when available.
    """
    if classify_drift(model.dist.drift, model.cone) is not DriftClass.INTERIOR:
        raise DriftNotInterior("the escape probability vanishes without interior drift")
    est = simulate_survival(model, n, samples, seed, workers=workers)
    est = McEstimate(target="escape", mean=est.mean, std_error=est.std_error,
                     samples=est.samples, method="plain", seed=seed, horizon=n)
    bounds = None
    if bounds_error(model) is None:
        bounds = escape_probability_bounds(model, min(n, A_INF_HORIZON))
    return EscapeEstimate(estimate=est, bounds=bounds)
