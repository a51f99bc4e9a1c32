"""Monte Carlo estimation of survival probabilities.

One estimator gives every mean and std error, from the samples
rho^n e^{<t0,x>} e^{-<t0,S_n>} of confined paths.  Plain sampling is its
zero tilt: t0 = 0 and rho = 1 under the model's own weights.

Sampling is split over a fixed set of counter-based substreams (Philox keyed
by (seed, stream index)), so the estimate is bit-identical regardless of how
many workers process the streams.

Stream invariant: at each step a stream draws one uniform per walker still
in the cone, in one ``rng.random`` call, and hands them out in walker order;
each uniform picks a step by inverse CDF.  Walkers that left the cone draw
nothing more, and a stream whose last walker left stops.  What a stream
draws depends only on its own walkers, so the estimates do not depend on
how many workers run the streams.

Walker pool: each worker takes a contiguous chunk of streams and steps them
together, so one numpy pass serves many small streams.  Streams enter the
pool in stream order while its live walkers plus the next stream's count
stay within twice the largest stream count.  The pool stores its live
walkers coordinate-major, one (d, N) array with one contiguous row per
coordinate, so each pass runs along rows of length N instead of across rows
of length d.  A pool step fills one uniform buffer stream by stream, then
moves all walkers by gathering columns of the (d, S) step matrix, tests
them against the cone and compacts the columns of those still inside.  A
stream leaves the pool after n steps (the oldest streams, at the front) or
as soon as its last walker has left the cone, which can be before an older
stream.  It is reduced as it leaves: the end positions of its survivors go
to the estimator as (count, d) rows and only the sums are kept, so a worker
holds its pool plus one retiring stream.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConewalkError
from .laplace import LaplaceAnalysis
from .model import WalkModel, _integers

N_STREAMS = 16


@dataclass(frozen=True)
class McEstimate:
    target: str                    # "survival(n)"
    mean: float
    std_error: float
    samples: int
    method: str                    # "plain" | "tilted"
    seed: int
    horizon: int


def _step_sampler(weights):
    """Inverse-CDF sampler: maps uniforms u in [0, 1) to step indices, step j
    for edges[j-1] <= u < edges[j] with edges the normalised cumulative
    weights.  The index is the number of edges <= u, summed one edge at a
    time: for the few steps of a walk this beats a binary search."""
    w = np.asarray(weights, dtype=float)
    edges = (np.cumsum(w)[:-1] / w.sum()).tolist()

    def pick(u):
        k = np.zeros(len(u), dtype=np.intp)
        for e in edges:
            k += u >= e
        return k

    return pick


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _stream_counts(samples: int) -> list[int]:
    base, extra = divmod(samples, N_STREAMS)
    return [base + (1 if s < extra else 0) for s in range(N_STREAMS)]


def _chunks(jobs, workers: int):
    """Split ``jobs`` into at most ``workers`` contiguous runs whose lengths
    differ by at most one."""
    parts = min(workers, len(jobs))
    base, extra = divmod(len(jobs), parts)
    sizes = [base + 1] * extra + [base] * (parts - extra)
    return [jobs[end - size:end] for size, end in zip(sizes, itertools.accumulate(sizes))]


def _run_streams(walk, samples: int, workers: int):
    """Run the non-empty streams, each worker one contiguous chunk through
    ``walk``, and return its per-stream results in stream order."""
    jobs = [(s, c) for s, c in enumerate(_stream_counts(samples)) if c > 0]
    chunks = _chunks(jobs, workers)
    if len(chunks) == 1:
        return walk(chunks[0])
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        return [r for part in pool.map(walk, chunks) for r in part]


def _walker(model: WalkModel, weighted_steps, n: int, seed: int, reduce):
    """Walker loop: [(stream, count)] -> per stream, in the given order,
    ``reduce(end)``, with ``end`` the (k, d) end positions, in walker order,
    of the stream's k paths that stayed in the cone for all n steps.
    ``reduce`` runs as the stream retires from the pool."""
    moves = np.asarray([v for v, _ in weighted_steps], dtype=np.int64).T  # (d, S)
    pick = _step_sampler([float(w) for _, w in weighted_steps])
    start = np.asarray(model.start, dtype=np.int64)[:, None]
    inside = model.cone.inside

    def walk(jobs):
        cap = 2 * max(c for _, c in jobs)
        out = [None] * len(jobs)
        pool = []  # [job, rng, live walkers, steps taken], oldest first
        pos = np.empty((len(start), 0), dtype=np.int64)  # live walkers, (d, N) in pool order
        queued = 0
        while True:
            while queued < len(jobs) and pos.shape[1] + jobs[queued][1] <= cap:
                count = jobs[queued][1]
                pool.append([queued, _stream_rng(seed, jobs[queued][0]), count, 0])
                pos = np.concatenate([pos, np.repeat(start, count, axis=1)], axis=1)
                queued += 1
            if not pool:
                return out
            # Streams that took n steps are the oldest, so their walkers lead
            # the pool; a stream with no walkers left holds no columns.
            if any(t == n or not k for _, _, k, t in pool):
                a, front = 0, 0
                for job, _, k, t in pool:
                    if t == n or not k:
                        out[job] = reduce(np.ascontiguousarray(pos[:, a:a + k].T))
                        front = a + k if t == n else front
                    a += k
                pos = pos[:, front:]
                pool = [p for p in pool if p[3] < n and p[2]]
                continue
            u = np.empty(pos.shape[1])
            a, offsets = 0, []
            for p in pool:
                p[1].random(out=u[a:a + p[2]])
                offsets.append(a)
                a += p[2]
                p[3] += 1
            pos += np.take(moves, pick(u), axis=1)
            stay = inside(pos.T)
            if not stay.all():
                # every stream in the pool has a walker, so no offset repeats
                kept = np.add.reduceat(stay, offsets, dtype=np.intp).tolist()
                for p, k in zip(pool, kept):
                    p[2] = k
                pos = np.compress(stay, pos, axis=1)

    return walk


def _estimate(model: WalkModel, weighted_steps, t0, rho: float, n: int,
              samples: int, seed: int, workers: int, method: str) -> McEstimate:
    """Mean and std error of rho^n e^{<t0,x>} e^{-<t0,S_n>} over the paths
    that stay in the cone, walked under the given step weights."""
    n, samples, workers = _integers([n, samples, workers], "the horizon, samples and workers",
                                    ConewalkError)
    if n < 0:
        raise ConewalkError(f"the horizon must be non-negative, got {n}")
    if min(samples, workers) < 1:
        raise ConewalkError(f"samples and workers must be positive, got {samples} and {workers}")
    [seed] = _integers([seed], "the seed", ConewalkError)
    if not 0 <= seed < 2 ** 64:
        raise ConewalkError(f"the seed must be in [0, 2^64), got {seed}")
    t0 = np.asarray(t0, dtype=float)
    prefactor = rho ** n * math.exp(float(t0 @ np.asarray(model.start, dtype=np.int64)))

    def moments(end):
        vals = np.exp(-(end @ t0)) * prefactor
        return float(vals.sum()), float((vals ** 2).sum())

    parts = _run_streams(_walker(model, weighted_steps, n, seed, moments), samples, workers)
    total, total_sq = map(math.fsum, zip(*parts))
    mean = total / samples
    var = max(total_sq / samples - mean ** 2, 0.0)
    return McEstimate(
        target=f"survival({n})", mean=mean,
        std_error=math.sqrt(var / samples),
        samples=samples, method=method, seed=seed, horizon=n,
    )


def simulate_survival(model: WalkModel, n: int, samples: int, seed: int,
                      workers: int = 1) -> McEstimate:
    """Plain Monte Carlo estimate of the survival probability a_n: the tilted
    estimator at t0 = 0, rho = 1 under the model's own weights."""
    return _estimate(model, model.dist.steps, [0.0] * model.dimension, 1.0, n,
                     samples, seed, workers, "plain")


def simulate_tilted(model: WalkModel, analysis: LaplaceAnalysis, n: int,
                    samples: int, seed: int, workers: int = 1) -> McEstimate:
    """Importance-sampling estimate of a_n under the exponentially tilted law.

    Each confined path contributes rho^n e^{<t0,x>} e^{-<t0,S_n>}; the
    estimator is unbiased for a_n and is plain sampling at t0 = 0.
    """
    return _estimate(model, analysis.tilted_steps, analysis.t0, analysis.rho, n,
                     samples, seed, workers, "tilted")


def survival_estimates(model: WalkModel, analysis: LaplaceAnalysis | None, n: int,
                       samples: int, seed: int) -> list[McEstimate]:
    """The plain estimate of a_n and, given an analysis, the tilted one.  At
    the zero tilt (t0 = 0, rho = 1 under the model's own float weights) the
    tilted estimate is the plain one's computation, so it is not run twice."""
    plain = simulate_survival(model, n, samples, seed)
    if analysis is None:
        return [plain]
    if (all(c == 0.0 for c in analysis.t0) and analysis.rho == 1.0
            and [(v, float(w)) for v, w in analysis.tilted_steps]
            == [(v, float(w)) for v, w in model.dist.steps]):
        return [plain, replace(plain, method="tilted")]
    return [plain, simulate_tilted(model, analysis, n, samples, seed)]
