import dataclasses
import itertools
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest

from conewalk import (
    analyze,
    escape_probability_bounds,
    laplace_eval,
    simulate_survival,
    simulate_tilted,
    survival_sequence,
    tilt_distribution,
)
from conewalk import _zoo, mc
from conewalk.errors import ConewalkError
from conewalk.mc import N_STREAMS, _stream_counts, _stream_rng


class TestStepSampler:
    """The inverse-CDF map from one uniform to one step index."""

    def test_frequencies_match_weights(self):
        weights = [0.1, 0.2, 0.3, 0.4]
        draws = mc._step_sampler(weights)(np.random.default_rng(7).random(200_000))
        freq = np.bincount(draws, minlength=4) / len(draws)
        assert freq == pytest.approx(weights, abs=5e-3)

    def test_single_outcome(self):
        draws = mc._step_sampler([1.0])(np.random.default_rng(0).random(100))
        assert (draws == 0).all()

    def test_unnormalized_weights_ok(self):
        draws = mc._step_sampler([2, 6])(np.random.default_rng(1).random(100_000))
        assert (draws == 1).mean() == pytest.approx(0.75, abs=5e-3)

    def test_edge_mapping(self):
        # edges 0.125, 0.5, 0.625 (exact binary fractions of the weights)
        pick = mc._step_sampler([1, 3, 1, 3])
        below_one = np.nextafter(1.0, 0.0)
        assert pick(np.array([0.0])).tolist() == [0]
        assert pick(np.array([below_one])).tolist() == [3]
        # a u exactly on an edge picks the upper step
        assert pick(np.array([0.125, 0.5, 0.625])).tolist() == [1, 2, 3]
        assert pick(np.nextafter([0.125, 0.5, 0.625], 0.0)).tolist() == [0, 1, 2]
        # never index k, past the last step
        assert pick(np.linspace(0.0, below_one, 10_001)).max() == 3


class TestStreams:
    def test_counts_partition_samples(self):
        for samples in (1, 15, 16, 1000, 12345):
            counts = _stream_counts(samples)
            assert sum(counts) == samples
            assert max(counts) - min(counts) <= 1

    def test_stream_rngs_are_distinct(self):
        a = _stream_rng(42, 0).random(4)
        b = _stream_rng(42, 1).random(4)
        c = _stream_rng(43, 0).random(4)
        assert not np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_stream_rng_reproducible(self):
        assert (_stream_rng(9, 3).random(8) == _stream_rng(9, 3).random(8)).all()

    def test_filling_a_slice_draws_the_same_uniforms(self):
        u = np.zeros(10)
        rng = _stream_rng(9, 3)
        rng.random(out=u[2:5])
        rng.random(out=u[5:9])
        assert (u[2:9] == _stream_rng(9, 3).random(7)).all()
        assert not u[[0, 1, 9]].any()

    @pytest.mark.parametrize("jobs,workers", [(16, 1), (16, 2), (16, 3), (5, 4), (3, 8)])
    def test_chunks_are_contiguous_and_balanced(self, jobs, workers):
        chunks = mc._chunks(list(range(jobs)), workers)
        assert len(chunks) == min(jobs, workers)
        assert [j for chunk in chunks for j in chunk] == list(range(jobs))
        sizes = [len(chunk) for chunk in chunks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


class TestSimulateSurvival:
    def test_matches_exact_within_error(self, five_step_model):
        n = 20
        exact = float(survival_sequence(five_step_model, n).terms[n])
        est = simulate_survival(five_step_model, n, 40_000, seed=5)
        assert abs(est.mean - exact) <= 4 * est.std_error
        assert est.method == "plain"
        assert est.target == f"survival({n})"

    def test_trapped_always_survives(self, trapped_2d):
        est = simulate_survival(trapped_2d, 30, 500, seed=1)
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_no_survivor_has_zero_std_error(self, exterior_2d):
        est = simulate_survival(exterior_2d, 200, 2000, seed=3)
        assert (est.mean, est.std_error) == (0.0, 0.0)

    def test_deterministic_across_workers(self, five_step_model):
        one = simulate_survival(five_step_model, 15, 10_000, seed=3, workers=1)
        four = simulate_survival(five_step_model, 15, 10_000, seed=3, workers=4)
        assert one.mean == four.mean
        assert one.std_error == four.std_error

    def test_seed_changes_estimate(self, five_step_model):
        a = simulate_survival(five_step_model, 15, 4_000, seed=1)
        b = simulate_survival(five_step_model, 15, 4_000, seed=2)
        assert a.mean != b.mean

    def test_rejects_zero_samples(self, five_step_model):
        with pytest.raises(ConewalkError):
            simulate_survival(five_step_model, 5, 0, seed=0)

    @pytest.mark.parametrize("n, samples, workers, message", [
        (2.5, 10, 1, r"must be integers, got \[2.5, 10, 1\]"),
        (True, 10, 1, r"must be integers, got \[True, 10, 1\]"),
        (5, 10.0, 1, r"must be integers, got \[5, 10.0, 1\]"),
        (5, 10, 1.0, r"must be integers, got \[5, 10, 1.0\]"),
        (5, -3, 1, "samples and workers must be positive, got -3 and 1"),
        (5, 10, 0, "samples and workers must be positive, got 10 and 0"),
        (5, 10, -1, "samples and workers must be positive, got 10 and -1"),
    ], ids=["float-horizon", "bool-horizon", "float-samples", "float-workers",
            "negative-samples", "zero-workers", "negative-workers"])
    def test_rejects_bad_counts(self, five_step_model, n, samples, workers, message):
        an = analyze(five_step_model.dist, five_step_model.cone)
        with pytest.raises(ConewalkError, match=message):
            simulate_survival(five_step_model, n, samples, seed=0, workers=workers)
        with pytest.raises(ConewalkError, match=message):
            simulate_tilted(five_step_model, an, n, samples, seed=0, workers=workers)

    @pytest.mark.parametrize("seed, message", [
        (2.5, r"the seed must be integers, got \[2.5\]"),
        ("3", r"the seed must be integers, got \['3'\]"),
        (True, r"the seed must be integers, got \[True\]"),
        (-1, r"the seed must be in \[0, 2\^64\), got -1$"),
        (2 ** 64, r"the seed must be in \[0, 2\^64\), got 18446744073709551616$"),
    ], ids=["float", "str", "bool", "negative", "2^64"])
    def test_rejects_bad_seeds(self, five_step_model, seed, message):
        # masked into a uint64 key, -1, 2^64 and True would run the streams of
        # 2^64 - 1, 0 and 1
        an = analyze(five_step_model.dist, five_step_model.cone)
        with pytest.raises(ConewalkError, match=message):
            simulate_survival(five_step_model, 5, 10, seed=seed)
        with pytest.raises(ConewalkError, match=message):
            simulate_tilted(five_step_model, an, 5, 10, seed=seed)

    def test_seed_range_ends(self, exterior_2d):
        top = simulate_survival(exterior_2d, 12, 3000, seed=2 ** 64 - 1)
        assert top.seed == 2 ** 64 - 1 and top.mean.hex() == "0x1.eb851eb851eb8p-7"
        assert simulate_survival(exterior_2d, 12, 3000, seed=0).mean.hex() == \
            "0x1.9f0fb38a94d24p-7"
        # a numpy integer runs the streams of its value and is reported as an int
        seven = simulate_survival(exterior_2d, 12, 3000, seed=np.uint64(7))
        assert type(seven.seed) is int
        assert seven == simulate_survival(exterior_2d, 12, 3000, seed=7)

    def test_rejects_negative_horizon(self, exterior_2d):
        # the exterior's walkers die, so a missing check fails rather than hangs
        with pytest.raises(ConewalkError, match="non-negative"):
            simulate_survival(exterior_2d, -1, 100, seed=0)


class TestSimulateTilted:
    def test_unbiased_against_exact(self, exterior_2d):
        n = 40
        exact = float(survival_sequence(exterior_2d, n).terms[n])
        an = analyze(exterior_2d.dist, exterior_2d.cone)
        est = simulate_tilted(exterior_2d, an, n, 40_000, seed=11)
        assert est.method == "tilted"
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_rejects_negative_horizon(self, exterior_2d):
        an = analyze(exterior_2d.dist, exterior_2d.cone)
        with pytest.raises(ConewalkError, match="non-negative"):
            simulate_tilted(exterior_2d, an, -1, 100, seed=0)

    def test_zero_tilt_recovers_plain_indicator(self, exterior_2d):
        # tilted at t = 0 every weight is the indicator of survival
        d = exterior_2d.dist
        an = dataclasses.replace(
            analyze(d, exterior_2d.cone), t0=(0.0, 0.0),
            rho=laplace_eval(d, [0, 0])[0],
            tilted_steps=tuple(tilt_distribution(d, [0, 0])[0]))
        n = 10
        est = simulate_tilted(exterior_2d, an, n, 20_000, seed=2)
        plain = simulate_survival(exterior_2d, n, 20_000, seed=2)
        assert est.mean == pytest.approx(plain.mean, abs=1e-12)

    @pytest.mark.parametrize("name,n,samples", [("exterior_2d", 10, 20_000),
                                                ("five_step_model", 40, 3001),
                                                ("wedge_2d", 40, 3001)])
    def test_plain_is_the_zero_tilt_bit_for_bit(self, request, name, n, samples):
        # five-step at seed 8: p(1 - p) and E[X^2] - mean^2 round apart
        model = request.getfixturevalue(name)
        zero = dataclasses.replace(analyze(model.dist, model.cone),
                                   t0=(0.0,) * model.dimension, rho=1.0,
                                   tilted_steps=model.dist.steps)
        for workers in (1, 2):
            plain = simulate_survival(model, n, samples, seed=8, workers=workers)
            tilted = simulate_tilted(model, zero, n, samples, seed=8, workers=workers)
            assert tilted.mean.hex() == plain.mean.hex()
            assert tilted.std_error.hex() == plain.std_error.hex()

    def test_variance_reduction_deep_tail(self, exterior_2d):
        n = 60
        an = analyze(exterior_2d.dist, exterior_2d.cone)
        exact = float(survival_sequence(exterior_2d, n).terms[n])
        est = simulate_tilted(exterior_2d, an, n, 100_000, seed=4)
        # plain sampling would need ~1/a_n ~ 1e6 samples per hit; the tilted
        # estimator resolves the same tail with a small relative error
        assert est.mean == pytest.approx(exact, rel=0.2)
        assert est.std_error < 0.1 * exact

    def test_deterministic_across_workers(self, exterior_2d):
        an = analyze(exterior_2d.dist, exterior_2d.cone)
        one = simulate_tilted(exterior_2d, an, 30, 8_000, seed=6, workers=1)
        four = simulate_tilted(exterior_2d, an, 30, 8_000, seed=6, workers=4)
        assert one.mean == four.mean
        assert one.std_error == four.std_error


class TestSurvivalEstimates:
    def test_plain_alone_without_an_analysis(self, exterior_2d):
        assert mc.survival_estimates(exterior_2d, None, 20, 500, 3) == [
            simulate_survival(exterior_2d, 20, 500, seed=3)]

    def test_zero_tilt_is_the_plain_computation(self, five_step_model, exterior_2d):
        an = analyze(five_step_model.dist, five_step_model.cone)
        plain, tilted = mc.survival_estimates(five_step_model, an, 20, 500, 3)
        assert plain == simulate_survival(five_step_model, 20, 500, seed=3)
        assert tilted == simulate_tilted(five_step_model, an, 20, 500, seed=3)
        an = analyze(exterior_2d.dist, exterior_2d.cone)
        assert mc.survival_estimates(exterior_2d, an, 20, 500, 3)[1] == simulate_tilted(
            exterior_2d, an, 20, 500, seed=3)


class TestPlainAgainstEscapeBounds:
    """Plain Monte Carlo of a_n against the exact escape bounds: a_n is an
    upper-biased proxy for P(tau = inf), but at these horizons the bias is
    far below the Monte Carlo noise."""

    def test_five_step_estimate_within_bounds(self, five_step_model):
        est = simulate_survival(five_step_model, 60, 40_000, seed=9)
        lo, hi = escape_probability_bounds(five_step_model, 60).best
        assert float(lo) - 4 * est.std_error <= est.mean <= float(hi) + 4 * est.std_error

    def test_1d_positive_drift(self, pos_1d):
        est = simulate_survival(pos_1d, 80, 40_000, seed=13)
        assert est.mean == pytest.approx(2 / 3, abs=0.02)
        lo, hi = escape_probability_bounds(pos_1d, 80).best
        assert float(lo) <= 2 / 3 <= float(hi)


def _reference_mask(model, pos):
    """Cone membership as the uncompacted loop tested it, rebuilt each step."""
    if model.cone.is_orthant:
        return (pos >= 0).all(axis=1)
    a = np.asarray(model.cone.normals, dtype=float)
    prods = pos @ a.T
    if np.allclose(a, np.round(a)):
        return (prods >= 0).all(axis=1)
    norms = np.linalg.norm(a, axis=1)
    tol = 1e-12 * norms[None, :] * (np.linalg.norm(pos, axis=1)[:, None] + 1.0)
    return (prods >= -tol).all(axis=1)


def _reference_walk(model, weighted_steps, n, seed):
    """The uncompacted walker loop under the stream contract: each step draws
    one uniform per alive walker, hands them to the alive walkers in index
    order and leaves dead walkers where they left the cone."""
    steps = np.asarray([v for v, _ in weighted_steps], dtype=np.int64)
    w = np.asarray([float(w) for _, w in weighted_steps])
    edges = np.cumsum(w)[:-1] / w.sum()
    start = np.asarray(model.start, dtype=np.int64)

    def walk(stream, count):
        rng = mc._stream_rng(seed, stream)
        pos = np.tile(start, (count, 1))
        alive = np.ones(count, dtype=bool)
        for _ in range(n):
            if not alive.any():
                break
            u = rng.random(int(alive.sum()))
            pos[alive] += steps[np.searchsorted(edges, u, side="right")]
            alive &= _reference_mask(model, pos)
        return pos, alive

    return walk


class _RecordingRng:
    """Generator proxy that records the size of every ``random`` call, per
    stream and in the order of all calls."""

    def __init__(self, rng, stream, sizes, order):
        self._rng, self.stream, self.sizes, self.order = rng, stream, sizes, order

    def random(self, size=None, out=None):
        size = len(out) if out is not None else size
        self.sizes.append(size)
        self.order.append((self.stream, size))
        return self._rng.random(size, out=out)


def _record_draws(monkeypatch, order=None):
    """Patch ``mc._stream_rng``; return {stream: [draw sizes]} as it fills.
    ``order``, if given, collects (stream, size) across all streams."""
    draws = {}
    order = [] if order is None else order
    real = mc._stream_rng

    def recording(seed, stream):
        return _RecordingRng(real(seed, stream), stream,
                             draws.setdefault(stream, []), order)

    monkeypatch.setattr(mc, "_stream_rng", recording)
    return draws


def _reference_jobs(model, weighted_steps, n, seed, reduce):
    """``_reference_walk`` behind the pooled walker's interface: one stream
    at a time, ``reduce`` of its survivors' end positions in job order."""
    walk = _reference_walk(model, weighted_steps, n, seed)

    def jobs_walk(jobs):
        return [reduce(pos[alive]) for pos, alive in itertools.starmap(walk, jobs)]

    return jobs_walk


def _keep(end):
    return end


def _jobs(samples):
    return [(s, c) for s, c in enumerate(_stream_counts(samples)) if c > 0]


@pytest.fixture(scope="module")
def wedge_2d():
    return _zoo.EXTERIOR_WEDGE


@pytest.fixture(scope="module")
def float_halfspace_2d():
    """Exterior steps in {0.3x + 0.1y >= 0, x >= 0}: on the boundary points
    (k, -3k) the float product is about -5e-17, so only the tolerance keeps
    them in the cone."""
    return _zoo.walk(dict(_zoo.EXTERIOR.dist.steps), (1, 0), [[0.3, 0.1], [1.0, 0.0]])


@pytest.fixture(scope="module")
def wedge_3d():
    """Unit steps with drift (-1/9, -1/9, -1/9) in the integer-normal cone
    {x >= 0, y >= 0, x + y - z >= 0}, started inside at (1, 1, 0)."""
    return _zoo.walk({tuple(s if j == i else 0 for j in range(3)): w
                      for i in range(3) for s, w in ((1, F(1, 9)), (-1, F(2, 9)))},
                     (1, 1, 0), [[1, 0, 0], [0, 1, 0], [1, 1, -1]])


class TestCompactedWalker:
    """The pooled live-walker loop of ``mc._walker`` against the uncompacted,
    mask-based loop that runs one stream at a time under the same stream
    contract, bit for bit."""

    CASES = [
        ("five_step_model", 40, 3001),
        ("exterior_2d", 40, 3001),
        ("wedge_2d", 40, 3001),
        ("float_halfspace_2d", 40, 3001),
        ("trapped_2d", 25, 500),
        ("octant_3d", 30, 3001),
        ("exterior_2d", 200, 2000),  # every walker dies before step n
        ("wedge_3d", 30, 3001),
    ]

    @pytest.mark.parametrize("name,n,samples", CASES)
    def test_walks_match_reference(self, request, name, n, samples):
        model = request.getfixturevalue(name)
        an = analyze(model.dist, model.cone)
        survivors = []
        for weighted in (model.dist.steps, an.tilted_steps):
            jobs = _jobs(samples)
            got = mc._walker(model, weighted, n, 3, _keep)(jobs)
            want = _reference_jobs(model, weighted, n, 3, _keep)(jobs)
            assert len(got) == len(want) == len(jobs)
            hits = 0
            for (_stream, count), end, ref_end in zip(jobs, got, want):
                assert end.shape == ref_end.shape and len(end) <= count
                assert end.dtype == np.int64 and end.flags.c_contiguous
                assert (end == ref_end).all()
                hits += len(ref_end)
            survivors.append(hits)
        if name == "trapped_2d":
            assert survivors == [samples, samples]
        if n == 200:
            assert survivors[0] == 0  # plain: every stream stops early

    @pytest.mark.parametrize("name,n,samples", CASES)
    def test_draws_one_uniform_per_live_walker(self, request, monkeypatch,
                                               name, n, samples):
        model = request.getfixturevalue(name)
        an = analyze(model.dist, model.cone)
        draws = _record_draws(monkeypatch)
        for weighted in (model.dist.steps, an.tilted_steps):
            jobs = _jobs(samples)
            draws.clear()
            survivors = mc._walker(model, weighted, n, 3, len)(jobs)
            got = dict(draws)
            draws.clear()
            _reference_jobs(model, weighted, n, 3, len)(jobs)
            assert got.keys() == draws.keys() == {s for s, _ in jobs}
            for (stream, count), k in zip(jobs, survivors):
                sizes, live_counts = got[stream], draws[stream]  # alive.sum() before each step
                assert sizes == live_counts
                assert sizes[0] == count and all(s > 0 for s in sizes)
                if len(sizes) < n:  # stopped early: the last draw fed the last walkers
                    assert k == 0
                if n == 200 and weighted is model.dist.steps:
                    assert len(sizes) < n  # exterior: every plain walker dies

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("name,n,samples", [CASES[0], CASES[2], CASES[6]])
    def test_draws_match_reference_at_any_worker_count(self, request, monkeypatch,
                                                       name, n, samples, workers):
        model = request.getfixturevalue(name)
        an = analyze(model.dist, model.cone)
        draws = _record_draws(monkeypatch)
        for weighted in (model.dist.steps, an.tilted_steps):
            draws.clear()
            survivors = mc._run_streams(mc._walker(model, weighted, n, 3, len),
                                        samples, workers)
            got = {s: list(sizes) for s, sizes in draws.items()}
            draws.clear()
            assert survivors == _reference_jobs(model, weighted, n, 3, len)(_jobs(samples))
            assert got == draws

    def test_horizon_zero_draws_nothing(self, monkeypatch, exterior_2d):
        an = analyze(exterior_2d.dist, exterior_2d.cone)
        draws = _record_draws(monkeypatch)
        for workers in (1, 2):
            plain = simulate_survival(exterior_2d, 0, 1000, seed=1, workers=workers)
            tilted = simulate_tilted(exterior_2d, an, 0, 1000, seed=1, workers=workers)
            assert (plain.mean, plain.std_error) == (1.0, 0.0)
            # rho^0 e^{<t0,x>} e^{-<t0,x>} = 1 for every sample, up to rounding
            assert tilted.mean == pytest.approx(1.0, rel=1e-12)
            assert tilted.std_error == pytest.approx(0.0, abs=1e-6)
        assert all(sizes == [] for sizes in draws.values())

    @pytest.mark.parametrize("samples", [1, 5, N_STREAMS - 1])
    def test_fewer_samples_than_streams(self, monkeypatch, exterior_2d, samples):
        an = analyze(exterior_2d.dist, exterior_2d.cone)
        draws = _record_draws(monkeypatch)

        def estimates(workers):
            return (simulate_survival(exterior_2d, 30, samples, seed=4, workers=workers),
                    simulate_tilted(exterior_2d, an, 30, samples, seed=4, workers=workers))

        pooled = [estimates(w) for w in (1, 2, 4)]
        assert draws.keys() == set(range(samples))  # the empty streams never start
        monkeypatch.setattr(mc, "_walker", _reference_jobs)
        ref = estimates(1)
        for got in pooled:
            for est, want in zip(got, ref):
                assert est.mean.hex() == want.mean.hex()
                assert est.std_error.hex() == want.std_error.hex()

    def test_later_stream_retires_first(self, monkeypatch, exterior_2d):
        # plain exterior walks die out fast and at random steps, so a stream
        # that entered the pool later can empty before an older one
        n, samples = 200, 16 * 200
        order = []
        draws = _record_draws(monkeypatch, order)
        jobs = _jobs(samples)
        got = mc._walker(exterior_2d, exterior_2d.dist.steps, n, 3,
                         lambda end: (len(order), end))(jobs)
        last = {stream: i for i, (stream, _) in enumerate(order)}
        first = {stream: order.index((stream, count)) for stream, count in jobs}
        pairs = [(old, new) for old in last for new in last
                 if old < new and last[new] < last[old]]
        assert pairs
        # each stream is reduced as it retires, within the pool step of its
        # last draw, not when the chunk ends
        reduced = {stream: at for (stream, _), (at, _end) in zip(jobs, got)}
        assert all(last[s] < reduced[s] <= last[s] + N_STREAMS for s in last)
        assert all(reduced[new] < reduced[old] for old, new in pairs)
        got = [end for _at, end in got]
        # the room a retired stream leaves lets the next stream in while the
        # older stream still walks
        assert any(last[new] < first[other] < last[old]
                   for old, new in pairs for other in first if other > new)
        assert all(len(sizes) < n for sizes in draws.values())
        want = _reference_jobs(exterior_2d, exterior_2d.dist.steps, n, 3, _keep)(jobs)
        for end, ref_end in zip(got, want):
            assert end.shape == ref_end.shape and (end == ref_end).all()

    @pytest.mark.parametrize("name,n,samples", CASES)
    def test_pool_holds_at_most_twice_the_largest_stream(self, request, monkeypatch,
                                                         name, n, samples):
        model = request.getfixturevalue(name)
        an = analyze(model.dist, model.cone)
        rows = []
        real = type(model.cone).inside

        def counting(cone, points):
            rows.append(len(points))
            return real(cone, points)

        monkeypatch.setattr(type(model.cone), "inside", counting)
        draws = _record_draws(monkeypatch)
        largest = max(_stream_counts(samples))
        for weighted in (model.dist.steps, an.tilted_steps):
            rows.clear()
            draws.clear()
            mc._walker(model, weighted, n, 3, len)(_jobs(samples))
            assert max(rows) <= 2 * largest
            # rows is the pool size per pool step; each stream step is
            # one draw, and the pool runs several streams per step
            assert sum(rows) == sum(map(sum, draws.values()))
            assert len(rows) < sum(map(len, draws.values()))

    def test_memory_is_the_pool_and_one_retiring_stream(self, five_step_model,
                                                        exterior_2d):
        # the pool holds at most 2 x the largest stream; a retired stream is
        # reduced at once, so no (count, d) end array outlives its stream
        samples = 160_000
        an = analyze(exterior_2d.dist, exterior_2d.cone)
        for model, run in ((five_step_model,
                            lambda: simulate_survival(five_step_model, 120, samples, seed=1)),
                           (exterior_2d,
                            lambda: simulate_tilted(exterior_2d, an, 200, samples, seed=1))):
            stream_bytes = max(_stream_counts(samples)) * model.dimension * 8
            _stream_rng(0, 0)  # numpy.random is imported on first use, not traced here
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 10 * stream_bytes

    @pytest.mark.parametrize("name", ["pos_1d", "five_step_model", "octant_3d",
                                      "wedge_2d", "float_halfspace_2d", "wedge_3d"])
    def test_inside_matches_reference_mask(self, request, name):
        model = request.getfixturevalue(name)
        d = model.dimension
        axes = np.meshgrid(*[np.arange(-5, 6)] * d, indexing="ij")
        pos = np.stack([a.ravel() for a in axes], axis=1)
        if d == 2:  # the float cone's boundary points (k, -3k) and their neighbours
            k = np.arange(-30, 31)
            pos = np.vstack([pos] + [np.stack([k, -3 * k + e], axis=1) for e in (-1, 0, 1)])
        mask = model.cone.inside(pos)
        assert (mask == _reference_mask(model, pos)).all()
        assert mask.tolist() == [model.cone.contains(tuple(p)) for p in pos.tolist()]
        assert 0 < mask.sum() < len(pos)
        # the walker pool passes its coordinate-major (d, N) array transposed
        coordinate_major = np.ascontiguousarray(pos.T).T
        assert not coordinate_major.flags.c_contiguous or d == 1
        assert (model.cone.inside(coordinate_major) == mask).all()

    @pytest.mark.parametrize("name,n,samples", CASES)
    def test_estimates_match_reference(self, request, monkeypatch, name, n, samples):
        model = request.getfixturevalue(name)
        an = analyze(model.dist, model.cone)

        def estimates(workers):
            return (simulate_survival(model, n, samples, seed=8, workers=workers),
                    simulate_tilted(model, an, n, samples, seed=8, workers=workers))

        pooled = [estimates(1), estimates(2), estimates(4)]
        monkeypatch.setattr(mc, "_walker", _reference_jobs)
        ref = estimates(1)
        for got in pooled:
            for est, want in zip(got, ref):
                assert est.mean.hex() == want.mean.hex()
                assert est.std_error.hex() == want.std_error.hex()
