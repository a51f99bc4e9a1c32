"""End-to-end acceptance gate: ten numbered criteria, one test (and one
pass/fail line under ``pytest -v``) per criterion."""

import math
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from conewalk import (
    ConeSpec,
    DriftClass,
    NoRecurrenceUpTo,
    OneDimModel,
    RecurrenceModel,
    StepDistribution,
    analyze,
    brute_force_excursion,
    brute_force_survival,
    classify_drift,
    closed_form_coefficients,
    escape_probability_bounds,
    estimate_rho,
    excursion_exponent_fit,
    excursion_sequence,
    guess_recurrence,
    laplace_eval,
    minimize_global,
    minimize_over_dual,
    simulate_survival,
    simulate_tilted,
    survival_sequence,
    tilted_survival_functional,
)
from conewalk._zoo import (EXTERIOR, FIVE_STEP, NEG_1D, POS_1D, SIMPLE, SYM_1D, TRAPPED,
                           walk)
from conewalk.errors import Unbounded
from conewalk.seqlab import power_law_slope


def _announce(num, elapsed, budget, detail=""):
    line = f"[criterion {num:02d}] PASS in {elapsed:.1f}s (budget {budget}s)"
    if detail:
        line += f" — {detail}"
    print(line)


def _oned(p, x=0):
    return OneDimModel(p=F(p), q=1 - F(p), x=x).to_walk_model()


def test_criterion_01_oracle_equivalence():
    started = time.monotonic()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        models = [
            SYM_1D, NEG_1D, POS_1D, _oned(F(2, 3), x=1), _oned(F(1, 3), x=2),
            FIVE_STEP, SIMPLE, EXTERIOR, TRAPPED,
            walk({(1, 1): F(1, 3), (0, -1): F(1, 3), (-1, 0): F(1, 3)}, (0, 0)),
            walk({(1, 0): F(1, 2), (-1, -1): F(1, 2)}, (0, 0)),
            walk({(1, 0): F(3, 5), (-1, 0): F(1, 5), (0, -1): F(1, 5)}, (1, 1)),
        ]
    assert len(models) == 12
    for model in models:
        assert list(survival_sequence(model, 10).terms) == \
            brute_force_survival(model, 10)
        target = tuple(model.start)
        assert list(excursion_sequence(model, target, 10).terms) == \
            brute_force_excursion(model, target, 10)
    elapsed = time.monotonic() - started
    assert elapsed < 10
    _announce(1, elapsed, 10, "12 models, survival+excursion vs enumeration, n<=10")


def test_criterion_02_oned_closed_form():
    started = time.monotonic()
    for p in (F(1, 2), F(1, 4), F(3, 4), F(2, 3)):
        for x in (0, 1, 2):
            m = OneDimModel(p=p, q=1 - p, x=x)
            assert closed_form_coefficients(m, 60) == \
                list(survival_sequence(m.to_walk_model(), 60).terms)
    elapsed = time.monotonic() - started
    assert elapsed < 5
    _announce(2, elapsed, 5, "12 (p, x) pairs match the DP exactly, n<=60")


def test_criterion_03_rate_recovery():
    started = time.monotonic()
    t0, rho, _ = minimize_over_dual(NEG_1D.dist, NEG_1D.cone)
    assert abs(rho - math.sqrt(3) / 2) <= 1e-10
    t0, rho2, _ = minimize_over_dual(EXTERIOR.dist, EXTERIOR.cone)
    assert abs(rho2 - 2 * math.sqrt(2) / 3) <= 1e-10

    terms_1d = closed_form_coefficients(OneDimModel(p=F(1, 4), q=F(3, 4)), 400)
    est = estimate_rho(terms_1d)
    assert abs(est.rho_hat - math.sqrt(3) / 2) <= 0.01 * (math.sqrt(3) / 2)

    terms_2d = survival_sequence(EXTERIOR, 400).terms
    est2 = estimate_rho(terms_2d)
    assert abs(est2.rho_hat - rho2) <= 0.01 * rho2
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _announce(3, elapsed, 60,
              f"rho exact to 1e-10; rho_hat off by "
              f"{abs(est2.rho_hat - rho2) / rho2:.2%} (2D)")


def test_criterion_04_fundamental_relation():
    started = time.monotonic()
    worst = 0.0
    for model in (NEG_1D, EXTERIOR):
        an = analyze(model.dist, model.cone)
        exact = survival_sequence(model, 200).floats()
        func = tilted_survival_functional(model, an.t0, 200)
        pref = math.exp(sum(t * x for t, x in zip(an.t0, model.start)))
        for n in range(201):
            recon = an.rho ** n * pref * func[n]
            rel = abs(recon - exact[n]) / exact[n]
            worst = max(worst, rel)
            assert rel <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 60
    _announce(4, elapsed, 60, f"worst relative error {worst:.2e} over n<=200")


def test_criterion_05_kkt_geometry():
    started = time.monotonic()
    rng = np.random.default_rng(20240)
    checked = 0
    while checked < 20:
        d = int(rng.integers(1, 4))
        vectors = set()
        while len(vectors) < 3 + d:
            v = tuple(int(c) for c in rng.integers(-2, 3, size=d))
            if any(v):
                vectors.add(v)
        raw = [int(w) for w in rng.integers(1, 10, size=len(vectors))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dist = StepDistribution(d, tuple(
                (v, F(w, sum(raw))) for v, w in zip(sorted(vectors), raw)))
        if not dist.truly_d_dimensional:
            continue
        try:
            t0, rho, _ = minimize_over_dual(dist, ConeSpec.orthant(d))
        except Unbounded:
            continue
        _, g, _ = laplace_eval(dist, t0)
        assert (g >= -1e-9).all()
        assert abs(float(np.dot(t0, g))) <= 1e-9
        cls = classify_drift(dist.drift, ConeSpec.orthant(d))
        if cls in (DriftClass.INTERIOR, DriftClass.BOUNDARY):
            assert abs(rho - 1.0) <= 1e-8
        checked += 1
    elapsed = time.monotonic() - started
    _announce(5, elapsed, "-", "20 randomized models satisfy the optimality geometry")


def test_criterion_06_non_rationality_evidence():
    started = time.monotonic()
    for model in (FIVE_STEP, SIMPLE):
        verdict = guess_recurrence(survival_sequence(model, 120).terms, 30)
        assert isinstance(verdict, NoRecurrenceUpTo)
        assert verdict.order_cap == 30

    found = guess_recurrence(survival_sequence(TRAPPED, 120).terms, 30)
    assert isinstance(found, RecurrenceModel) and found.order == 1

    fib = [F(1), F(1)]
    while len(fib) < 120:
        fib.append(fib[-1] + fib[-2])
    found = guess_recurrence(fib, 30)
    assert isinstance(found, RecurrenceModel) and found.order == 2
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _announce(6, elapsed, 120,
              "no recurrence up to order 30 on 120 terms; controls at orders 1/2")


def test_criterion_07_escape_bounds():
    started = time.monotonic()
    bounds = escape_probability_bounds(FIVE_STEP, 200)
    lo, hi = bounds.best
    assert max(a for a, _ in bounds.intervals) <= min(b for _, b in bounds.intervals)
    assert float(hi - lo) <= 1e-3

    proxy = simulate_survival(FIVE_STEP, 200, 10 ** 6, seed=2024)
    # the interval (width ~1e-6) is far narrower than the MC noise, so
    # "inside" is read as: within 4 standard errors of the interval
    distance = max(float(lo) - proxy.mean, proxy.mean - float(hi), 0.0)
    assert distance <= 4 * proxy.std_error

    oned = escape_probability_bounds(POS_1D, 60)
    assert oned.best == (F(2, 3), F(2, 3))
    elapsed = time.monotonic() - started
    assert elapsed < 120
    _announce(7, elapsed, 120,
              f"width {float(hi - lo):.2e}; MC proxy within "
              f"{distance / proxy.std_error:.2f} stderr of the interval")


def test_criterion_08_subexponential_profile():
    started = time.monotonic()
    terms = closed_form_coefficients(OneDimModel(p=F(1, 4), q=F(3, 4)), 400)
    rho = math.sqrt(3) / 2
    ns = list(range(100, 401))
    b = [float(terms[n]) / rho ** n for n in ns]
    slope, _ = power_law_slope(ns, b)
    assert abs(slope - (-1.5)) <= 0.1
    root = b[-1] ** (1.0 / 400)
    assert abs(root - 1.0) <= 0.02
    elapsed = time.monotonic() - started
    _announce(8, elapsed, "-",
              f"log-log slope {slope:.3f}; B_400^(1/400) = {root:.4f}")


def test_criterion_09_excursion_exponent():
    started = time.monotonic()
    _, rho_tilde = minimize_global(SIMPLE.dist)
    assert abs(rho_tilde - 1.0) <= 1e-10
    terms = excursion_sequence(SIMPLE, (0, 0), 400).terms
    fit = excursion_exponent_fit(terms, rho_tilde, (100, 400))
    assert all(n % 2 == 0 for n in fit.indices_used)
    assert abs(fit.kappa - 3.0) <= 0.15
    elapsed = time.monotonic() - started
    _announce(9, elapsed, "-", f"kappa_hat = {fit.kappa:.4f}, rho_tilde = 1")


def test_criterion_10_importance_sampling():
    started = time.monotonic()
    n, samples = 60, 10 ** 5
    exact = float(closed_form_coefficients(OneDimModel(p=F(1, 4), q=F(3, 4)), n)[n])
    an = analyze(NEG_1D.dist, NEG_1D.cone)
    tilted = simulate_tilted(NEG_1D, an, n, samples, seed=7)
    assert abs(tilted.mean - exact) <= 4 * tilted.std_error

    # a_60 ~ 1.6e-6, so an empirical plain-MC stderr at 1e5 samples is
    # usually zero hits; compare against the exact binomial stderr instead
    plain_rel_se = math.sqrt((1.0 - exact) / (exact * samples))
    assert tilted.std_error / tilted.mean <= 0.1 * plain_rel_se

    for sim, args in ((simulate_tilted, (NEG_1D, an, n, samples)),
                      (simulate_survival, (NEG_1D, n, samples))):
        one = sim(*args, seed=7, workers=1)
        eight = sim(*args, seed=7, workers=8)
        assert one.mean == eight.mean and one.std_error == eight.std_error
    elapsed = time.monotonic() - started
    _announce(10, elapsed, "-",
              f"z = {(tilted.mean - exact) / tilted.std_error:+.2f}; "
              f"rel SE ratio {tilted.std_error / tilted.mean / plain_rel_se:.3f}")
