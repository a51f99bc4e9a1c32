import math
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conewalk import (
    NoRecurrenceUpTo,
    RecurrenceModel,
    estimate_rho,
    excursion_exponent_fit,
    excursion_sequence,
    guess_recurrence,
    sequence_verdict,
    subexponential_profile,
    survival_sequence,
)
from conewalk.errors import (
    AllZeroOnWindow,
    InsufficientTerms,
    NonpositiveTerm,
    RateOutOfRange,
)
from conewalk import seqlab
from conewalk.seqlab import (
    HANKEL_PRIME,
    _connection_polynomial,
    _hankel_nonsingular,
    _integer_terms,
    berlekamp_massey,
    detect_period,
    exponential_polynomial,
    power_law_slope,
    recurrence_holds,
)


def fibonacci(n):
    out = [F(1), F(1)]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return out


def from_recurrence(initial, coeffs, n):
    out = [F(c) for c in initial]
    while len(out) < n:
        out.append(sum(c * out[-j - 1] for j, c in enumerate(coeffs)))
    return out


def fraction_berlekamp_massey(seq):
    """Berlekamp-Massey over the rationals, the oracle of the integer one:
    C(x) -= (d / d_B) x^s B(x), starting from discrepancy 1."""
    seq = [F(s) for s in seq]
    cur, prev = [F(1)], [F(1)]
    length, last_discrepancy, shift = 0, F(1), 1
    for n, s in enumerate(seq):
        d = s + sum(cur[i] * seq[n - i] for i in range(1, length + 1))
        if d == 0:
            shift += 1
            continue
        coeff = d / last_discrepancy
        old, cur = cur, cur + [F(0)] * (len(prev) + shift - len(cur))
        for i, b in enumerate(prev):
            cur[i + shift] -= coeff * b
        if 2 * length <= n:
            length, prev, last_discrepancy, shift = n + 1 - length, old, d, 1
        else:
            shift += 1
    coeffs = [-c for c in cur[1:length + 1]]
    return coeffs + [F(0)] * (length - len(coeffs))


def fraction_recurrence_holds(terms, coeffs):
    k = len(coeffs)
    return all(terms[n] == sum(c * terms[n - j - 1] for j, c in enumerate(coeffs))
               for n in range(k, len(terms)))


# windows whose minimal annihilator is not unique: the rational algorithm's
# choice depends on its initial discrepancy
NON_UNIQUE_WINDOWS = [
    ([F(0), F(1, 2)], [F(0), F(1, 2)]),
    ([F(0), F(0), F(3, 4)], [F(0), F(0), F(3, 4)]),
    ([F(2, 3), F(0), F(5)], [F(0), F(15, 2)]),
]

terms_strategy = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7),
                          max_size=14)


class TestIntegerBerlekampMassey:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), terms_strategy)
    def test_matches_fraction_oracle(self, zeros, terms):
        seq = [F(0)] * zeros + terms
        assert berlekamp_massey(seq) == fraction_berlekamp_massey(seq)
        # the content is divided out at every update, so the polynomial
        # stays primitive and its coefficients small
        poly, _length = _connection_polynomial(*_integer_terms(seq))
        assert math.gcd(*poly) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                    min_size=1, max_size=3),
           st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                    min_size=3, max_size=3),
           st.integers(0, 2), terms_strategy)
    def test_guess_matches_fraction_oracle(self, coeffs, initial, zeros, noise):
        k_max = 4
        for seq in ([F(0)] * zeros + from_recurrence(initial[:len(coeffs)], coeffs, 18),
                    [F(0)] * zeros + noise + [F(1)] * (2 * k_max + 8)):
            window = fraction_berlekamp_massey(seq[:2 * k_max])
            rational = len(window) <= k_max and fraction_recurrence_holds(seq, window)
            outcome = guess_recurrence(seq, k_max)
            if rational:
                assert outcome.coefficients == tuple(window)
            else:
                assert isinstance(outcome, NoRecurrenceUpTo)

    @pytest.mark.parametrize("seq, coeffs", NON_UNIQUE_WINDOWS)
    def test_non_unique_windows(self, seq, coeffs):
        assert berlekamp_massey(seq) == coeffs == fraction_berlekamp_massey(seq)

    def test_initial_discrepancy_one_is_caught(self):
        # starting the scaled terms from discrepancy 1 instead of the scale
        # changes the answer on a non-unique window; the checks above catch it
        for seq, coeffs in NON_UNIQUE_WINDOWS:
            ints, scale = _integer_terms(seq)
            poly, _ = _connection_polynomial(ints, scale)
            assert [F(-c, poly[0]) for c in poly[1:]] == coeffs
        ints, scale = _integer_terms([F(0), F(1, 2)])
        poly, _ = _connection_polynomial(ints, 1)
        assert [F(-c, poly[0]) for c in poly[1:]] == [F(0), F(1)]


class TestBerlekampMassey:
    def test_fibonacci(self):
        assert berlekamp_massey(fibonacci(12)) == [F(1), F(1)]

    def test_geometric(self):
        seq = [F(1, 3) ** k for k in range(10)]
        assert berlekamp_massey(seq) == [F(1, 3)]

    def test_constant(self):
        assert berlekamp_massey([F(5)] * 8) == [F(1)]

    def test_zero_sequence(self):
        assert berlekamp_massey([F(0)] * 8) == []

    def test_eventually_zero_needs_shift(self):
        # 1,1,0,0,... satisfies a_n = 0*a_{n-1} + 0*a_{n-2} from n=2 on
        coeffs = berlekamp_massey([F(1), F(1)] + [F(0)] * 10)
        assert coeffs == [F(0), F(0)]
        assert recurrence_holds([F(1), F(1)] + [F(0)] * 10, coeffs)

    def test_order_three(self):
        coeffs = [F(1, 2), F(-1, 3), F(2)]
        seq = from_recurrence([1, 2, 1], coeffs, 20)
        assert berlekamp_massey(seq) == coeffs

    def test_minimality(self):
        # a doubly-geometric mix needs order exactly 2
        seq = [F(2) ** k + F(3) ** k for k in range(12)]
        assert len(berlekamp_massey(seq)) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.fractions(min_value=-3, max_value=3), min_size=1,
                    max_size=4),
           st.lists(st.fractions(min_value=-3, max_value=3), min_size=4,
                    max_size=4))
    def test_round_trip_random_recurrences(self, coeffs, initial):
        k = len(coeffs)
        seq = from_recurrence(initial[:k], coeffs, 4 * k + 8)
        found = berlekamp_massey(seq)
        assert len(found) <= k
        assert recurrence_holds(seq, found)


class TestRecurrenceHolds:
    def test_accepts_true_recurrence(self):
        assert recurrence_holds(fibonacci(10), [F(1), F(1)])

    def test_rejects_false_recurrence(self):
        assert not recurrence_holds(fibonacci(10), [F(2)])

    def test_start_offset(self):
        terms = [F(7), F(1), F(1), F(2), F(3), F(5)]
        assert not recurrence_holds(terms, [F(1), F(1)], start=2)
        assert recurrence_holds(terms, [F(1), F(1)], start=3)


class TestGuessRecurrence:
    def test_fibonacci_model(self):
        model = guess_recurrence(fibonacci(30), 5)
        assert isinstance(model, RecurrenceModel)
        assert model.order == 2
        assert model.coefficients == (F(1), F(1))

    def test_decomposition_golden_ratio(self):
        model = guess_recurrence(fibonacci(30), 5)
        roots = sorted(model.decomposition.roots, key=abs)
        assert abs(roots[-1] - (1 + math.sqrt(5)) / 2) < 1e-9
        for n in (5, 10, 20):
            assert model.decomposition.evaluate(n).real == pytest.approx(
                float(fibonacci(30)[n]), rel=1e-8)

    def test_trapped_sequence_order_one(self, trapped_2d):
        terms = survival_sequence(trapped_2d, 40).terms
        model = guess_recurrence(terms, 8)
        assert model.order == 1
        assert model.coefficients == (F(1),)

    def test_positive_drift_1d_not_rational(self, pos_1d):
        # the square root in the first-passage transform shows up as a
        # persistent n^(-3/2) factor, so no fixed-order recurrence fits
        terms = survival_sequence(pos_1d, 80).terms
        assert isinstance(guess_recurrence(terms, 10), NoRecurrenceUpTo)

    def test_no_recurrence_for_quarter_plane(self, five_step_model):
        terms = survival_sequence(five_step_model, 70).terms
        verdict = guess_recurrence(terms, 15)
        assert isinstance(verdict, NoRecurrenceUpTo)
        assert verdict.order_cap == 15

    def test_insufficient_terms(self):
        with pytest.raises(InsufficientTerms):
            guess_recurrence(fibonacci(10), 5)

    def test_holdout_rejects_near_miss(self):
        # agrees with order 1 on the window, breaks on the held-out tail
        seq = [F(2) ** k for k in range(20)] + [F(999)]
        assert isinstance(guess_recurrence(seq, 5), NoRecurrenceUpTo)


def bm_only():
    """guess_recurrence with the Hankel certificate off: Berlekamp-Massey
    decides every sequence."""
    return mock.patch.object(seqlab, "_hankel_nonsingular", return_value=False)


def spy_bm():
    return mock.patch.object(seqlab, "_connection_polynomial",
                             wraps=seqlab._connection_polynomial)


class TestHankelCertificate:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 3), st.data())
    def test_matches_the_exact_determinant(self, k, data):
        # |det| <= (3 * 2)^4 < p, so it is nonzero over Z iff nonzero mod p, and
        # a float determinant of so small an integer matrix rounds to it exactly
        seq = data.draw(st.lists(st.integers(-3, 3), min_size=2 * k + 2, max_size=2 * k + 4))
        det = round(np.linalg.det([[float(seq[i + j]) for j in range(k + 1)]
                                   for i in range(k + 1)]))
        assert _hankel_nonsingular(seq, k) == (det != 0)

    def test_known_matrices(self):
        # [[0, 1], [1, 0]] is nonsingular; a_1..a_3 would give [[1, 0], [0, 0]]
        assert _hankel_nonsingular([0, 1, 0, 0], 1)
        assert not _hankel_nonsingular([1, 0, 0, 5], 1)
        # singular with a pivot of 3, whose inverse the elimination needs
        assert not _hankel_nonsingular([3, 6, 12, 24], 1)
        assert _hankel_nonsingular([3, 6, 13, 24], 1)
        # entries past p are reduced: [[p, 1], [1, 1]] is [[0, 1], [1, 1]] mod p
        assert _hankel_nonsingular([HANKEL_PRIME, 1, 1, 0], 1)

    def test_singular_mod_p_alone_proves_nothing(self):
        # det [[p, 0], [0, 1]] = p: nonsingular over Z, singular mod p, so
        # Berlekamp-Massey decides
        seq = [F(HANKEL_PRIME), F(0), F(1)] + [F(n * n + 7) for n in range(8)]
        assert not _hankel_nonsingular(_integer_terms(seq)[0], 1)
        with spy_bm() as bm:
            assert guess_recurrence(seq, 1) == NoRecurrenceUpTo(1, len(seq))
        assert bm.called

    def test_recurrences_reach_berlekamp_massey(self, trapped_2d):
        for terms, k_max, order in ((fibonacci(30), 5, 2),
                                    (survival_sequence(trapped_2d, 40).terms, 8, 1)):
            assert not _hankel_nonsingular(_integer_terms(terms)[0], k_max)
            with spy_bm() as bm:
                outcome = guess_recurrence(terms, k_max)
            assert bm.called
            assert outcome.order == order

    def test_leading_zeros_reach_berlekamp_massey(self):
        # k + 1 leading zeros make the first row of the Hankel matrix zero
        k_max = 4
        seq = [F(0)] * (k_max + 1) + [F(n * n + 1, n + 2) for n in range(16)]
        assert not _hankel_nonsingular(_integer_terms(seq)[0], k_max)
        with spy_bm() as bm:
            outcome = guess_recurrence(seq, k_max)
        assert bm.called
        assert outcome == NoRecurrenceUpTo(k_max, len(seq))
        with bm_only():
            assert guess_recurrence(seq, k_max) == outcome

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 3), terms_strategy, st.integers(0, 4))
    def test_same_outcome_as_berlekamp_massey(self, zeros, noise, k_max):
        seq = [F(0)] * zeros + noise + [F(1)] * (2 * k_max + 8)
        outcome = guess_recurrence(seq, k_max)
        with bm_only():
            assert guess_recurrence(seq, k_max) == outcome

    def test_quarter_plane_survival_is_certified(self, five_step_model, exterior_2d):
        for model, n in ((five_step_model, 120), (exterior_2d, 250)):
            terms = survival_sequence(model, n).terms
            assert _hankel_nonsingular(_integer_terms(terms)[0], 30)
            with spy_bm() as bm:
                outcome = guess_recurrence(terms, 30)
            assert not bm.called
            assert outcome == NoRecurrenceUpTo(30, n + 1)
            with bm_only():
                assert guess_recurrence(terms, 30) == outcome


class TestExponentialPolynomial:
    def test_repeated_root(self):
        # a_n = (1 + n) 2^n satisfies a_n = 4a_{n-1} - 4a_{n-2}
        seq = [F(1 + n) * F(2) ** n for n in range(16)]
        coeffs = berlekamp_massey(seq)
        assert coeffs == [F(4), F(-4)]
        decomp = exponential_polynomial(coeffs, seq)
        assert decomp.multiplicities == (2,)
        for n in (3, 7, 12):
            assert decomp.evaluate(n).real == pytest.approx(float(seq[n]), rel=1e-7)


class TestEstimateRho:
    def test_geometric_exact(self):
        terms = [F(9, 10) ** k for k in range(64)]
        est = estimate_rho(terms)
        assert est.rho_hat == pytest.approx(0.9, abs=1e-9)
        assert est.residual < 1e-9

    def test_with_power_law_factor(self):
        terms = [0.8 ** k / (k + 1) ** 1.5 for k in range(200)]
        est = estimate_rho(terms)
        # the power-law factor biases the log slope by about 1.5/n
        assert est.rho_hat == pytest.approx(0.8, abs=2e-2)
        assert est.raw_nth_root < 0.8  # polynomial factor drags the root down

    def test_needs_enough_terms(self):
        with pytest.raises(InsufficientTerms):
            estimate_rho([F(1)] * 10)

    def test_rejects_zeros(self):
        with pytest.raises(NonpositiveTerm):
            estimate_rho([F(1)] * 31 + [F(0)])


class TestSubexponentialProfile:
    def test_pure_geometric_is_flat(self):
        terms = [F(1, 2) ** k for k in range(40)]
        prof = subexponential_profile(terms, 0.5)
        assert prof.nth_root_dev < 1e-12
        assert prof.trend == "flat"

    def test_polynomial_factor_detected(self):
        terms = [0.9 ** k * (k + 1) ** -1.5 for k in range(60)]
        prof = subexponential_profile(terms, 0.9)
        assert prof.trend == "decreasing"
        assert prof.nth_root_dev < 0.2

    def test_shift_removes_constant(self, pos_1d):
        terms = survival_sequence(pos_1d, 60).terms
        prof = subexponential_profile(terms, math.sqrt(3) / 2, a_inf=2 / 3)
        assert prof.trend == "decreasing"

    def test_rho_validated(self):
        with pytest.raises(RateOutOfRange):
            subexponential_profile([F(1)] * 5, 1.5)


class TestPeriodAndExponent:
    def test_detect_period(self):
        assert detect_period([F(1), F(0), F(1), F(0), F(1)]) == 2
        assert detect_period([F(1), F(1), F(1)]) == 1
        assert detect_period([F(1), F(0), F(0)]) == 0

    def test_power_law_slope(self):
        ns = list(range(10, 200))
        vals = [3.0 * n ** -1.5 for n in ns]
        slope, rms = power_law_slope(ns, vals)
        assert slope == pytest.approx(-1.5, abs=1e-9)
        assert rms < 1e-9

    def test_excursion_exponent_synthetic(self):
        rho = 0.7
        terms = [rho ** n * (n + 1) ** -3.0 for n in range(300)]
        fit = excursion_exponent_fit(terms, rho, (100, 299))
        assert fit.kappa == pytest.approx(3.0, abs=0.05)

    def test_excursion_exponent_skips_zero_indices(self, simple_walk_2d):
        terms = excursion_sequence(simple_walk_2d, (0, 0), 160).terms
        fit = excursion_exponent_fit(terms, 1.0, (40, 160))
        assert all(n % 2 == 0 for n in fit.indices_used)
        assert fit.kappa == pytest.approx(3.0, abs=0.3)

    def test_all_zero_window(self):
        terms = [F(1)] + [F(0)] * 50
        with pytest.raises(AllZeroOnWindow):
            excursion_exponent_fit(terms, 0.5, (10, 40))


class TestSequenceVerdict:
    def test_rational_sequence(self, trapped_2d):
        terms = survival_sequence(trapped_2d, 60).terms
        v = sequence_verdict(terms, 10, rho=1.0)
        assert isinstance(v.outcome, RecurrenceModel)
        assert v.outcome.order == 1
        assert v.rho_source == "laplace"

    def test_non_rational_sequence(self, exterior_2d):
        terms = survival_sequence(exterior_2d, 80).terms
        v = sequence_verdict(terms, 10)
        assert isinstance(v.outcome, NoRecurrenceUpTo)
        assert v.rho_source == "sequence"
        assert v.rate is not None
        assert 0 < v.rho_hat < 1
