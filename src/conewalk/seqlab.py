"""Rationality testing and growth diagnostics for exact sequences.

A sequence has a rational generating function iff it eventually satisfies a
fixed linear recurrence, in which case its terms are exponential-polynomials
in n. We synthesize the minimal recurrence on a fitting window and verify it
on held-out terms, both exactly in integer arithmetic on the terms scaled by
the lcm of their denominators; diagnostics (decay rate and subexponential
factor) are floating point.

A certificate runs first: a recurrence of order <= k on a_0..a_2k is a null
vector of the Hankel matrix [a_{i+j}], i, j <= k, so when that matrix is
nonsingular mod one prime below 2^31 (int64 elimination) there is none, and
the synthesis is skipped.  A matrix singular mod p proves nothing, and the
synthesis runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    AllZeroOnWindow,
    InsufficientTerms,
    NonpositiveTerm,
    RateOutOfRange,
)

MIN_EXTRA_TERMS = 8
HANKEL_PRIME = 2 ** 31 - 1  # a product of two residues fits an int64
MIN_RATE_TERMS = 32  # fewest terms estimate_rho fits a decay rate on
ROOT_CLUSTER_TOL = 1e-7


def _integer_terms(seq: Sequence[Fraction]) -> tuple[list[int], int]:
    """The terms, ints or Fractions, scaled by M, the lcm of their
    denominators, and M."""
    scale = math.lcm(*(s.denominator for s in seq))
    return [s.numerator * (scale // s.denominator) for s in seq], scale


def _connection_polynomial(seq: Sequence[int], scale: int) -> tuple[list[int], int]:
    """Fraction-free Berlekamp-Massey on the integer terms of a sequence
    scaled by ``scale``: the minimal length L and an integer multiple of the
    connection polynomial C(x) = 1 - c_1 x - ... - c_L x^L, padded to L + 1
    coefficients.

    It keeps C and B, the copy before the last length change, up to integer
    factors.  With d the discrepancy of C and d_B that of B, the rational
    update C -= (d / d_B) x^s B becomes C <- d_B C - d x^s B, and dividing
    out the content keeps the coefficients small.  The initial d_B is the
    scale: the rational algorithm on the unscaled terms starts from 1.
    """
    cur, prev = [1], [1]
    length = 0
    last_discrepancy = scale
    shift = 1
    for n in range(len(seq)):
        d = sum(cur[i] * seq[n - i] for i in range(length + 1))
        if d == 0:
            shift += 1
            continue
        old = cur
        cur = [last_discrepancy * c for c in cur]
        cur += [0] * (len(prev) + shift - len(cur))
        for i, b in enumerate(prev):
            cur[i + shift] -= d * b
        content = math.gcd(*cur)
        cur = [c // content for c in cur]
        if 2 * length <= n:
            length = n + 1 - length
            prev = old
            last_discrepancy = d
            shift = 1
        else:
            shift += 1
    cur += [0] * (length + 1 - len(cur))
    return cur[:length + 1], length


def _hankel_nonsingular(seq: Sequence[int], k: int) -> bool:
    """Whether the (k+1) x (k+1) Hankel matrix [a_{i+j}] of the integer terms
    a_0..a_2k is nonsingular mod HANKEL_PRIME, by Gaussian elimination on
    int64 residues.  A matrix nonsingular mod p is nonsingular over Z."""
    p, size = HANKEL_PRIME, k + 1
    residues = np.array([a % p for a in seq[:2 * size - 1]], dtype=np.int64)
    h = residues[np.add.outer(np.arange(size), np.arange(size))]
    for col in range(size):
        rows = np.flatnonzero(h[col:, col])
        if not rows.size:
            return False
        if rows[0]:
            h[[col, col + rows[0]]] = h[[col + rows[0], col]]
        inverse = pow(int(h[col, col]), p - 2, p)
        below = h[col + 1:, col + 1:]  # a view: the Schur complement in place
        below -= (h[col + 1:, col] * inverse % p)[:, None] * h[col, col + 1:] % p
        below %= p
    return True


def berlekamp_massey(seq: Sequence[Fraction]) -> list[Fraction]:
    """Minimal connection coefficients c with a_n = sum_j c_j a_{n-j}.

    Runs on the terms scaled to integers and returns exactly what the
    algorithm over the rationals returns, also on a window whose minimal
    annihilator is not unique.
    """
    poly, _length = _connection_polynomial(*_integer_terms([Fraction(s) for s in seq]))
    return [Fraction(-c, poly[0]) for c in poly[1:]]


def _annihilates(poly: Sequence[int], seq: Sequence[int], start: int) -> bool:
    """Whether sum_j poly[j] a_{n-j} = 0 for every n >= start."""
    k = len(poly) - 1
    return all(sum(c * seq[n - j] for j, c in enumerate(poly)) == 0
               for n in range(max(start, k), len(seq)))


def recurrence_holds(terms: Sequence[Fraction], coeffs: Sequence[Fraction],
                     start: int = None) -> bool:
    """Exact check of a_n = sum_j c_j a_{n-j} for n >= start."""
    coeffs = [Fraction(c) for c in coeffs]
    lead = math.lcm(*(c.denominator for c in coeffs))
    poly = [lead] + [-c.numerator * (lead // c.denominator) for c in coeffs]
    seq, _scale = _integer_terms([Fraction(t) for t in terms])
    return _annihilates(poly, seq, len(coeffs) if start is None else start)


@dataclass(frozen=True)
class ExponentialPolynomial:
    """Decomposition a_n ~= sum_j P_j(n) r_j^n from the characteristic roots."""

    roots: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    coefficients: tuple[tuple[complex, ...], ...]  # P_j coefficients, low degree first

    def evaluate(self, n: int) -> complex:
        total = 0j
        for r, m, cs in zip(self.roots, self.multiplicities, self.coefficients):
            poly = sum(c * n ** e for e, c in enumerate(cs))
            total += poly * r ** n
        return total


@dataclass(frozen=True)
class RecurrenceModel:
    order: int
    coefficients: tuple[Fraction, ...]
    decomposition: ExponentialPolynomial | None = None


@dataclass(frozen=True)
class NoRecurrenceUpTo:
    order_cap: int
    terms_used: int


def _cluster_roots(raw: np.ndarray) -> tuple[list[complex], list[int]]:
    roots: list[complex] = []
    counts: list[int] = []
    for r in sorted(raw, key=lambda z: (round(z.real, 6), round(z.imag, 6))):
        for i, existing in enumerate(roots):
            if abs(r - existing) <= ROOT_CLUSTER_TOL * max(1.0, abs(existing)):
                counts[i] += 1
                break
        else:
            roots.append(complex(r))
            counts.append(1)
    return roots, counts


def exponential_polynomial(coeffs: Sequence[Fraction],
                           terms: Sequence[Fraction]) -> ExponentialPolynomial:
    """Fit the exponential-polynomial form implied by the recurrence roots."""
    k = len(coeffs)
    charpoly = [1.0] + [-float(c) for c in coeffs]
    raw = np.roots(charpoly) if k else np.array([])
    roots, mults = _cluster_roots(raw)
    columns = []
    keys = []
    rows = min(len(terms), max(2 * k, k + 4))
    ns = np.arange(rows)
    for r, m in zip(roots, mults):
        for e in range(m):
            columns.append((ns ** e) * np.power(complex(r), ns))
            keys.append((r, e))
    a = np.column_stack(columns)
    b = np.array([float(t) for t in terms[:rows]], dtype=complex)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    per_root: list[tuple[complex, ...]] = []
    idx = 0
    for m in mults:
        per_root.append(tuple(complex(sol[idx + e]) for e in range(m)))
        idx += m
    return ExponentialPolynomial(
        roots=tuple(roots), multiplicities=tuple(mults),
        coefficients=tuple(per_root),
    )


def require_terms(count: int, k_max: int) -> None:
    """Raise InsufficientTerms unless ``count`` terms are enough to guess a
    recurrence of order <= k_max."""
    if count < 2 * k_max + MIN_EXTRA_TERMS:
        raise InsufficientTerms(
            f"need at least {2 * k_max + MIN_EXTRA_TERMS} terms, got {count}"
        )


def guess_recurrence(terms: Sequence[Fraction], k_max: int):
    """Minimal linear recurrence fitted on 2*k_max terms, verified on the rest.

    Returns a RecurrenceModel, or NoRecurrenceUpTo when no recurrence of
    order <= k_max reproduces every held-out term exactly.  When the Hankel
    matrix of a_0..a_2k (k = k_max) is nonsingular mod a prime, no recurrence
    of order <= k_max holds even on those terms, so the answer is
    NoRecurrenceUpTo without Berlekamp-Massey: a candidate fitted on
    a_0..a_(2k-1) fails by a_2k.
    """
    terms = [Fraction(t) for t in terms]
    require_terms(len(terms), k_max)
    seq, scale = _integer_terms(terms)
    if _hankel_nonsingular(seq, k_max):
        return NoRecurrenceUpTo(order_cap=k_max, terms_used=len(terms))
    poly, order = _connection_polynomial(seq[: 2 * k_max], scale)
    if order > k_max or not _annihilates(poly, seq, order):
        return NoRecurrenceUpTo(order_cap=k_max, terms_used=len(terms))
    coeffs = [Fraction(-c, poly[0]) for c in poly[1:]]
    decomposition = exponential_polynomial(coeffs, terms) if order else None
    return RecurrenceModel(order=order, coefficients=tuple(coeffs),
                           decomposition=decomposition)


@dataclass(frozen=True)
class RateEstimate:
    rho_hat: float
    raw_nth_root: float
    fit_window: tuple[int, int]
    residual: float


def estimate_rho(terms: Sequence) -> RateEstimate:
    """Decay rate from the slope of log a_n over the last half of the terms."""
    if len(terms) < MIN_RATE_TERMS:
        raise InsufficientTerms(f"need at least {MIN_RATE_TERMS} terms, got {len(terms)}")
    vals = [float(t) for t in terms]
    if any(v <= 0 for v in vals):
        raise NonpositiveTerm("rate estimation needs strictly positive terms")
    lo = len(vals) // 2
    ns = np.arange(lo, len(vals))
    logs = np.log(np.array(vals[lo:]))
    slope, intercept = np.polyfit(ns, logs, 1)
    resid = float(np.sqrt(np.mean((logs - (slope * ns + intercept)) ** 2)))
    last = len(vals) - 1
    return RateEstimate(
        rho_hat=float(math.exp(slope)),
        raw_nth_root=vals[last] ** (1.0 / last),
        fit_window=(lo, last),
        residual=resid,
    )


@dataclass(frozen=True)
class SubexpProfile:
    b: tuple[float, ...]          # B_n = (a_n - a_inf) / rho^n
    nth_root_dev: float           # max |B_n^{1/n} - 1| over the last quarter
    trend: str                    # "decreasing" | "increasing" | "flat"


def subexponential_profile(terms: Sequence, rho: float,
                           a_inf: float | None = None) -> SubexpProfile:
    """Subexponential factor of a_n = a_inf + rho^n B_n, as a diagnostic."""
    if not 0 < rho <= 1:
        raise RateOutOfRange(f"rho must be in (0, 1], got {rho}")
    shift = float(a_inf) if a_inf is not None else 0.0
    b = []
    log_rho = math.log(rho)
    for n, t in enumerate(terms):
        delta = float(t) - shift
        b.append(delta * math.exp(-n * log_rho))
    quarter = [(n, v) for n, v in enumerate(b) if n >= 3 * len(b) // 4 and n > 0 and v > 0]
    dev = max((abs(v ** (1.0 / n) - 1.0) for n, v in quarter), default=float("nan"))
    start = b[len(b) // 2] if len(b) > 1 else b[0]
    end = b[-1]
    if end < start * (1 - 1e-9):
        trend = "decreasing"
    elif end > start * (1 + 1e-9):
        trend = "increasing"
    else:
        trend = "flat"
    return SubexpProfile(b=tuple(b), nth_root_dev=float(dev), trend=trend)


def power_law_slope(indices: Sequence[int], values: Sequence[float]):
    """Least-squares slope of log(values) vs log(indices); returns (slope, rms)."""
    ns = np.log(np.array([float(i) for i in indices]))
    vs = np.log(np.array([float(v) for v in values]))
    slope, intercept = np.polyfit(ns, vs, 1)
    rms = float(np.sqrt(np.mean((vs - (slope * ns + intercept)) ** 2)))
    return float(slope), rms


def detect_period(terms: Sequence) -> int:
    """gcd of the indices carrying nonzero terms (0 if all zero)."""
    g = 0
    for n, t in enumerate(terms):
        if n > 0 and t != 0:
            g = math.gcd(g, n)
    return g


@dataclass(frozen=True)
class ExponentFit:
    kappa: float
    residual: float
    indices_used: tuple[int, ...]


def excursion_exponent_fit(terms: Sequence, tilde_rho: float,
                           window: tuple[int, int]) -> ExponentFit:
    """Fit e_n ~ C tilde_rho^n n^(-kappa) on the positive terms of a window,
    at n >= 1 (log n is the fit's abscissa)."""
    lo, hi = window
    log_rho = math.log(tilde_rho)
    idx = [n for n in range(max(lo, 1), min(hi + 1, len(terms))) if float(terms[n]) > 0]
    if len(idx) < 2:
        raise AllZeroOnWindow(
            f"the fit needs two positive terms at n >= 1 on the window, got {len(idx)}")
    vals = [float(terms[n]) * math.exp(-n * log_rho) for n in idx]
    slope, rms = power_law_slope(idx, vals)
    return ExponentFit(kappa=-slope, residual=rms, indices_used=tuple(idx))


@dataclass(frozen=True)
class SequenceVerdict:
    """Combined rationality verdict and growth diagnostics for one sequence."""

    outcome: RecurrenceModel | NoRecurrenceUpTo
    rho_hat: float
    rho_source: str               # "laplace" | "sequence" | "assumed"
    profile: SubexpProfile
    rate: RateEstimate | None = field(default=None, compare=False)


def sequence_verdict(terms: Sequence[Fraction], k_max: int,
                     rho: float | None = None,
                     a_inf: float | None = None) -> SequenceVerdict:
    """Run the standard battery on one exact sequence."""
    outcome = guess_recurrence(terms, k_max)
    rate = None
    if rho is not None:
        rho_hat, source = float(rho), "laplace"
    elif len(terms) < MIN_RATE_TERMS:  # too few terms to estimate a rate
        rho_hat, source = 1.0, "assumed"
    else:
        rate = estimate_rho(terms)
        rho_hat, source = rate.rho_hat, "sequence"
    profile = subexponential_profile(terms, min(rho_hat, 1.0), a_inf=a_inf)
    return SequenceVerdict(outcome=outcome, rho_hat=rho_hat, rho_source=source,
                           profile=profile, rate=rate)
