"""The exact exponential tilt of a walk on its step lattice.

Where the integer weights are an exponential family on the lattice L spanned
by the step differences, c_v = lambda * psi(v) with psi multiplicative,
every path of k steps from the start to x has the same weight
w_k(x) = lambda^k psi(x - start), an integer: this is the exact lattice form
of the Laplace tilt.  ``lattice_tilt`` finds it by exact arithmetic and
gives every other walk the identity tilt w_k = 1; ``LatticeTilt`` evaluates
w_k, which ``exact_dp`` applies where it reads, for every walk alike.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .model import WalkModel


class LatticeTilt:
    """The tilt of a walk with c_v = lambda * psi(v): over integers q,
    psi(v) = prod_q q^(u_q . v) and lambda = prod_q q^(alpha_q).
    A path of k steps from the start to x weighs w_k(x) = prod_q q^(e_q) with
    e_q = (k A_q + U_q . (x - start)) / m, for m the index of L in Z^d and the
    integers U_q = m u_q and A_q = m alpha_q; e_q is an integer on the coset
    that layer k occupies, and w_k(x) an integer where a path reaches x.
    With no q at all it is the identity tilt, w_k = 1; m is the index all
    the same (1 where L is not of full rank), the modulus of the layers."""

    def __init__(self, m: int, start: tuple, powers: tuple):
        self.m, self.start = m, start
        self.powers = powers  # (q, A_q, U_q) per q

    def weight(self, k: int, x) -> tuple[int, int]:
        """w_k(x) as a numerator and a denominator."""
        num = den = 1
        for q, a, u in self.powers:
            e = (k * a + sum(c * (y - s) for c, y, s in zip(u, x, self.start))) // self.m
            if e >= 0:
                num *= q ** e
            else:
                den *= q ** -e
        return num, den

    def times_power(self, axis: int, ratio: Fraction) -> LatticeTilt:
        """This tilt times ratio^(x_axis - start_axis), for a ratio q/p > 0:
        q with U_q = m e_axis and p with U_p = -m e_axis, both with A = 0."""
        unit = tuple(self.m if i == axis else 0 for i in range(len(self.start)))
        return LatticeTilt(self.m, self.start, self.powers + (
            (ratio.numerator, 0, unit), (ratio.denominator, 0, tuple(-c for c in unit))))

    def axis_weights(self, lengths) -> tuple[list, int]:
        """Per axis i, the integers t_i[j] = a_i^j b_i^(L_i - 1 - j) for
        j < L_i, with a_i / b_i = w_k(x + m e_i) / w_k(x) in lowest terms
        (None where that ratio is 1), and their scale prod_i b_i^(L_i - 1):
        within a class, w_k(x + m j) / w_k(x) = prod_i t_i[j_i] / scale.  The
        powers may repeat a q, so a q can enter both a_i and b_i."""
        vectors, scale = [], 1
        for i, length in enumerate(lengths):
            a = b = 1
            for q, _a, u in self.powers:
                if u[i] > 0:
                    a *= q ** u[i]
                else:
                    b *= q ** -u[i]
            g = math.gcd(a, b)
            a, b = a // g, b // g
            vectors.append(None if a == b else np.array(
                [a ** j * b ** (length - 1 - j) for j in range(length)], dtype=object))
            scale *= b ** (length - 1)
        return vectors, scale


def _coprime_base(values) -> list[int]:
    """Pairwise coprime integers > 1 of which every value is a product: a
    value and a base element that share a gcd g > 1 are split into g, b/g
    and x/g.  Each split divides the product of what is left by g, so it
    ends, and nothing is factored."""
    base, pending = [], list(values)
    while pending:
        x = pending.pop()
        b = next((b for b in base if math.gcd(x, b) > 1), None)
        if b is None:
            if x > 1:
                base.append(x)
            continue
        g = math.gcd(x, b)
        base.remove(b)
        pending += [g, b // g, x // g]
    return base


def _multiplicity(c: int, q: int) -> int:
    """The exponent of q in c."""
    e = 0
    while c % q == 0:
        c, e = c // q, e + 1
    return e


def _solve(rows, rhs):
    """The exact solution u of rows . u = rhs[:, j] for every column j, one
    row of u per unknown, or None when some column has none or the rows lack
    full column rank."""
    d = len(rows[0])
    a = [[Fraction(x) for x in row] + [Fraction(y) for y in b] for row, b in zip(rows, rhs)]
    for col in range(d):
        pivot = next((i for i in range(col, len(a)) if a[i][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        a = [row if i == col or not row[col] else [x - row[col] * y for x, y in zip(row, a[col])]
             for i, row in enumerate(a)]
    return None if any(x for row in a[d:] for x in row[d:]) else [row[d:] for row in a[:d]]


def lattice_tilt(model: WalkModel) -> LatticeTilt:
    """The tilt of the walk's integer weights.

    There is one when the integer weights are c_v = c_v0 phi(v - v0) for a
    homomorphism phi from L to Q>0: for each q of the weights' coprime base,
    the exponent of q in c_v less that in c_v0 is, on every step, one
    rational linear form u_q of v - v0, solved for exactly.  Uniform walks,
    walks whose steps differ in fewer than d directions and weights with no
    such phi get the identity tilt.  Its m is the index of L in Z^d either
    way, 1 where L is not of full rank: ``StepDistribution.lattice_index``.
    """
    steps, _den = model.dist.integer_weights()
    (v0, c0), *rest = steps
    d, m = model.dimension, model.dist.lattice_index
    identity = LatticeTilt(m, tuple(model.start), ())
    if all(c == c0 for _, c in rest):
        return identity
    base = _coprime_base([c for _, c in steps])
    exps = [[_multiplicity(c, q) for q in base] for _, c in steps]
    rows = [[a - b for a, b in zip(v, v0)] for v, _ in rest]
    forms = _solve(rows, [[e - e0 for e, e0 in zip(row, exps[0])] for row in exps[1:]])
    if forms is None:
        return identity
    powers = []
    for j, q in enumerate(base):
        u = [forms[i][j] for i in range(d)]
        alpha = exps[0][j] - sum(a * b for a, b in zip(u, v0))
        powers.append((q, int(m * alpha), tuple(int(m * c) for c in u)))
    return LatticeTilt(m, tuple(model.start), tuple(powers))
