"""Degree-2 theta constants and odd theta gradients; seed expansions.

Theta series with characteristic (mu', mu''), mu-entries in {0, 1/2}:

    theta[mu', mu''](tau, z)
        = sum_{n in Z^2} exp(pi*i (n+mu')^t tau (n+mu')
                             + 2*pi*i (n+mu')^t (z+mu''))

With q1 = e^(2 pi i tau11), q2 = e^(2 pi i tau22), r = e^(2 pi i tau12),
the n-term carries q1^((n1+mu1)^2/2) q2^((n2+mu2)^2/2) r^((n1+mu1)(n2+mu2)).
With t = 2n + 2mu', a theta series is a cell map in eighth units, the same
{(n1, n2): (LaurentPoly, ...)} layout as ``FourierExpansion.cells``: key
(t1^2, t2^2), so everything is integer arithmetic.  Even constants have
one coordinate with coefficients +-1; an odd gradient has two coordinates
(the z1- and z2-partials), scaled by 2 (making them integers) with the
constant global phase (a fourth root of unity per characteristic) dropped
— all exposed forms are pinned by an explicit normalization, so global
phases are unobservable.

The r-exponents live on the r^2 lattice.  The term t has r-exponent
t1*t2 in quarter units, odd exactly when mu' = (1/2, 1/2), so all the
exponents of one series have the parity p = m1[0] * m1[1]
(``ThetaCharacteristic.r_parity``): the series is r^p * Y(r^2), and the
cell map stores Y, exponent (t1*t2 - p)/2.  r -> r^2 is a ring
homomorphism, so a product of series is r^(sum of p) times the product
of the Y's, packed in half the slots; ``_to_fourier`` adds (sum of p)/2
to every exponent, which gives the doubled r-exponent (sum of t1*t2)/2
of the half-integral lattice.  Both chi_5 and chi_6_3 have sum of p = 2.

A product of theta series is one ``arith.evaluate`` of x1 * ... * xn,
whose coordinate convolution is the Sym product: chi_6_3 is the plain
product of the six gradient cell maps.  Seeds built here: chi_5 (product
of the 10 even constants), chi_10 (= chi_5^2, pinned at its (1,1)
coefficient), chi_6_3 and chi_6_8 = chi_5 * chi_6_3 (pinned at (1,1)).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .arith import LaurentPoly, evaluate
from .errors import (
    EvenCharacteristic,
    NormalizationFailure,
    OddCharacteristic,
    SupportViolation,
)
from .qexp import FourierExpansion


class ThetaCharacteristic:
    """Characteristic (mu', mu''); stored as doubled integer vectors in
    {0,1}^2 so mu = m/2."""

    __slots__ = ("m1", "m2")

    def __init__(self, m1, m2):
        if not all(x in (0, 1) for x in (*m1, *m2)):
            raise ValueError("characteristic entries must be 0 or 1 (doubled)")
        self.m1 = tuple(m1)
        self.m2 = tuple(m2)

    @property
    def r_parity(self) -> int:
        """The parity p = m1[0] * m1[1] of every r-exponent t1*t2 of the
        theta series, t = 2n + m1."""
        return self.m1[0] * self.m1[1]

    @property
    def parity(self) -> str:
        # 4 mu' . mu'' mod 2
        dot = self.m1[0] * self.m2[0] + self.m1[1] * self.m2[1]
        return "odd" if dot % 2 else "even"

    def __eq__(self, other):
        return (self.m1, self.m2) == (other.m1, other.m2)

    def __hash__(self):
        return hash((self.m1, self.m2))

    def __repr__(self):
        return f"ThetaCharacteristic(m1={self.m1}, m2={self.m2})"


def all_characteristics():
    """The 16 characteristics, lexicographic on (m1, m2)."""
    out = []
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    out.append(ThetaCharacteristic((a, b), (c, d)))
    return out


def even_characteristics():
    return [ch for ch in all_characteristics() if ch.parity == "even"]


def odd_characteristics():
    return [ch for ch in all_characteristics() if ch.parity == "odd"]


def _theta_series(ch: ThetaCharacteristic, N: int, values):
    """Cell map in eighth units of a theta series complete through
    q-exponent N, on the r^2 lattice: the lattice term t = 2n + m1 (t1^2,
    t2^2 <= 8N) adds the coordinate vector ``values(t1, t2, n1, n2)`` at
    key (t1^2, t2^2), exponent (t1*t2 - p)/2 for the parity p of t1*t2."""
    bound = 8 * N
    M = math.isqrt(2 * N) + 2
    acc = {}
    for n1 in range(-M, M + 1):
        t1 = 2 * n1 + ch.m1[0]
        for n2 in range(-M, M + 1):
            t2 = 2 * n2 + ch.m1[1]
            if max(t1 * t1, t2 * t2) > bound:
                continue
            vec = values(t1, t2, n1, n2)
            cell = acc.setdefault((t1 * t1, t2 * t2), [{} for _ in vec])
            e = t1 * t2 >> 1  # (t1*t2 - p) / 2
            for d, v in zip(cell, vec):
                d[e] = d.get(e, 0) + v
    return {key: tuple(map(LaurentPoly, cell)) for key, cell in acc.items()}


def even_theta_constant(ch: ThetaCharacteristic, N: int):
    """Theta constant at z = 0, complete through q-exponent N, as a
    one-coordinate cell map in eighth units."""
    if ch.parity != "even":
        raise OddCharacteristic("theta constant requested for an odd characteristic")

    def phase(t1, t2, n1, n2):
        # exp(2 pi i (n + mu')^t mu'') = +-1 for even ch
        twice_dot = t1 * ch.m2[0] + t2 * ch.m2[1]
        if twice_dot % 2:
            raise AssertionError("even characteristic produced imaginary phase")
        return (-1 if (twice_dot // 2) % 2 else 1,)

    return _theta_series(ch, N, phase)


def odd_theta_gradient(ch: ThetaCharacteristic, N: int):
    """The two z-partials at z = 0, scaled by 2 (and the global phase
    dropped), as one two-coordinate cell map in eighth units."""
    if ch.parity != "odd":
        raise EvenCharacteristic("gradient requested for an even characteristic")

    def gradient(t1, t2, n1, n2):
        # exp(2 pi i (n+mu').mu'') = global (+-i) times this sign
        sign = -1 if (n1 * ch.m2[0] + n2 * ch.m2[1]) % 2 else 1
        return (sign * t1, sign * t2)

    return _theta_series(ch, N, gradient)


def _theta_product(series, N: int):
    """Sym product of theta cell maps on the r^2 lattice, complete through
    q-exponent N: one evaluation of x1 * ... * xn on the window [0, 8N]."""
    ((cells, _, _),) = evaluate(
        series, [(0, 8 * N)] * len(series), [{(1,) * len(series): 1}]
    )
    return cells


def _to_fourier(cells, parity, weight, N, label):
    """Convert an eighth-unit cell map on the r^2 lattice, a product of
    series whose exponent parities p sum to ``parity``, to a
    half-integral-lattice (denom 2) character FourierExpansion with start 1:
    keys divided by 4, and parity / 2 added to every exponent, which gives
    the doubled r-exponent (sum of t1*t2) / 2.

    The start offset is certified by cuspidality, and checked in-window:
    a nonzero cell with a zero q-exponent raises NormalizationFailure.  A
    key off the half-integral lattice, or an odd ``parity`` (an odd doubled
    r-exponent), raises SupportViolation.
    """
    if parity % 2:
        raise SupportViolation(
            f"{label}: r-exponents of parity {parity} lie off the lattice"
        )
    shift = parity // 2
    out = {}
    for (e1, e2), vec in cells.items():
        if e1 % 4 or e2 % 4:
            raise SupportViolation(f"{label}: cell ({e1},{e2}) lies off the lattice")
        if (e1 == 0 or e2 == 0) and not all(x.is_zero for x in vec):
            raise NormalizationFailure(f"{label}: unexpected boundary coefficient")
        out[e1 // 4, e2 // 4] = tuple(
            LaurentPoly.over({e + shift: v for e, v in x.c.items()}) for x in vec
        )
    return FourierExpansion(weight, True, 2 * N, out, 1, denom=2, validate=False)


@lru_cache(maxsize=None)
def chi_5(N: int) -> FourierExpansion:
    """Product of the ten even theta constants: scalar weight 5 with
    character, on the half-integral lattice."""
    if N < 1:
        raise ValueError("truncation must be at least 1")
    chars = even_characteristics()
    series = [even_theta_constant(ch, N) for ch in chars]
    parity = sum(ch.r_parity for ch in chars)
    return _to_fourier(_theta_product(series, N), parity, (0, 5), N, "chi_5")


@lru_cache(maxsize=None)
def chi_6_3(N: int) -> FourierExpansion:
    """Sym^6 product of the six odd theta gradients: weight (6,3) with
    character.  Coordinate i is the X1^(6-i) X2^i component of
    prod_i (G_i1 X1 + G_i2 X2)."""
    if N < 1:
        raise ValueError("truncation must be at least 1")
    chars = odd_characteristics()
    series = [odd_theta_gradient(ch, N) for ch in chars]
    parity = sum(ch.r_parity for ch in chars)
    return _to_fourier(_theta_product(series, N), parity, (6, 3), N, "chi_6_3")


CHI10_PIN = LaurentPoly({1: 1, 0: -2, -1: 1})  # r - 2 + r^-1


@lru_cache(maxsize=None)
def chi_10(N: int) -> FourierExpansion:
    """chi_5 squared, rescaled so the (1,1) coefficient is r - 2 + r^-1."""
    x5 = chi_5(N)
    return x5.mul(x5).pinned((1, 1), 0, CHI10_PIN)


_CHI68_PIN = (
    LaurentPoly(),
    LaurentPoly(),
    CHI10_PIN,
    LaurentPoly({1: 2, -1: -2}),
    CHI10_PIN,
    LaurentPoly(),
    LaurentPoly(),
)


@lru_cache(maxsize=None)
def chi_6_8(N: int) -> FourierExpansion:
    """chi_5 * chi_6_3, rescaled so the (1,1) coefficient vector equals
    (0, 0, r^-1 - 2 + r, 2(r - r^-1), r^-1 - 2 + r, 0, 0)."""
    scaled = chi_5(N).mul(chi_6_3(N)).pinned((1, 1), 2, CHI10_PIN)
    if scaled.vec_at((1, 1)) != _CHI68_PIN:
        raise NormalizationFailure(
            "chi_6_8 corner vector does not match the pinned normalization"
        )
    return scaled
