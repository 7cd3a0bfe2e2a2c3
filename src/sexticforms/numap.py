"""The substitution map from covariants of binary sextics to Siegel
modular forms.

A covariant of degree d and order j maps to a meromorphic form of weight
(j, d - j/2); poles along the product locus are cleared by powers of
chi_10.  The meromorphic coordinates are never materialized: nu_raw
evaluates the covariant at the holomorphic coordinates beta_i of chi_6_8
(beta_i = chi_10 * alpha_i) for a_i, one Sym^j coordinate at a time (the
terms x1^(j-i) x2^i give coordinate i), so

    nu_raw(c) = chi_10^d * nu(c),   weight (j, 11d - j/2),

and then divide once by chi_10^(d - m) to keep chi_10^m * nu(c)
(``FourierExpansion.exact_div_chi10``: one product by the (d - m)-th power
of the series inverse of chi_10, equal to d - m divisions by chi_10).  A failing division (NotDivisible) is the
detection mechanism for genuine non-holomorphy.

All coordinates come from one ``qexp.evaluate``: the seven beta_i are
packed once, at r = 2^w for a w that a majorant pass fixes on one sum of
|c| per antidiagonal n1 + n2 of each beta_i, the Horner scheme of
``arith.Substitution`` runs on the packed ints with each power of a
beta_i built once, and each coordinate is unpacked once.

The mirror rule halves the evaluation.  Exchanging x1 and x2 reverses the
sextic (a_i <-> a_(6-i)) and the seeds: beta_(6-i)(n1, n2) = beta_i(n2, n1)
on every cell, which nu_raw checks (the swap sign of chi_6_8 is 1,
``arith.swap_sign``).  A covariant has a mirror sign
s = (-1)^((6d - j)/2), read off its terms: the coefficient at
(sigma a; x2, x1) is s times the one at (a; x1, x2).  So coordinate j - i
of nu_raw(c) is s times coordinate i with n1 and n2 exchanged, and only
the coordinates i <= j/2 are evaluated.  The middle coordinate (the whole
of an invariant) pairs each monomial with its mirror: one Horner pass
evaluates T, each pair's representative twice plus the self-mirror
monomials, and the coordinate is (T + s * T mirrored) / 2, a halving
that must leave integers; the mirroring and the halving act on the
unpacked coordinates.

transvectant_expansion is the transvectant on the q-side: the norm-free
``poly.transvect`` that covariants also use, run on the Sym^j symbol
variables (``FourierExpansion.derivative``), plus the weight shift.  It
applies no factorial norm, so a chain of them stays over Z; a form built
that way (chi_35) takes its scale from one pin, ``FourierExpansion.pinned``.
"""

from __future__ import annotations

from .arith import LaurentPoly, swap_sign
from .covariants import Covariant, a11_order_bound
from .errors import NormalizationFailure, OddOrder, OrderTooSmall
from .poly import transvect
from .qexp import FourierExpansion, evaluate
from .theta import chi_6_8


def weight_of_covariant(d: int, j: int):
    if j % 2:
        raise OddOrder("covariant order must be even")
    return (j, d - j // 2)


def _mirror(e):
    """The exponents of the mirror monomial: a_i <-> a_(6-i), x1 <-> x2."""
    return e[6::-1] + e[:6:-1]


def _mirror_sign(c: Covariant) -> int:
    """The s in {1, -1} with coefficient at (sigma a; x2, x1) = s times the
    coefficient at (a; x1, x2) for every term of c, sigma a_i = a_(6-i).

    Every covariant has one, s = (-1)^((6d - j)/2): the swap x1 <-> x2 has
    determinant -1 and reverses the sextic.  Raises ValueError for a
    polynomial without one.
    """
    terms = c.poly.terms
    e, v = next(iter(terms.items()))
    s = terms.get(_mirror(e), 0) // v
    if s not in (1, -1) or any(
        terms.get(_mirror(e), 0) != s * v for e, v in terms.items()
    ):
        raise ValueError("nu_raw takes a covariant: no mirror sign")
    return s


def nu_raw(c: Covariant, N: int) -> FourierExpansion:
    """Evaluate c at a_i = coordinate i of chi_6_8, the part of c in
    x1^(j-i) x2^i giving coordinate i.

    The window rules of the products give [d, N + d - 1] (a constant
    reaches N); the result is weighted (j, 11d - j/2).  The coefficients of
    c must be integers: a rational covariant is its content times an
    integer one.

    Only the coordinates i <= j/2 are evaluated (the mirror rule of the
    module docstring).  Raises NormalizationFailure when the seeds are not
    mirrored and NotDivisible when the middle coordinate's halving meets
    an odd coefficient.
    """
    weight_of_covariant(c.degree, c.order)  # validates even order
    if c.is_zero:
        raise ValueError("cannot substitute into the zero covariant")
    if any(type(v) is not int for v in c.poly.terms.values()):
        raise ValueError("nu_raw takes integer coefficients; split off the content")
    d, j = c.degree, c.order
    if N < 1:
        raise ValueError("truncation must be at least 1")
    s = _mirror_sign(c)
    seed = chi_6_8(N)
    sign = swap_sign(seed.cells)
    if sign != 1:
        raise NormalizationFailure(f"chi_6_8 is not its own mirror: swap sign {sign}")
    beta = [
        FourierExpansion(
            (0, 0), False, seed.kN,
            {key: (vec[i],) for key, vec in seed.cells.items()},
            seed.start, validate=False,
        )
        for i in range(7)
    ]
    # coordinate i collects the terms x1^(j-i) x2^i: placing a scalar into
    # Sym^j is an index, not a product; one packed evaluation serves them all
    parts = {}
    for e, v in c.poly.terms.items():
        i, a = e[8], e[:7]
        if 2 * i < j:
            parts.setdefault(i, {})[a] = v
        elif 2 * i == j and a <= a[::-1]:
            parts.setdefault(i, {})[a] = v if a == a[::-1] else 2 * v
    coords = dict(zip(parts, evaluate(beta, list(parts.values()))))
    kN = min(x.kN for x in coords.values())
    start = min(x.start for x in coords.values())
    zero = LaurentPoly()
    two = LaurentPoly.const(2)
    cells = {}

    def place(key, i, lp):
        if max(key) <= kN:
            cells.setdefault(key, [zero] * (j + 1))[i] = lp

    for i, x in coords.items():
        if 2 * i < j:
            for (n1, n2), (lp,) in x.cells.items():
                place((n1, n2), i, lp)
                place((n2, n1), j - i, lp.scale(s))
        else:  # the middle coordinate: (T + s * T mirrored) / 2
            for n1, n2 in x.cells.keys() | {key[::-1] for key in x.cells}:
                t = x.vec_at((n1, n2))[0] + x.vec_at((n2, n1))[0].scale(s)
                place((n1, n2), i, t.exact_div(two))
    return FourierExpansion((j, 11 * d - j // 2), False, kN, cells, start)


def nu_normalized(c: Covariant, m: int, N: int) -> FourierExpansion:
    """chi_10^m * nu(c) on the window [m, N], empty for N < m: nu_raw at
    max(1, N - m + 1) divided once by chi_10^(d - m), then cut at N.

    Raises NotDivisible when chi_10^m * nu(c) is not holomorphic.
    """
    if not 0 <= m <= c.degree:
        raise ValueError("chi_10 power must satisfy 0 <= m <= degree")
    return nu_raw(c, max(1, N - m + 1)).exact_div_chi10(c.degree - m).cut(N)


def minimal_chi10_power(c: Covariant) -> int:
    """Least m with a11_order_bound(c) + 2m >= 0; certified sufficient,
    though the actual minimum may be smaller."""
    bound = a11_order_bound(c)
    return max(0, -(bound // 2))


def transvectant_expansion(
    g: FourierExpansion, h: FourierExpansion, k: int
) -> FourierExpansion:
    """Transvectant of vector-valued expansions, ``poly.transvect`` on the
    symbol variables X1, X2 with no factorial norm: for g, h of orders
    m, n it equals the symbolic transvectant (g, h)_k under substitution
    times m! n! / ((m-k)! (n-k)!), so integer expansions give integer
    results.  Scalar factors (powers of chi_10) pass through."""
    m, n = g.j, h.j
    if k > m or k > n:
        raise OrderTooSmall(f"transvectant index {k} exceeds order {min(m, n)}")
    t = transvect(g, h, k)
    # the q-side transvectant raises the scalar weight by k
    return FourierExpansion(
        (t.j, t.k + k), t.character, t.kN, t.cells, t.start, t.denom,
        validate=False,
    )
