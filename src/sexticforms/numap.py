"""The substitution map from covariants of binary sextics to Siegel
modular forms.

A covariant of degree d and order j maps to a meromorphic form of weight
(j, d - j/2); poles along the product locus are cleared by powers of
chi_10.  The meromorphic coordinates are never materialized: nu_raw
evaluates the covariant through ``poly.Substitution`` at the holomorphic
coordinates beta_i of chi_6_8 (beta_i = chi_10 * alpha_i) for a_i, one
Sym^j coordinate at a time (the terms x1^(j-i) x2^i give coordinate i), so

    nu_raw(c) = chi_10^d * nu(c),   weight (j, 11d - j/2),

and then divide by chi_10 as many times as requested.  A failing division
(NotDivisible) is the detection mechanism for genuine non-holomorphy.

transvectant_expansion is the transvectant on the q-side: the norm-free
``poly.transvect`` that covariants also use, run on the Sym^j symbol
variables (``FourierExpansion.derivative``), plus the weight shift.  It
applies no factorial norm, so a chain of them stays over Z; a form built
that way (chi_35) takes its scale from one pin, ``FourierExpansion.pinned``.
"""

from __future__ import annotations

from .arith import LaurentPoly
from .covariants import Covariant, a11_order_bound
from .errors import OddOrder, OrderTooSmall
from .poly import Substitution, transvect
from .qexp import FourierExpansion, constant_one
from .theta import chi_6_8


def weight_of_covariant(d: int, j: int):
    if j % 2:
        raise OddOrder("covariant order must be even")
    return (j, d - j // 2)


def nu_raw(c: Covariant, N: int) -> FourierExpansion:
    """Evaluate c at a_i = coordinate i of chi_6_8, the part of c in
    x1^(j-i) x2^i giving coordinate i.

    The window rules of the products give [d, N + d - 1]; the result is
    weighted (j, 11d - j/2).  The coefficients of c must be integers: a
    rational covariant is its content times an integer one.
    """
    weight_of_covariant(c.degree, c.order)  # validates even order
    if c.is_zero:
        raise ValueError("cannot substitute into the zero covariant")
    if any(type(v) is not int for v in c.poly.terms.values()):
        raise ValueError("nu_raw takes integer coefficients; split off the content")
    d, j = c.degree, c.order
    if N < 1:
        raise ValueError("truncation must be at least 1")
    seed = chi_6_8(N)
    beta = [
        FourierExpansion(
            (0, 0), False, seed.kN,
            {key: (vec[i],) for key, vec in seed.cells.items()},
            seed.start, validate=False,
        )
        for i in range(7)
    ]
    # coordinate i collects the terms x1^(j-i) x2^i: placing a scalar into
    # Sym^j is an index, not a product; one power cache serves them all
    parts = {}
    for e, v in c.poly.terms.items():
        parts.setdefault(e[8], {})[e[:7]] = v
    sub = Substitution(beta, constant_one(N - 1))
    coords = {i: sub(terms) for i, terms in parts.items()}
    kN = min(x.kN for x in coords.values())
    start = min(x.start for x in coords.values())
    zero = LaurentPoly()
    cells = {}
    for i, x in coords.items():
        for key, (lp,) in x.cells.items():
            if max(key) <= kN:
                cells.setdefault(key, [zero] * (j + 1))[i] = lp
    return FourierExpansion((j, 11 * d - j // 2), False, kN, cells, start)


def nu_normalized(c: Covariant, m: int, N: int) -> FourierExpansion:
    """chi_10^m * nu(c): nu_raw divided (d - m) times by chi_10.

    Raises NotDivisible when chi_10^m * nu(c) is not holomorphic.
    """
    if not 0 <= m <= c.degree:
        raise ValueError("chi_10 power must satisfy 0 <= m <= degree")
    e = nu_raw(c, N)
    for _ in range(c.degree - m):
        e = e.exact_div_chi10()
    return e


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
