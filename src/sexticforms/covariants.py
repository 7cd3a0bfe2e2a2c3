"""Covariants and invariants of the universal binary sextic.

The sextic is f = sum_i a_i x1^(6-i) x2^i.  Covariants are bihomogeneous
polynomials in (a0..a6, x1, x2), graded by degree (in the a's) and order
(in x1, x2).  New covariants are produced by transvection: every
construction calls the norm-free ``poly.transvect`` (the routine the q-side
transvectant in ``numap`` also calls) and stays over Z; the public
``transvectant`` applies the factorial norm as one scalar.  The classical
invariants A..E of degrees 2, 4, 6, 10, 15 are built from candidates (A
printed in full; B, C, D and E from the covariants of one transvectant
chain, D through Clebsch's degree-10 invariant and E as the chain's skew
end), and one routine solves each combination so a fixed set of anchor
monomial coefficients takes pinned integer values, checked against further
pinned coefficients.

Binary forms move and multiply as coefficient lists in x2-degree order,
here and nowhere else.  One mover, ``_transformed_values``, gives the
coefficients of a binary form of any degree moved by an SL2 matrix whose
entries are ints or polynomials: ``act_sl2`` runs it on the symbolic a_i,
``modp`` on integer samples of the sextic and on the shear x1 -> x1 + t*x2
of the characteristic-2 cubic and sextic.  ``binary_product`` multiplies
two forms; ``modp`` builds the lift a~^2 + 4b~ and the shift b + v^2 + v*a
from it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import (
    NormalizationFailure,
    NotUnimodular,
    OrderTooSmall,
    UnknownName,
)
from .poly import SEXTIC_VARS, MultiPoly, transvect

A_VARS = SEXTIC_VARS[:7]
X_VARS = SEXTIC_VARS[7:]

# ord bound weights for the seven sextic coefficients
A11_WEIGHTS = (2, 1, 0, -1, 0, 1, 2)


class Covariant:
    """A bihomogeneous polynomial of declared degree (a's) and order (x's)."""

    __slots__ = ("poly", "degree", "order")

    def __init__(self, poly: MultiPoly, degree: int, order: int):
        if poly.vars != SEXTIC_VARS:
            raise ValueError("covariant polynomial must live in the sextic ring")
        if not poly.is_zero:
            if poly.homogeneous_degree_on(A_VARS) != degree:
                raise ValueError("polynomial is not homogeneous of the given degree")
            if poly.homogeneous_degree_on(X_VARS) != order:
                raise ValueError("polynomial is not homogeneous of the given order")
        self.poly = poly
        self.degree = degree
        self.order = order

    @classmethod
    def _of(cls, poly: MultiPoly, degree: int, order: int) -> "Covariant":
        """A covariant bihomogeneous by construction, kept unchecked."""
        c = cls.__new__(cls)
        c.poly, c.degree, c.order = poly, degree, order
        return c

    @property
    def is_zero(self):
        return self.poly.is_zero

    def __eq__(self, other):
        return (
            isinstance(other, Covariant)
            and self.degree == other.degree
            and self.order == other.order
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.degree, self.order, self.poly))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return Covariant._of(
            self.poly * other.poly,
            self.degree + other.degree,
            self.order + other.order,
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if (self.degree, self.order) != (other.degree, other.order):
            raise ValueError("can only add covariants of equal bidegree")
        return Covariant._of(self.poly + other.poly, self.degree, self.order)

    def __sub__(self, other):
        return self + (-1) * other

    def scale(self, s):
        return Covariant._of(self.poly.scale(s), self.degree, self.order)

    def primitive(self) -> "Covariant":
        return Covariant._of(self.poly.primitive(), self.degree, self.order)

    def derivative(self, name: str) -> "Covariant":
        """Partial derivative in x1 or x2, of order one less."""
        return Covariant._of(self.poly.derivative(name), self.degree, self.order - 1)

    def evaluate_at_sextic(self, coeffs, x1=0, x2=0):
        """Evaluate at a concrete sextic (a0..a6) and point (x1, x2)."""
        values = dict(zip(A_VARS, coeffs))
        values["x1"] = x1
        values["x2"] = x2
        return self.poly.evaluate(values)

    def __repr__(self):
        return (
            f"Covariant(degree={self.degree}, order={self.order}, "
            f"poly={self.poly.to_text()})"
        )


def universal_sextic() -> Covariant:
    terms = {}
    for i in range(7):
        e = [0] * 9
        e[i] = 1
        e[7] = 6 - i
        e[8] = i
        terms[tuple(e)] = 1
    return Covariant(MultiPoly(SEXTIC_VARS, terms), 1, 6)


def transvectant(g: Covariant, h: Covariant, k: int) -> Covariant:
    """The k-th transvectant (g, h)_k with factorial normalization:
    ``transvect(g, h, k)`` times (m-k)! (n-k)! / (m! n!) for orders m, n.

    This is the only place the norm is applied; every construction inside
    the package calls ``transvect`` and takes its scale from an anchor or
    ``primitive()``."""
    m, n = g.order, h.order
    if k > m or k > n:
        raise OrderTooSmall(f"transvectant index {k} exceeds order {min(m, n)}")
    norm = Fraction(
        math.factorial(m - k) * math.factorial(n - k),
        math.factorial(m) * math.factorial(n),
    )
    return transvect(g, h, k).scale(norm)


def _binomial_rows(a, b, d):
    """Rows k = 0..d of (a*x1 + b*x2)^k, each in x2-degree order."""
    zero = a * 0
    rows = [[a**0]]
    for _ in range(d):
        row = rows[-1]
        rows.append([a * x + b * y for x, y in zip(row + [zero], [zero] + row)])
    return rows


def _transformed_values(values, m):
    """Coefficients of f(p*x1 + q*x2, r*x1 + s*x2), where f is the binary
    form of degree d = len(values) - 1 with the coefficients ``values``
    (ints, or polynomials) and m = (p, q, r, s) (ints, or polynomials of
    the values' ring).

    The term a_i x1^(d-i) x2^i moves to a_i (p*x1 + q*x2)^(d-i) (r*x1 +
    s*x2)^i, so a' is the sum of a_i times the convolution of row d - i of
    the binomial rows of (p, q) with row i of those of (r, s).
    """
    p, q, r, s = m
    d = len(values) - 1
    left, right = _binomial_rows(p, q, d), _binomial_rows(r, s, d)
    out = [values[0] * 0] * (d + 1)
    for i, a in enumerate(values):
        if a:
            for u, x in enumerate(left[d - i]):
                for v, y in enumerate(right[i]):
                    out[u + v] += a * x * y
    return out


def binary_product(u, w):
    """Coefficients of the product of the binary forms with coefficients
    ``u`` and ``w``, all in x2-degree order, over any ring with ``*`` and
    ``+``."""
    out = [u[0] * w[0] * 0] * (len(u) + len(w) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(w):
            out[i + j] += x * y
    return out


def act_sl2(m, c: Covariant) -> Covariant:
    """Substitute the coefficients of f(a x1 + b x2, c x1 + d x2) for the a_i."""
    (p, q), (r, s) = m
    if p * s - q * r != 1:
        raise NotUnimodular("matrix must have determinant 1")
    a_vars = [MultiPoly.variable(SEXTIC_VARS, name) for name in A_VARS]
    moved = _transformed_values(a_vars, (p, q, r, s))
    return Covariant(c.poly.substitute(dict(zip(A_VARS, moved))), c.degree, c.order)


def a11_order_bound(c: Covariant) -> int:
    """min over monomials of the weighted a-exponent sum with weights
    (2, 1, 0, -1, 0, 1, 2)."""
    if c.is_zero:
        raise ValueError("order bound of the zero covariant is undefined")
    return min(
        sum(e * w for e, w in zip(exps[:7], A11_WEIGHTS))
        for exps in c.poly.terms
    )


# the two sl2 derivations as (source, target, factor) moves on exponent
# vectors (a0..a6, x1, x2):
#   sum_{k=1..6} (7-k) a_{k-1} d/da_k - x2 d/dx1,
#   sum_{k=0..5} (k+1) a_{k+1} d/da_k - x1 d/dx2
_SL2_DERIVATIONS = (
    [(k, k - 1, 7 - k) for k in range(1, 7)] + [(7, 8, -1)],
    [(k, k + 1, k + 1) for k in range(6)] + [(8, 7, -1)],
)


def is_covariant(poly: MultiPoly) -> bool:
    """True iff both sl2 derivations annihilate ``poly`` (the
    Cayley-Aronhold test, for f = sum_i a_i x1^(6-i) x2^i)."""
    for moves in _SL2_DERIVATIONS:
        image = {}
        for exps, c in poly.terms.items():
            for src, dst, factor in moves:
                if exps[src]:
                    e = tuple(x - (i == src) + (i == dst) for i, x in enumerate(exps))
                    image[e] = image.get(e, 0) + c * factor * exps[src]
        if any(image.values()):
            return False
    return True


# -- catalog ------------------------------------------------------------------

def _canon(name: str) -> str:
    return name.replace("_", ",").replace(" ", "").upper()


@lru_cache(maxsize=None)
def grace_young(name: str) -> Covariant:
    key = _canon(name)
    f = universal_sextic()
    if key in ("C1,6", "F"):
        return f
    if key == "C2,0":
        return transvectant(f, f, 6)
    if key == "C2,4":
        return transvectant(f, f, 4)
    if key == "C3,2":
        return transvectant(f, grace_young("C2,4"), 4)
    if key in ("HESSIAN", "V10,2", "H"):
        return transvect(f, f, 2).primitive()
    if key == "V8,4":
        return transvect(f, f, 4).primitive()
    if key == "V6,6":
        return transvect(f, f, 6).primitive()
    raise UnknownName(f"unknown covariant {name!r}")


def _a_monomial(**exps):
    e = [0] * 9
    for name, v in exps.items():
        e[SEXTIC_VARS.index(name)] = v
    return tuple(e)


def _solve_anchored(candidates, anchors, checks, label):
    """The one combination of candidate covariants matching the anchor
    coefficients exactly, verified against further pinned coefficients.
    Raises NormalizationFailure when the anchors admit no combination or
    more than one (anchor matrix of rank below the number of candidates)."""
    matrix = [
        [cand.poly.terms.get(mono, 0) for cand in candidates]
        for mono, _ in anchors
    ]
    if linalg.rank(matrix) < len(candidates):
        raise NormalizationFailure(f"{label}: the anchors leave a free candidate")
    sol = linalg.solve_linear(matrix, [value for _, value in anchors])
    if sol is None:
        raise NormalizationFailure(f"no anchored combination exists for {label}")
    acc = MultiPoly.zero(SEXTIC_VARS)
    for s, cand in zip(sol, candidates):
        if s:
            acc = acc + cand.poly.scale(s)
    result = Covariant(acc, candidates[0].degree, candidates[0].order)
    for mono, value in list(anchors) + list(checks):
        if result.poly.terms.get(mono, 0) != value:
            raise NormalizationFailure(
                f"{label}: coefficient check failed at exponents {mono}"
            )
    return result


@lru_cache(maxsize=None)
def invariant(name: str) -> Covariant:
    key = name.strip().upper()
    if key == "A":
        terms = {
            _a_monomial(a0=1, a6=1): 120,
            _a_monomial(a1=1, a5=1): -20,
            _a_monomial(a2=1, a4=1): 8,
            _a_monomial(a3=2): -3,
        }
        return Covariant(MultiPoly(SEXTIC_VARS, terms), 2, 0)
    if key == "B":
        a, i = invariant("A"), _chain("i")
        return _solve_anchored(
            [a * a, transvect(i, i, 4)],
            anchors=[
                (_a_monomial(a0=1, a6=1, a3=2), 81),
                (_a_monomial(a1=1, a5=1, a3=2), 9),
            ],
            checks=[
                (_a_monomial(a0=1, a4=1, a5=1, a3=1), -45),
                (_a_monomial(a1=1, a2=1, a6=1, a3=1), -45),
                (_a_monomial(a1=1, a4=2, a3=1), -3),
                (_a_monomial(a2=2, a5=1, a3=1), -3),
                (_a_monomial(a2=2, a4=2), 1),
            ],
            label="invariant B",
        )
    if key == "C":
        a, b, l = invariant("A"), invariant("B"), _chain("l")
        return _solve_anchored(
            [a * a * a, a * b, transvect(l, l, 2)],
            anchors=[
                (_a_monomial(a0=1, a6=1, a3=4), 162),
                (_a_monomial(a1=1, a5=1, a3=4), 72),
                (_a_monomial(a0=1, a4=1, a5=1, a3=3), -198),
                (_a_monomial(a1=1, a2=1, a6=1, a3=3), -198),
                (_a_monomial(a1=1, a4=2, a3=3), -24),
                (_a_monomial(a2=2, a5=1, a3=3), -24),
            ],
            checks=[],
            label="invariant C",
        )
    if key == "D":
        a, b, c = invariant("A"), invariant("B"), invariant("C")
        aa = a * a
        # Clebsch's degree-10 invariant (y3, y1)_2 with y1 = (f, i)_4,
        # y2 = (i, y1)_2, y3 = (i, y2)_2: the chain's l, m, s (Mestre 1991)
        clebsch = transvect(_chain("s"), _chain("l"), 2)
        return _solve_anchored(
            [aa * aa * a, aa * a * b, a * b * b, aa * c, b * c, clebsch],
            # D is fixed by a_i <-> a_{6-i}: one anchor per mirror class,
            # the mirrors of three of them as checks
            anchors=[
                (_a_monomial(a0=2, a6=2, a3=6), 729),
                (_a_monomial(a0=2, a4=1, a5=1, a6=1, a3=5), -486),
                (_a_monomial(a0=2, a5=3, a3=5), 108),
                (_a_monomial(a0=5, a6=5), -46656),
                (_a_monomial(a1=6, a6=4), 3125),
                (_a_monomial(a1=5, a5=5), 256),
            ],
            checks=[
                (_a_monomial(a0=1, a1=1, a2=1, a6=2, a3=5), -486),
                (_a_monomial(a1=3, a6=2, a3=5), 108),
                (_a_monomial(a0=4, a5=6), 3125),
            ],
            label="invariant D",
        )
    if key == "E":
        return _solve_anchored(
            [skew_chain_invariant()],
            anchors=[(_a_monomial(a0=2, a5=3, a3=10), -729)],
            # mirror term under a_i <-> a_{6-i} (which negates E)
            checks=[(_a_monomial(a1=3, a6=2, a3=10), 729)],
            label="invariant E",
        )
    raise UnknownName(f"unknown invariant {name!r}")


def skew_chain_transvectants():
    """The transvectant chain producing the degree-15 skew invariant,
    as a list of (name, left, right, k) steps ending in an order-0 result."""
    return [
        ("i", "f", "f", 4),
        ("l", "f", "i", 4),
        ("m", "i", "l", 2),
        ("s", "i", "m", 2),
        ("t", "l", "m", 1),
        ("e0", "t", "s", 2),
    ]


@lru_cache(maxsize=None)
def _chain(name: str) -> Covariant:
    """The covariant ``name`` of the skew chain ("f", "i", "l", ...), built
    on demand from norm-free transvectants, so over Z."""
    if name == "f":
        return universal_sextic()
    left, right, k = next(
        step[1:] for step in skew_chain_transvectants() if step[0] == name
    )
    return transvect(_chain(left), _chain(right), k)


def skew_chain_invariant() -> Covariant:
    """The degree-15 skew invariant ending the chain: integer coefficients,
    scale fixed by invariant("E")."""
    return _chain("e0")


def combination_AB_minus_3C() -> Covariant:
    """Degree-6 invariant whose nu-image is the regular weight-6 form.

    Up to scale this is the unique point of the three-dimensional degree-6
    invariant space whose nu-image is holomorphic (divisible by the tenth
    power of the cusp form chi_10 with holomorphic quotient); the anchors
    pin it to -8*A*B - 3*C, with 1458 at a0*a6*a3^4.
    """
    a, b, c = invariant("A"), invariant("B"), invariant("C")
    return _solve_anchored(
        [a * b, c],
        anchors=[
            (_a_monomial(a0=1, a6=1, a3=4), 1458),
            (_a_monomial(a0=1, a4=1, a5=1, a3=3), -486),
        ],
        checks=[(_a_monomial(a1=1, a2=1, a6=1, a3=3), -486)],
        label="AB - 3C",
    )


def resolve(name: str) -> Covariant:
    """Catalog lookup covering invariants, generators and AB - 3C."""
    key = _canon(name)
    if key in ("A", "B", "C", "D", "E"):
        return invariant(key)
    if key in ("AB-3C", "AB−3C"):
        return combination_AB_minus_3C()
    return grace_young(name)
