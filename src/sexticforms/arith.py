"""Exact arithmetic foundation: rationals and Laurent polynomials over Q.

Coefficients are Python ``int`` or ``fractions.Fraction``; a Fraction with
denominator 1 is always stored as an ``int``.  Everything here is immutable
after construction and free of floating point.  Mod-p arithmetic lives in
:mod:`sexticforms.poly`.

``mul_into`` is the one product kernel of every series in the package:
Laurent polynomials, Fourier expansions (through ``qexp.cell_product``),
theta products and elliptic expansions all multiply through it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotDivisible


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any prime used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def frac_to_str(x) -> str:
    """Serialize a rational as ``"num/den"``, omitting the denominator 1."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def frac_from_str(s: str):
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return int(s)


def mul_into(acc: dict, a: dict, b: dict) -> dict:
    """acc[ea + eb] += va * vb over sparse {exponent: coeff} dicts.

    Zero sums stay in ``acc``; the caller drops them.  Returns ``acc``.
    """
    for ea, va in a.items():
        for eb, vb in b.items():
            e = ea + eb
            acc[e] = acc.get(e, 0) + va * vb
    return acc


def common_ratio(pairs):
    """The constant c with x = c*y for every pair (x, y), or None.

    Pairs hold rationals or LaurentPoly (compared on the union of their
    exponents).  Returns 0 when every x vanishes, whatever the y.
    """
    c = None
    for x, y in pairs:
        if isinstance(x, LaurentPoly):
            terms = [(x.c.get(e, 0), y.c.get(e, 0)) for e in x.c.keys() | y.c.keys()]
        else:
            terms = [(x, y)]
        for u, v in terms:
            if c is None and v:
                c = Fraction(u) / v
            elif u != (c or 0) * v:
                return None
    return Fraction(0) if c is None else c


class LaurentPoly:
    """Sparse exact Laurent polynomial in one variable ``r`` over Q.

    Coefficients are keyed by integer exponent; zero coefficients are never
    stored.  Instances are immutable by convention.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        out = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    if isinstance(v, Fraction) and v.denominator == 1:
                        v = v.numerator
                    out[int(e)] = v
        self.c = out

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, v):
        return cls({0: v})

    # -- predicates ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.c

    def min_exp(self) -> int:
        return min(self.c)

    def max_exp(self) -> int:
        return max(self.c)

    # -- ring operations ----------------------------------------------
    def __add__(self, other):
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
        return LaurentPoly(out)

    def __sub__(self, other):
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) - v
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -v for e, v in self.c.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return LaurentPoly(mul_into({}, self.c, other.c))

    __rmul__ = __mul__

    def scale(self, s):
        if not s:
            return LaurentPoly()
        return LaurentPoly({e: v * s for e, v in self.c.items()})

    def __pow__(self, n: int):
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items())))

    # -- specialized operations -----------------------------------------
    def invert_exponent(self) -> "LaurentPoly":
        """Substitution r -> 1/r; an involution."""
        return LaurentPoly({-e: v for e, v in self.c.items()})

    def eval_at_one(self):
        total = sum(self.c.values())
        if isinstance(total, Fraction) and total.denominator == 1:
            return total.numerator
        return total

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient; raises NotDivisible if the remainder is nonzero."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero:
            return LaurentPoly()
        sa, sb = self.min_exp(), other.min_exp()
        rem = {e - sa: v for e, v in self.c.items()}
        div = {e - sb: v for e, v in other.c.items()}
        lead = Fraction(div[0])
        bound = max(rem) - max(div)
        q = {}
        while rem:
            e = min(rem)
            if e > bound:
                raise NotDivisible("Laurent division leaves a remainder")
            c = Fraction(rem[e]) / lead
            q[e] = c
            for eb, vb in div.items():
                k = e + eb
                nv = rem.get(k, 0) - c * vb
                if nv:
                    rem[k] = nv
                else:
                    rem.pop(k, None)
        return LaurentPoly({e + sa - sb: v for e, v in q.items()})

    def vanishing_order_at_one(self):
        """Largest m with (r-1)^m dividing self (up to a power of r).

        Returns ``math.inf`` for the zero polynomial.  Uses dense synthetic
        division by (r-1); no floating point.
        """
        if self.is_zero:
            return math.inf
        lo = self.min_exp()
        deg = self.max_exp() - lo
        dense = [0] * (deg + 1)
        for e, v in self.c.items():
            dense[e - lo] = v
        order = 0
        while True:
            if sum(dense) != 0:
                return order
            # synthetic division by (r - 1), highest coefficient first
            out = [0] * (len(dense) - 1)
            acc = 0
            for i in range(len(dense) - 1, 0, -1):
                acc += dense[i]
                out[i - 1] = acc
            dense = out
            order += 1
            if not dense:
                return order

    # -- serialization --------------------------------------------------
    def to_json(self) -> dict:
        return {str(e): frac_to_str(v) for e, v in sorted(self.c.items())}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        return cls({int(e): frac_from_str(v) for e, v in data.items()})

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                mono = ""
            elif e == 1:
                mono = "r"
            else:
                mono = f"r^{e}"
            if mono == "":
                body = frac_to_str(abs(v))
            elif abs(v) == 1:
                body = mono
            else:
                body = f"{frac_to_str(abs(v))}*{mono}"
            parts.append(("-" if v < 0 else "+", body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__
