"""Sparse exact multivariate polynomials over Q, Z or F_p.

These carry the symbolic side of the package: covariants of the universal
binary sextic in a0..a6, x1, x2 and the characteristic-2 invariants in
a0..a3, b0..b6.  Monomials are exponent tuples parallel to the ``vars``
tuple; the monomial order is graded lexicographic with earlier variables
larger.

Two routines are written once for every ring that supplies the operations
they use: ``arith.Substitution`` (evaluation, shared with the packed series
evaluation) and ``transvect`` (the norm-free transvectant, shared by
covariants and Fourier expansions).
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

from .arith import Substitution, frac_to_str, render_sum
from .errors import DomainMismatch, NotDivisible

SEXTIC_VARS = ("a0", "a1", "a2", "a3", "a4", "a5", "a6", "x1", "x2")
CHAR2_VARS = ("a0", "a1", "a2", "a3", "b0", "b1", "b2", "b3", "b4", "b5", "b6")


def _norm_coeff(c, modulus):
    if type(c) is int:  # the common case; bool and Fraction take the paths below
        return c if modulus is None else c % modulus
    if modulus is not None:
        if isinstance(c, Fraction):
            if math.gcd(c.denominator, modulus) != 1:
                raise DomainMismatch("denominator not invertible mod p")
            return c.numerator * pow(c.denominator, -1, modulus) % modulus
        return int(c) % modulus
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _prepared(terms):
    """The factor lists of {exponents: c} for repeated evaluation.

    Returns (pairs, factors): pairs lists every (variable index, exponent)
    with a nonzero exponent that occurs in some term, sorted; factors
    holds one (c, keys) per term, keys the positions in pairs of that
    term's nonzero exponents.
    """
    pairs = sorted({(i, e) for exps in terms for i, e in enumerate(exps) if e})
    key = {pair: k for k, pair in enumerate(pairs)}
    factors = [
        (c, tuple(key[i, e] for i, e in enumerate(exps) if e))
        for exps, c in terms.items()
    ]
    return pairs, factors


def _grlex(exps):
    return (sum(exps), exps)


# the struct format of an unsigned field of 1, 2, 4 or 8 bytes
_FIELD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _key_fields(n: int, top: int):
    """(bits, struct) of n byte-aligned fields, each of the fewest bytes
    among 1, 2, 4 and 8 that hold ``top``: an exponent vector packs into
    one int, its first exponent in the lowest field, and vectors whose sums
    stay at or below top add as ints without a carry between fields.  The
    little-endian struct reads the int's bytes back as the vector."""
    size = next((b for b in _FIELD_FORMATS if top < 1 << 8 * b), None)
    if size is None:
        raise ValueError(f"exponent {top} does not fit a 64-bit field")
    return 8 * size, struct.Struct(f"<{n}{_FIELD_FORMATS[size]}")


def _packed_keys(terms, bits: int):
    """[(k, c)] of {exponents: c}, k the exponents in ``bits``-bit fields,
    the first one lowest."""
    out = []
    for e, c in terms.items():
        k = 0
        for x in reversed(e):
            k = k << bits | x
        out.append((k, c))
    return out


def transvect(g, h, k: int):
    """The k-th transvectant of g and h in x1, x2 with no factorial norm,

        sum_j (-1)^j C(k, j) d^k g/dx1^(k-j) dx2^j * d^k h/dx1^j dx2^(k-j),

    so integer operands give an integer result.  Operands need
    ``derivative("x1"|"x2")``, ``*``, ``+`` and ``scale``: covariants and
    vector-valued Fourier expansions (on their Sym^j symbol variables).
    """

    def partials(p):
        # row j holds d^k p / dx1^(k-j) dx2^j
        row = [p]
        for _ in range(k):
            row = [q.derivative("x1") for q in row] + [row[-1].derivative("x2")]
        return row

    gp, hp = partials(g), partials(h)
    acc = None
    for j in range(k + 1):
        term = (gp[j] * hp[k - j]).scale((-1) ** j * math.comb(k, j))
        acc = term if acc is None else acc + term
    return acc


class MultiPoly:
    # terms is never changed after __init__, so the factor lists that
    # evaluate builds from it on its first call stay valid
    __slots__ = ("vars", "terms", "modulus", "_factors")

    def __init__(self, vars, terms=None, modulus=None):
        self.vars = tuple(vars)
        out = {}
        if terms:
            for exps, c in terms.items():
                c = _norm_coeff(c, modulus)
                if c:
                    out[tuple(exps)] = c
        self.terms = out
        self.modulus = modulus
        self._factors = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, vars, modulus=None):
        return cls(vars, {}, modulus)

    @classmethod
    def const(cls, vars, c, modulus=None):
        return cls(vars, {(0,) * len(vars): c}, modulus)

    @classmethod
    def variable(cls, vars, name, modulus=None):
        vars = tuple(vars)
        i = vars.index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, {tuple(e): 1}, modulus)

    # -- basics -----------------------------------------------------------
    @property
    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.vars != other.vars or self.modulus != other.modulus:
            raise DomainMismatch("polynomial rings differ")

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.vars == other.vars
            and self.modulus == other.modulus
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, self.modulus, tuple(sorted(self.terms.items()))))

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return MultiPoly(self.vars, out, self.modulus)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) - c
        return MultiPoly(self.vars, out, self.modulus)

    def __neg__(self):
        return MultiPoly(
            self.vars, {e: -c for e, c in self.terms.items()}, self.modulus
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        # each exponent vector packed into one int of byte-aligned fields
        # (``_key_fields``) that hold the largest exponent of the product
        top = max((max(e, default=0) for e in self.terms), default=0) + max(
            (max(e, default=0) for e in other.terms), default=0
        )
        bits, fields = _key_fields(len(self.vars), top)
        a, b = _packed_keys(self.terms, bits), _packed_keys(other.terms, bits)
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for ka, ca in a:
            for kb, cb in b:
                k = ka + kb
                out[k] = out.get(k, 0) + ca * cb
        return MultiPoly(
            self.vars,
            {
                fields.unpack_from(k.to_bytes(fields.size, "little")): c
                for k, c in out.items()
            },
            self.modulus,
        )

    __rmul__ = __mul__

    def scale(self, s):
        if not s:
            return MultiPoly.zero(self.vars, self.modulus)
        return MultiPoly(
            self.vars, {e: c * s for e, c in self.terms.items()}, self.modulus
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("non-negative powers only")
        one = MultiPoly.const(self.vars, 1, self.modulus)
        return Substitution([self], one)({(n,): 1})

    # -- calculus and substitution -----------------------------------------
    def derivative(self, name: str) -> "MultiPoly":
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = out.get(tuple(ne), 0) + c * e[i]
        return MultiPoly(self.vars, out, self.modulus)

    def substitute(self, mapping: dict) -> "MultiPoly":
        """Substitute polynomials for variables.

        All images must share one ring.  Unmapped variables map to
        themselves, so each one that occurs must exist in that ring.
        """
        target = next(iter(mapping.values()))
        tvars, mod = target.vars, target.modulus
        images = []
        for i, name in enumerate(self.vars):
            if name in mapping:
                img = mapping[name]
                if img.vars != tvars or img.modulus != mod:
                    raise DomainMismatch("substitution images in different rings")
            elif name in tvars:
                img = MultiPoly.variable(tvars, name, mod)
            elif any(e[i] for e in self.terms):
                raise DomainMismatch(f"{name} is not in the target ring")
            else:
                img = None  # never read: the variable does not occur
            images.append(img)
        return Substitution(images, MultiPoly.const(tvars, 1, mod))(self.terms)

    def evaluate(self, values: dict):
        """Evaluate at scalars; every variable must be assigned.

        The first call prepares the polynomial for repeated evaluation
        (Knuth's adaptation of coefficients, TAOCP vol. 2, 4.6.4): it lists
        each term's nonzero exponents once and keeps the lists.  Each call
        then raises every value only to the exponents that occur with it,
        each power from the one below it, multiplies each term's listed
        factors and reduces mod p once, at the end.
        """
        vals = [values[name] for name in self.vars]
        if self._factors is None:
            self._factors = _prepared(self.terms)
        pairs, factors = self._factors
        powers = []
        last, acc, below = None, 1, 0
        for i, e in pairs:
            if i != last:
                last, acc, below = i, 1, 0
            acc *= vals[i] ** (e - below)
            below = e
            powers.append(acc)
        total = 0
        for c, keys in factors:
            for k in keys:
                c *= powers[k]
            total += c
        if self.modulus is not None:
            total %= self.modulus
        return total

    def extend_ring(self, newvars) -> "MultiPoly":
        """Re-embed into a larger ring containing all current variables."""
        newvars = tuple(newvars)
        idx = [newvars.index(v) for v in self.vars]
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(newvars)
            for i, x in zip(idx, e):
                ne[i] = x
            out[tuple(ne)] = c
        return MultiPoly(newvars, out, self.modulus)

    # -- structure ----------------------------------------------------------
    def coefficient(self, **exps) -> object:
        """Coefficient of the monomial with the given exponents (rest zero)."""
        e = [0] * len(self.vars)
        for name, v in exps.items():
            e[self.vars.index(name)] = v
        return self.terms.get(tuple(e), 0)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def homogeneous_degree_on(self, names):
        """Common degree on a variable group, or None if inhomogeneous."""
        idx = [self.vars.index(n) for n in names]
        degs = {sum(e[i] for i in idx) for e in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def leading_term(self):
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    def content(self) -> Fraction:
        """Positive rational content (gcd of coefficients); 1 in F_p."""
        if self.modulus is not None or self.is_zero:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            f = Fraction(c)
            num = math.gcd(num, f.numerator)
            den = den * f.denominator // math.gcd(den, f.denominator)
        return Fraction(num, den)

    def primitive(self) -> "MultiPoly":
        """Divide by the content and make the leading coefficient positive."""
        if self.is_zero or self.modulus is not None:
            return self
        c = self.content()
        _, lead = self.leading_term()
        if lead < 0:
            c = -c
        return self.scale(Fraction(1) / c)

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact quotient by a single divisor; NotDivisible on failure."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return MultiPoly.zero(self.vars, self.modulus)
        rem = dict(self.terms)
        eb, cb = other.leading_term()
        q = {}
        while rem:
            ea = max(rem, key=_grlex)
            ca = rem[ea]
            eq = tuple(x - y for x, y in zip(ea, eb))
            if any(x < 0 for x in eq):
                raise NotDivisible("polynomial division leaves a remainder")
            if self.modulus is not None:
                cq = ca * pow(cb, -1, self.modulus) % self.modulus
            else:
                cq = Fraction(ca) / Fraction(cb)
            q[eq] = cq
            for et, ct in other.terms.items():
                k = tuple(x + y for x, y in zip(eq, et))
                nv = rem.get(k, 0) - cq * ct
                if self.modulus is not None:
                    nv %= self.modulus
                if nv:
                    rem[k] = nv
                else:
                    rem.pop(k, None)
        return MultiPoly(self.vars, q, self.modulus)

    def reduce_mod(self, p: int) -> "MultiPoly":
        out = {}
        for e, c in self.terms.items():
            out[e] = _norm_coeff(c, p)
        return MultiPoly(self.vars, out, p)

    # -- rendering ------------------------------------------------------------
    def to_text(self) -> str:
        """Canonical text: graded-lex descending, '*'-separated monomials."""
        return render_sum(
            (self.terms[e], "*".join(
                name if exp == 1 else f"{name}^{exp}"
                for name, exp in zip(self.vars, e) if exp
            ))
            for e in sorted(self.terms, key=_grlex, reverse=True)
        )

    def to_json(self) -> dict:
        terms = [
            {"e": list(e), "c": frac_to_str(self.terms[e])}
            for e in sorted(self.terms, key=_grlex, reverse=True)
        ]
        return {
            "vars": list(self.vars),
            "modulus": self.modulus,
            "terms": terms,
        }

    def __repr__(self):
        return self.to_text()
