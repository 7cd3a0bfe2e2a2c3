"""Truncated Fourier expansions of degree-2 vector-valued modular forms.

A ``FourierExpansion`` stores, for index pairs (n1, n2) inside a window,
a vector of j+1 Laurent polynomials in r (the off-diagonal variable); the
triple (n1, n2, r-exponent rho) encodes the half-integral matrix
[n1, rho/2; rho/2, n2].  Two refinements over a plain truncation:

* ``denom`` in {1, 2}: character forms (chi_5, chi_6_3) live on the
  half-integral index lattice; their keys and r-exponents are stored
  doubled.  Products with trivial character are validated to be integral
  and re-indexed to denom 1 (``evaluate``).
* ``start``: a certified vanishing offset — every coefficient (stored or
  not) with min(n1, n2) < start/denom is zero.  Cusp forms justify start
  1 (singular matrices carry no cusp-form coefficients); products add
  starts; exact division by chi_10^k subtracts k.  This is what keeps
  windows small and deep products (e.g. eleventh powers) honest.

Reliability contract: a stored window [start..kN]^2 is exact; operations
shrink kN so that the contract is preserved (mul: kN_out =
min(kN_a + start_b, kN_b + start_a); exact_div_chi10(k): kN_out = kN - k,
with chi_10 built on [1, kN - start + 1]).  An evaluation cut at
``top`` (see ``evaluate``) also takes kN_out = min(kN_out, top), and a
product with start_out > top is zero on its window, no cells: every
coefficient with min(n1, n2) < start_out vanishes.  A cut window is still
exact, because a cell never depends on a cell of larger index.

Every product is one ``evaluate``: ``mul`` evaluates x * y, ``pow`` x**n,
``exact_div_chi10`` x * V^k for the series inverse V of chi_10, and
``evaluate`` runs one ``arith.evaluate`` under these window rules.

An elliptic form f is a boundary row: weight (0, k), a(n) at cell (n, 0),
the Fourier series of f(tau_11) (``elliptic_form``, ``siegel_phi``).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from . import arith, linalg
from .arith import LaurentPoly, common_ratio
from .errors import (
    BoundarySliceError,
    CharacterForm,
    NormalizationFailure,
    NotDivisible,
    OrderTooSmall,
    SupportViolation,
    WeightMismatch,
)

_ZERO = LaurentPoly()


def _graded(keys):
    return sorted(keys, key=lambda k: (k[0] + k[1], k))


def _int(x, label):
    """x, an int read from JSON; ValueError for a float or a bool."""
    if type(x) is not int:
        raise ValueError(f"{label} {x!r} is not an integer")
    return x


class FourierExpansion:
    __slots__ = ("j", "k", "character", "denom", "kN", "start", "cells")

    def __init__(self, weight, character, kN, cells, start=0, denom=1, validate=True):
        self.j, self.k = weight
        self.character = bool(character)
        self.denom = denom
        self.kN = kN
        self.start = start
        store = {}
        for key, vec in cells.items():
            vec = tuple(vec)
            if len(vec) != self.j + 1:
                raise ValueError("coordinate vector has wrong length")
            if any(not isinstance(x, LaurentPoly) for x in vec):
                raise ValueError("coordinates must be LaurentPoly")
            if all(x.is_zero for x in vec):
                continue
            k1, k2 = key
            if not (start <= k1 <= kN and start <= k2 <= kN):
                raise ValueError(f"cell {key} outside window [{start},{kN}]")
            store[key] = vec
        self.cells = store
        if validate:
            self._validate_support()

    def _validate_support(self):
        # n1, n2 >= 0 and e^2 <= 4 n1 n2 read alike on the doubled lattice
        for (n1, n2), vec in self.cells.items():
            if n1 < 0 or n2 < 0:
                raise SupportViolation(f"negative index at ({n1},{n2})")
            bound = 4 * n1 * n2
            for lp in vec:
                for e in lp.c:
                    if e * e > bound:
                        raise SupportViolation(
                            f"r-exponent {e} at ({n1},{n2}) violates "
                            f"positive semi-definiteness"
                        )

    # -- basics -------------------------------------------------------------
    @property
    def weight(self):
        return (self.j, self.k)

    @property
    def is_zero(self):
        return not self.cells

    @property
    def truncation(self):
        n = Fraction(self.kN, self.denom)
        return int(n) if n.denominator == 1 else n

    def vec_at(self, key):
        return self.cells.get(tuple(key), (_ZERO,) * (self.j + 1))

    def coefficient(self, n1, n2):
        """Coefficient vector at integer indices (logical units)."""
        return self.vec_at((n1 * self.denom, n2 * self.denom))

    def __eq__(self, other):
        return (
            isinstance(other, FourierExpansion)
            and self.weight == other.weight
            and self.character == other.character
            and self.denom == other.denom
            and self.kN == other.kN
            and self.start == other.start
            and self.cells == other.cells
        )

    def agrees_with(self, other) -> bool:
        """Exact equality of all coefficients on the common window."""
        if self.weight != other.weight or self.denom != other.denom:
            return False
        return all(x == y for x, y in _common_window(self, other))

    def _compatible(self, other):
        if self.weight != other.weight:
            raise WeightMismatch(
                f"weights {self.weight} and {other.weight} differ"
            )
        if self.character != other.character or self.denom != other.denom:
            raise WeightMismatch("character/lattice mismatch")

    def cut(self, N) -> "FourierExpansion":
        """The cells with max index <= N, N in logical units, on the window
        [start, N]; OrderTooSmall past the truncation."""
        kN = N * self.denom
        if kN > self.kN:
            raise OrderTooSmall(f"cut at {N} past the truncation {self.truncation}")
        cells = {key: vec for key, vec in self.cells.items() if max(key) <= kN}
        return FourierExpansion(
            self.weight, self.character, kN, cells, self.start, self.denom,
            validate=False,
        )

    # -- linear structure ----------------------------------------------------
    def add(self, other) -> "FourierExpansion":
        self._compatible(other)
        kN = min(self.kN, other.kN)
        start = min(self.start, other.start)
        cells = {}
        keys = set(self.cells) | set(other.cells)
        for key in keys:
            if max(key) > kN:
                continue
            a, b = self.vec_at(key), other.vec_at(key)
            cells[key] = tuple(x + y for x, y in zip(a, b))
        return FourierExpansion(
            self.weight, self.character, kN, cells, start, self.denom,
            validate=False,
        )

    __add__ = add

    def scale(self, c: int) -> "FourierExpansion":
        """Every coefficient times the int c."""
        cells = {
            key: tuple(x.scale(c) for x in vec)
            for key, vec in self.cells.items()
        }
        return FourierExpansion(
            self.weight, self.character, self.kN, cells, self.start,
            self.denom, validate=False,
        )

    def sub(self, other) -> "FourierExpansion":
        return self.add(other.scale(-1))

    def derivative(self, name: str) -> "FourierExpansion":
        """Partial derivative in the symbol variable X1 (``"x1"``) or X2
        (``"x2"``) of the Sym^j coordinates; weight (j - 1, k)."""
        j = self.j
        # coordinate i holds X1^(j-i) X2^i: (source coordinate, exponent)
        if name == "x1":
            pick = [(i, j - i) for i in range(j)]
        elif name == "x2":
            pick = [(i, i) for i in range(1, j + 1)]
        else:
            raise ValueError(f"no symbol variable {name!r}")
        cells = {
            key: tuple(vec[i].scale(e) for i, e in pick)
            for key, vec in self.cells.items()
        }
        return FourierExpansion(
            (j - 1, self.k), self.character, self.kN, cells, self.start,
            self.denom, validate=False,
        )

    def pinned(self, key, i, value: LaurentPoly) -> "FourierExpansion":
        """This expansion rescaled so that coordinate i of cell ``key`` is
        ``value``: the one scale of every normalized form.

        Raises NormalizationFailure unless that coordinate is a nonzero
        multiple c of ``value`` and every coefficient divided by c is an
        integer.
        """
        ratio = common_ratio([(self.vec_at(key)[i], value)])
        if not ratio:
            raise NormalizationFailure(
                f"weight {self.weight}: coordinate {i} at {tuple(key)} is not "
                f"a nonzero multiple of {value}"
            )
        num, den = ratio.numerator, ratio.denominator

        def rescaled(x):
            out = {}
            for e, v in x.c.items():
                out[e], rem = divmod(v * den, num)
                if rem:
                    raise NormalizationFailure(
                        f"weight {self.weight}: pinning {value} at {tuple(key)} "
                        f"leaves non-integer coefficients"
                    )
            return LaurentPoly.over(out)

        cells = {k: tuple(map(rescaled, vec)) for k, vec in self.cells.items()}
        return FourierExpansion(
            self.weight, self.character, self.kN, cells, self.start,
            self.denom, validate=False,
        )

    # -- multiplication --------------------------------------------------------
    def mul(self, other) -> "FourierExpansion":
        """The product, one ``evaluate`` of x * y; an empty window raises
        OrderTooSmall."""
        (product,) = evaluate([self, other], [{(1, 1): 1}])
        return product

    __mul__ = mul

    def pow(self, n: int) -> "FourierExpansion":
        """The n-th power, n >= 1: one ``evaluate`` of x**n, whose products
        are those of binary powering (``arith.Substitution``)."""
        if n < 1:
            raise ValueError("positive powers only")
        (power,) = evaluate([self], [{(n,): 1}])
        return power

    # -- division -----------------------------------------------------------------
    def exact_div_chi10(self, k: int = 1) -> "FourierExpansion":
        """Exact quotient by chi_10^k, one product; k = 0 returns self.

        chi_10 vanishes to order 2 on the diagonal, so each of its cells is
        divisible by P = r - 2 + r^-1, its (1, 1) cell: chi_10 = q1 q2 P U
        with U's cell (0, 0) equal to 1.  Hence f / chi_10^k is f * V^k,
        V = U^-1, moved by (-k, -k), with each cell divided exactly by P^k
        (``LaurentPoly.exact_div``).  V on [0, T], T = kN - start, comes
        from chi_10 on [1, T + 1] by Newton steps that double its
        precision, step s cut at min(T, 2^s - 1), and is built once per T
        (``_chi10_inverse``); f * V^k is one ``evaluate``.  The quotient's
        window is [start - k, kN - k], as after k divisions by chi_10.

        Raises WeightMismatch for a character or half-integral dividend,
        NotDivisible when start < k or when a cell leaves a Laurent
        remainder, and OrderTooSmall for an empty window.  P is primitive,
        so by Gauss's lemma a quotient that exists over Q exists over Z.
        """
        from . import theta

        if k < 0:
            raise ValueError("chi_10 power must be non-negative")
        if not k:
            return self
        if self.character or self.denom != 1:
            raise WeightMismatch("dividend must be on the integral lattice")
        if self.start < k:
            raise NotDivisible("dividend has smaller vanishing offset than divisor")
        if self.kN < self.start:
            raise OrderTooSmall("truncation too small for division")
        inverse = _chi10_inverse(self.kN - self.start)
        (g,) = evaluate([self, inverse], [{(1, k): 1}])
        pk, memo = theta.CHI10_PIN ** k, {}

        def divided(x):
            # mirrored cells share their coordinates: divide each one once
            y = memo.get(id(x))
            if y is None:
                y = memo[id(x)] = x.exact_div(pk)
            return y

        cells = {
            (n1 - k, n2 - k): tuple(map(divided, vec))
            for (n1, n2), vec in g.cells.items()
        }
        return FourierExpansion(g.weight, False, g.kN - k, cells, g.start - k)

    # -- boundary operators ---------------------------------------------------------
    def siegel_phi(self) -> "FourierExpansion":
        """Siegel operator: the (n, 0) slice of coordinate 0, as the
        boundary row of weight (0, j + k) that ``elliptic_form`` builds.

        Refuses character forms (undefined here); raises if any other
        coordinate survives on the slice.
        """
        if self.character or self.denom != 1:
            raise CharacterForm("Siegel operator is not defined for character forms")
        cells = {}
        for n in range(self.kN + 1):
            head, *rest = self.vec_at((n, 0))
            if any(not x.is_zero for x in rest):
                raise BoundarySliceError(
                    "a coordinate past the first survives on the boundary slice"
                )
            if set(head.c) - {0}:
                raise BoundarySliceError("nonzero r-exponent on a singular index")
            cells[n, 0] = (head,)
        return FourierExpansion((0, self.j + self.k), False, self.kN, cells)

    def restrict_to_a11(self):
        """Substitute r = 1; per coordinate, a map (n1, n2) -> value."""
        if self.character or self.denom != 1:
            raise CharacterForm("restriction requires a trivial character")
        out = [dict() for _ in range(self.j + 1)]
        for key, vec in self.cells.items():
            for i, lp in enumerate(vec):
                v = lp.eval_at_one()
                if v:
                    out[i][key] = v
        return out

    def a11_order(self):
        """(per-coordinate minima, overall minimum) of the vanishing order
        at r = 1 over all stored cells; empty coordinates give +infinity.

        Truncation caveat: a finite measured value is exact; an infinite
        one only certifies vanishing inside the window.
        """
        per = []
        for i in range(self.j + 1):
            best = math.inf
            for vec in self.cells.values():
                if not vec[i].is_zero:
                    best = min(best, vec[i].vanishing_order_at_one())
            per.append(best)
        overall = min(per) if per else math.inf
        return per, overall

    # -- serialization --------------------------------------------------------------
    # to_json and to_text print every coefficient times a rational
    # ``factor``, as ``LaurentPoly`` does; from_json reads integer cells.
    def to_json(self, factor=1) -> dict:
        coeffs = []
        for key in _graded(self.cells):
            vec = self.cells[key]
            coeffs.append(
                {"n": list(key), "vec": [lp.to_json(factor) for lp in vec]}
            )
        data = {
            "weight": [self.j, self.k],
            "character": self.character,
            "truncation": self.kN if self.denom == 1 else str(Fraction(self.kN, self.denom)),
            "coeffs": coeffs,
        }
        if self.denom != 1:
            data["denominator"] = self.denom
        if self.start:
            data["start"] = self.start
        return data

    @classmethod
    def from_json(cls, data: dict) -> "FourierExpansion":
        denom, t = data.get("denominator", 1), data["truncation"]
        if denom not in (1, 2):
            raise ValueError(f"index-lattice denominator {denom!r} is not 1 or 2")
        kN = Fraction(t) * denom
        if kN.denominator != 1:
            raise ValueError(
                f"truncation {t!r} is off the lattice of denominator {denom}"
            )
        character = data["character"]
        if type(character) is not bool:
            raise ValueError(f"character {character!r} is not a JSON bool")
        cells = {
            tuple(_int(n, "index") for n in entry["n"]): tuple(
                LaurentPoly.from_json(v) for v in entry["vec"]
            )
            for entry in data["coeffs"]
        }
        weight = tuple(_int(w, "weight") for w in data["weight"])
        start = _int(data.get("start", 0), "start")
        return cls(weight, character, int(kN), cells, start, denom)

    def to_text(self, factor=1) -> str:
        """Display style of the printed expansions: one line per index pair,
        coordinates as Laurent polynomials in r."""
        lines = [
            f"weight ({self.j},{self.k})"
            + (" with character" if self.character else "")
            + f", truncation {self.truncation}"
        ]
        for key in _graded(self.cells):
            vec = self.cells[key]
            if self.denom == 1:
                label = f"({key[0]},{key[1]})"
            else:
                label = f"({Fraction(key[0], self.denom)},{Fraction(key[1], self.denom)})"
            body = ", ".join(lp.to_text(factor) for lp in vec)
            if self.j:
                body = "(" + body + ")"
            lines.append(f"{label}: {body}")
        return "\n".join(lines)

    def __repr__(self):
        return (
            f"FourierExpansion(weight=({self.j},{self.k}), "
            f"character={self.character}, window=[{self.start},{self.kN}], "
            f"cells={len(self.cells)})"
        )


@lru_cache(maxsize=None)
def _chi10_inverse(T):
    """V = U^-1 on the window [0, T], for chi_10 = q1 q2 P U: U is chi_10
    on [1, T + 1] with each cell divided by P = r - 2 + r^-1 and moved by
    (-1, -1), and V comes from Newton steps V <- 2V - U V^2 from V = 1,
    each one ``evaluate``.  The error 1 - U V squares at each step, so
    after s steps it vanishes below total degree n1 + n2 = 2^s, and
    (2T).bit_length() steps reach every cell of [0, T].

    Precision doubling: step s is cut at top = min(T, 2^s - 1).  Its exact
    cells, those of total degree <= 2^s - 1, depend only on cells of total
    degree <= 2^s - 1, and all of those lie in the cut box.  Each iterate
    is relabelled to the window [0, T], or the product's window rule would
    hold the next step to the cut.  The moved cells leave the positive
    semi-definite cone, and an iterate is exact only below its degree, so
    U and the iterates are unvalidated non-forms that never leave this
    function; the V returned is exact on [0, T].  The weights (0, 10) and
    (0, -10) let ``evaluate`` grade them."""
    from . import theta

    chi10 = theta.chi_10(T + 1)
    u = FourierExpansion(
        (0, 10), False, T,
        {(n1 - 1, n2 - 1): (x.exact_div(theta.CHI10_PIN),)
         for (n1, n2), (x,) in chi10.cells.items()},
        validate=False,
    )
    v = FourierExpansion(
        (0, -10), False, T, {(0, 0): (LaurentPoly.const(1),)}, validate=False
    )
    for s in range(1, (2 * T).bit_length() + 1):
        (v,) = evaluate([u, v], [{(0, 1): 2, (1, 2): -1}], min(T, 2**s - 1))
        v = FourierExpansion((0, -10), False, T, v.cells, validate=False)
    return v


def evaluate(forms, polys, top=None):
    """Each of ``polys`` ({exponents: int}, one exponent per form) evaluated
    at ``forms``, forms on one index lattice, as an iterator of expansions.

    One ``arith.evaluate`` runs the whole Horner scheme on the forms'
    packed images, at a width read off one scalar per antidiagonal
    n1 + n2 of each form; a power of a form is built once and shared by
    every poly, and the forms of the highest start (the cusp forms) are
    multiplied first, whatever their place in ``forms``.  Windows and
    swap-sign half products are those of the module docstring.  Each
    result takes the weight and character of its poly's terms, and a poly
    whose terms differ in either, or forms on two lattices, raise
    WeightMismatch.  A trivial-character result of half-integral forms is
    re-indexed to the integral lattice, as chi_5^2 is.

    With a cut ``top``, each result is that expansion restricted to the
    cells with max index <= top, on the window [start, min(kN, top)]: no
    cell past top is formed, and a product whose start lies past top is
    formed as zero instead of raising OrderTooSmall.  Without one, an
    empty window raises OrderTooSmall.
    """
    denoms = {f.denom for f in forms}
    if len(denoms) > 1:
        raise WeightMismatch("evaluation takes forms on one index lattice")
    denom = max(denoms, default=1)
    grades = [(f.j, f.k, f.character) for f in forms]

    def grade(e):
        j, k, odd = (sum(map(operator.mul, e, g)) for g in zip(*grades))
        return j, k, odd % 2 == 1

    kinds = []
    for p in polys:
        ws = set(map(grade, p))
        if len(ws) != 1:
            raise WeightMismatch(
                "a poly to evaluate needs terms of one weight and character"
            )
        kinds.append(ws.pop())
    results = arith.evaluate(
        [f.cells for f in forms], [(f.start, f.kN) for f in forms], polys, top
    )
    return (_expansion(kind, denom, *x) for kind, x in zip(kinds, results))


def _expansion(kind, denom, cells, start, kN):
    """An ``evaluate`` result; one of trivial character on the half-integral
    lattice is re-indexed to the integral one (``reindexed``)."""
    j, k, character = kind
    if denom == 2 and not character:
        cells, start, kN, denom = reindexed(cells, 2), (start + 1) // 2, kN // 2, 1
    # a sum of positive semi-definite index matrices is one: no re-check
    return FourierExpansion(
        (j, k), character, kN, cells, start, denom, validate=False
    )


def reindexed(cells, step):
    """A cell map moved to a coarser lattice: keys divided by ``step``,
    r-exponents by 2.  A key or r-exponent off that lattice raises
    SupportViolation."""
    out = {}
    for (k1, k2), vec in cells.items():
        if k1 % step or k2 % step or any(e % 2 for x in vec for e in x.c):
            raise SupportViolation(
                f"cell ({k1},{k2}) lies off the lattice of step {step}"
            )
        out[k1 // step, k2 // step] = tuple(
            LaurentPoly.over({e // 2: v for e, v in x.c.items()}) for x in vec
        )
    return out


def proportionality(a: FourierExpansion, b: FourierExpansion):
    """The constant c with a = c*b on the common window, or None.

    Returns 0 when a vanishes on a window where b does not.
    """
    if a.weight != b.weight or a.denom != b.denom:
        return None
    return common_ratio(
        pair for x, y in _common_window(a, b) for pair in zip(x, y)
    )


def _common_window(a: FourierExpansion, b: FourierExpansion):
    """The coefficient vector pairs (a at key, b at key) of every cell
    either one stores on their common window.  A cell neither stores is
    zero in both: cells are never stored all-zero or outside [start, kN]."""
    top = min(a.kN, b.kN)
    return (
        (a.vec_at(key), b.vec_at(key))
        for key in a.cells.keys() | b.cells.keys()
        if max(key) <= top
    )


def span_matrix(forms):
    """The coefficient rows of ``forms``, one column per (cell, coordinate,
    r-exponent) in the support of some form on their common window,
    columns in graded order.

    Column rule: when every form has the same swap sign s
    (``arith.swap_sign``), the columns of the cells (n1, n2) with n1 > n2
    are dropped.  The column of ((n1, n2), i, e) is s times that of
    ((n2, n1), j - i, e), which is kept, so the rank of the rows is
    unchanged; Sym^j forms fold as scalar ones do.
    """
    first = forms[0]
    for g in forms[1:]:
        if g.weight != first.weight or g.denom != first.denom:
            raise WeightMismatch("rank over mixed weights")
    top = min(g.kN for g in forms)
    signs = {arith.swap_sign(g.cells) for g in forms}
    fold = len(signs) == 1 and None not in signs
    entries = []
    for g in forms:
        row = {}
        for key, vec in g.cells.items():
            if max(key) > top or (fold and key[0] > key[1]):
                continue
            for i, lp in enumerate(vec):
                for e, v in lp.c.items():
                    row[key, i, e] = v
        entries.append(row)
    columns = sorted(set().union(*entries), key=lambda t: (t[0][0] + t[0][1], t))
    return [[row.get(col, 0) for col in columns] for row in entries]


def rank_of_span(forms) -> int:
    """Rank over Q of the coefficients of ``forms`` on their common window.

    Column rule (``span_matrix``): when every form has the same swap sign,
    the mirrored columns, those of the cells (n1, n2) with n1 > n2, are
    dropped, which leaves the rank unchanged; otherwise every column of the
    support is kept.
    """
    if not forms:
        return 0
    return linalg.rank(span_matrix(forms))


# -- elliptic (degree-1) forms, as boundary rows --------------------------------


def _sigma(n, power):
    return sum(d ** power for d in range(1, n + 1) if n % d == 0)


def elliptic_form(name: str, N: int) -> FourierExpansion:
    """E4, E6 or Delta to q^N, as the boundary row of weight (0, k) with
    a(n) at cell (n, 0)."""
    key = name.strip().lower()
    if key == "e4":
        k, coeffs = 4, [1] + [240 * _sigma(n, 3) for n in range(1, N + 1)]
    elif key == "e6":
        k, coeffs = 6, [1] + [-504 * _sigma(n, 5) for n in range(1, N + 1)]
    elif key == "delta":
        # q * prod_{n>=1} (1 - q^n)^24
        poly = [1] + [0] * N
        for m in range(1, N + 1):
            for _ in range(24):
                # multiply by (1 - q^m)
                for idx in range(N, m - 1, -1):
                    poly[idx] -= poly[idx - m]
        k, coeffs = 12, [0] + poly[:N]
    else:
        raise ValueError(f"unknown elliptic form {name!r}")
    cells = {(n, 0): (LaurentPoly.const(c),) for n, c in enumerate(coeffs)}
    return FourierExpansion((0, k), False, N, cells)
