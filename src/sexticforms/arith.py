"""Exact arithmetic foundation: Laurent polynomials over Z and the one
series product kernel.

Every series coefficient is a Python ``int``: ``LaurentPoly`` refuses any
other type, so the kernel, the Fourier expansions built on it and their
divisions by powers of chi_10 all run over Z.  A rational enters only at
the edges: a covariant with rational coefficients is split into its
content times an integer covariant before it is evaluated
(``cli.cmd_nu``), and the content is applied when the expansion is
printed.  Everything here is immutable after construction and free of
floating point.  Mod-p arithmetic lives in :mod:`sexticforms.poly`.

``evaluate`` is the one entry of every series product in the package
(Kronecker substitution; Schoenhage 1982, Harvey 2009): it evaluates
polynomials at cell maps in their packed images.  Laurent polynomials,
theta products and, through ``qexp.evaluate``, Fourier expansions
(elliptic forms among them, as boundary rows), polynomials in forms and
the divisions by chi_10^k (a product by a power of the series inverse,
``qexp.FourierExpansion.exact_div_chi10``) all go through it.  No other
module knows the packed format, and ``accumulate`` is the one
multiply-add.

The packed image.  A ``Packed`` map is a cell map evaluated at r = 2^w:
per cell, its own lowest exponent lo and one int per Sym^j coordinate,
coefficient e in the slot ``w * (e - lo)`` bits up.  r -> 2^w is a ring
homomorphism, so the product (each output cell summed at its own lowest
exponent), sum and integer multiple of images are the images of the
product, sum and multiple of the maps, whatever the ints hold in between.
Only the final coefficients must fit their slots: ``unpack`` reads each
coordinate once as signed w-bit digits, which is exact when every
coefficient lies in (-2^(w-1), 2^(w-1)).  ``Packed.of`` packs a cell map.
``evaluate`` packs its maps once, at a width read off a majorant
(``majorant_width``): each map reduced to one scalar per antidiagonal
n1 + n2 = t, the sum of |c| over its cells and coordinates, the scalars
of a map held in the slots of one int (``Majorant``, a Kronecker
substitution in t on the doubled window), and the same Horner scheme run
on these ints, one int product, shift or mask per step.  These sums are
subadditive and submultiplicative, so the result bounds the sum of |c|
over each antidiagonal of each result, and one bit more than its largest
bit length is a width every final coefficient fits.

The order rule.  ``evaluate`` takes its maps by decreasing window start,
in both passes, before it runs the Horner scheme of ``Substitution``,
which forms the first variables innermost.  The factors that vanish to
the highest order are then multiplied first, while their windows, cut at
``top``, are smallest: the generator monomials of ``ringlab`` form
chi_10^c * chi_12^d on [c + d, N] before psi_4 and psi_6, dense on
[0, N], join them.  Values, windows and widths do not depend on the
order, because the unit enters only a poly's constant term
(``Substitution``): the window rules of products and sums distribute.

Swap signs.  The swap sign of a cell map is the s in {1, -1} with
cell (n2, n1) = s * reversed(cell (n1, n2)) for every cell
(``swap_sign``); for a scalar map, cell (n2, n1) = s * cell (n1, n2).
U = [[0, 1], [1, 0]] in GL2(Z) swaps n1 and n2 in the half-integral
index matrix and acts on weight (j, k) by det(U)^k Sym^j(U), which
reverses the j + 1 coordinates: a scalar form of weight k has sign
(-1)^k, and the registry forms, Sym^j ones included, all have sign 1.
The sign is read off the cells, never assumed from a weight; an
asymmetric map, or a diagonal cell v with v != s * reversed(v), has none.
The product of two maps with swap signs s and t has swap sign s * t, so
``Packed.__mul__`` then computes only the output cells with n2 <= n1 and
mirrors the rest; a sum of maps of one sign and one width keeps the sign.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotDivisible, OrderTooSmall


# the least strong pseudoprime to every prime base up to 37 (Sorenson and
# Webster, Math. Comp. 2017): 399165290221 * 798330580441
PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases up to 37, exact for n < PSI_12 =
    318665857834031151167461; raises ValueError for n >= PSI_12."""
    if n >= PSI_12:
        raise ValueError(f"primality of {n} is only decided below {PSI_12}")
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
    if type(x) is int:
        return str(x)
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def render_sum(terms) -> str:
    """Display text of a sum of (coefficient, monomial text) terms, in the
    order given: ``c*mono``, with the coefficient left out when it is 1 in
    size and the monomial when it is ""; the terms are joined by `` + `` or
    `` - `` and a leading minus binds to the first.  An empty sum is "0"."""
    parts = []
    for c, mono in terms:
        mag = abs(c)
        if not mono:
            body = frac_to_str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{frac_to_str(mag)}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + body)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text[0] == "+" else "-" + text[2:]


# -- the packed-evaluation kernel ---------------------------------------------


def pack(c: dict, lo: int, w: int) -> int:
    """The integer sum of c[e] * 2^(w * (e - lo))."""
    x = 0
    for e, v in c.items():
        x += v << (w * (e - lo))
    return x


def unpack(x: int, lo: int, w: int) -> dict:
    """The nonzero signed w-bit digits of x as {lo + slot: digit}; each
    digit of a packed sum is its coefficient when the sums fit the slots.
    A slot of w < 2 bits holds only 0: ValueError for any other x."""
    out = {}
    if not x:
        return out
    if w < 2:
        raise ValueError(f"a {w}-bit signed slot holds only 0")
    skip = ((x & -x).bit_length() - 1) // w  # empty low slots
    x >>= skip * w
    lo += skip
    mask, half = (1 << w) - 1, 1 << (w - 1)
    while x:
        d = x & mask
        x >>= w
        if d >= half:  # a negative digit borrows from the next slot
            d -= mask + 1
            x += 1
        if d:
            out[lo] = d
        lo += 1
    return out


def accumulate(acc: list, xs, ys, shift: int) -> None:
    """acc[i + l] += (x * y) << shift over packed coordinates [(i, x)] and
    [(l, y)]: the one multiply-add of every series product."""
    for i, x in xs:
        for l, y in ys:
            acc[i + l] += x * y << shift


def _negated(x: dict, y: dict) -> bool:
    """Whether the coefficient dicts x and y are negatives of each other."""
    return len(y) == len(x) and all(y.get(e) == -v for e, v in x.items())


def swap_sign(cells):
    """The s in {1, -1} with cell (n2, n1) = s * reversed(cell (n1, n2))
    for every cell of a cell map {(n1, n2): (LaurentPoly, ...)}, or None:
    for a cell without its mirror, mirrors that differ by other than one
    common sign, or a diagonal cell v with v != s * reversed(v) (for a
    scalar map: a nonzero diagonal cell under sign -1).  Zero cells count
    as absent, and a map without nonzero cells has sign 1.
    """
    sign = None
    for (n1, n2), vec in cells.items():
        mirror = cells.get((n2, n1))
        if len(vec) == 1:  # a scalar cell is its own reversal
            x = vec[0].c
            if not x:
                continue
            y = mirror[0].c if mirror else {}
            if n1 > n2:  # compared from the other side; only its presence here
                if not y:
                    return None
                continue
            s = 1 if y == x else -1 if _negated(x, y) else None
        else:
            xs = [x.c for x in vec]
            if not any(xs):
                continue
            ys = [y.c for y in reversed(mirror)] if mirror else []
            if n1 > n2:
                if not any(ys):
                    return None
                continue
            if ys == xs:
                s = 1
            elif len(ys) == len(xs) and all(map(_negated, xs, ys)):
                s = -1
            else:
                return None
        if s is None or (sign is not None and s != sign):
            return None
        sign = s
    return 1 if sign is None else sign


def product_window(a, b):
    """(start, kN) of the product of images a and b, each with a window
    [start, kN] and a cut ``top``: the window rule of
    ``qexp.FourierExpansion.mul`` cut at top.  An empty window raises
    OrderTooSmall unless the cut lies below the product's start, where the
    product is zero."""
    start, top = a.start + b.start, a.top
    bound = min(a.kN + b.start, b.kN + a.start)
    if top is not None:
        bound = min(bound, top)
    if bound < start and (top is None or top >= start):
        raise OrderTooSmall("truncation too small: product window is empty")
    return start, bound


class Packed:
    """A cell map evaluated at r = 2^w.

    ``cells`` is {(n1, n2): (lo, [(i, x)])}: per cell its own lowest
    exponent lo and, for each nonzero Sym^j coordinate i < ``width``, the
    int x = (coordinate at r = 2^w) * 2^(-w * lo).  ``start`` and ``kN``
    bound its window as in ``qexp.FourierExpansion``, and ``sign`` is the
    swap sign of the map it is the image of, or None.  The image is a ring
    homomorphism, so ``*``, ``+`` and ``scale`` act on images as on maps,
    whatever the ints hold; ``unpacked`` reads back a map whose
    coefficients all lie in (-2^(w-1), 2^(w-1)).

    ``top`` is the cut of an evaluation that reads only the cells with max
    index <= top, or None.  Under a cut every window stops at top: ``*``
    takes kN = min(window rule, top), ``+`` and ``scale`` carry the cut
    through, and a product whose cut window is empty because top < start
    is the zero image, no cells on [start, top], since every coefficient
    with min(n1, n2) < start vanishes.  Every window stays exact: an
    output cell depends only on operand cells of smaller or equal
    indices, so the cells a cut drops are never read.
    """

    __slots__ = ("cells", "w", "width", "sign", "start", "kN", "top")

    def __init__(self, cells, w, width, sign, start, kN, top=None):
        self.cells = cells
        self.w = w
        self.width = width
        self.sign = sign
        self.start = start
        self.kN = kN
        self.top = top

    @classmethod
    def of(cls, cells, w: int, start: int, kN: int, top=None) -> "Packed":
        """The image at r = 2^w of a cell map {(n1, n2): (LaurentPoly, ...)}
        on the window [start, kN], each cell packed at its own lowest
        exponent, with the map's Sym^j width and swap sign; under a cut
        ``top``, of its cells with max index <= top, on [start, min(kN,
        top)]."""
        if top is not None:
            kN = min(kN, top)
            cells = {key: vec for key, vec in cells.items() if max(key) <= kN}
        packed = {}
        for key, vec in cells.items():
            row = [(i, x.c) for i, x in enumerate(vec) if x.c]
            if row:
                low = min(min(c) for _, c in row)
                packed[key] = (low, [(i, pack(c, low, w)) for i, c in row])
        width = len(next(iter(cells.values()), ()))
        return cls(packed, w, width, swap_sign(cells), start, kN, top)

    def __mul__(self, other):
        """The image of the product, on the window rule of
        ``qexp.FourierExpansion.mul`` cut at ``top``: an empty window raises
        OrderTooSmall unless the cut lies below the product's start, where
        the product is zero.

        Keys add and a cell past the window is dropped; coordinate i times
        coordinate l lands in coordinate i + l.  Each output cell
        accumulates at its own lowest exponent, the least sum of its operand
        cells' lowest.  When both maps have a swap sign, only the cells with
        n2 <= n1 are computed, and cell (n2, n1) is cell (n1, n2) reversed,
        times the product of the signs."""
        start, bound = product_window(self, other)
        width = self.width + other.width - 1
        half = self.sign is not None and other.sign is not None
        groups = {}  # other's cells by first index, each group ascending in the second
        for (b1, b2), (lb, y) in sorted(other.cells.items()):
            groups.setdefault(b1, []).append((b2, lb, y))
        w, out = self.w, {}  # key: [lowest exponent so far, accumulator]
        for (a1, a2), (la, x) in self.cells.items():
            for b1, group in groups.items():
                n1 = a1 + b1
                if n1 > bound:
                    break
                cap = n1 if half else bound  # the half holds the cells n2 <= n1
                for b2, lb, y in group:
                    n2 = a2 + b2
                    if n2 > cap:
                        break
                    low = la + lb
                    cell = out.get((n1, n2))
                    if cell is None:
                        cell = out[n1, n2] = [low, [0] * width]
                    elif low < cell[0]:  # rebase the sum at the lower exponent
                        up = w * (cell[0] - low)
                        cell[0], cell[1] = low, [v << up for v in cell[1]]
                    accumulate(cell[1], x, y, w * (low - cell[0]))
        cells = {}
        for key, (lo, acc) in out.items():
            row = [(i, v) for i, v in enumerate(acc) if v]
            if row:
                cells[key] = (lo, row)
        sign = None
        if half:
            sign, last = self.sign * other.sign, width - 1
            for (n1, n2), (lo, row) in list(cells.items()):
                if n2 < n1:
                    if sign == -1:
                        row = [(i, -v) for i, v in row]
                    if last:
                        row = [(last - i, v) for i, v in reversed(row)]
                    cells[n2, n1] = (lo, row)
        return Packed(cells, w, width, sign, start, bound, self.top)

    def __add__(self, other):
        """The image of the sum, on the window of ``qexp.FourierExpansion.add``."""
        kN, w, width = min(self.kN, other.kN), self.w, max(self.width, other.width)
        cells = {key: cell for key, cell in self.cells.items() if max(key) <= kN}
        for key, (lb, ys) in other.cells.items():
            if max(key) > kN:
                continue
            if key not in cells:
                cells[key] = (lb, ys)
                continue
            la, xs = cells[key]
            lo = min(la, lb)
            acc = [0] * width
            for i, x in xs:
                acc[i] += x << w * (la - lo)
            for i, y in ys:
                acc[i] += y << w * (lb - lo)
            row = [(i, v) for i, v in enumerate(acc) if v]
            if row:
                cells[key] = (lo, row)
            else:
                del cells[key]
        # the mirror reverses the coordinates: one sign needs one width
        same = self.sign == other.sign and self.width == other.width
        sign = self.sign if same else None
        start = min(self.start, other.start)
        return Packed(cells, w, width, sign, start, kN, self.top)

    def scale(self, c: int) -> "Packed":
        cells = {
            key: (lo, [(i, x * c) for i, x in row])
            for key, (lo, row) in self.cells.items()
        } if c else {}
        return Packed(
            cells, self.w, self.width, self.sign, self.start, self.kN, self.top
        )

    def unpacked(self):
        """The cell map {(n1, n2): (LaurentPoly, ...)} of this image, read
        as signed w-bit digits: exact when every coefficient fits.  With a
        swap sign only the cells n2 <= n1 are read, and mirrored with their
        coordinates reversed."""
        zero, sign = LaurentPoly(), self.sign
        out = {}
        for (n1, n2), (lo, row) in self.cells.items():
            if sign is not None and n2 > n1:
                continue
            vec = [zero] * self.width
            for i, x in row:
                vec[i] = LaurentPoly.over(unpack(x, lo, self.w))
            out[n1, n2] = vec = tuple(vec)
            if sign is not None and n2 < n1:
                vec = vec[::-1]
                out[n2, n1] = vec if sign == 1 else tuple(-x for x in vec)
        return out


class Substitution:
    """Evaluates polynomials at ``images[i]`` for variable i, with ``one``
    the unit of their ring; images need ``*``, ``+`` and ``scale``.

    ``power(i, k)`` builds images[i]**k once and keeps it, as power(i, t)
    * power(i, k - t) with t the largest power of two below k: a lone x**k
    takes the products of binary powering (x**13: x**2, x**4, x**8, x**5,
    x**13), a run of exponents one product per exponent.  A call groups
    the terms on one variable at a time, the last variable outermost (the
    sparse multivariate Horner scheme; Pena and Sauer, 2000): a factor
    several terms share is multiplied once, and a constant cofactor is a
    ``scale``, never a product.  So ``one`` enters only the constant term
    of a call: a product with it would cut a windowed image to the unit's
    window, and the windows of the result would depend on the order of
    the variables.
    """

    def __init__(self, images, one):
        self.images = tuple(images)
        self.one = one
        self._powers = {}

    def power(self, i, k):
        if k == 1:
            return self.images[i]
        if (i, k) not in self._powers:
            t = 1 << (k - 1).bit_length() - 1  # the largest power of two below k
            self._powers[i, k] = self.power(i, t) * self.power(i, k - t)
        return self._powers[i, k]

    def __call__(self, terms):
        """Sum of c * prod images[i]**e[i] over ``{exponents: c}``."""
        return self._horner(list(terms.items()), len(self.images))

    def _horner(self, terms, n):
        # every exponent vanishes from variable n on
        i = n - 1
        while i >= 0 and not any(e[i] for e, _ in terms):
            i -= 1
        if i < 0:  # the constant term, if any
            return self.one.scale(sum(c for _, c in terms))
        groups = {}
        for e, c in terms:
            groups.setdefault(e[i], []).append((e, c))
        acc = None
        for k, group in sorted(groups.items()):
            if not k:
                term = self._horner(group, i)
            else:
                rest = [(e, c) for e, c in group if any(e[:i])]
                term = self.power(i, k) * self._horner(rest, i) if rest else None
                for e, c in group:  # at most one term c * images[i]**k
                    if not any(e[:i]):
                        alone = self.power(i, k)
                        alone = alone if c == 1 else alone.scale(c)
                        term = alone if term is None else term + alone
            acc = term if acc is None else acc + term
        return acc


def _images(maps, windows, w, top):
    """``Substitution`` at the images at r = 2^w (``Packed.of``) of the
    cell maps ``maps`` on their ``windows`` [(start, kN)], cut at ``top``,
    with the unit on their common window."""
    kN = min(k for _, k in windows)
    images = [
        Packed.of(cells, w, start, k, top)
        for cells, (start, k) in zip(maps, windows)
    ]
    one = Packed.of({(0, 0): (LaurentPoly.const(1),)}, w, 0, kN, top)
    return Substitution(images, one)


class Majorant:
    """The antidiagonal majorant of a cell map as one int: the sum M(t) of
    |c| over every coordinate of every cell (n1, n2) with n1 + n2 = t in
    the ``w``-bit slot t - start of ``x``, on the doubled window [start,
    kN] cut at ``top``.  ``*``, ``+`` and ``scale`` follow the window
    rules of ``Packed``, one int operation each: the slots are nonnegative
    and ``w`` holds each, so a product's slot is its convolution sum, and
    a mask keeps the slots of the window."""

    __slots__ = ("x", "w", "start", "kN", "top")

    def __init__(self, x, w, start, kN, top):
        self.x = x
        self.w = w
        self.start = start
        self.kN = kN
        self.top = top

    def _masked(self, x, start, kN):
        """A majorant of this width and cut: x kept on the slots of [start, kN]."""
        mask = (1 << self.w * max(0, kN - start + 1)) - 1
        return Majorant(x & mask, self.w, start, kN, self.top)

    def __mul__(self, other):
        start, bound = product_window(self, other)
        return self._masked(self.x * other.x, start, bound)

    def __add__(self, other):
        start = min(self.start, other.start)
        x = self.x << self.w * (self.start - start)
        x += other.x << self.w * (other.start - start)
        return self._masked(x, start, min(self.kN, other.kN))

    def scale(self, c: int) -> "Majorant":
        return Majorant(self.x * c, self.w, self.start, self.kN, self.top)


def majorant_width(maps, windows, polys, top=None) -> int:
    """The slot width at which ``evaluate`` packs ``maps`` on ``windows``
    for ``polys``, cut at ``top``.

    Each poly is evaluated once more, with every coefficient replaced by
    its absolute value, at the maps' ``Majorant`` on t in [2 * start,
    2 * min(kN, top)], by the same Horner scheme, cut at 2 * top.
    Antidiagonal sums of |c| are subadditive and submultiplicative, M_fg(t)
    <= sum over t1 + t2 = t of M_f(t1) * M_g(t2), and every cell with max
    index <= kN has t <= 2 * kN, so the value at t bounds the sum of |c|
    over every coordinate of every cell of the true value on that
    antidiagonal, and one bit more than its largest bit length puts every
    coefficient of every result in (-2^(w-1), 2^(w-1)).  The majorants'
    slots are as wide as the poly with |c| at the maps' total masses (each
    at least 1), which bounds every slot of every value the scheme forms.
    """
    top2 = None if top is None else 2 * top
    sums, masses = [], []
    for cells, (start, kN) in zip(maps, windows):
        cut = 2 * (kN if top is None else min(kN, top))
        m = {}
        for (n1, n2), vec in cells.items():
            t = n1 + n2
            if t <= cut:
                m[t] = m.get(t, 0) + sum(abs(v) for x in vec for v in x.c.values())
        sums.append((m, 2 * start, cut))
        masses.append(max(1, sum(m.values())))
    most = max(
        (sum(abs(c) * math.prod(map(pow, masses, e)) for e, c in p.items())
         for p in polys),
        default=0,
    )
    w = most.bit_length()
    images = [
        Majorant(sum(v << w * (t - start) for t, v in m.items()), w, start, kN, top2)
        for m, start, kN in sums
    ]
    kN = 2 * min(k for _, k in windows)
    one = Majorant(1, w, 0, kN if top2 is None else min(kN, top2), top2)
    sub = Substitution(images, one)
    most, mask = 0, (1 << w) - 1
    for p in polys:
        x = sub({e: abs(c) for e, c in p.items()}).x
        while x:
            most = max(most, x & mask)
            x >>= w
    return most.bit_length() + 1


def evaluate(maps, windows, polys, top=None):
    """Each of ``polys`` ({exponents: int}, one exponent per map) evaluated
    at the cell maps ``maps`` {(n1, n2): (LaurentPoly, ...)} on their
    ``windows`` [(start, kN)], cut at ``top``, as an iterator of (cells,
    start, kN): the one entry of every series product.

    The maps are packed once, at the width of ``majorant_width``, the
    Horner scheme of ``Substitution`` runs on the packed images under the
    window rules of ``Packed``, and each result is unpacked once.

    Both passes take the maps by decreasing window start (a stable sort,
    so equal starts keep their order), each poly's exponents permuted to
    match.  The Horner scheme forms the first variables innermost, so the
    factors that vanish to the highest order are multiplied first, while
    their windows, cut at ``top``, are smallest.  The order changes no
    value, window or width.
    """
    order = sorted(range(len(maps)), key=lambda i: -windows[i][0])
    maps = [maps[i] for i in order]
    windows = [windows[i] for i in order]
    polys = [{tuple(e[i] for i in order): c for e, c in p.items()} for p in polys]
    sub = _images(maps, windows, majorant_width(maps, windows, polys, top), top)
    return ((x.unpacked(), x.start, x.kN) for x in map(sub, polys))


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
    """Sparse exact Laurent polynomial in one variable ``r`` over Z.

    Coefficients are ints keyed by integer exponent (TypeError for any
    other coefficient type); zero coefficients are never stored.
    Instances are immutable by convention.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        out = {}
        if coeffs:
            for e, v in coeffs.items():
                if type(v) is not int:
                    raise TypeError(
                        f"Laurent coefficients are ints, not {type(v).__name__}"
                    )
                if v:
                    out[int(e)] = v
        self.c = out

    # -- constructors -------------------------------------------------
    @classmethod
    def over(cls, coeffs: dict) -> "LaurentPoly":
        """The polynomial of a dict of nonzero int coefficients, kept as
        given, unchecked."""
        p = cls.__new__(cls)
        p.c = coeffs
        return p

    @classmethod
    def const(cls, v):
        return cls({0: v})

    # -- predicates ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.c

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
        if isinstance(other, int):
            return self.scale(other)
        ((cells, _, _),) = evaluate(
            [{(0, 0): (self,)}, {(0, 0): (other,)}], [(0, 0)] * 2, [{(1, 1): 1}]
        )
        return cells[0, 0][0] if cells else LaurentPoly()

    __rmul__ = __mul__

    def scale(self, s):
        if not s:
            return LaurentPoly()
        return LaurentPoly({e: v * s for e, v in self.c.items()})

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("non-negative powers only")
        ((cells, _, _),) = evaluate([{(0, 0): (self,)}], [(0, 0)], [{(n,): 1}])
        return cells[0, 0][0] if cells else LaurentPoly()

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        return hash(tuple(sorted(self.c.items())))

    # -- specialized operations -----------------------------------------
    def eval_at_one(self) -> int:
        return sum(self.c.values())

    def exact_div(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient over Z; raises NotDivisible unless it is a Laurent
        polynomial with integer coefficients.

        Long division from the lowest exponent up: each step is a
        ``divmod`` by the divisor's lowest coefficient that must leave no
        remainder, as it does whenever the quotient is integral.
        """
        if other.is_zero:
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero:
            return LaurentPoly()
        sa, sb = min(self.c), min(other.c)
        rem = {e - sa: v for e, v in self.c.items()}
        div = {e - sb: v for e, v in other.c.items()}
        lead = div[0]
        bound = max(rem) - max(div)
        q = {}
        while rem:
            e = min(rem)
            if e > bound:
                raise NotDivisible("Laurent division leaves a remainder")
            c, r = divmod(rem[e], lead)
            if r:
                raise NotDivisible("Laurent division leaves a remainder")
            q[e + sa - sb] = c
            for eb, vb in div.items():
                k = e + eb
                nv = rem.get(k, 0) - c * vb
                if nv:
                    rem[k] = nv
                else:
                    del rem[k]
        return LaurentPoly.over(q)

    def vanishing_order_at_one(self):
        """Largest m with (r-1)^m dividing self (up to a power of r): the
        number of exact divisions by r - 1 that succeed.  Returns
        ``math.inf`` for the zero polynomial."""
        if self.is_zero:
            return math.inf
        x, order = self, 0
        while True:
            try:
                x = x.exact_div(_R_MINUS_ONE)
            except NotDivisible:
                return order
            order += 1

    # -- serialization --------------------------------------------------
    # to_json and to_text print each coefficient times a rational
    # ``factor``: the content split off a rational covariant before its
    # integer part was evaluated.
    def to_json(self, factor=1) -> dict:
        items = sorted(self.c.items())
        if factor == 1:
            return {str(e): str(v) for e, v in items}
        return {str(e): frac_to_str(v * factor) for e, v in items}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        """The polynomial of {"exponent": "int"}; TypeError for a rational
        coefficient such as "1/2".  Zero coefficients are dropped."""
        out = {}
        for e, v in data.items():
            if "/" in v:
                raise TypeError(f"Laurent coefficients are ints, not {v!r}")
            v = int(v)
            if v:
                out[int(e)] = v
        return cls.over(out)

    def to_text(self, factor=1) -> str:
        return render_sum(
            (self.c[e] * factor, "" if e == 0 else "r" if e == 1 else f"r^{e}")
            for e in sorted(self.c)
        )

    __str__ = __repr__ = to_text


_R_MINUS_ONE = LaurentPoly({1: 1, 0: -1})
