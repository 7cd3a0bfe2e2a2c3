"""Invariants of binary sextics in positive characteristic.

Three strands:

* coefficient-wise reduction mod p of the classical invariants A..E, with
  the characteristic-3 identity A = a1*a5 - a2*a4 (up to scalar);
* the characteristic-2 lift-divide-reduce construction: for a curve
  y^2 + a(x)y + b(x) = 0 with deg a <= 3, deg b <= 6, lift to the sextic
  a~^2 + 4b~ over the integers, evaluate a characteristic-0 invariant,
  strip the full 2-power content, and reduce mod 2.  This produces the
  invariants K1..K4 with K2 = K1^2 and K3 = K4/K1;
* invariance checks for the resulting polynomials under the symbolic
  SL2 substitutions and the extra unipotent action (a,b) -> (a, b+v^2+v*a)
  with a generic cubic v.

The binary forms move and multiply through ``covariants``: the integer
samples and the characteristic-2 shear through its one SL2 mover, the lift
a~^2 + 4b~ and the shift through ``binary_product``.
"""

from __future__ import annotations

import random
from functools import lru_cache

from . import covariants
from .arith import is_prime
from .covariants import Covariant, _transformed_values, binary_product
from .errors import ZeroAfterReduction
from .poly import CHAR2_VARS, SEXTIC_VARS, MultiPoly, transvect

A_VARS = CHAR2_VARS[:4]
B_VARS = CHAR2_VARS[4:]
_INVARIANCE_NAMES = ("A", "B", "C", "D")
_INVARIANCE_SAMPLES = 25  # SL2 moves per invariant in modp_invariance_check


# -- reduction mod p of the classical invariants ------------------------------


def reduce_mod_p(c: Covariant, p: int) -> Covariant:
    """Coefficient-wise reduction of a covariant mod the prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return Covariant(c.poly.reduce_mod(p), c.degree, c.order)


def hasse_char3_identity() -> dict:
    """A mod 3 against a1*a5 - a2*a4.

    The multiplicative scalar relating A mod 3 to the weight-2 Hasse form
    is not determined here and is reported as unknown.
    """
    a3 = reduce_mod_p(covariants.invariant("A"), 3).poly
    target = (
        MultiPoly.variable(SEXTIC_VARS, "a1") * MultiPoly.variable(SEXTIC_VARS, "a5")
        - MultiPoly.variable(SEXTIC_VARS, "a2") * MultiPoly.variable(SEXTIC_VARS, "a4")
    ).reduce_mod(3)
    matches = a3 == target or a3 == target.scale(-1)
    return {
        "reduction": a3.to_text(),
        "target": target.to_text(),
        "matches_up_to_sign": matches,
        "hasse_scalar": "unknown",
        "status": "PASS" if matches else "FAIL",
    }


def degree2_space_dimension_mod3() -> int:
    """Rank of the transvectant-built degree-2 invariant space mod 3."""
    f = covariants.universal_sextic()
    cand = transvect(f, f, 6).poly.primitive().reduce_mod(3)
    return 0 if cand.is_zero else 1


def _random_sl2(rng):
    """Random SL2(Z) matrix as a word in the two unipotent generators."""
    m = (1, 0, 0, 1)
    for _ in range(rng.randint(1, 4)):
        t = rng.randint(-3, 3)
        p, q, r, s = m
        if rng.random() < 0.5:
            m = (p, q + t * p, r, s + t * r)
        else:
            m = (p + t * q, q, r + t * s, s)
    return m


def modp_invariance_check(p: int, seed=11):
    """Mod-p nonvanishing plus sampled SL2-invariance of the reductions."""
    rng = random.Random(seed)
    report = {}
    for name in _INVARIANCE_NAMES:
        red = reduce_mod_p(covariants.invariant(name), p)
        ok = not red.poly.is_zero
        for _ in range(_INVARIANCE_SAMPLES):
            values = [rng.randrange(p) for _ in range(7)]
            m = _random_sl2(rng)
            # reduced before evaluation: the moved values reach 10^12 for p = 13
            moved = [v % p for v in _transformed_values(values, m)]
            if red.evaluate_at_sextic(values) != red.evaluate_at_sextic(moved):
                ok = False
                break
        report[name] = ok
    report["status"] = "PASS" if all(report.values()) else "FAIL"
    return report


# -- characteristic 2: the Artin-Schreier model y^2 + a y + b ---------------


class Char2Pair:
    """A cubic a (a0..a3) and a sextic b (b0..b6) with F_2 coefficients."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        a = tuple(int(x) % 2 for x in a)
        b = tuple(int(x) % 2 for x in b)
        if len(a) != 4 or len(b) != 7:
            raise ValueError("need 4 cubic and 7 sextic coefficients")
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Char2Pair(a={self.a}, b={self.b})"


class Char2Invariant:
    """A polynomial over F_2 in a0..a3, b0..b6 with a weighted degree.

    The grading counts each a-variable 1/2 and each b-variable 1, so the
    lift of a degree-d characteristic-0 invariant has degree d.
    """

    __slots__ = ("poly", "degree")

    def __init__(self, poly: MultiPoly, degree: int):
        if poly.vars != CHAR2_VARS or poly.modulus != 2:
            raise ValueError("polynomial must live in the F_2 pair ring")
        for exps in poly.terms:
            a_deg = sum(exps[:4])
            b_deg = sum(exps[4:])
            if a_deg + 2 * b_deg != 2 * degree:
                raise ValueError("term violates the weighted grading")
        self.poly = poly
        self.degree = degree

    def __eq__(self, other):
        return (
            isinstance(other, Char2Invariant)
            and self.degree == other.degree
            and self.poly == other.poly
        )

    def evaluate(self, pair: Char2Pair) -> int:
        env = {f"a{i}": pair.a[i] for i in range(4)}
        env.update({f"b{i}": pair.b[i] for i in range(7)})
        return self.poly.evaluate(env)

    def __repr__(self):
        return f"Char2Invariant(degree={self.degree}, {self.poly.to_text()})"


def k1() -> Char2Invariant:
    """The square root of the discriminant of the cubic a, over F_2."""
    v = lambda n: MultiPoly.variable(CHAR2_VARS, n, 2)  # noqa: E731
    return Char2Invariant(v("a0") * v("a3") + v("a1") * v("a2"), 1)


@lru_cache(maxsize=None)
def _lift_sextic_coefficients():
    """Coefficients of a~^2 + 4*b~ over Z[a0..a3, b0..b6].

    Both a~ = sum a_i x1^(3-i) x2^i and b~ = sum b_i x1^(6-i) x2^i are
    lifted verbatim; the result is a binary sextic whose seven coefficients
    are returned in x2-degree order.
    """
    a = [MultiPoly.variable(CHAR2_VARS, n) for n in A_VARS]
    b = [MultiPoly.variable(CHAR2_VARS, n) for n in B_VARS]
    return tuple(x + y.scale(4) for x, y in zip(binary_product(a, a), b))


def _lift_evaluate(cov: Covariant) -> MultiPoly:
    """Evaluate a characteristic-0 invariant on the lifted sextic."""
    lifted = _lift_sextic_coefficients()
    return cov.poly.substitute(dict(zip(SEXTIC_VARS, lifted)))


def _val2(poly: MultiPoly) -> int:
    """2-adic valuation of the integer content."""
    return min((c & -c).bit_length() - 1 for c in poly.terms.values())


def _strip_and_reduce(poly: MultiPoly, degree: int, label: str) -> Char2Invariant:
    if poly.is_zero:
        raise ZeroAfterReduction(f"lift of {label} vanishes identically")
    v = _val2(poly)
    reduced = MultiPoly(poly.vars, {e: c >> v for e, c in poly.terms.items()}, 2)
    if reduced.is_zero:
        raise ZeroAfterReduction(f"lift of {label} is zero mod 2")
    return Char2Invariant(reduced, degree)


@lru_cache(maxsize=None)
def char2_lift_invariant(name: str) -> Char2Invariant:
    """Evaluate a characteristic-0 invariant on a~^2 + 4b~, strip the full
    2-power content, reduce mod 2."""
    inv = covariants.invariant(name)
    return _strip_and_reduce(_lift_evaluate(inv), inv.degree, name)


@lru_cache(maxsize=None)
def k4() -> Char2Invariant:
    """The degree-4 invariant from the lift, after 2-adic saturation.

    Both lifts A^2 -> 2^4*K1^4 + O(2^5) and B -> K1^4 + O(2) reduce to
    K1^4, so the single-invariant lifts are degenerate in degree 4.  The
    combination A^2 - 16B cancels that leading part; its content has
    2-adic valuation 7 and the quotient reduces to a new invariant that
    involves the b-coefficients and is divisible by K1.
    """
    a = covariants.invariant("A")
    combo = _lift_evaluate(a * a) - _lift_evaluate(covariants.invariant("B")).scale(
        16
    )
    return _strip_and_reduce(combo, 4, "A^2 - 16B")


def k3() -> Char2Invariant:
    """K3 = K4 / K1 (exact division over F_2)."""
    quotient = k4().poly.exact_div(k1().poly)
    return Char2Invariant(quotient, 3)


# -- the symbolic action checks ---------------------------------------------

_EXT_VARS = CHAR2_VARS + ("t", "v0", "v1", "v2", "v3")


def _ext(name):
    return MultiPoly.variable(_EXT_VARS, name, 2)


@lru_cache(maxsize=None)
def _action_images():
    """The images of a0..a3, b0..b6 over F_2[a, b, t, v] under the swap
    x1 <-> x2, the shear x1 -> x1 + t*x2 with symbolic t, and the shift
    (a, b) -> (a, b + v^2 + v*a) with symbolic cubic v (the cross terms of
    v^2 vanish mod 2): three substitutions, built once."""
    a = [_ext(n) for n in A_VARS]
    b = [_ext(n) for n in B_VARS]
    v = [_ext(f"v{i}") for i in range(4)]
    t = _ext("t")
    shear = (t**0, t, t * 0, t**0)
    shift = [
        x + y + z for x, y, z in zip(b, binary_product(v, v), binary_product(v, a))
    ]
    return tuple(
        dict(zip(CHAR2_VARS, a_img + b_img))
        for a_img, b_img in (
            (a[::-1], b[::-1]),
            (_transformed_values(a, shear), _transformed_values(b, shear)),
            (a, shift),
        )
    )


def char2_action_check(inv: Char2Invariant) -> bool:
    """Invariance under the symbolic SL2 substitutions and the extra
    unipotent action (a,b) -> (a, b + v^2 + v*a) with generic cubic v.

    The three symbolic checks (swap, shear with symbolic t, b-shift with
    symbolic v, from ``_action_images``) cover the full group.  Each is an
    identity of polynomials over F_2[a, b, t, v], so it holds at every
    F_2 point as well.
    """
    base = inv.poly.extend_ring(_EXT_VARS)
    return all(inv.poly.substitute(m) == base for m in _action_images())


# -- singular-curve oracle over F_2 -----------------------------------------


# F_2[x] polynomials as integer bit masks, bit i = coefficient of x^i.


def _f2x_mul(u: int, w: int) -> int:
    out = 0
    while u:
        if u & 1:
            out ^= w
        u >>= 1
        w <<= 1
    return out


def _f2x_mod(u: int, w: int) -> int:
    dw = w.bit_length()
    while u.bit_length() >= dw:
        u ^= w << (u.bit_length() - dw)
    return u


def _f2x_gcd(u: int, w: int) -> int:
    while w:
        u, w = w, _f2x_mod(u, w)
    return u


def _f2x_derivative(u: int) -> int:
    # only odd-degree terms survive differentiation over F_2
    d = 0
    i = 1
    while u >> i:
        if (u >> i) & 1 and i % 2 == 1:
            d |= 1 << (i - 1)
        i += 1
    return d


def _f2x_from_coeffs(coeffs) -> int:
    # descending-degree coefficient tuple -> bit mask
    out = 0
    for c in coeffs:
        out = (out << 1) | (c & 1)
    return out


def char2_is_singular(pair: Char2Pair) -> bool:
    """Affine-singularity test for y^2 + a(x)y + b(x) = 0 over F_2.

    A singular point needs a(x) = 0 and a'(x)^2 b(x) = b'(x)^2 there, so
    the chart is singular iff gcd(a, a'^2 b + b'^2) is non-constant; the
    point at infinity is covered by repeating the test on the reversed
    coefficient lists (the second chart of the weighted model).  The zero
    cubic is treated as singular (the curve is then inseparable).
    """

    def chart_singular(a_coeffs, b_coeffs):
        a = _f2x_from_coeffs(a_coeffs)
        b = _f2x_from_coeffs(b_coeffs)
        if not a:
            return True
        da, db = _f2x_derivative(a), _f2x_derivative(b)
        probe = _f2x_mul(_f2x_mul(da, da), b) ^ _f2x_mul(db, db)
        if not probe:
            return True
        return _f2x_gcd(a, probe).bit_length() > 1

    return chart_singular(pair.a, pair.b) or chart_singular(
        tuple(reversed(pair.a)), tuple(reversed(pair.b))
    )


# -- bundled verification -----------------------------------------------------


def verify_char2_suite() -> dict:
    """K2 = K1^2, K1 | K4, and the action checks for K1..K4."""
    K1 = k1()
    K2 = char2_lift_invariant("A")
    K4 = k4()
    K3 = k3()
    square = K1.poly * K1.poly
    results = {
        "K2_equals_K1_squared": K2.poly == square,
        "K1_divides_K4": K3.poly * K1.poly == K4.poly,
        "plain_B_lift_is_K1_4": char2_lift_invariant("B").poly
        == square * square,
        "action_K1": char2_action_check(K1),
        "action_K2": char2_action_check(K2),
        "action_K3": char2_action_check(K3),
        "action_K4": char2_action_check(K4),
        "negative_control": not char2_action_check(
            Char2Invariant(
                K1.poly
                + MultiPoly.variable(CHAR2_VARS, "a0", 2)
                * MultiPoly.variable(CHAR2_VARS, "a1", 2),
                1,
            )
        ),
    }
    results["status"] = "PASS" if all(results.values()) else "FAIL"
    return results


def verify_char3_suite() -> dict:
    hasse = hasse_char3_identity()
    dim = degree2_space_dimension_mod3()
    ok = hasse["status"] == "PASS" and dim == 1
    return {
        "hasse": hasse,
        "degree2_space_dim_mod3": dim,
        "status": "PASS" if ok else "FAIL",
    }
