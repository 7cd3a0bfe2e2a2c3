import ast
import pathlib
from fractions import Fraction

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sexticforms.arith import (
    PSI_12,
    LaurentPoly,
    common_ratio,
    frac_from_str,
    frac_to_str,
    is_prime,
)
from sexticforms import arith, qexp
from sexticforms.errors import NotDivisible

coeffs = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-30, max_value=30),
    max_size=5,
)
laurents = coeffs.map(LaurentPoly)


def test_primes():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(-3)


def test_primes_past_trial_division():
    # no factor up to 37, so each is decided in the Miller-Rabin rounds
    assert is_prime(2**61 - 1)
    assert not is_prime(1763)  # 41 * 43
    assert not is_prime(3215031751)  # 151 * 751 * 28351, strong to 2, 3, 5, 7


def test_primes_refused_from_psi_12():
    # PSI_12 = 399165290221 * 798330580441 passes every base up to 37
    assert PSI_12 == 399165290221 * 798330580441
    for n in (PSI_12, PSI_12 + 2):
        with pytest.raises(ValueError, match="only decided below"):
            is_prime(n)


def test_frac_round_trip():
    for v in (Fraction(3, 7), Fraction(-2), Fraction(0), 5):
        assert frac_from_str(frac_to_str(v)) == Fraction(v)


def test_laurent_basics():
    p = LaurentPoly({1: 1, 0: -2, -1: 1})
    assert min(p.c) == -1 and max(p.c) == 1
    assert p.eval_at_one() == 0
    assert p.vanishing_order_at_one() == 2
    assert {-e: v for e, v in p.c.items()} == p.c
    assert LaurentPoly().vanishing_order_at_one() == math.inf
    assert str(p) == "r^-1 - 2 + r"
    assert p.to_text(Fraction(-1, 2)) == "-1/2*r^-1 + 1 - 1/2*r"


def test_laurent_refuses_non_int_coefficients():
    for v in (Fraction(1, 2), Fraction(4, 2), 0.5):
        with pytest.raises(TypeError, match="ints"):
            LaurentPoly({0: v})
    with pytest.raises(TypeError):
        LaurentPoly({0: 1}).scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        LaurentPoly.from_json({"0": "1/2"})


def test_laurent_exact_div():
    p = LaurentPoly({1: 1, 0: -2, -1: 1})
    sq = p * p
    assert sq.exact_div(p) == p
    with pytest.raises(NotDivisible):
        LaurentPoly({0: 1, 1: 1}).exact_div(p)
    assert LaurentPoly().exact_div(p).is_zero


def test_laurent_exact_div_over_z():
    # a divisor with content 2: the quotient of 1 by 2 + 2r is not a
    # Laurent polynomial, and that of 1 + 2r + r^2, (1 + r)/2, is not
    # integral; that of 2 + 4r + 2r^2 is 1 + r
    two_one = LaurentPoly({0: 2, 1: 2})
    with pytest.raises(NotDivisible):
        LaurentPoly.const(1).exact_div(two_one)
    with pytest.raises(NotDivisible):
        LaurentPoly({0: 1, 1: 2, 2: 1}).exact_div(two_one)
    q = LaurentPoly({0: 2, 1: 4, 2: 2}).exact_div(two_one)
    assert q == LaurentPoly({0: 1, 1: 1})
    # negative leading and trailing coefficients, and exponents below zero
    p = LaurentPoly({-2: -3, 0: 5, 1: -7})
    f = LaurentPoly({-1: 2, 4: -1})
    assert (p * f).exact_div(p) == f
    assert (p * f).exact_div(f) == p
    assert (p * f.scale(-2)).exact_div(p.scale(-2)) == f
    with pytest.raises(NotDivisible):  # the quotient -f/2 is not integral
        (p * f).exact_div(p.scale(-2))
    # non-exact pairs: a remainder past the quotient's degree, and a step
    # whose divmod leaves one after the first step divided
    with pytest.raises(NotDivisible):
        (p * f + LaurentPoly({3: 1})).exact_div(p)
    with pytest.raises(NotDivisible):
        LaurentPoly({0: 3, 1: 3}).exact_div(LaurentPoly({0: 3, 1: 2}))


def test_laurent_pow_refuses_negative_powers():
    p = LaurentPoly({1: 2})
    assert p ** 0 == LaurentPoly.const(1) and p ** 3 == LaurentPoly({3: 8})
    for n in (-1, -2):
        with pytest.raises(ValueError, match="non-negative"):
            p ** n


def test_laurent_json_round_trip():
    p = LaurentPoly({-2: 3, 5: -4})
    assert LaurentPoly.from_json(p.to_json()) == p


@settings(max_examples=200, deadline=None)
@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly() == a
    assert a * LaurentPoly.const(1) == a
    assert (a - a).is_zero


@settings(max_examples=200, deadline=None)
@given(laurents, laurents)
@example(LaurentPoly({0: 3, 1: -1}), LaurentPoly({0: 2}))
def test_laurent_div_inverts_mul(a, b):
    if b.is_zero:
        return
    assert (a * b).exact_div(b) == a


@settings(max_examples=200, deadline=None)
@given(laurents)
def test_laurent_inversion_involution(a):
    # r -> 1/r is an involution and keeps the value at r = 1
    inv = LaurentPoly({-e: v for e, v in a.c.items()})
    assert LaurentPoly({-e: v for e, v in inv.c.items()}) == a
    assert inv.eval_at_one() == a.eval_at_one()


def test_common_ratio():
    x = LaurentPoly({-1: 1, 1: 1})
    assert common_ratio([(x.scale(3), x), (6, 2)]) == 3
    assert common_ratio([(x, x + LaurentPoly({0: 1}))]) is None
    assert common_ratio([(LaurentPoly(), x), (0, 0)]) == 0
    assert common_ratio([(1, 0)]) is None


def test_unpack_refuses_a_nonzero_one_bit_slot():
    # a signed 1-bit slot holds only 0: a nonzero x there is a width bug,
    # refused at once instead of read digit by digit without end
    assert arith.unpack(0, 0, 1) == {}
    with pytest.raises(ValueError):
        arith.unpack(1, 0, 1)
    assert arith.unpack(-3, 5, 2) == {5: 1, 6: -1}


_PACKED_FORMAT = {"Packed", "pack", "unpack", "pack_rows", "accumulate"}


def test_only_arith_knows_the_packed_format():
    # every other module reaches the kernel through arith.evaluate, never
    # through the packed images themselves
    for path in pathlib.Path(arith.__file__).parent.glob("*.py"):
        if path.name == "arith.py":
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
        assert not named & _PACKED_FORMAT, path.name


def test_every_power_is_one_substitution():
    # Substitution.power is the one power rule: no pow or __pow__ loops,
    # and each reaches it through evaluate or Substitution
    found = []
    for path in pathlib.Path(arith.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name in ("pow", "__pow__"):
                found.append(f"{path.name}:{fn.name}")
                nodes = list(ast.walk(fn))
                assert not any(isinstance(n, (ast.For, ast.While)) for n in nodes)
                called = {
                    getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                    for n in nodes
                    if isinstance(n, ast.Call)
                }
                assert called & {"evaluate", "Substitution"}, found[-1]
    assert sorted(found) == ["arith.py:__pow__", "poly.py:__pow__", "qexp.py:pow"]


def test_qexp_has_one_series_class_and_one_product_path():
    tree = ast.parse(pathlib.Path(qexp.__file__).read_text())
    classes = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    assert classes == ["FourierExpansion"]
    callers = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "evaluate"
                and isinstance(node.value, ast.Name)
                and node.value.id == "arith"
            ):
                callers.add(fn.name)
    assert callers == {"evaluate"}
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "arith"
        for alias in node.names
    }
    assert "evaluate" not in imported
