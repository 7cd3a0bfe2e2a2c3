import random

import pytest

from sexticforms import covariants as cv
from sexticforms import modp
from sexticforms.poly import CHAR2_VARS, MultiPoly


def test_reduce_mod_p_examples():
    a3 = modp.reduce_mod_p(cv.invariant("A"), 3).poly
    assert a3.to_text() == "a1*a5 + 2*a2*a4"
    a2 = modp.reduce_mod_p(cv.invariant("A"), 2).poly
    assert a2.to_text() == "a3^2"
    d5 = modp.reduce_mod_p(cv.invariant("D"), 5).poly
    assert not d5.is_zero
    with pytest.raises(ValueError):
        modp.reduce_mod_p(cv.invariant("A"), 6)


def test_hasse_char3():
    rep = modp.hasse_char3_identity()
    assert rep["status"] == "PASS"
    assert rep["hasse_scalar"] == "unknown"
    assert modp.degree2_space_dimension_mod3() == 1


def test_k1_values():
    k1 = modp.k1()
    # single-monomial cubics kill K1
    assert k1.evaluate(modp.Char2Pair((1, 0, 0, 0), (0,) * 7)) == 0
    # a = x^3 + 1
    assert k1.evaluate(modp.Char2Pair((1, 0, 0, 1), (0,) * 7)) == 1


def test_k2_equals_k1_squared():
    k1 = modp.k1()
    k2 = modp.char2_lift_invariant("A")
    assert k2.poly == k1.poly * k1.poly
    assert k2.degree == 2


def test_plain_degree4_lift_degenerates():
    k1 = modp.k1()
    assert modp.char2_lift_invariant("B").poly == k1.poly**4


def test_k4_and_k3():
    k1, k3, k4 = modp.k1(), modp.k3(), modp.k4()
    assert k4.degree == 4 and k3.degree == 3
    assert k3.poly * k1.poly == k4.poly
    # K4 genuinely involves the b-coefficients
    assert k4.poly.degree_on(CHAR2_VARS[4:]) > 0


def test_action_checks():
    for inv in (modp.k1(), modp.char2_lift_invariant("A"), modp.k3(), modp.k4()):
        assert modp.char2_action_check(inv)


def test_action_negative_control():
    k1 = modp.k1()
    broken = modp.Char2Invariant(
        k1.poly
        + MultiPoly.variable(CHAR2_VARS, "a0", 2)
        * MultiPoly.variable(CHAR2_VARS, "a1", 2),
        1,
    )
    assert not modp.char2_action_check(broken)


def test_char2_suite():
    assert modp.verify_char2_suite()["status"] == "PASS"


def test_modp_invariance_p5():
    assert modp.modp_invariance_check(5)["status"] == "PASS"


def test_singular_detection_exhaustive():
    lift_d = modp.char2_lift_invariant("D")
    for mask in range(2**11):
        a = [(mask >> i) & 1 for i in range(4)]
        b = [(mask >> (4 + i)) & 1 for i in range(7)]
        pair = modp.Char2Pair(a, b)
        assert (lift_d.evaluate(pair) == 0) == modp.char2_is_singular(pair)


def test_singular_detection_sampled_report():
    rng = random.Random(3)
    pairs = [
        modp.Char2Pair(
            [rng.randrange(2) for _ in range(4)],
            [rng.randrange(2) for _ in range(7)],
        )
        for _ in range(10)
    ]
    assert modp.char2_discriminant_detects(pairs)["status"] == "PASS"
