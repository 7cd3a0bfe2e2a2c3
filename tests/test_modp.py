import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_covariants import _transform

from sexticforms import covariants as cv
from sexticforms import modp, poly
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
    assert max(sum(e[4:]) for e in k4.poly.terms) > 0


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


@settings(max_examples=200, deadline=None)
@given(
    st.randoms(use_true_random=False),
    st.lists(st.integers(-20, 20), min_size=7, max_size=7),
)
def test_transformed_sextic_values_is_the_binomial_expansion(rng, coeffs):
    m = modp._random_sl2(rng)
    assert modp._transformed_sextic_values(coeffs, m) == _transform(coeffs, m)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_modp_invariance_reports_are_frozen(p):
    # C vanishes mod 2, so its reduction fails the nonvanishing test there
    expected = {"A": True, "B": True, "C": p != 2, "D": True}
    expected["status"] = "PASS" if p != 2 else "FAIL"
    for seed in range(5):
        assert modp.modp_invariance_check(p, seed) == expected


def test_evaluation_prepares_each_polynomial_once(monkeypatch):
    builds, evaluations = [], []
    prepared, evaluate = poly._prepared, MultiPoly.evaluate

    def build_spy(terms):
        builds.append(1)
        return prepared(terms)

    def evaluate_spy(self, values):
        evaluations.append(1)
        return evaluate(self, values)

    monkeypatch.setattr(poly, "_prepared", build_spy)
    monkeypatch.setattr(MultiPoly, "evaluate", evaluate_spy)
    assert modp.modp_invariance_check(13)["status"] == "PASS"
    assert len(builds) == 4 and len(evaluations) >= 200

    builds.clear()
    evaluations.clear()
    lift = modp.char2_lift_invariant("D")
    # a copy that no earlier evaluation has prepared
    fresh = modp.Char2Invariant(
        MultiPoly(lift.poly.vars, lift.poly.terms, 2), lift.degree
    )
    for mask in range(2**11):
        a = [(mask >> i) & 1 for i in range(4)]
        b = [(mask >> (4 + i)) & 1 for i in range(7)]
        fresh.evaluate(modp.Char2Pair(a, b))
    assert len(builds) == 1 and len(evaluations) == 2**11
