import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sexticforms import covariants as cv
from sexticforms.errors import (
    NormalizationFailure,
    NotUnimodular,
    OrderTooSmall,
    UnknownName,
)
from sexticforms.poly import CHAR2_VARS, SEXTIC_VARS, MultiPoly


def _var(name):
    return MultiPoly.variable(SEXTIC_VARS, name)


def test_universal_sextic_shape(sextic):
    assert (sextic.degree, sextic.order) == (1, 6)
    assert sextic.poly.coefficient(a3=1, x1=3, x2=3) == 1


@pytest.mark.parametrize(
    "poly, degree, order, message",
    [
        (MultiPoly.variable(CHAR2_VARS, "a0"), 1, 0, "sextic ring"),
        (_var("a0") * _var("a1") + _var("a2"), 2, 0, "degree"),
        (_var("a0") * (_var("x1") + _var("x2") ** 2), 1, 2, "order"),
    ],
)
def test_covariant_constructor_checks(poly, degree, order, message):
    with pytest.raises(ValueError, match=message):
        cv.Covariant(poly, degree, order)


def test_solve_anchored_refuses_a_free_candidate():
    a = cv.invariant("A")
    with pytest.raises(NormalizationFailure, match="free candidate"):
        cv._solve_anchored(
            [a, a.scale(2)],
            anchors=[(cv._a_monomial(a0=1, a6=1), 120)],
            checks=[],
            label="A twice",
        )


def test_transvectant_normalization():
    x1 = cv.Covariant(_var("x1") ** 2, 0, 2)
    x2 = cv.Covariant(_var("x2") ** 2, 0, 2)
    t = cv.transvectant(x1, x2, 2)
    assert t.poly == MultiPoly.const(SEXTIC_VARS, 1)


def test_transvectant_alternating(sextic):
    assert cv.transvectant(sextic, sextic, 1).is_zero
    assert cv.transvectant(sextic, sextic, 3).is_zero


def test_transvectant_order_too_small(sextic):
    small = cv.Covariant(_var("x1"), 0, 1)
    with pytest.raises(OrderTooSmall):
        cv.transvectant(small, sextic, 2)


def test_invariant_A_printed_formula():
    assert (
        cv.invariant("A").poly.to_text()
        == "120*a0*a6 - 20*a1*a5 + 8*a2*a4 - 3*a3^2"
    )


def test_invariant_B_pinned_coefficients():
    b = cv.invariant("B").poly
    assert b.coefficient(a0=1, a6=1, a3=2) == 81
    assert b.coefficient(a1=1, a5=1, a3=2) == 9
    assert b.coefficient(a0=1, a4=1, a5=1, a3=1) == -45
    assert b.coefficient(a1=1, a2=1, a6=1, a3=1) == -45
    assert b.coefficient(a1=1, a4=2, a3=1) == -3
    assert b.coefficient(a2=2, a5=1, a3=1) == -3
    assert b.coefficient(a2=2, a4=2) == 1


def test_invariant_C_pinned_coefficients():
    c = cv.invariant("C").poly
    assert c.coefficient(a0=1, a6=1, a3=4) == 162
    assert c.coefficient(a1=1, a5=1, a3=4) == 72
    assert c.coefficient(a0=1, a4=1, a5=1, a3=3) == -198
    assert c.coefficient(a1=1, a2=1, a6=1, a3=3) == -198
    assert c.coefficient(a1=1, a4=2, a3=3) == -24
    assert c.coefficient(a2=2, a5=1, a3=3) == -24


def test_combination_pins():
    x = cv.combination_AB_minus_3C().poly
    assert x.coefficient(a0=1, a6=1, a3=4) == 1458
    assert x.coefficient(a0=1, a4=1, a5=1, a3=3) == -486


def test_invariant_D_pinned_coefficients():
    d = cv.invariant("D").poly
    assert d.coefficient(a0=2, a6=2, a3=6) == 729
    assert d.coefficient(a0=2, a4=1, a5=1, a6=1, a3=5) == -486
    assert d.coefficient(a0=2, a5=3, a3=5) == 108
    assert d.coefficient(a0=1, a1=1, a2=1, a6=2, a3=5) == -486
    assert d.coefficient(a1=3, a6=2, a3=5) == 108
    assert d.coefficient(a0=5, a6=5) == -46656
    assert d.coefficient(a1=6, a6=4) == 3125
    assert d.coefficient(a0=4, a5=6) == 3125
    assert d.coefficient(a1=5, a5=5) == 256


def test_invariant_E_pinned_coefficients():
    e = cv.invariant("E").poly
    assert e.coefficient(a0=2, a5=3, a3=10) == -729
    assert e.coefficient(a1=3, a6=2, a3=10) == 729
    assert e.homogeneous_degree_on(SEXTIC_VARS[:7]) == 15


def test_discriminant_vanishes_on_repeated_root():
    # f = x1^2 * (x1 - x2) * (x1 + x2) * (x1 - 2 x2) * (x1 - 3 x2)
    # expanded coefficients of the product with a double root at [0:1]
    import itertools

    roots = [(1, 0), (1, 0), (1, -1), (1, 1), (1, -2), (1, -3)]
    coeffs = [0] * 7
    for picks in itertools.product(*[((0, p), (1, q)) for p, q in roots]):
        idx = sum(sel for sel, _ in picks)
        val = 1
        for _, factor in picks:
            val *= factor
        coeffs[idx] += val
    assert cv.invariant("D").evaluate_at_sextic(coeffs) == 0
    # a squarefree sextic has nonzero discriminant
    assert cv.invariant("D").evaluate_at_sextic([1, 0, 0, 0, 0, 0, 1]) != 0


def test_grace_young_catalog(sextic):
    c20 = cv.grace_young("C2,0")
    assert (c20.degree, c20.order) == (2, 0)
    hess = cv.grace_young("Hessian")
    assert (hess.degree, hess.order) == (2, 8)
    assert cv.grace_young("V10,2") == hess
    v84 = cv.grace_young("V8,4")
    assert (v84.degree, v84.order) == (2, 4)
    assert cv.grace_young("v8_4") == v84
    with pytest.raises(UnknownName):
        cv.grace_young("nosuch")


def test_is_covariant():
    names = ["A", "B", "C", "D", "E", "AB-3C", "f", "C2,0", "C2,4", "C3,2",
             "Hessian", "V8,4", "V6,6"]
    assert all(cv.is_covariant(cv.resolve(name).poly) for name in names)
    assert not cv.is_covariant(_var("a0") * _var("a6") - _var("a3") ** 2)


def test_resolve_names():
    assert cv.resolve("A") == cv.invariant("A")
    assert cv.resolve("AB-3C") == cv.combination_AB_minus_3C()
    assert cv.resolve("f") == cv.universal_sextic()


def test_act_sl2_symbolic_low_degree():
    # shear invariance, symbolically, for the cheap invariants
    for name in ("A", "B"):
        inv = cv.invariant(name)
        assert cv.act_sl2(((1, 1), (0, 1)), inv) == inv
        assert cv.act_sl2(((0, -1), (1, 0)), inv) == inv


def test_act_sl2_rejects_non_unimodular():
    with pytest.raises(NotUnimodular):
        cv.act_sl2(((2, 0), (0, 1)), cv.invariant("A"))


def test_act_sl2_equivariance_of_covariants(sextic):
    # a covariant of order j transforms without any extra factor under
    # unimodular substitution; the Hessian is a cheap nontrivial case
    hess = cv.grace_young("Hessian")
    moved = cv.act_sl2(((1, 2), (0, 1)), hess)
    direct = cv.transvectant(cv.act_sl2(((1, 2), (0, 1)), sextic), cv.act_sl2(((1, 2), (0, 1)), sextic), 2).primitive()
    assert moved.poly.primitive() == direct.poly.primitive()


def test_a11_order_bounds():
    assert cv.a11_order_bound(cv.universal_sextic()) == -1
    assert cv.a11_order_bound(cv.invariant("A")) == -2
    assert cv.a11_order_bound(cv.invariant("D")) == 2
    assert cv.a11_order_bound(cv.invariant("E")) == -3


def test_skew_chain_shape():
    e0 = cv.skew_chain_invariant()
    assert (e0.degree, e0.order) == (15, 0)


def test_skew_chain_is_over_z():
    # the chain applies no factorial norm; E takes its scale from its anchor
    coeffs = cv.skew_chain_invariant().poly.terms.values()
    assert all(type(c) is int for c in coeffs)


# -- randomized SL2 invariance of A..E (acceptance: >=200 cases) -------------

_SL2_POINTS = st.tuples(
    st.tuples(*[st.integers(min_value=-5, max_value=5) for _ in range(7)]),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
    st.booleans(),
)


def _random_matrix(t, u, include_swap):
    # word in the unipotent generators (and optionally the swap)
    m = [[1, t], [0, 1]]
    n = [[1, 0], [u, 1]]
    prod = [
        [sum(m[i][k] * n[k][j] for k in range(2)) for j in range(2)]
        for i in range(2)
    ]
    if include_swap:
        prod = [[prod[0][1], -prod[0][0]], [prod[1][1], -prod[1][0]]]
    return (prod[0][0], prod[0][1], prod[1][0], prod[1][1])


def _transform(coeffs, m):
    p, q, r, s = m
    out = [0] * 7
    import math

    for i, a in enumerate(coeffs):
        for u in range(6 - i + 1):
            for v in range(i + 1):
                out[u + v] += (
                    a
                    * math.comb(6 - i, u)
                    * p ** (6 - i - u)
                    * q**u
                    * math.comb(i, v)
                    * r ** (i - v)
                    * s**v
                )
    return out


@settings(max_examples=200, deadline=None)
@given(_SL2_POINTS)
def test_invariants_sl2_invariant_at_points(data):
    coeffs, t, u, swap = data
    m = _random_matrix(t, u, swap)
    assert m[0] * m[3] - m[1] * m[2] == 1
    moved = _transform(list(coeffs), m)
    for name in ("A", "B", "C", "D", "E"):
        inv = cv.invariant(name)
        assert inv.evaluate_at_sextic(list(coeffs)) == inv.evaluate_at_sextic(
            moved
        )


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*[st.integers(min_value=-4, max_value=4) for _ in range(7)]),
    st.tuples(*[st.integers(min_value=-4, max_value=4) for _ in range(7)]),
    st.integers(min_value=1, max_value=3),
)
def test_transvectant_grading(fa, fb, k):
    # degree and order bookkeeping of transvection, on random sextic pairs
    ca = cv.Covariant(
        sum(
            (
                MultiPoly(
                    SEXTIC_VARS,
                    {tuple(int(t == i) for t in range(7)) + (6 - i, i): c},
                )
                for i, c in enumerate(fa)
                if c
            ),
            MultiPoly.zero(SEXTIC_VARS),
        ),
        1,
        6,
    )
    cb = cv.Covariant(
        sum(
            (
                MultiPoly(
                    SEXTIC_VARS,
                    {tuple(int(t == i) for t in range(7)) + (6 - i, i): c},
                )
                for i, c in enumerate(fb)
                if c
            ),
            MultiPoly.zero(SEXTIC_VARS),
        ),
        1,
        6,
    )
    if ca.is_zero or cb.is_zero:
        return
    t = cv.transvectant(ca, cb, k)
    assert t.degree == 2
    assert t.order == 12 - 2 * k
