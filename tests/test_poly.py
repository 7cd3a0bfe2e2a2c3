import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sexticforms.errors import DomainMismatch, NotDivisible
from sexticforms.poly import CHAR2_VARS, SEXTIC_VARS, MultiPoly


def _mono(exps, c=1):
    return MultiPoly(SEXTIC_VARS, {tuple(exps): c})


small_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2) for _ in range(9)]),
    st.integers(min_value=-9, max_value=9),
    max_size=4,
).map(lambda terms: MultiPoly(SEXTIC_VARS, terms))


def test_constructors_prune_zeros():
    p = MultiPoly(SEXTIC_VARS, {(0,) * 9: 0, (1,) + (0,) * 8: 2})
    assert len(p.terms) == 1
    assert MultiPoly.zero(SEXTIC_VARS).is_zero


def test_derivative_and_substitute():
    a0 = MultiPoly.variable(SEXTIC_VARS, "a0")
    x1 = MultiPoly.variable(SEXTIC_VARS, "x1")
    p = a0 * x1**3
    assert p.derivative("x1") == a0.scale(3) * x1**2
    q = p.substitute({"x1": x1 + MultiPoly.variable(SEXTIC_VARS, "x2")})
    assert q.homogeneous_degree_on(["x1", "x2"]) == 3
    assert q.coefficient(a0=1, x1=1, x2=2) == 3


def test_substitute_unmapped_variables():
    t = MultiPoly.variable(("t",), "t")
    a0 = MultiPoly.variable(SEXTIC_VARS, "a0")
    a1 = MultiPoly.variable(SEXTIC_VARS, "a1")
    mapping = {"a0": t, "a1": t * t}
    # a2..a6, x1, x2 are not in the ring of t, and do not occur
    assert (a0 + a1.scale(2)).substitute(mapping) == t + (t * t).scale(2)
    with pytest.raises(DomainMismatch):
        (a0 + MultiPoly.variable(SEXTIC_VARS, "x1")).substitute(mapping)


def test_homogeneity_and_content():
    p = _mono((2, 0, 0, 0, 0, 0, 0, 0, 0), 6) + _mono(
        (0, 1, 1, 0, 0, 0, 0, 0, 0), -9
    )
    assert p.homogeneous_degree_on(SEXTIC_VARS[:7]) == 2
    assert p.content() == 3
    prim = p.primitive()
    assert prim.content() == 1


def test_exact_div_and_failure():
    a0 = MultiPoly.variable(SEXTIC_VARS, "a0")
    a1 = MultiPoly.variable(SEXTIC_VARS, "a1")
    p = (a0 + a1) * (a0 - a1)
    assert p.exact_div(a0 + a1) == a0 - a1
    with pytest.raises(NotDivisible):
        (p + MultiPoly.const(SEXTIC_VARS, 1)).exact_div(a0 + a1)


def test_pow_refuses_negative_powers():
    x = MultiPoly.variable(SEXTIC_VARS, "a0")
    assert x ** 0 == MultiPoly.const(SEXTIC_VARS, 1) and x ** 2 == x * x
    with pytest.raises(ValueError, match="non-negative"):
        x ** -1


def test_pow_makes_the_products_of_binary_powering(monkeypatch):
    # p^8: p^2, p^4, p^8; p^13: p^2, p^4, p^8, p^5, p^13
    p = MultiPoly.variable(SEXTIC_VARS, "a0") + MultiPoly.variable(SEXTIC_VARS, "a1")
    calls = []
    mul = MultiPoly.__mul__

    def spy(x, y):
        calls.append(1)
        return mul(x, y)

    monkeypatch.setattr(MultiPoly, "__mul__", spy)
    p8 = p ** 8
    assert len(calls) == 3
    calls.clear()
    p13 = p ** 13
    assert len(calls) == 5
    monkeypatch.undo()
    assert p8.coefficient(a0=4, a1=4) == 70 and p13 == p8 * p ** 5


def test_exact_div_mod2():
    a = MultiPoly.variable(CHAR2_VARS, "a0", 2) + MultiPoly.variable(
        CHAR2_VARS, "a1", 2
    )
    sq = a * a
    assert sq.exact_div(a) == a


def test_reduce_mod_and_evaluate():
    p = _mono((1, 0, 0, 0, 0, 0, 1, 0, 0), 120) + _mono(
        (0, 0, 0, 2, 0, 0, 0, 0, 0), -3
    )
    r = p.reduce_mod(3)
    assert r.coefficient(a0=1, a6=1) == 0
    env = {name: 1 for name in SEXTIC_VARS}
    assert p.evaluate(env) == 117


def test_to_text_canonical():
    p = (
        _mono((1, 0, 0, 0, 0, 0, 1, 0, 0), 120)
        + _mono((0, 1, 0, 0, 0, 1, 0, 0, 0), -20)
        + _mono((0, 0, 1, 0, 1, 0, 0, 0, 0), 8)
        + _mono((0, 0, 0, 2, 0, 0, 0, 0, 0), -3)
    )
    assert p.to_text() == "120*a0*a6 - 20*a1*a5 + 8*a2*a4 - 3*a3^2"


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys)
def test_exact_div_inverts_mul(a, b):
    if b.is_zero:
        return
    assert (a * b).exact_div(b) == a


def _schoolbook(a, b):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return MultiPoly(a.vars, out)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from((2, 2**8, 2**16, 2**32)).flatmap(lambda top: st.tuples(*[
        st.dictionaries(
            st.tuples(*[st.integers(0, top // 2 - 1) | st.just(top // 2)] * 9),
            st.integers(-9, 9),
            max_size=4,
        ).map(lambda terms: MultiPoly(SEXTIC_VARS, terms))
    ] * 2))
)
@example((_mono([128] * 9), _mono([128] * 8 + [127])))  # 256 needs a 2-byte field
@example((_mono([2**31] * 9), _mono([2**31] * 9)))  # 2^32 needs an 8-byte field
def test_mul_on_byte_aligned_fields(pair):
    # exponent sums at a field boundary: 1-, 2-, 4- and 8-byte fields
    a, b = pair
    assert a * b == _schoolbook(a, b)


def test_mul_refuses_exponents_past_64_bits():
    with pytest.raises(ValueError, match="64-bit field"):
        _mono([2**63] * 9) * _mono([2**63] * 9)


# monomials of total degree <= 3 (the constant included) and images of
# degree <= 2, so a substituted polynomial stays small
def _low_degree_polys(degree, size):
    monomial = st.lists(st.integers(0, 8), max_size=degree).map(
        lambda vs: tuple(vs.count(i) for i in range(9))
    )
    terms = st.dictionaries(monomial, st.integers(-9, 9), max_size=size)
    return terms.map(lambda t: MultiPoly(SEXTIC_VARS, t))


@settings(max_examples=200, deadline=None)
@given(
    _low_degree_polys(3, 5),
    st.lists(_low_degree_polys(2, 3), min_size=9, max_size=9),
    st.lists(st.integers(-5, 5), min_size=9, max_size=9),
)
@example(
    MultiPoly(SEXTIC_VARS, {(0,) * 9: 7, (1,) + (0,) * 8: 2, (0,) * 8 + (3,): -1}),
    [_mono((0,) * i + (1,) + (0,) * (8 - i)) for i in reversed(range(9))],
    list(range(-4, 5)),
)
def test_substitute_is_evaluation(p, images, point):
    mapping = dict(zip(SEXTIC_VARS, images))
    pt = dict(zip(SEXTIC_VARS, point))
    values = {v: mapping[v].evaluate(pt) for v in SEXTIC_VARS}
    assert p.substitute(mapping).evaluate(pt) == p.evaluate(values)


def _term_sum(terms, point, modulus):
    """The sum of c * prod(v^e) over {exponents: c}, reduced mod p last."""
    total = 0
    for exps, c in terms.items():
        term = c
        for name, e in zip(SEXTIC_VARS, exps):
            term *= point[name] ** e
        total += term
    return total if modulus is None else total % modulus


@st.composite
def _polys_and_points(draw):
    """Terms over Z, Q or F_p with two points to evaluate them at; the
    points are Fractions over Q."""
    modulus = draw(st.sampled_from([None, None, 2, 3, 13]))
    rational = modulus is None and draw(st.booleans())
    scalars = (
        st.fractions(-9, 9, max_denominator=9) if rational else st.integers(-9, 9)
    )
    exponents = st.tuples(*[st.integers(0, 4) for _ in range(9)])
    terms = draw(st.dictionaries(exponents, scalars, max_size=6))
    points = draw(st.lists(st.tuples(*[scalars] * 9), min_size=2, max_size=2))
    return terms, modulus, [dict(zip(SEXTIC_VARS, pt)) for pt in points]


@settings(max_examples=200, deadline=None)
@given(_polys_and_points())
@example(({}, None, [dict.fromkeys(SEXTIC_VARS, 1)] * 2))
@example(({}, 5, [dict.fromkeys(SEXTIC_VARS, 1)] * 2))
def test_evaluate_is_the_term_sum(case):
    # two calls: the second one reads the factor lists the first one kept
    terms, modulus, points = case
    p = MultiPoly(SEXTIC_VARS, terms, modulus)
    for point in points:
        assert p.evaluate(point) == _term_sum(terms, point, modulus)


def test_evaluate_raises_only_to_the_exponents_that_occur():
    # a table of every power up to the top exponent would take 10^12 steps
    e = 10**12
    p = _mono((e,) + (0,) * 8, 3) + _mono((e - 1, 1) + (0,) * 7, 2)
    point = dict.fromkeys(SEXTIC_VARS, 1)
    point["a0"] = -1
    assert p.evaluate(point) == 3 - 2
    assert p.reduce_mod(5).evaluate(point) == 1
