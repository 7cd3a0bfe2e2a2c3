import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sexticforms import arith, covariants, linalg, numap, qexp, ringlab, theta
from sexticforms.arith import LaurentPoly, Substitution
from sexticforms.errors import (
    NormalizationFailure,
    NotDivisible,
    OrderTooSmall,
    SupportViolation,
    WeightMismatch,
)
from sexticforms.qexp import FourierExpansion

N = 3


def _scalar(cells, k=0, kN=N, start=0):
    return FourierExpansion(
        (0, k),
        False,
        kN,
        {key: (LaurentPoly(val),) for key, val in cells.items()},
        start,
    )


def _one(kN):
    """The unit expansion 1 on [0, kN]."""
    return _scalar({(0, 0): {0: 1}}, kN=kN)


# -- basic structure -----------------------------------------------------------


def test_support_validation():
    with pytest.raises(SupportViolation):
        _scalar({(1, 1): {5: 1}})


def test_add_requires_same_weight():
    a = _scalar({(1, 1): {0: 1}})
    b = _scalar({(1, 1): {0: 1}}, k=2)
    with pytest.raises(WeightMismatch):
        a.add(b)


def test_mul_weights_and_window(chi10_n3):
    sq = chi10_n3.mul(chi10_n3)
    assert (sq.j, sq.k) == (0, 20)
    assert sq.start == 2
    assert sq.kN == chi10_n3.kN + 1  # start offset extends the window
    assert sq.vec_at((2, 2))[0] == LaurentPoly({1: 1, 0: -2, -1: 1}) ** 2


def test_pinned_fixes_one_coordinate(chi10_n3, chi68_n2):
    pin = LaurentPoly({1: 1, 0: -2, -1: 1})
    assert chi10_n3.scale(-21).pinned((1, 1), 0, pin) == chi10_n3
    assert chi68_n2.scale(5).pinned((1, 1), 2, pin) == chi68_n2
    with pytest.raises(NormalizationFailure):  # the coordinate is zero
        chi68_n2.pinned((1, 1), 0, pin)
    with pytest.raises(NormalizationFailure):  # not a multiple of the pin
        chi10_n3.pinned((1, 1), 0, LaurentPoly({1: 1, -1: 1}))


def test_pinned_refuses_non_integer_results(chi68_n2):
    # coordinate 3 at (1,1) is 2*(r - r^-1): pinning it to r - r^-1 halves
    # the form, and coordinate 2 there, r^-1 - 2 + r, is odd
    with pytest.raises(NormalizationFailure, match="non-integer"):
        chi68_n2.pinned((1, 1), 3, LaurentPoly({1: 1, -1: -1}))
    doubled = chi68_n2.pinned((1, 1), 3, LaurentPoly({1: 4, -1: -4}))
    assert doubled == chi68_n2.scale(2)


def test_scale_takes_ints(chi10_n3):
    with pytest.raises(TypeError):
        chi10_n3.scale(Fraction(1, 2))


def test_agrees_with_compares_the_common_window(chi10_n3):
    assert not chi10_n3.agrees_with(chi10_n3.mul(chi10_n3))  # other weight
    halves = FourierExpansion(
        chi10_n3.weight, False, chi10_n3.kN, chi10_n3.cells, chi10_n3.start, 2
    )
    assert not chi10_n3.agrees_with(halves)  # other index lattice
    bumped = chi10_n3.add(_scalar({(2, 3): {0: 1}}, k=10))
    assert not chi10_n3.agrees_with(bumped) and not bumped.agrees_with(chi10_n3)
    empty = FourierExpansion(chi10_n3.weight, False, 3, {}, 1)
    assert not empty.agrees_with(chi10_n3) and not chi10_n3.agrees_with(empty)
    # a cell past the common window does not count
    short = FourierExpansion(
        chi10_n3.weight, False, 2,
        {key: vec for key, vec in chi10_n3.cells.items() if max(key) <= 2}, 1,
    )
    assert short.agrees_with(chi10_n3) and short.agrees_with(bumped)


def test_exact_div_recovers_factor(chi10_n3):
    sq = chi10_n3.mul(chi10_n3)
    q = sq.exact_div_chi10()
    assert q.agrees_with(chi10_n3)
    # a mirrored cell shares its coordinates with the cell it mirrors
    assert q.cells[1, 2][0] is q.cells[2, 1][0]
    one = sq.exact_div_chi10(2)
    assert (one.weight, one.start, one.kN) == ((0, 0), 0, 2)
    assert one.agrees_with(_one(2))


def test_pow_equals_repeated_products(chi10_n3):
    # squaring gives the window of the successive products: start n, kN 3 + n - 1
    acc = chi10_n3
    for n in range(1, 7):
        assert chi10_n3.pow(n) == acc
        assert (acc.start, acc.kN) == (n, 2 + n)
        acc = acc.mul(chi10_n3)
    with pytest.raises(ValueError):
        chi10_n3.pow(0)


def test_pow_of_a_character_form():
    # an odd power keeps the character and the half-integral lattice; an
    # even one is re-indexed to the integral lattice, as a product is
    x5 = theta.chi_5(3)
    (cube,) = qexp.evaluate([x5], [{(3,): 1}])
    got = x5.pow(3)
    assert got == cube
    assert (got.weight, got.character, got.denom) == ((0, 15), True, 2)
    assert x5.pow(2) == x5.mul(x5) and x5.pow(2).denom == 1


def test_pow_makes_the_products_of_binary_powering(monkeypatch):
    # x^13: x^2, x^4, x^8, x^5, x^13; x^6: x^2, x^4, x^6 (image pass, w > 0)
    products = []
    mul = arith.Packed.__mul__

    def spy(x, y):
        if x.w > 0:
            products.append((x.start, y.start))
        return mul(x, y)

    chi10 = theta.chi_10(4)
    monkeypatch.setattr(arith.Packed, "__mul__", spy)
    chi10.pow(13)
    assert products == [(1, 1), (2, 2), (4, 4), (4, 1), (8, 5)]
    products.clear()
    chi10.pow(6)
    assert products == [(1, 1), (2, 2), (4, 2)]


def test_cut_keeps_the_start_and_refuses_past_the_truncation(chi10_n3):
    x = chi10_n3.cut(2)
    assert (x.start, x.kN) == (1, 2) and x.agrees_with(chi10_n3)
    assert all(max(key) <= 2 for key in x.cells) and x.cells
    assert chi10_n3.cut(3) == chi10_n3
    empty = chi10_n3.cut(0)
    assert (empty.start, empty.kN, empty.cells) == (1, 0, {})
    with pytest.raises(OrderTooSmall):
        chi10_n3.cut(4)
    x5 = theta.chi_5(3)  # logical units: chi5 stores doubled indices
    assert x5.cut(2).truncation == 2 and x5.cut(2).kN == 4
    with pytest.raises(OrderTooSmall):
        x5.cut(4)


def test_exact_div_chi10_right_sizes_divisor(monkeypatch, chi10_n3):
    # chi10^2 on [2, 4] needs the inverse V only on [0, 2] = [0, kN - start]
    # for its quotient window, and V needs chi10 only on [1, 3]
    asked, inverse = [], qexp._chi10_inverse
    monkeypatch.setattr(qexp, "_chi10_inverse", lambda T: asked.append(T) or inverse(T))
    q = chi10_n3.mul(chi10_n3).exact_div_chi10()
    assert asked == [2]
    assert (q.start, q.kN) == (1, 3)
    assert q.agrees_with(chi10_n3)
    built, chi_10 = [], theta.chi_10
    monkeypatch.setattr(theta, "chi_10", lambda n: built.append(n) or chi_10(n))
    v = inverse.__wrapped__(2)
    assert built == [3]
    assert (v.weight, v.start, v.kN) == ((0, -10), 0, 2)


def test_exact_div_detects_non_holomorphy(chi10_n3):
    one = _one(chi10_n3.kN)
    with pytest.raises(NotDivisible):  # start 0 < 1
        one.exact_div_chi10()
    q1q2 = _scalar({(1, 1): {0: 1}}, start=1)
    with pytest.raises(NotDivisible):  # 1 / (r - 2 + r^-1) at (0, 0)
        q1q2.exact_div_chi10()


def test_exact_div_chi10_guards(chi10_n3):
    with pytest.raises(WeightMismatch):
        theta.chi_5(3).exact_div_chi10()
    with pytest.raises(NotDivisible, match="vanishing offset"):
        chi10_n3.exact_div_chi10(2)
    with pytest.raises(OrderTooSmall):  # the window [1, 0] is empty
        chi10_n3.cut(0).exact_div_chi10()


def _u(T):
    """chi10 on [1, T + 1] divided by q1 q2 (r - 2 + r^-1): U on [0, T]."""
    pin = LaurentPoly({1: 1, 0: -2, -1: 1})
    cells = {
        (n1 - 1, n2 - 1): (x.exact_div(pin),)
        for (n1, n2), (x,) in theta.chi_10(T + 1).cells.items()
    }
    return FourierExpansion((0, 10), False, T, cells, validate=False)


@pytest.mark.parametrize("T", range(1, 9))
def test_chi10_inverse_inverts_u(T):
    v = qexp._chi10_inverse(T)
    product = _u(T).mul(v)
    assert (product.weight, product.start, product.kN) == ((0, 0), 0, T)
    assert product == _one(T)
    # Newton's steps are exact on [0, T]: a deeper inverse, cut, is the same
    assert qexp._chi10_inverse(T + 2).cut(T) == v


@pytest.mark.parametrize("T", [1, 2, 4, 5, 8])
def test_chi10_inverse_doubles_its_precision(monkeypatch, T):
    # step s is cut at min(T, 2^s - 1), the box of the cells it makes exact
    theta.chi_10(T + 1)  # built first: its product is no Newton step
    tops, evaluate = [], qexp.evaluate

    def spy(forms, polys, top=None):
        tops.append(top)
        return evaluate(forms, polys, top)

    monkeypatch.setattr(qexp, "evaluate", spy)
    v = qexp._chi10_inverse.__wrapped__(T)
    monkeypatch.undo()
    steps = (2 * T).bit_length()
    assert tops == [min(T, 2**s - 1) for s in range(1, steps + 1)]
    assert (v.start, v.kN) == (0, T)
    assert _u(T).mul(v) == _one(T)


def test_denominator_two_product_halves(chi10_n3):
    x5 = theta.chi_5(3)
    prod = x5.mul(x5)
    assert prod.denom == 1 and not prod.character
    assert qexp.proportionality(prod, theta.chi_10(3)) == 4096


def test_json_round_trip(chi10_n3):
    data = chi10_n3.to_json()
    back = FourierExpansion.from_json(data)
    assert back == chi10_n3


@pytest.mark.parametrize(
    "fields",
    [
        {"truncation": "5/2"},  # off the integral lattice, not floored to 2
        # r^9 at (1, 1) loaded before: the support check was skipped
        {"denominator": 3, "coeffs": [{"n": [1, 1], "vec": [{"9": "1"}]}]},
        {"denominator": 0},
    ],
)
def test_from_json_refuses_bad_lattice_fields(chi10_n3, fields):
    with pytest.raises(ValueError):
        FourierExpansion.from_json({**chi10_n3.to_json(), **fields})


def test_from_json_refuses_negative_indices(chi10_n3):
    # the cell (-1, -1) passes e^2 <= 4 * n1 * n2 and the window [-1, 3]
    data = chi10_n3.to_json()
    data["start"] = -1
    data["coeffs"].append({"n": [-1, -1], "vec": [{"0": "5"}]})
    with pytest.raises(SupportViolation):
        FourierExpansion.from_json(data)


@pytest.mark.parametrize(
    "field, value",
    [("character", "no"), ("start", 0.5), ("n", [1.0, 1.0]), ("weight", [0.0, 10.0])],
    ids=["character", "start", "index", "weight"],
)
def test_from_json_refuses_mistyped_fields(chi10_n3, field, value):
    # a JSON string is no bool, and a float is no index or weight
    data = chi10_n3.to_json()
    if field == "n":
        data["coeffs"][0]["n"] = value
    else:
        data[field] = value
    with pytest.raises(ValueError):
        FourierExpansion.from_json(data)


def test_support_is_checked_on_the_half_integral_lattice():
    data = theta.chi_5(3).to_json()
    assert FourierExpansion.from_json(data).denom == 2
    data["coeffs"].append({"n": [1, 1], "vec": [{"9": "1"}]})
    with pytest.raises(SupportViolation):
        FourierExpansion.from_json(data)


def test_a11_order(chi10_n3):
    per, overall = chi10_n3.a11_order()
    assert overall == 2 and per == [2]


def test_restrict_and_phi(chi10_n3):
    sliced = chi10_n3.restrict_to_a11()
    assert sliced[0] == {}  # chi_10 vanishes to order 2 along the locus
    assert chi10_n3.siegel_phi().is_zero


def test_every_series_product_reaches_the_kernel(monkeypatch):
    # arith.accumulate, the multiply-add of the packed-integer kernel, is
    # the one swap point of every series product
    kernel = arith.accumulate
    calls = []

    def counting(*args):
        calls.append(1)
        return kernel(*args)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("sexticforms") and (
            vars(module).get("accumulate") is kernel
        ):
            monkeypatch.setattr(module, "accumulate", counting)

    def reaches(op):
        before = len(calls)
        op()
        return len(calls) > before

    lp = LaurentPoly({0: 1, 1: 2})
    f = _scalar({(1, 1): {0: 1}, (1, 2): {0: 1}}, start=1)
    chi10 = theta.chi_10(2)
    sq10 = chi10.mul(chi10)
    e4 = qexp.elliptic_form("E4", 2)
    assert reaches(lambda: lp * lp)
    assert reaches(lambda: f.mul(f))
    assert reaches(lambda: sq10.exact_div_chi10())
    assert reaches(lambda: e4.mul(e4))
    assert reaches(lambda: theta.chi_5.__wrapped__(1))


# -- the packed-integer kernel against a schoolbook convolution -----------------


def _schoolbook(a, b, bound, width):
    out = {}
    for (a1, a2), avec in a.items():
        for (b1, b2), bvec in b.items():
            key = (a1 + b1, a2 + b2)
            if max(key) > bound:
                continue
            acc = out.setdefault(key, [{} for _ in range(width)])
            for i, x in enumerate(avec):
                for l, y in enumerate(bvec):
                    for ea, va in x.c.items():
                        for eb, vb in y.c.items():
                            d = acc[i + l]
                            d[ea + eb] = d.get(ea + eb, 0) + va * vb
    return {key: tuple(map(LaurentPoly, acc)) for key, acc in out.items()}


def _nonzero_cells(cells):
    return {k: v for k, v in cells.items() if any(not x.is_zero for x in v)}


def _canonical(lp):
    # the kernel stores ints, and no zero
    return all(type(v) is int and v for v in lp.c.values())


_big = st.integers(min_value=-(2**200), max_value=2**200)
_spread = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-500, max_value=500),
)
_wide_laurent = st.dictionaries(_spread, _big, max_size=5).map(LaurentPoly)
_M = 2**200 - 1  # three products of M * M overflow a slot one bit narrower


@settings(max_examples=200, deadline=None)
@given(_wide_laurent, _wide_laurent)
@example(LaurentPoly({0: _M, 1: _M, 2: _M}), LaurentPoly({0: _M, 1: _M, 2: _M}))
@example(LaurentPoly({-400: -_M, 0: _M, 3: _M}), LaurentPoly({0: _M, 400: -_M, 2: _M}))
def test_laurent_mul_matches_schoolbook(a, b):
    prod = a * b
    assert prod == _schoolbook({(0, 0): (a,)}, {(0, 0): (b,)}, 0, 1).get(
        (0, 0), (LaurentPoly(),)
    )[0]
    assert _canonical(prod)


@st.composite
def _cell_maps(draw):
    width = draw(st.integers(min_value=1, max_value=3))
    keys = st.tuples(*[st.integers(min_value=0, max_value=3)] * 2)
    return draw(st.dictionaries(
        keys, st.tuples(*[_wide_laurent] * width), max_size=4
    ))


def _cells_of(vectors):
    return {key: tuple(LaurentPoly(c) for c in vec) for key, vec in vectors.items()}


def _product(a, b, windows):
    """(cells, start, kN) of the product of two cell maps on their
    ``windows``, by the one entry of the kernel."""
    (got,) = arith.evaluate([a, b], windows, [{(1, 1): 1}])
    return got


_starts = st.tuples(*[st.integers(min_value=0, max_value=1)] * 2)


def _check_product(a, b, bound, starts, width):
    # windows whose product window, by the rule of mul, is [sa + sb, bound];
    # each map keeps its cells on its window, as an expansion stores them
    sa, sb = starts
    windows = [(sa, bound - sb), (sb, bound - sa)]
    a, b = (
        {key: vec for key, vec in x.items() if lo <= min(key) and max(key) <= hi}
        for x, (lo, hi) in zip((a, b), windows)
    )
    if bound < sa + sb:
        with pytest.raises(OrderTooSmall):
            _product(a, b, windows)
        return
    got, start, kN = _product(a, b, windows)
    assert (start, kN) == (sa + sb, bound)
    assert all(max(key) <= bound and len(v) == width for key, v in got.items())
    assert all(_canonical(x) for v in got.values() for x in v)
    assert _nonzero_cells(got) == _nonzero_cells(_schoolbook(a, b, bound, width))


@settings(max_examples=200, deadline=None)
@given(_cell_maps(), _cell_maps(), st.integers(min_value=0, max_value=6), _starts)
@example(
    _cells_of({(0, 0): ({0: _M},), (1, 0): ({0: _M},), (2, 0): ({0: _M},)}),
    _cells_of({(2, 0): ({0: _M},), (1, 0): ({0: _M},), (0, 0): ({0: _M},)}),
    2,
    (0, 0),
)
@example(
    _cells_of({(0, 0): ({0: -_M, 7: _M}, {}, {-9: _M})}),
    _cells_of({(1, 1): ({}, {9: _M}), (3, 0): ({0: _M // 3}, {})}),
    2,
    (0, 0),
)
def test_kronecker_matches_schoolbook(a, b, bound, starts):
    wa = len(next(iter(a.values()), (None,)))
    wb = len(next(iter(b.values()), (None,)))
    _check_product(a, b, bound, starts, wa + wb - 1)


# -- swap signs: the symmetric half of the kernel -------------------------------


def _swap_map(half, sign):
    """The scalar cell map with the cells ``half`` (n1 <= n2) and their
    mirrors times ``sign``; a diagonal cell is kept only under sign 1."""
    cells = {}
    for (n1, n2), lp in half.items():
        if n1 == n2 and sign == -1:
            continue
        cells[n1, n2] = (lp,)
        cells[n2, n1] = (lp.scale(sign),)
    return cells


_upper_keys = st.tuples(*[st.integers(min_value=0, max_value=3)] * 2).map(
    lambda k: (min(k), max(k))
)


@st.composite
def _swap_maps(draw, sign):
    return _swap_map(draw(st.dictionaries(_upper_keys, _wide_laurent, max_size=5)), sign)


_signs = st.sampled_from((1, -1))


@settings(max_examples=200, deadline=None)
@given(
    _signs.flatmap(_swap_maps),
    _signs.flatmap(_swap_maps),
    st.integers(min_value=0, max_value=6),
    _starts,
)
@example(
    _swap_map({(0, 1): LaurentPoly({0: _M, 2: -_M}), (1, 1): LaurentPoly({1: _M})}, 1),
    _swap_map({(0, 2): LaurentPoly({-3: _M // 7}), (2, 3): LaurentPoly({0: 1})}, -1),
    4,
    (0, 0),
)
def test_kronecker_on_swap_symmetric_maps(a, b, bound, starts):
    assert arith.swap_sign(a) is not None and arith.swap_sign(b) is not None
    _check_product(a, b, bound, starts, 1)


def test_swap_sign_detection():
    x, y = LaurentPoly({0: 1, 1: -2}), LaurentPoly({-1: 3})
    sym = {(0, 1): (x,), (1, 0): (x,), (2, 2): (y,)}
    anti = {(0, 1): (x,), (1, 0): (-x,), (1, 2): (y,), (2, 1): (-y,)}
    assert arith.swap_sign(sym) == 1
    assert arith.swap_sign(anti) == -1
    assert arith.swap_sign({}) == 1
    assert arith.swap_sign({(1, 2): (LaurentPoly(),)}) == 1  # zero cells are absent
    # mixed signs
    assert arith.swap_sign({**sym, (1, 2): (y,), (2, 1): (-y,)}) is None
    # a missing mirror, seen from either side
    assert arith.swap_sign({(0, 1): (x,)}) is None
    assert arith.swap_sign({(1, 0): (x,)}) is None
    # mirrors that are not +-1 times each other
    assert arith.swap_sign({(0, 1): (x,), (1, 0): (x.scale(2),)}) is None
    assert arith.swap_sign({(0, 1): (x,), (1, 0): (-x + y,)}) is None
    # a nonzero diagonal cell under sign -1
    assert arith.swap_sign({**anti, (2, 2): (y,)}) is None
    # vector-valued: the mirror reverses the coordinates, so a map whose
    # cells repeat unreversed has none, even when each coordinate is
    # symmetric
    assert arith.swap_sign({(0, 1): (x, y), (1, 0): (x, y)}) is None
    assert arith.swap_sign({(0, 1): (x, y), (1, 0): (y, x)}) == 1
    # a product of maps of opposite signs, in either order
    windows = [(0, 3)] * 2
    assert (
        _product(anti, sym, windows)[0]
        == _product(sym, anti, windows)[0]
        == _nonzero_cells(_schoolbook(anti, sym, 3, 1))
    )


def _sym_map(half, sign):
    """The cell map with the cells ``half`` (n1 <= n2, vectors of one
    width) and cell (n2, n1) = sign * reversed(cell (n1, n2)); a diagonal
    cell v is made v + sign * reversed(v), which its swap keeps."""
    cells = {}
    for (n1, n2), vec in half.items():
        mirror = tuple(x.scale(sign) for x in reversed(vec))
        if n1 == n2:
            cells[n1, n1] = tuple(x + y for x, y in zip(vec, mirror))
        else:
            cells[n1, n2], cells[n2, n1] = vec, mirror
    return cells


@st.composite
def _sym_maps(draw, width, laurent=_wide_laurent):
    sign = draw(_signs)
    half = draw(st.dictionaries(
        _upper_keys, st.tuples(*[laurent] * width), max_size=4
    ))
    return _sym_map(half, sign)


_widths = st.integers(min_value=1, max_value=3)


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(_widths, _widths).flatmap(
        lambda w: st.tuples(_sym_maps(w[0]), _sym_maps(w[1]), st.just(sum(w) - 1))
    ),
    st.integers(min_value=0, max_value=6),
    _starts,
)
def test_kronecker_on_swap_symmetric_sym_maps(drawn, bound, starts):
    # the half product of Sym^j maps mirrors each cell with its
    # coordinates reversed
    a, b, width = drawn
    assert arith.swap_sign(a) is not None and arith.swap_sign(b) is not None
    _check_product(a, b, bound, starts, width)


_nonzero_laurent = st.dictionaries(
    st.integers(-2, 2), st.integers(1, 9), min_size=1, max_size=2
).map(LaurentPoly)


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(_widths, _widths).flatmap(
        lambda w: st.tuples(
            _sym_maps(w[0], _nonzero_laurent),
            _sym_maps(w[1], _nonzero_laurent),
            st.just(w),
        )
    ),
    st.integers(min_value=0, max_value=4),
)
def test_chained_half_products_of_sym_maps(drawn, bound):
    # a * a * b: the cells a half product mirrors feed the next product
    a, b, (wa, wb) = drawn
    a, b = ({k: v for k, v in x.items() if max(k) <= bound} for x in (a, b))
    ((got, _, _),) = arith.evaluate([a, b], [(0, bound)] * 2, [{(2, 1): 1}])
    square = _schoolbook(a, a, bound, 2 * wa - 1)
    want = _schoolbook(square, b, bound, 2 * wa + wb - 2)
    assert _nonzero_cells(got) == _nonzero_cells(want)


def test_swap_sign_of_sym_maps():
    # U = [[0, 1], [1, 0]] acts on weight (j, k) by det(U)^k Sym^j(U): every
    # registry form but chi35 (too slow to build here) has swap sign 1
    for name in ringlab.registry_names():
        if name != "chi35":
            assert arith.swap_sign(ringlab.named_form(name, 4).expansion.cells) == 1
    x, y, zero = LaurentPoly({0: 1, 1: -2}), LaurentPoly({-1: 3}), LaurentPoly()
    # an asymmetric vector map
    assert arith.swap_sign({(0, 1): (x, y, x), (1, 0): (x, y, y)}) is None
    assert arith.swap_sign({(1, 1): (x, zero, y)}) is None
    # under sign -1 a diagonal vector v = -reversed(v) is allowed, and its
    # middle coordinate is zero
    anti = {(0, 1): (x, y, zero), (1, 0): (zero, -y, -x)}
    assert arith.swap_sign(anti) == -1
    assert arith.swap_sign({**anti, (1, 1): (x, zero, -x)}) == -1
    assert arith.swap_sign({**anti, (1, 1): (x, y, -x)}) is None
    assert arith.swap_sign({(1, 1): (x, zero, -x)}) == -1


def test_span_matrix_folds_sym_forms():
    # forms of one Sym^j weight and one swap sign: the columns of the cells
    # n1 > n2 are dropped, and the rank is the full rank
    forms = [
        ringlab.named_form("chi6_8", 3).expansion,
        ringlab.named_form("chi6_8", 3).expansion.scale(2),
        theta.chi_6_8(3),
    ]
    rows = qexp.span_matrix(forms)
    columns = {
        (key, i, e) for g in forms for key, vec in g.cells.items() if key[0] <= key[1]
        for i, lp in enumerate(vec) for e in lp.c
    }
    assert all(len(row) == len(columns) for row in rows)
    assert qexp.rank_of_span(forms) == _full_rank(forms) == 1


def _full_rank(forms):
    # every (cell, coordinate, r-exponent) column on the common window
    top = min(g.kN for g in forms)
    columns = sorted({
        (key, i, e)
        for g in forms for key, vec in g.cells.items() if max(key) <= top
        for i, lp in enumerate(vec) for e in lp.c
    })
    return linalg.rank(
        [[g.vec_at(key)[i].c.get(e, 0) for key, i, e in columns] for g in forms]
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(_signs, st.dictionaries(
        _upper_keys,
        st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=2).map(LaurentPoly),
        max_size=4,
    )), min_size=1, max_size=5),
    st.booleans(),
)
def test_rank_with_dropped_columns_is_the_full_rank(drawn, same_sign):
    # with one swap sign the mirrored columns are dropped; mixed signs keep all
    forms = [
        FourierExpansion(
            (0, 4), False, 3, _swap_map(half, drawn[0][0] if same_sign else sign),
            validate=False,
        )
        for sign, half in drawn
    ]
    assert qexp.rank_of_span(forms) == _full_rank(forms)
    signs = {arith.swap_sign(g.cells) for g in forms}
    folded = len(signs) == 1
    columns = {
        (key, e) for g in forms for key, (lp,) in g.cells.items() for e in lp.c
        if not folded or key[0] <= key[1]
    }
    assert all(len(row) == len(columns) for row in qexp.span_matrix(forms))


# -- packed evaluation against products of expansions -------------------------


_packed_laurent = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.one_of(st.integers(-9, 9), st.integers(-(2**60), 2**60)),
    max_size=3,
).map(LaurentPoly)


@st.composite
def _window_forms(draw):
    """A scalar weight-0 expansion on a window [start, kN], start 0 or 1,
    its cells drawn freely or under a swap sign."""
    start = draw(st.integers(min_value=0, max_value=1))
    kN = start + draw(st.integers(min_value=0, max_value=2))
    window = range(start, kN + 1)
    sign = draw(st.sampled_from((None, 1, -1)))
    drawn = {
        (n1, n2): draw(_packed_laurent)
        for n1 in window for n2 in window if sign is None or n1 <= n2
    }
    if sign is None:
        cells = {key: (lp,) for key, lp in drawn.items()}
    else:
        cells = _swap_map(drawn, sign)
    return FourierExpansion((0, 0), False, kN, cells, start, validate=False)


@st.composite
def _forms_and_polys(draw):
    forms = draw(st.lists(_window_forms(), min_size=2, max_size=3))
    exps = st.tuples(*[st.integers(min_value=0, max_value=3)] * len(forms))
    coeffs = st.integers(min_value=-5, max_value=5).filter(bool)
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=5)
    return forms, draw(st.lists(polys, min_size=1, max_size=3))


def _width(forms, polys, top=None):
    """The slot width ``qexp.evaluate`` packs ``forms`` at for ``polys``."""
    maps, windows = [f.cells for f in forms], [(f.start, f.kN) for f in forms]
    return arith.majorant_width(maps, windows, polys, top)


_f = _scalar({(0, 0): {0: 3}, (1, 1): {-1: 2, 1: -(2**40)}, (1, 2): {0: 1}})
_A = 2**30 + 1  # 2 * _A**2 needs one bit more than _A**2


def _cut(e, top):
    """The expansion e restricted to the cells with max index <= top, on
    the window [start, min(kN, top)]; e itself when top is None."""
    if top is None:
        return e
    kN = min(e.kN, top)
    cells = {key: vec for key, vec in e.cells.items() if max(key) <= kN}
    return FourierExpansion(e.weight, False, kN, cells, e.start, validate=False)


_g = _scalar({(1, 1): {0: 5}, (1, 2): {1: -3}}, start=1)


@settings(max_examples=200, deadline=None)
@given(_forms_and_polys(), st.one_of(st.none(), st.integers(0, 6)))
@example((  # cancellation to zero, and a constant alone (degree 0)
    [_f, _f.scale(-1)],
    [{(1, 0): 1, (0, 1): 1}, {(2, 1): 2, (1, 2): 2}, {(0, 0): 7}],
), None)
@example(([_f, _f], [{(0, 0): -4, (1, 1): 1, (3, 0): 2}]), None)  # a constant term
@example((  # f * g * f, f of swap sign -1: cell (1, 1) of f^2 is -2 * _A**2
    [_scalar({(0, 1): {0: _A}, (1, 0): {0: -_A}}), _scalar({(0, 0): {0: 1}})] * 2,
    [{(1, 1, 1, 0): 1}],
), None)
@example((  # tops below a result's start: g^3 (start 3) is zero on [0, 2]
    [_g, _f], [{(3, 0): 1}, {(3, 1): 2, (0, 2): -1}, {(2, 0): 1}],
), 2)
@example(([_g, _f], [{(3, 0): 1, (0, 1): 1}, {(1, 0): 1}]), 0)
@example((  # the later map has the higher start, uncut and cut
    [_f, _g], [{(1, 2): 1, (2, 1): -3}, {(0, 3): 2, (2, 0): 1}],
), None)
@example(([_f, _g], [{(1, 2): 1, (2, 1): -3}, {(0, 3): 2, (2, 0): 1}]), 2)
@example((  # f^3 + f^3 * g^2 is f^3 * (1 + g^2) with g first: the unit on
    # the common window [0, 1] must not cut f^3 on [0, 2]
    [_scalar({(0, 0): {0: 3}}, kN=2), _scalar({(1, 1): {0: 5}}, kN=1, start=1)],
    [{(3, 0): 1, (3, 2): 1}],
), None)
def test_packed_evaluation_equals_products_of_expansions(drawn, top):
    # cut at top, each result is the uncut one on the cells <= top
    forms, polys = drawn
    sub = Substitution(forms, _one(min(f.kN for f in forms)))
    got = list(qexp.evaluate(forms, polys, top))
    assert got == [_cut(sub(p), top) for p in polys]
    if top is not None:
        assert all(e.kN <= top for e in got)
        assert _width(forms, polys, top) <= _width(forms, polys)


@settings(max_examples=100, deadline=None)
@given(_forms_and_polys(), st.one_of(st.none(), st.integers(0, 6)), st.randoms())
def test_evaluation_is_independent_of_the_order_of_the_maps(drawn, top, rnd):
    # the maps permuted, each exponent tuple permuted to match: the same
    # cells, windows and slot width
    forms, polys = drawn
    order = list(range(len(forms)))
    rnd.shuffle(order)
    moved = [forms[i] for i in order]
    moved_polys = [{tuple(e[i] for i in order): c for e, c in p.items()} for p in polys]
    assert list(qexp.evaluate(moved, moved_polys, top)) == list(
        qexp.evaluate(forms, polys, top)
    )
    assert _width(moved, moved_polys, top) == _width(forms, polys, top)


def test_evaluation_multiplies_the_highest_start_first(monkeypatch):
    # f * (g + g^2 + g^3) cut at 3, f of start 0 and g of start 1: in the
    # majorant pass (one int per map, starts doubled) and in the image pass
    # alike, the powers of g are formed first and f multiplies once, last;
    # in the order given, f would multiply each power of g as it is formed
    products = []

    def spy(cls):
        mul = cls.__mul__

        def product(x, y):
            products.append((cls.__name__, x.start, y.start))
            return mul(x, y)

        monkeypatch.setattr(cls, "__mul__", product)

    spy(arith.Majorant)
    spy(arith.Packed)
    (got,) = qexp.evaluate([_f, _g], [{(1, 1): 1, (1, 2): 1, (1, 3): 1}], 3)
    assert products == [
        ("Majorant", 2, 2), ("Majorant", 4, 2), ("Majorant", 0, 2),
        ("Packed", 1, 1), ("Packed", 2, 1), ("Packed", 0, 1),
    ]
    monkeypatch.undo()
    sub = Substitution([_f, _g], _one(N))
    assert got == _cut(sub({(1, 1): 1, (1, 2): 1, (1, 3): 1}), 3)


def test_cut_is_zero_past_start_but_an_uncut_empty_window_raises():
    (z,) = qexp.evaluate([_g], [{(3,): 1}], 2)  # g^3 starts at 3
    assert not z.cells and (z.start, z.kN) == (3, 2)
    # z * g has the empty window [4, 3]: uncut, or cut at or past its
    # start, that is too small; cut below its start it is zero
    for top in (None, 4, 6):
        with pytest.raises(OrderTooSmall):
            list(qexp.evaluate([z, _g], [{(1, 1): 1}], top))
    (x,) = qexp.evaluate([z, _g], [{(1, 1): 1}], 3)
    assert not x.cells and (x.start, x.kN) == (4, 3)
    with pytest.raises(OrderTooSmall):
        z.mul(_g)
    # a sum and a multiple carry the cut into the products they head
    g = arith.Packed.of(_g.cells, 64, _g.start, _g.kN, 2)
    for head in (g + g, g.scale(2)):
        assert (head * g).kN == 2 and not (head * g * g).cells


def test_packed_evaluation_cancels_to_zero():
    x, y, c = qexp.evaluate(
        [_f, _f.scale(-1)],
        [{(1, 0): 1, (0, 1): 1}, {(2, 1): 2, (1, 2): 2}, {(0, 0): 7}],
    )
    assert not x.cells and not y.cells
    assert c == _one(N).scale(7)


def _packed_majorant_width(maps, windows, polys, top=None):
    """The slot width as the packed pass of earlier versions read it: each
    map reduced to {(t, 0): (M(t),)}, M(t) its sum of |c| on the
    antidiagonal n1 + n2 = t, the poly with |c| evaluated through
    ``Packed`` products at w = 0 on the doubled windows, cut at 2 * top."""

    def magnitudes(cells):
        sums = {}
        for (n1, n2), vec in cells.items():
            sums[n1 + n2] = sums.get(n1 + n2, 0) + sum(
                abs(v) for x in vec for v in x.c.values()
            )
        return {(t, 0): (LaurentPoly({0: m}),) for t, m in sums.items()}

    top2 = None if top is None else 2 * top
    kN = min(2 * k for _, k in windows)
    sub = Substitution(
        [
            arith.Packed.of(magnitudes(cells), 0, 2 * start, 2 * k, top2)
            for cells, (start, k) in zip(maps, windows)
        ],
        arith.Packed.of({(0, 0): (LaurentPoly({0: 1}),)}, 0, 0, kN, top2),
    )
    most = 0
    for p in polys:
        for _, row in sub({e: abs(c) for e, c in p.items()}).cells.values():
            most = max([most] + [x for _, x in row])
    return most.bit_length() + 1


def test_majorant_width_is_tight_for_positive_coefficients():
    # one exponent per cell and positive coefficients, and the largest
    # result coefficient outweighs the rest of its antidiagonal: the
    # majorant there, the antidiagonal's sum of |c|, has that
    # coefficient's bit length, and one bit less than the chosen width
    # misreads it
    f = _scalar({(0, 0): {0: 3}, (0, 1): {0: 5}, (1, 0): {0: 5}, (1, 1): {0: 7}})
    g = _scalar({(0, 0): {0: 1}, (1, 1): {0: 2**20}, (0, 2): {0: 9}})
    forms, polys = [f, g], [{(2, 1): 1, (1, 2): 3}, {(0, 0): 2, (1, 0): 1}]
    got = list(qexp.evaluate(forms, polys))
    values = [v for e in got for (lp,) in e.cells.values() for v in lp.c.values()]
    assert all(len(lp.c) == 1 for e in got for (lp,) in e.cells.values())
    assert min(values) > 0
    w = _width(forms, polys)
    assert w == max(values).bit_length() + 1

    def unpacked_at(width):
        sub = Substitution(
            [arith.Packed.of(f.cells, width, f.start, f.kN) for f in forms],
            arith.Packed.of(_one(N).cells, width, 0, N),
        )
        return [sub(p).unpacked() for p in polys]

    assert unpacked_at(w) == [e.cells for e in got]
    assert unpacked_at(w - 1) != [e.cells for e in got]


def _vector(cells, j, kN=1):
    """A weight-(j, 0) expansion on [0, kN] from {key: [{e: c}, ...]}."""
    return FourierExpansion(
        (j, 0), False, kN,
        {key: tuple(LaurentPoly(c) for c in vec) for key, vec in cells.items()},
    )


_corner = _scalar({(0, 0): {0: 1}, (1, 1): {-1: -(2**40), 1: 3}}, kN=1)
_v = _vector({(0, 0): [{0: 1}, {0: -(2**50)}, {0: 1}], (0, 1): [{}, {0: 2}, {}]}, 2)


@st.composite
def _chains(draw):
    """3 or 4 raw cell maps of one Sym width on [0, bound] and their
    product x1 * ... * xn: the theta case."""
    bound = draw(st.integers(min_value=0, max_value=3))
    width = draw(st.integers(min_value=1, max_value=2))
    keys = st.tuples(*[st.integers(min_value=0, max_value=bound)] * 2)
    maps = st.dictionaries(keys, st.tuples(*[_packed_laurent] * width), max_size=5)
    forms = [
        FourierExpansion((width - 1, 0), False, bound, cells, validate=False)
        for cells in draw(st.lists(maps, min_size=3, max_size=4))
    ]
    return forms, [{(1,) * len(forms): 1}]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_forms_and_polys(), _chains()),
    st.one_of(st.none(), st.integers(0, 6)),
)
@example(([_corner, _corner], [{(2, 0): 1, (1, 1): 2}]), None)  # largest at (kN, kN)
@example(([_corner, _corner], [{(3, 0): 1}, {(1, 2): 2}]), 1)  # the last antidiagonal
@example(([_v, _corner], [{(2, 0): 1}, {(1, 1): 3}]), None)  # Sym^2, big coordinate 1
def test_majorant_width_bounds_every_result_coefficient(drawn, top):
    # every coefficient of every result lies in (-2^(w-1), 2^(w-1)): its
    # bit length is below the width
    forms, polys = drawn
    w = _width(forms, polys, top)
    sub = Substitution(forms, _one(min(f.kN for f in forms)))
    for p in polys:
        for vec in _cut(sub(p), top).cells.values():
            assert all(abs(v).bit_length() < w for x in vec for v in x.c.values())


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(_forms_and_polys(), _chains()),
    st.one_of(st.none(), st.integers(0, 6)),
)
def test_majorant_width_equals_the_packed_pass(drawn, top):
    # one int per map gives the width the packed products at w = 0 gave
    forms, polys = drawn
    maps, windows = [f.cells for f in forms], [(f.start, f.kN) for f in forms]
    packed = _packed_majorant_width(maps, windows, polys, top)
    assert _width(forms, polys, top) == packed


class _Width(Exception):
    """Carries the width of a ``majorant_width`` call out of ``evaluate``."""


def test_majorant_width_stays_within_three_bits_of_the_cell_bound(monkeypatch):
    # the widths of the per-cell majorant, each cell's own sum of |c|
    # (BENCH_16.json); each antidiagonal sum is at least the sum of those
    # of its cells, so a width is never below them.  The evaluation stops
    # at the width: one packed at a width too narrow is never unpacked
    cell_widths = {
        "A": 21, "B": 26, "AB-3C": 36, "Hessian": 22, "V8,4": 21, "D": 36,
    }
    gens = [ringlab.named_form(n, 5).expansion for n in ringlab.GENERATORS]
    polys = [{e: 1} for e in ringlab.weight_monomials(70)]
    assert 110 <= _width(gens, polys, 5) <= 113
    majorant_width = arith.majorant_width

    def stop(*args):
        raise _Width(majorant_width(*args))

    theta.chi_6_8(2)  # built before the patch: its products are evaluations too
    monkeypatch.setattr(arith, "majorant_width", stop)
    for name, cell in cell_widths.items():
        with pytest.raises(_Width) as width:
            numap.nu_raw(covariants.resolve(name), 2)
        assert cell <= width.value.args[0] <= cell + 3


def test_evaluate_takes_polys_of_one_weight():
    a = _scalar({(0, 0): {0: 1}, (1, 1): {0: 2}}, k=4)
    b = _scalar({(0, 0): {0: 1}}, k=6)
    with pytest.raises(WeightMismatch):
        qexp.evaluate([a, b], [{(1, 0): 1, (0, 1): 1}])
    (x,) = qexp.evaluate([a, b], [{(3, 0): 1, (0, 2): -1}])
    assert x.weight == (0, 12) and x == a.pow(3).sub(b.pow(2))


def test_evaluate_takes_character_forms_on_one_lattice(chi10_n3):
    x5 = theta.chi_5(3)
    (sq,) = qexp.evaluate([x5], [{(2,): 1}])
    assert sq == x5.mul(x5) and sq.denom == 1 and not sq.character
    (cube,) = qexp.evaluate([x5], [{(3,): 1}])
    assert (cube.weight, cube.denom, cube.character) == ((0, 15), 2, True)
    assert not cube.is_zero
    with pytest.raises(WeightMismatch):  # two index lattices
        qexp.evaluate([x5, chi10_n3], [{(2, 0): 1, (0, 1): 1}])
    plain = FourierExpansion((0, 5), False, 6, {}, 0, 2)
    with pytest.raises(WeightMismatch):  # terms of two characters
        qexp.evaluate([x5, plain], [{(1, 0): 1, (0, 1): 1}])


# -- elliptic forms, as boundary rows ------------------------------------------


def test_siegel_phi_is_the_elliptic_boundary_row():
    for name, elliptic in (("psi4", "E4"), ("psi6", "E6")):
        phi = ringlab.named_form(name, 3).expansion.siegel_phi()
        assert phi == qexp.elliptic_form(elliptic, 3)
    for name in ("chi10", "chi12", "chi35"):
        assert ringlab.named_form(name, 3).expansion.siegel_phi().is_zero


def test_eisenstein_normalizations():
    e4 = qexp.elliptic_form("E4", 3)
    e6 = qexp.elliptic_form("E6", 3)
    delta = qexp.elliptic_form("Delta", 3)

    def a(f, n):
        return f.coefficient(n, 0)[0]

    assert a(e4, 0) == LaurentPoly.const(1) and a(e4, 1) == LaurentPoly.const(240)
    assert a(e6, 0) == LaurentPoly.const(1) and a(e6, 1) == LaurentPoly.const(-504)
    assert a(delta, 0).is_zero and a(delta, 1) == LaurentPoly.const(1)
    assert a(delta, 2) == LaurentPoly.const(-24)


def test_elliptic_relation_small():
    n = 10
    e4 = qexp.elliptic_form("E4", n)
    e6 = qexp.elliptic_form("E6", n)
    delta = qexp.elliptic_form("Delta", n)
    lhs = e4.pow(3).sub(e6.pow(2))
    assert lhs == delta.scale(1728)


def test_elliptic_pow_refuses_non_positive_powers():
    e4 = qexp.elliptic_form("E4", 3)
    assert e4.pow(1) == e4 and e4.pow(2) == e4.mul(e4)
    for e in (0, -1):
        with pytest.raises(ValueError, match="positive powers only"):
            e4.pow(e)


# -- randomized algebra laws (acceptance: >=200 cases each) --------------------

_cell_vals = st.dictionaries(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-9, max_value=9),
    max_size=3,
)


_orders = st.integers(min_value=0, max_value=2)


@st.composite
def scalar_forms(draw, j=None, k=4):
    """A form of weight (j, k) on the window [0, N]; the order j is drawn
    from 0..2 unless given, so products also convolve coordinates."""
    if j is None:
        j = draw(_orders)
    cells = {}
    for k1 in range(0, N + 1):
        for k2 in range(0, N + 1):
            bound = math.isqrt(4 * k1 * k2)
            cells[(k1, k2)] = tuple(
                LaurentPoly({e: v for e, v in draw(_cell_vals).items() if abs(e) <= bound})
                for _ in range(j + 1)
            )
    return FourierExpansion((j, k), False, N, cells, 0)


@settings(max_examples=200, deadline=None)
@given(_orders.flatmap(lambda j: st.tuples(*[scalar_forms(j)] * 3)))
def test_ring_axioms(forms):
    a, b, c = forms
    assert a.add(b) == b.add(a)
    assert a.mul(b).agrees_with(b.mul(a))
    ab_c = a.mul(b).mul(c)
    a_bc = a.mul(b.mul(c))
    assert ab_c.agrees_with(a_bc)
    left = a.mul(b.add(c))
    right = a.mul(b).add(a.mul(c))
    assert left.agrees_with(right)
    assert not a.sub(a).cells


@settings(max_examples=100, deadline=None)
@given(scalar_forms(), st.integers(min_value=1, max_value=3))
def test_exact_div_inverts_mul(a, k):
    # a * chi10^k on [k, k + 2], divided by chi10^k, gives a back on [0, 2],
    # for scalar and Sym^j forms
    q = a.mul(theta.chi_10(N).pow(k)).exact_div_chi10(k)
    assert (q.weight, q.start, q.kN) == (a.weight, 0, N - 1)
    assert q.agrees_with(a)


def test_exact_div_refuses_a_non_integral_quotient(chi10_n3):
    # chi10 + q1 q2 over chi10 is 1 + 1/(r - 2 + r^-1) at (0, 0): a Laurent
    # remainder.  Over Z this is the only refusal that can occur: the
    # divisor's corner r - 2 + r^-1 is primitive, so by Gauss's lemma a
    # quotient cell that exists over Q is integral, and no case is
    # divisible over Q but not over Z
    bumped = chi10_n3.add(_scalar({(1, 1): {0: 1}}, k=10, start=1))
    with pytest.raises(NotDivisible, match="Laurent division leaves a remainder"):
        bumped.exact_div_chi10()
    two = chi10_n3.scale(2).exact_div_chi10()
    assert two.agrees_with(_scalar({(0, 0): {0: 2}}, kN=2))


@settings(max_examples=200, deadline=None)
@given(scalar_forms())
def test_scale_linearity(a):
    assert a.scale(3).sub(a.scale(2)).agrees_with(a)
    assert a.scale(-2).scale(3).agrees_with(a.scale(-6))
