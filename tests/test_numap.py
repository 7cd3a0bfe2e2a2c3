import pytest

from sexticforms import covariants as cv
from sexticforms import numap, qexp, theta
from sexticforms.arith import LaurentPoly, Packed
from sexticforms.errors import NormalizationFailure, NotDivisible, OddOrder
from sexticforms.poly import SEXTIC_VARS, MultiPoly, transvect
from sexticforms.qexp import FourierExpansion


def test_weight_bookkeeping():
    assert numap.weight_of_covariant(1, 6) == (6, -2)
    assert numap.weight_of_covariant(2, 0) == (0, 2)
    assert numap.weight_of_covariant(10, 0) == (0, 10)
    with pytest.raises(OddOrder):
        numap.weight_of_covariant(2, 3)


def test_nu_of_universal_sextic_is_seed(sextic, chi68_n2):
    # chi_10 * nu(f) as built from the coordinates reproduces chi_6_8
    out = numap.nu_raw(sextic, 2)
    assert (out.j, out.k) == (6, 8)
    assert out.agrees_with(chi68_n2)


def test_nu_raw_multiplicative():
    a, b = cv.invariant("A"), cv.invariant("B")
    lhs = numap.nu_raw(a * b, 2)
    rhs = numap.nu_raw(a, 2).mul(numap.nu_raw(b, 2))
    assert lhs.agrees_with(rhs)


def test_nu_raw_discriminant_proportional_chi10_11():
    nd = numap.nu_raw(cv.invariant("D"), 2)
    p11 = theta.chi_10(2).pow(11)
    assert qexp.proportionality(nd, p11) == 4096


def test_nu_normalized_A():
    a = cv.invariant("A")
    with pytest.raises(NotDivisible):
        numap.nu_normalized(a, 0, 2)
    res = numap.nu_normalized(a, 1, 2)
    assert (res.j, res.k) == (0, 12)
    assert res.siegel_phi().is_zero


def test_minimal_chi10_powers():
    assert numap.minimal_chi10_power(cv.universal_sextic()) == 1
    assert numap.minimal_chi10_power(cv.invariant("A")) == 1
    assert numap.minimal_chi10_power(cv.invariant("D")) == 0
    assert numap.minimal_chi10_power(cv.invariant("E")) == 2


@pytest.mark.parametrize("k", [2, 4, 6])
def test_transvectant_expansion_commutes(sextic, k):
    # q-side transvection of nu(f) with itself against the symbolic route;
    # both apply the norm-free poly.transvect, so they agree exactly
    nf = numap.nu_raw(sextic, 2)
    lhs = numap.transvectant_expansion(nf, nf, k)
    rhs = numap.nu_raw(transvect(sextic, sextic, k), 2)
    assert qexp.proportionality(lhs, rhs) == 1


def test_measured_powers_at_most_certified():
    # the certified power of A is holomorphic and one power less is not:
    # the measured minimum equals the certified one
    a = cv.invariant("A")
    e = numap.nu_normalized(a, numap.minimal_chi10_power(a), 2)
    with pytest.raises(NotDivisible):
        e.exact_div_chi10()


def test_nu_raw_refuses_rational_coefficients():
    # the normed transvectant C2,0 = (f, f)_6 has the content 1/60
    with pytest.raises(ValueError, match="integer coefficients"):
        numap.nu_raw(cv.grace_young("C2,0"), 1)


def test_nu_raw_of_constant():
    three = cv.Covariant(MultiPoly.const(SEXTIC_VARS, 3), 0, 0)
    for N in (1, 2, 3):
        out = numap.nu_raw(three, N)
        assert out.weight == (0, 0)
        assert out.kN == N
        assert out.agrees_with(
            FourierExpansion((0, 0), False, N, {(0, 0): (LaurentPoly({0: 3}),)})
        )


def test_nu_raw_shares_products(monkeypatch):
    # a factor that several monomials share is multiplied once; building
    # each monomial on its own takes 163 products for AB-3C and 968 for D.
    # A Sym^j coordinate is placed, not multiplied in: with x1, x2 as
    # one-cell products Hessian took 54 and V8,4 29.  The mirror rule
    # evaluates one monomial of each mirror pair and the coordinates
    # i <= j/2: before it B took 29, AB-3C 93, D 444, Hessian 24, V8,4 15.
    # The products are those of the packed images (w > 0); the majorant
    # pass (w = 0) repeats the same Horner scheme on one int per
    # antidiagonal n1 + n2
    theta.chi_6_8(2)
    calls = [0]
    mul = Packed.__mul__

    def counted(self, other):
        calls[0] += self.w > 0
        return mul(self, other)

    monkeypatch.setattr(Packed, "__mul__", counted)
    cases = (
        (cv.invariant("B"), 24),
        (cv.combination_AB_minus_3C(), 69),
        (cv.invariant("D"), 284),
        (cv.grace_young("Hessian"), 14),
        (cv.grace_young("V8,4"), 9),
    )
    for c, most in cases:
        calls[0] = 0
        numap.nu_raw(c, 2)
        assert 0 < calls[0] <= most


# -- the mirror rule ------------------------------------------------------------


def _integral(c):
    return c.scale(1 / c.poly.content())


def _term_by_term(c, N):
    """Each coordinate of nu_raw(c, N), every term a product of seeds of
    its own: {coordinate: scalar expansion}."""
    seed = theta.chi_6_8(N)
    beta = [
        FourierExpansion(
            (0, 0), False, seed.kN,
            {key: (vec[i],) for key, vec in seed.cells.items()}, seed.start,
        )
        for i in range(7)
    ]
    coords = {}
    for e, v in c.poly.terms.items():
        term = None
        for m in range(7):
            for _ in range(e[m]):
                term = beta[m] if term is None else term.mul(beta[m])
        term = term.scale(v)
        i = e[8]
        coords[i] = coords[i].add(term) if i in coords else term
    return coords


# degree 3, order 12, content 1/6, mirror sign (-1)^((18 - 12)/2) = -1
_ODD_SIGN = cv.transvectant(cv.universal_sextic(), cv.grace_young("Hessian"), 1)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize(
    "c, sign",
    [
        (cv.invariant("B"), 1),
        (cv.combination_AB_minus_3C(), 1),
        (_integral(cv.grace_young("C3,2")), 1),
        (cv.grace_young("Hessian"), 1),
        (cv.grace_young("V8,4"), 1),
        (_integral(_ODD_SIGN), -1),
    ],
    ids=["B", "AB-3C", "C3,2", "Hessian", "V8,4", "f-Hessian-1"],
)
def test_mirror_path_matches_term_by_term(c, sign, N):
    assert (6 * c.degree - c.order) // 2 % 2 == (sign == -1)
    out = numap.nu_raw(c, N)
    expected = _term_by_term(c, N)
    assert out.kN == N + c.degree - 1 == min(x.kN for x in expected.values())
    assert out.start == c.degree
    for i in range(c.order + 1):
        coord = {key: (vec[i],) for key, vec in out.cells.items()}
        got = FourierExpansion((0, 0), False, out.kN, coord, out.start)
        assert got.agrees_with(expected[i])


def test_nu_raw_refuses_a_polynomial_without_mirror_sign():
    a0 = cv.Covariant(MultiPoly.variable(SEXTIC_VARS, "a0"), 1, 0)
    with pytest.raises(ValueError, match="mirror sign"):
        numap.nu_raw(a0, 1)


def test_tampered_seed_fails_the_mirror_check(monkeypatch):
    seed = theta.chi_6_8(2)
    cells = dict(seed.cells)
    vec = list(cells[1, 2])
    vec[0] = vec[0] + LaurentPoly.const(1)
    cells[1, 2] = tuple(vec)
    tampered = FourierExpansion(seed.weight, False, seed.kN, cells, seed.start)
    monkeypatch.setattr(numap, "chi_6_8", lambda N: tampered)
    with pytest.raises(NormalizationFailure, match="mirror"):
        numap.nu_raw(cv.invariant("A"), 2)


# -- one division by chi_10^k -------------------------------------------------------


def _successive(x, k):
    for _ in range(k):
        x = x.exact_div_chi10()
    return x


def _chi35_chain(N):
    built = {"f": theta.chi_6_8(N)}
    for out, left, right, k in cv.skew_chain_transvectants():
        built[out] = numap.transvectant_expansion(built[left], built[right], k)
    return built["e0"]


@pytest.mark.parametrize("N", [3, 5])
def test_one_division_equals_successive_divisions(N):
    raw = numap.nu_raw(cv.combination_AB_minus_3C(), N)
    assert raw.exact_div_chi10(6) == _successive(raw, 6)
    chain = _chi35_chain(N)
    one = chain.exact_div_chi10(13)
    assert one == _successive(chain, 13)
    assert (one.start, one.kN) == (chain.start - 13, chain.kN - 13)


# the nu divisions of the registry (chi12, chi8_8, chi4_10) and of the
# eisenstein cross-check suite (psi4 = nu(B), 8 * psi6 = nu(-8AB - 3C))
_REGISTRY_NU = [
    (cv.invariant, ("B",), 0),
    (cv.combination_AB_minus_3C, (), 0),
    (cv.invariant, ("A",), 1),
    (cv.grace_young, ("Hessian",), 1),
    (cv.grace_young, ("V8,4",), 1),
]


def _times_chi10_power(q, k, f):
    """q * chi10^k, by products alone, on f's window, which it must fill."""
    back = q.mul(theta.chi_10(f.kN - f.start + 1).pow(k))
    assert (back.weight, back.start, back.kN) == (f.weight, f.start, f.kN)
    return back


@pytest.mark.parametrize("N", [5, 9])
@pytest.mark.parametrize("covariant, args, m", _REGISTRY_NU)
def test_each_registry_division_times_the_divisor_is_the_dividend(
    covariant, args, m, N
):
    # an oracle that shares no step with the division: q * chi10^k = f
    c = covariant(*args)
    raw = numap.nu_raw(c, max(1, N - m + 1))
    k = c.degree - m
    assert _times_chi10_power(raw.exact_div_chi10(k), k, raw) == raw


def test_chi35_division_times_the_divisor_is_the_dividend():
    e0 = _chi35_chain(4)  # the chain of the registry's chi35 at N = 5
    assert _times_chi10_power(e0.exact_div_chi10(13), 13, e0) == e0


def test_exact_div_chi10_by_the_zeroth_power_is_the_identity(chi10_n3):
    assert chi10_n3.exact_div_chi10(0) is chi10_n3
    with pytest.raises(ValueError):
        chi10_n3.exact_div_chi10(-1)


@pytest.mark.parametrize("name", ["A", "Hessian", "V8,4"])
def test_one_power_below_holomorphic_is_not_divisible(name):
    c = cv.resolve(name)
    m = numap.minimal_chi10_power(c)
    assert m == 1
    numap.nu_normalized(c, m, 2)
    with pytest.raises(NotDivisible):
        numap.nu_normalized(c, m - 1, 2)
