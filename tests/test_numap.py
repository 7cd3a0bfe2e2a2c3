import pytest

from sexticforms import covariants as cv
from sexticforms import numap, qexp, theta
from sexticforms.errors import NotDivisible, OddOrder
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
        assert out.agrees_with(qexp.constant_one(N).scale(3))


def test_nu_raw_shares_products(monkeypatch):
    # a factor that several monomials share is multiplied once; building
    # each monomial on its own takes 163 products for AB-3C and 968 for D.
    # A Sym^j coordinate is placed, not multiplied in: with x1, x2 as
    # one-cell products Hessian took 54 and V8,4 29
    theta.chi_6_8(2)
    calls = [0]
    mul = FourierExpansion.mul

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(FourierExpansion, "mul", counted)
    monkeypatch.setattr(FourierExpansion, "__mul__", counted, raising=False)
    cases = (
        (cv.combination_AB_minus_3C(), 100),
        (cv.invariant("D"), 500),
        (cv.grace_young("Hessian"), 24),
        (cv.grace_young("V8,4"), 15),
    )
    for c, most in cases:
        calls[0] = 0
        numap.nu_raw(c, 2)
        assert 0 < calls[0] <= most
