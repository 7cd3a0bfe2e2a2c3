import pytest

from sexticforms import arith, theta
from sexticforms.arith import LaurentPoly
from sexticforms.errors import EvenCharacteristic, OddCharacteristic


def test_characteristic_census():
    allc = theta.all_characteristics()
    assert len(allc) == 16
    assert len(theta.even_characteristics()) == 10
    assert len(theta.odd_characteristics()) == 6


def test_parity_examples():
    assert theta.ThetaCharacteristic((0, 0), (0, 0)).parity == "even"
    assert theta.ThetaCharacteristic((1, 1), (1, 1)).parity == "even"
    assert theta.ThetaCharacteristic((0, 1), (0, 1)).parity == "odd"


def test_constant_requires_even_gradient_requires_odd():
    odd = theta.ThetaCharacteristic((0, 1), (0, 1))
    even = theta.ThetaCharacteristic((0, 0), (0, 0))
    with pytest.raises(OddCharacteristic):
        theta.even_theta_constant(odd, 1)
    with pytest.raises(EvenCharacteristic):
        theta.odd_theta_gradient(even, 1)


def test_chi5_shape():
    x5 = theta.chi_5(2)
    assert (x5.j, x5.k) == (0, 5)
    assert x5.character and x5.denom == 2
    assert x5.start == 1


def test_chi10_normalization_pin(chi10_n3):
    assert chi10_n3.denom == 1 and not chi10_n3.character
    assert chi10_n3.vec_at((1, 1)) == (LaurentPoly({1: 1, 0: -2, -1: 1}),)
    assert chi10_n3.start == 1


def test_chi10_proportional_to_chi5_squared():
    from sexticforms import qexp

    x5 = theta.chi_5(3)
    # the raw theta product carries the factor 2^12; chi_10 is re-pinned
    assert qexp.proportionality(x5.mul(x5), theta.chi_10(3)) == 4096


def test_chi6_8_normalization_pin(chi68_n2):
    z = LaurentPoly()
    mid = LaurentPoly({-1: 1, 0: -2, 1: 1})
    grad = LaurentPoly({1: 2, -1: -2})
    assert chi68_n2.vec_at((1, 1)) == (z, z, mid, grad, mid, z, z)


def _r_inversion_holds(form):
    # r -> 1/r multiplies coordinate i by (-1)^(i+k): the action of
    # diag(1,-1,1,-1), where z2 and X2 change sign and det gives (-1)^k
    return all(
        LaurentPoly({-e: v for e, v in lp.c.items()}) == lp.scale((-1) ** (i + form.k))
        for vec in form.cells.values()
        for i, lp in enumerate(vec)
    )


def test_chi6_8_symmetries(chi68_n2):
    # tau11 <-> tau22 with X1 <-> X2: coefficient (n2, n1) is coefficient
    # (n1, n2) with its coordinates reversed, times (-1)^k
    sign = (-1) ** chi68_n2.k
    for (n1, n2), vec in chi68_n2.cells.items():
        assert chi68_n2.vec_at((n2, n1)) == tuple(lp.scale(sign) for lp in reversed(vec))
    assert _r_inversion_holds(chi68_n2)


def test_chi10_symmetries(chi10_n3):
    assert arith.swap_sign(chi10_n3.cells) == 1
    assert _r_inversion_holds(chi10_n3)


def test_cusp_forms_kill_boundary(chi68_n2, chi10_n3):
    assert chi10_n3.siegel_phi().is_zero
    assert chi68_n2.siegel_phi().is_zero
