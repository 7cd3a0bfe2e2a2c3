import math

import pytest

from sexticforms import arith, qexp, theta
from sexticforms.arith import LaurentPoly
from sexticforms.errors import EvenCharacteristic, OddCharacteristic, SupportViolation
from sexticforms.qexp import FourierExpansion


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


def _full_exponent_series(ch, N):
    """Oracle: the theta series of ``ch`` with the r-exponent t1*t2 in
    quarter units, straight from the definition; an odd characteristic
    gives its two z-partials scaled by 2, global phase dropped."""
    M = math.isqrt(2 * N) + 2
    acc = {}
    for n1 in range(-M, M + 1):
        for n2 in range(-M, M + 1):
            t1, t2 = 2 * n1 + ch.m1[0], 2 * n2 + ch.m1[1]
            if max(t1 * t1, t2 * t2) > 8 * N:
                continue
            if ch.parity == "even":
                vec = (-1 if (t1 * ch.m2[0] + t2 * ch.m2[1]) // 2 % 2 else 1,)
            else:
                sign = -1 if (n1 * ch.m2[0] + n2 * ch.m2[1]) % 2 else 1
                vec = (sign * t1, sign * t2)
            cell = acc.setdefault((t1 * t1, t2 * t2), [{} for _ in vec])
            for d, v in zip(cell, vec):
                d[t1 * t2] = d.get(t1 * t2, 0) + v
    return {key: tuple(map(LaurentPoly, cell)) for key, cell in acc.items()}


@pytest.mark.parametrize("N", range(1, 5))
def test_r2_lattice_products_equal_the_full_exponent_products(N):
    # the seeds multiply their series on the r^2 lattice; the full-exponent
    # product, halved by reindexed, is the same form
    for seed, chars, weight in (
        (theta.chi_5, theta.even_characteristics(), (0, 5)),
        (theta.chi_6_3, theta.odd_characteristics(), (6, 3)),
    ):
        full = theta._theta_product([_full_exponent_series(c, N) for c in chars], N)
        want = FourierExpansion(
            weight, True, 2 * N, qexp.reindexed(full, 4), 1, denom=2,
            validate=False,
        )
        assert sum(c.r_parity for c in chars) == 2
        assert seed(N) == want, (seed.__name__, N)


def test_products_off_the_lattice_are_refused():
    # one series with mu' = (1/2, 1/2) has odd r-exponents t1*t2: sum of p is 1
    ch = theta.ThetaCharacteristic((1, 1), (0, 0))
    series = theta.even_theta_constant(ch, 2)
    cells = theta._theta_product([series], 2)
    with pytest.raises(SupportViolation, match="parity 1"):
        theta._to_fourier(cells, ch.r_parity, (0, 1), 2, "theta")
    # two of them: even sum of p, but keys t1^2 + t1'^2 = 2 mod 8
    cells = theta._theta_product([series, series], 2)
    with pytest.raises(SupportViolation, match="off the lattice"):
        theta._to_fourier(cells, 2 * ch.r_parity, (0, 1), 2, "theta")
