"""The Siegel Eisenstein series psi4 and psi6 from Cohen's H, against pins
and against the paper's nu construction."""

import json
from fractions import Fraction

import pytest

from sexticforms import covariants, eisenstein, numap, ringlab
from sexticforms.arith import LaurentPoly

F = Fraction


def test_cohen_h_pins():
    h3 = eisenstein.cohen_h(3, 12)
    assert [h3[m] for m in (0, 3, 4, 7, 8, 12)] == [
        F(-1, 252), F(-2, 9), F(-1, 2), F(-16, 7), F(-3), F(-74, 9)
    ]
    h5 = eisenstein.cohen_h(5, 8)
    assert [h5[m] for m in (3, 4, 7, 8)] == [F(2, 3), F(5, 2), F(32), F(57)]
    # -M = 2 or 3 mod 4 is no discriminant
    assert h3[1] == h3[2] == h3[5] == h3[6] == 0


def test_eisenstein_coefficient_pins():
    psi4 = eisenstein.siegel_eisenstein(4, 2)
    # rank 1 (r^2) from E4; rank 2 from -60480 * H(3, 4nm - rho^2)
    assert psi4.vec_at((1, 1))[0] == LaurentPoly(
        {-2: 240, -1: 13440, 0: 30240, 1: 13440, 2: 240}
    )
    assert psi4.vec_at((1, 2))[0].c[1] == 138240
    assert psi4.vec_at((1, 2))[0].c[0] == 181440
    psi6 = eisenstein.siegel_eisenstein(6, 1)
    assert psi6.vec_at((1, 1))[0] == LaurentPoly(
        {-2: -504, -1: 44352, 0: 166320, 1: 44352, 2: -504}
    )


# nu(B) = psi4 and nu(-8AB - 3C) = 8 * psi6
_NU = {4: (covariants.invariant, ("B",), 1),
       6: (covariants.combination_AB_minus_3C, (), 8)}


@pytest.mark.parametrize("N", range(1, 6))
@pytest.mark.parametrize("k", [4, 6])
def test_equals_the_nu_construction(k, N):
    covariant, args, factor = _NU[k]
    got = eisenstein.siegel_eisenstein(k, N).scale(factor)
    want = numap.nu_normalized(covariant(*args), 0, N)
    assert json.dumps(got.to_json(), sort_keys=True) == json.dumps(
        want.to_json(), sort_keys=True
    )
    assert got == want


@pytest.mark.parametrize("k", [4, 6])
def test_cells_are_mirrored(k):
    e = eisenstein.siegel_eisenstein(k, 6)
    assert len(e.cells) == 49
    for (n1, n2), (lp,) in e.cells.items():
        assert e.vec_at((n2, n1)) == (lp,)
        assert all(lp.c.get(-rho) == v for rho, v in lp.c.items())


@pytest.mark.parametrize("k", [4, 6])
def test_order_zero_and_bad_arguments(k):
    e = eisenstein.siegel_eisenstein(k, 0)
    assert (e.weight, e.kN, e.start) == ((0, k), 0, 0)
    assert e.cells == {(0, 0): (LaurentPoly.const(1),)}
    with pytest.raises(ValueError):
        eisenstein.siegel_eisenstein(k, -1)
    with pytest.raises(ValueError):
        eisenstein.siegel_eisenstein(8, 2)


def test_eisenstein_report_fails_on_a_difference(monkeypatch):
    assert ringlab.eisenstein_report(2)["status"] == "PASS"
    wrong = eisenstein.siegel_eisenstein(6, 2).scale(2)
    monkeypatch.setattr(ringlab, "_build", lambda name, N: wrong if name == "psi6"
                        else eisenstein.siegel_eisenstein(4, N))
    report = ringlab.eisenstein_report(2)
    assert report["psi4"]["equal"] and not report["psi6"]["equal"]
    assert report["status"] == "FAIL"
