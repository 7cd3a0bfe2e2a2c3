import hashlib
import json

import pytest

from sexticforms import covariants, numap, qexp, ringlab
from sexticforms.errors import OddWeight, UnknownName


def test_registry_names():
    names = ringlab.registry_names()
    for expected in (
        "chi5",
        "chi6_3",
        "chi10",
        "chi6_8",
        "psi4",
        "psi6",
        "chi12",
        "chi8_8",
        "chi4_10",
        "chi35",
    ):
        assert expected in names


def test_unknown_name():
    with pytest.raises(UnknownName):
        ringlab.named_form("nosuch", 2)


def test_even_dimensions():
    dims = [ringlab.even_dimension(k) for k in range(0, 32, 2)]
    assert dims == [1, 0, 1, 1, 1, 2, 3, 2, 4, 4, 5, 6, 8, 7, 10, 11]
    with pytest.raises(OddWeight):
        ringlab.even_dimension(35)


def test_psi4_boundary():
    psi4 = ringlab.named_form("psi4", 3).expansion
    e4 = qexp.elliptic_form("E4", 3)
    assert qexp.proportionality(psi4.siegel_phi(), e4) == 1
    # restriction is the rank-1 product of two copies of E4
    slice0 = psi4.restrict_to_a11()[0]
    for (n1, n2), val in slice0.items():
        a1, a2 = (e4.vec_at((n, 0))[0].eval_at_one() for n in (n1, n2))
        assert val == a1 * a2


def test_psi6_boundary():
    psi6 = ringlab.named_form("psi6", 3).expansion
    e6 = qexp.elliptic_form("E6", 3)
    assert qexp.proportionality(psi6.siegel_phi(), e6) == 1


def test_chi12_is_cusp():
    chi12 = ringlab.named_form("chi12", 3).expansion
    assert (chi12.j, chi12.k) == (0, 12)
    assert chi12.siegel_phi().is_zero


def test_vector_valued_cusp_forms():
    for name, weight in (("chi8_8", (8, 8)), ("chi4_10", (4, 10))):
        form = ringlab.named_form(name, 2).expansion
        assert (form.j, form.k) == weight
        assert form.start >= 1


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_named_form_truncation_is_the_order(N):
    for name in ringlab.registry_names():
        assert ringlab.named_form(name, N).expansion.truncation == N, name


@pytest.mark.parametrize("deep, N", [(5, 3), (4, 2)])
def test_named_form_at_a_lower_order_is_the_cut(deep, N):
    # every window is exact: a form at order N is the one at a deeper
    # order cut at N, with the same start
    for name in ringlab.registry_names():
        cut = ringlab.named_form(name, deep).expansion.cut(N)
        assert cut == ringlab.named_form(name, N).expansion, name


def test_chi35_shape():
    # the first nonzero cells are (2,3) and (3,2): the window [2,2] holds none
    x35 = ringlab.named_form("chi35", 3).expansion
    assert (x35.j, x35.k) == (0, 35)
    assert x35.start == 2
    per, overall = x35.a11_order()
    assert overall == 1


def test_chi35_is_chi10_squared_times_nu_of_E():
    # the (2,3) pin gives chi35 the scale of E's anchor a0^2 a5^3 a3^10 ->
    # -729, at every cell of the window, not only the pinned one
    x35 = ringlab.named_form("chi35", 4).expansion
    e = numap.nu_normalized(covariants.invariant("E"), 2, 4)
    assert len(x35.cells) > 2
    assert x35.agrees_with(e)


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    first = ringlab.named_form("chi10", 2, str(tmp_path))
    files = list(tmp_path.iterdir())
    assert len(files) == 1

    def rebuild(name, N):
        raise AssertionError("a fresh entry must be served, not rebuilt")

    monkeypatch.setattr(ringlab, "_build", rebuild)
    second = ringlab.named_form("chi10", 2, str(tmp_path))
    assert second.expansion == first.expansion


def test_disk_cache_keyed_by_source(tmp_path, monkeypatch):
    real = ringlab.named_form("chi10", 2).expansion
    monkeypatch.setattr(ringlab, "_source_digest", lambda: "other sources")
    ringlab.named_form("chi10", 2, str(tmp_path))
    (entry,) = tmp_path.iterdir()
    data = json.loads(entry.read_text())
    data["expansion"] = real.scale(2).to_json()
    # the edit keeps its entry's digest, of the text as the CLI prints it
    text = json.dumps(data["expansion"], sort_keys=True)
    data["expansion_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    entry.write_text(json.dumps(data))
    # the sources that wrote the entry are served it ...
    assert ringlab.named_form("chi10", 2, str(tmp_path)).expansion == real.scale(2)
    monkeypatch.undo()
    # ... other sources rebuild and write their own entry
    assert ringlab.named_form("chi10", 2, str(tmp_path)).expansion == real
    assert len(list(tmp_path.iterdir())) == 2


def test_even_generation_small():
    rows = ringlab.verify_even_generation(12, 3)
    assert all(r["status"] == "PASS" for r in rows)


def test_even_generation_escalates_past_one_retry():
    # the weight-50 monomials reach full rank only at N = 5, two past N = 3;
    # weight 50 is first ranked there, at 50 // 10
    row = ringlab.verify_even_generation(50, 3)[-1]
    assert row == {
        "weight": 50, "expected_dim": 31, "rank": 31, "truncation": 5,
        "status": "PASS",
    }


def _recorded_monomials(monkeypatch):
    """The (truncation, weights) of every ``_monomials`` call, in order."""
    calls = []
    monomials = ringlab._monomials

    def recorded(weights, N, cache_dir=None):
        calls.append((N, list(weights)))
        return monomials(weights, N, cache_dir)

    monkeypatch.setattr(ringlab, "_monomials", recorded)
    return calls


def test_even_generation_evaluates_a_weight_where_it_is_due(monkeypatch):
    # weight k is first ranked at max(N, k // 10), one _monomials call per
    # truncation: at N = 3 weight 70 is evaluated at 7 only
    calls = _recorded_monomials(monkeypatch)
    rows = ringlab.verify_even_generation(70, 3)
    assert calls == [
        (3, list(range(0, 40, 2))),
        (4, list(range(40, 50, 2))),
        (5, list(range(50, 60, 2))),
        (6, list(range(60, 70, 2))),
        (7, [70]),
    ]
    assert rows[-1] == {
        "weight": 70, "expected_dim": 73, "rank": 73, "truncation": 7,
        "status": "PASS",
    }
    # from N = 1 every weight is at full rank where it is first due,
    # max(1, k // 10): weights 0-18 at 1, 20-28 at 2 and 30-38 at 3
    calls.clear()
    rows = ringlab.verify_even_generation(38, 1)
    assert calls == [
        (1, list(range(0, 20, 2))),
        (2, list(range(20, 30, 2))),
        (3, list(range(30, 40, 2))),
    ]
    assert [(r["truncation"], r["status"]) for r in rows] == [
        (max(1, k // 10), "PASS") for k in range(0, 40, 2)
    ]


def test_even_generation_retries_a_short_weight_once(monkeypatch):
    # ranks taken at truncation 4 under-count by one: weights 40-48 are
    # retried at 5, in the one call that also ranks weight 50
    calls = _recorded_monomials(monkeypatch)
    rank = qexp.rank_of_span
    monkeypatch.setattr(
        qexp, "rank_of_span",
        lambda forms: rank(forms) - (bool(forms) and forms[0].kN == 4),
    )
    rows = ringlab.verify_even_generation(50, 3)
    assert calls[1:] == [(4, list(range(40, 50, 2))), (5, list(range(40, 52, 2)))]
    assert [(r["truncation"], r["status"]) for r in rows[20:]] == [(5, "PASS")] * 6


def test_odd_weight_report_states_its_evidence():
    rep = ringlab.odd_weight_divisibility_check(N=3)
    assert rep["expected_dim"] == ringlab.even_dimension(70) == 73
    assert rep["truncation"] == 3
    assert rep["weight70_rank"] == rep["rank_with_square"] == 20
    assert rep["status"] == "FAIL"  # the square is not visible at N=3


def test_one_elimination_gives_both_weight70_ranks():
    # the report reads both ranks off one elimination; two rank_of_span
    # calls over the same forms must agree with it.  The monomials are
    # built here by FourierExpansion.mul, one product at a time, and must
    # equal the packed evaluation cell for cell
    rep = ringlab.odd_weight_divisibility_check(N=5, chi35_N=3)
    gens = [ringlab.named_form(n, 5).expansion for n in ringlab.GENERATORS]
    exps = ringlab.weight_monomials(70)
    monomials = []
    for e in exps:
        factors = [g for g, n in zip(gens, e) for _ in range(n)]
        m = factors[0]
        for g in factors[1:]:
            m = m.mul(g)
        monomials.append(m)
    packed = list(qexp.evaluate(gens, [{e: 1} for e in exps]))
    assert len(monomials) == 73
    assert [m.cells for m in monomials] == [m.cells for m in packed]
    assert all(m == p for m, p in zip(monomials, packed))
    # the report's monomials are cut at N = 5: the uncut ones on cells <= 5
    (cut,) = ringlab._monomials([70], 5)
    assert [m.kN for m in cut] == [5] * 73
    assert [m.start for m in cut] == [m.start for m in monomials]
    assert [m.cells for m in cut] == [
        {key: vec for key, vec in m.cells.items() if max(key) <= 5}
        for m in monomials
    ]
    assert any(m.start > 5 and not m.cells for m in cut)
    x35 = ringlab.named_form("chi35", 3).expansion
    square = x35.mul(x35)
    assert rep["weight70_rank"] == qexp.rank_of_span(monomials) == 56
    assert rep["rank_with_square"] == qexp.rank_of_span(monomials + [square]) == 56
    assert rep["square_visible_in_window"] and rep["status"] == "PASS"


def test_nu_consistency_report():
    rep = ringlab.nu_consistency_report(2)
    assert rep["status"] == "PASS"
    assert rep["constant"] == "4096"


def test_s68_probe():
    rep = ringlab.dim_s68_probe(2)
    assert rep["status"] == "PASS"
