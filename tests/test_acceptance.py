"""End-to-end acceptance checks, one per criterion, each printing a single
PASS/FAIL line.  Everything here is exact arithmetic with zero tolerance."""

import time

from sexticforms import covariants, modp, numap, qexp, ringlab, theta
from sexticforms.cli import CHI68_GOLDEN
from sexticforms.errors import NotDivisible


def report(label, ok, detail=""):
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_chi68_golden_block():
    t0 = time.monotonic()
    text = theta.chi_6_8(2).to_text()
    elapsed = time.monotonic() - t0
    ok = text == CHI68_GOLDEN and elapsed < 10.0
    report(
        "chi6_8 N=2 matches the embedded golden block",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_order_ledger(chi68_n3, chi10_n3):
    per, overall = chi68_n3.a11_order()
    mid = per[3]
    shape_ok = (
        len(per) == 7
        and mid == 1
        and per[2] == 2
        and per[4] == 2
        and per[1] >= 3
        and per[5] >= 3
        and per[0] >= 4
        and per[6] >= 4
        and overall == 1
    )
    _, chi10_order = chi10_n3.a11_order()
    chi35 = ringlab.named_form("chi35", 3).expansion
    _, chi35_order = chi35.a11_order()
    ok = shape_ok and chi10_order == 2 and chi35_order == 1
    report(
        "vanishing orders along the diagonal",
        ok,
        f"chi6_8 per-coordinate {tuple(per)}, chi10 {chi10_order}, chi35 {chi35_order}",
    )


def test_criterion_3_nu_consistency():
    t0 = time.monotonic()
    rep = ringlab.nu_consistency_report(2)
    a = covariants.invariant("A")
    try:
        numap.nu_normalized(a, 0, 2)
        bare_fails = False
    except NotDivisible:
        bare_fails = True
    res = numap.nu_normalized(a, 1, 2)
    cusp12 = (res.j, res.k) == (0, 12) and res.siegel_phi().is_zero
    elapsed = time.monotonic() - t0
    ok = rep["status"] == "PASS" and bare_fails and cusp12 and elapsed < 600
    report(
        "nu(D) is a constant multiple of chi10^11 and nu(A) needs one chi10",
        ok,
        f"constant {rep['constant']}, {elapsed:.1f}s",
    )


def test_criterion_4_even_ring_generation():
    rows = ringlab.verify_even_generation(30, 3)
    ranks_ok = all(row["status"] == "PASS" for row in rows)
    odd = ringlab.odd_weight_divisibility_check(N=5, chi35_N=3)
    ok = ranks_ok and odd["status"] == "PASS"
    report(
        "even-weight ranks match the generating function through weight 30; "
        "chi35^2 adds no new weight-70 form",
        ok,
        f"rank {odd['weight70_rank']} with and without the square",
    )


def test_criterion_5_dim_s68_probe():
    rep = ringlab.dim_s68_probe(2)
    ok = rep["status"] == "PASS"
    report(
        "two independent weight-(6,8) cusp constructions are proportional",
        ok,
        f"constant {rep['constant']}",
    )


def test_criterion_6_elliptic_consistency():
    n = 20
    e4 = qexp.elliptic_form("E4", n)
    e6 = qexp.elliptic_form("E6", n)
    delta = qexp.elliptic_form("Delta", n)
    relation = e4.pow(3).sub(e6.pow(2)) == delta.scale(1728)
    psi4 = ringlab.named_form("psi4", 3).expansion
    e4_3 = qexp.elliptic_form("E4", 3)
    phi_ok = qexp.proportionality(psi4.siegel_phi(), e4_3) == 1

    def a(n):
        return e4_3.vec_at((n, 0))[0].eval_at_one()

    slice0 = psi4.restrict_to_a11()[0]
    tensor_ok = bool(slice0) and all(
        val == a(n1) * a(n2) for (n1, n2), val in slice0.items()
    )
    ok = relation and phi_ok and tensor_ok
    report("E4^3 - E6^2 = 1728*Delta and psi4 boundary behaviour", ok)


def test_criterion_7_characteristic_p():
    a3 = modp.reduce_mod_p(covariants.invariant("A"), 3).poly
    mod3_ok = a3.to_text() == "a1*a5 + 2*a2*a4"
    k1 = modp.k1()
    k2_ok = modp.char2_lift_invariant("A").poly == k1.poly**2
    k4 = modp.k4()
    k1_divides_k4 = modp.k3().poly * k1.poly == k4.poly
    actions_ok = all(
        modp.char2_action_check(inv)
        for inv in (k1, modp.char2_lift_invariant("A"), modp.k3(), k4)
    )
    ok = mod3_ok and k2_ok and k1_divides_k4 and actions_ok
    report(
        "characteristic-p identities: A mod 3, K2 = K1^2, K1 | K4, "
        "symbolic invariance of K1..K4",
        ok,
    )


def test_criterion_8_randomized_algebra_suites():
    # The >=200-case randomized suites live next to the modules they probe:
    # Laurent/polynomial ring axioms and exact-division inversion in
    # test_arith.py and test_poly.py, Fourier-expansion ring axioms and
    # exact_div-inverts-mul in test_qexp.py, transvectant grading and
    # SL2-invariance of the five invariants in test_covariants.py.  Here we
    # check those suites exist with the required case counts.
    import re

    here = __file__.rsplit("/", 1)[0]
    required = {
        "test_arith.py": 2,
        "test_poly.py": 2,
        "test_qexp.py": 3,
        "test_covariants.py": 2,
    }
    ok = True
    found = {}
    for fname, minimum in required.items():
        with open(f"{here}/{fname}") as fh:
            src = fh.read()
        counts = [int(m) for m in re.findall(r"max_examples=(\d+)", src)]
        found[fname] = len([c for c in counts if c >= 200])
        ok = ok and found[fname] >= minimum
    report(
        "randomized property suites present at >=200 cases each",
        ok,
        ", ".join(f"{k}:{v}" for k, v in found.items()),
    )
