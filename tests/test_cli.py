import hashlib
import json
import os

import pytest

from sexticforms import cli
from sexticforms.errors import ParseError
from sexticforms.qexp import FourierExpansion

# 0 where the interpreter has no limit on int <-> str conversion
_DIGIT_LIMIT = cli._int_digit_limit()
# 2^20000 has 6021 digits
_BIG_UNPRINTABLE = 0 < _DIGIT_LIMIT < 6021

BENCH_REF = os.path.join(
    os.path.dirname(__file__), "..", "perfbench", "refs", "cli-symbolic.json"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_polynomial_round_trip():
    p = cli.parse_polynomial("120*a0*a6 - 20*a1*a5 + 8*a2*a4 - 3*a3^2")
    assert p.to_text() == "120*a0*a6 - 20*a1*a5 + 8*a2*a4 - 3*a3^2"


def test_parse_polynomial_features():
    assert cli.parse_polynomial("(a0 + a1)^2 / 2").coefficient(a0=1, a1=1) == 1
    with pytest.raises(ParseError):
        cli.parse_polynomial("a0 +")
    with pytest.raises(ParseError):
        cli.parse_polynomial("a9")
    with pytest.raises(ParseError):
        cli.parse_polynomial("a0 / a1")


def test_covariant_name(capsys):
    code, out, _ = run(capsys, "covariant", "A")
    assert code == 0
    assert "120*a0*a6 - 20*a1*a5 + 8*a2*a4 - 3*a3^2" in out


def test_covariant_catalog_entry(capsys):
    code, out, _ = run(capsys, "covariant", "C2,0")
    assert code == 0
    assert out.startswith("degree 2, order 0")


def test_covariant_inline(capsys):
    code, out, _ = run(capsys, "covariant", "a0*a6 - a3^2")
    assert code == 0
    assert "degree 2, order 0" in out


def test_covariant_malformed(capsys):
    code, _, err = run(capsys, "covariant", "a0 + + *")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("name", ["D", "E"])
def test_covariant_json_matches_benchmark_ref(capsys, name):
    # the one full pin of D's and E's polynomials: the benchmark's reference
    code, out, _ = run(capsys, "covariant", name, "--json")
    assert code == 0
    with open(BENCH_REF) as fh:
        assert json.loads(out) == json.load(fh)[f"covariant {name}"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("a0^", "expected an integer"),
        ("(a0", "expected ')'"),
        ("a0 a1", "trailing input"),
        ("a0 + x1", "not bihomogeneous"),
    ],
)
def test_covariant_parse_errors(capsys, text, message):
    code, _, err = run(capsys, "covariant", text)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_verify_quick_matches_benchmark_ref(capsys):
    # chi68-block, char2-K, char3 and nu (which builds D) through the CLI
    code, out, _ = run(capsys, "verify", "quick", "--json", "--no-timestamp")
    assert code == 0
    with open(BENCH_REF) as fh:
        ref = json.load(fh)["verify quick"]
    assert [json.loads(line) for line in out.splitlines()] == ref


def test_expand_chi68_matches_golden_text(capsys):
    code, out, _ = run(capsys, "expand", "chi6_8", "--order", "2")
    assert code == 0
    assert out == cli.CHI68_GOLDEN + "\n"


def test_expand_chi68_matches_golden_json(capsys):
    code, out, _ = run(capsys, "expand", "chi6_8", "--order", "2", "--json")
    assert code == 0
    assert FourierExpansion.from_json(json.loads(out)).to_text() == cli.CHI68_GOLDEN


def test_expand_chi10_pin(capsys):
    code, out, _ = run(capsys, "expand", "chi10", "--order", "2")
    assert code == 0
    assert "(1,1): r^-1 - 2 + r" in out


def test_expand_unknown_name(capsys):
    code, _, err = run(capsys, "expand", "nosuch")
    assert code == 2
    assert "nosuch" in err


def test_expand_uses_cache(tmp_path, capsys):
    code, out1, _ = run(
        capsys, "expand", "chi10", "--order", "2", "--cache", str(tmp_path)
    )
    assert code == 0
    assert list(tmp_path.iterdir())
    code, out2, _ = run(
        capsys, "expand", "chi10", "--order", "2", "--cache", str(tmp_path)
    )
    assert out1 == out2


def test_expand_json_is_encoded_once(tmp_path, capsys, monkeypatch):
    # the cache entry's text is what --json prints: a cold run encodes the
    # expansion once, for both, and a warm run prints the entry's text
    argv = ["expand", "chi6_3", "--order", "2", "--json"]
    _, plain, _ = run(capsys, *argv, "--no-cache")
    encoded, to_json = [], FourierExpansion.to_json
    monkeypatch.setattr(
        FourierExpansion, "to_json",
        lambda self, *a: encoded.append(1) or to_json(self, *a),
    )
    _, cold, _ = run(capsys, *argv, "--cache", str(tmp_path))
    _, warm, _ = run(capsys, *argv, "--cache", str(tmp_path))
    assert cold == warm == plain
    assert len(encoded) == 1


def test_nu_command(capsys):
    code, out, _ = run(capsys, "nu", "A", "--order", "2")
    assert code == 0
    assert "chi_10^1" in out and "weight (0,12)" in out


def test_nu_of_constant(capsys):
    code, out, _ = run(capsys, "nu", "3", "--order", "2")
    assert code == 0
    assert "weight (0,0), truncation 2" in out and "(0,0): 3" in out


def test_nu_not_divisible(capsys):
    for name in ("A", "Hessian", "V8,4"):
        code, out, err = run(capsys, "nu", name, "--order", "2", "--power", "0")
        assert code == 1
        assert out == ""
        assert err == "error: Laurent division leaves a remainder\n"


def test_verify_chi68_block(capsys):
    code, out, _ = run(capsys, "verify", "chi68-block")
    assert code == 0
    assert "[chi68-block] PASS" in out


def test_verify_char2(capsys):
    code, out, _ = run(capsys, "verify", "char2-K")
    assert code == 0
    assert "[char2-K] PASS" in out


def test_verify_even_ring_json_deterministic(capsys):
    code, out1, _ = run(
        capsys, "verify", "even-ring", "--kmax", "12", "--json", "--no-timestamp"
    )
    assert code == 0
    code, out2, _ = run(
        capsys, "verify", "even-ring", "--kmax", "12", "--json", "--no-timestamp"
    )
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["status"] == "PASS"
    assert "timestamp" not in payload


def test_verify_even_ring_uses_cache(tmp_path, capsys):
    argv = ["verify", "even-ring", "--kmax", "4", "--json", "--no-timestamp"]
    code, plain, _ = run(capsys, *argv)
    assert code == 0
    code, cached, _ = run(capsys, *argv, "--cache", str(tmp_path))
    assert code == 0
    assert list(tmp_path.iterdir())
    assert cached == plain


def test_verify_odd_weight_json(tmp_path, capsys):
    code, out, _ = run(
        capsys, "verify", "odd-weight", "--json", "--no-timestamp",
        "--cache", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "PASS"
    rep = payload["report"]
    assert rep["weight70_rank"] == rep["rank_with_square"] == 73
    assert rep["expected_dim"] == 73
    assert rep["truncation"] == 7


def test_verify_odd_weight_reads_the_order(tmp_path, capsys):
    # generators at order 8 and chi35 at 6, whose square reaches the window
    code, out, _ = run(
        capsys, "verify", "odd-weight", "--order", "8", "--json",
        "--no-timestamp", "--cache", str(tmp_path),
    )
    rep = json.loads(out)["report"]
    assert rep["truncation"] == 8
    assert rep["weight70_rank"] == 73
    assert rep["expected_dim"] == 73
    assert rep["square_visible_in_window"]


@pytest.mark.parametrize(
    "argv, corrupt, code, message",
    [
        (["nu", "a0*x1"], None, 2, "order must be even"),
        (["nu", "A", "--power", "5"], None, 2, "--power"),
        (["nu", "0"], None, 2, "zero polynomial"),
        # a cache entry cut short, and one that lost its expansion
        (["expand", "chi10"], lambda good: good[: len(good) // 2], 0, None),
        (
            ["expand", "chi10"],
            lambda good: json.dumps({"recipe_hash": json.loads(good)["recipe_hash"]}),
            0,
            None,
        ),
        (["nu", "a0"], None, 2, "not a covariant"),
        (["verify", "even-ring", "--kmax", "-4"], None, 2, "--kmax"),
        # "file": the cache path names a regular file
        (["expand", "chi10"], "file", 2, "cache directory"),
        # an r-exponent outside the cone at (1,1), under the right key
        (["expand", "chi10"], lambda good: _with_term(good, (1, 1), "9", "1"), 0, None),
        # a rational coefficient at (1,1), under the right key
        (["expand", "chi10"], lambda good: _with_term(good, (1, 1), "1", "1/2"), 0, None),
        # a truncation raised past the cells the entry holds, under the right key
        (["expand", "chi10"], lambda good: _with_truncation(good, 3), 0, None),
        # nesting past the recursion limit is a parse error, not a traceback
        (["nu", "(" * 300 + "a0" + ")" * 300], None, 2, "nested too deeply"),
        # a cell at negative indices, inside the cone, under the right key
        (["expand", "chi10"], lambda good: _with_negative_cell(good), 0, None),
        # digits that str.isdigit() accepts and int() refuses
        (["covariant", "a0^\u00b2"], None, 2, "expected an integer (at position 3)"),
        (["covariant", "\u00b2*a0"], None, 2, "unexpected character"),
        # past the interpreter's limit for int <-> str conversion, where it has one
        (["covariant", "1" * (_DIGIT_LIMIT or 4300) + "1*a0"], None,
         2 if _DIGIT_LIMIT else 0, "integer literal longer" if _DIGIT_LIMIT else None),
        (["covariant", "2^20000*a0"], None,
         2 if _BIG_UNPRINTABLE else 0, "digits" if _BIG_UNPRINTABLE else None),
        (["nu", "2^20000"], None,
         2 if _BIG_UNPRINTABLE else 0, "digits" if _BIG_UNPRINTABLE else None),
        # mistyped fields under the right key: a string for the character,
        # a float start, float indices
        (["expand", "chi10"], lambda good: _with_field(good, "character", "no"), 0, None),
        (["expand", "chi10"], lambda good: _with_field(good, "start", 0.5), 0, None),
        (["expand", "chi10"], lambda good: _with_index(good, (1, 1), [1.0, 1.0]), 0, None),
    ],
)
def test_bad_input_exit_codes(tmp_path, capsys, argv, corrupt, code, message):
    cache = tmp_path
    if corrupt == "file":
        cache = tmp_path / "file"
        cache.write_text("")
        corrupt = None
    # each subcommand takes only the options it reads
    if argv[0] in ("expand", "nu", "verify"):
        argv = argv + ["--order", "2"]
    if argv[0] in ("expand", "verify"):
        argv = argv + ["--cache", str(cache)]
    if corrupt is not None:
        run(capsys, *argv)
        (entry,) = tmp_path.iterdir()
        good = entry.read_text()
        entry.write_text(corrupt(good))
    got, out, err = run(capsys, *argv)
    assert got == code
    if message is not None:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
    if corrupt is not None:
        # a corrupt entry is a cache miss, and the rebuilt form replaces it
        assert "(1,1): r^-1 - 2 + r\n" in out
        assert entry.read_text() == good


def _signed(data):
    """The entry text of ``data`` with the digest of its expansion
    recomputed, so that only the checks of the expansion itself can
    reject it."""
    text = json.dumps(data["expansion"], sort_keys=True)
    data["expansion_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return json.dumps(data)


def _with_term(entry_text, key, exponent, coeff):
    """A cache entry with one more term in coordinate 0 of cell ``key``,
    its digest recomputed."""
    data = json.loads(entry_text)
    for cell in data["expansion"]["coeffs"]:
        if tuple(cell["n"]) == key:
            cell["vec"][0][exponent] = coeff
    return _signed(data)


def _with_negative_cell(entry_text):
    """A cache entry whose expansion starts at -1 and holds 5 at the cell
    (-1, -1), its digest recomputed."""
    data = json.loads(entry_text)
    data["expansion"]["start"] = -1
    data["expansion"]["coeffs"].insert(0, {"n": [-1, -1], "vec": [{"0": "5"}]})
    return _signed(data)


def _with_field(entry_text, field, value):
    """A cache entry whose expansion's ``field`` is ``value``, its digest
    recomputed."""
    data = json.loads(entry_text)
    data["expansion"][field] = value
    return _signed(data)


def _with_index(entry_text, key, index):
    """A cache entry whose cell ``key`` is written at ``index``, its digest
    recomputed."""
    data = json.loads(entry_text)
    for cell in data["expansion"]["coeffs"]:
        if tuple(cell["n"]) == key:
            cell["n"] = index
    return _signed(data)


def _with_truncation(entry_text, kN):
    """A cache entry whose expansion claims the truncation kN, its digest
    left as written."""
    data = json.loads(entry_text)
    data["expansion"]["truncation"] = kN
    return json.dumps(data)


def test_cache_entry_under_another_key_is_rebuilt(tmp_path, capsys):
    argv = ["expand", "chi10", "--order", "2", "--cache", str(tmp_path)]
    run(capsys, *argv)
    (entry,) = tmp_path.iterdir()
    good = entry.read_text()
    data = json.loads(good)
    data["recipe_hash"] = "0" * 16
    data["expansion"]["coeffs"] = []  # would print no cells if served
    entry.write_text(json.dumps(data))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "(1,1): r^-1 - 2 + r\n" in out
    assert entry.read_text() == good


def _nu_payload(power, degree, order, weight, n, vec):
    """The ``nu --json`` payload of a one-cell expansion at cell (n, n)."""
    return {
        "chi10_power": power, "degree": degree, "order": order,
        "expansion": {
            "character": False, "coeffs": [{"n": [n, n], "vec": vec}],
            "start": n, "truncation": n, "weight": weight,
        },
    }


@pytest.mark.parametrize(
    "name, order, text, payload",
    [
        (
            "C2,0",
            "1",
            "chi_10^1 * nu(covariant), degree 2, order 0\n"
            "weight (0,12), truncation 1\n"
            "(1,1): -1/15*r^-1 - 2/3 - 1/15*r\n",
            _nu_payload(1, 2, 0, [0, 12], 1, [{"-1": "-1/15", "0": "-2/3", "1": "-1/15"}]),
        ),
        (
            "C2,4",
            "1",
            "chi_10^1 * nu(covariant), degree 2, order 4\n"
            "weight (4,10), truncation 1\n"
            "(1,1): (2/75*r^-1 - 4/75 + 2/75*r, -4/75*r^-1 + 4/75*r, "
            "2/25*r^-1 + 12/25 + 2/25*r, -4/75*r^-1 + 4/75*r, "
            "2/75*r^-1 - 4/75 + 2/75*r)\n",
            _nu_payload(1, 2, 4, [4, 10], 1, [
                {"-1": "2/75", "0": "-4/75", "1": "2/75"},
                {"-1": "-4/75", "1": "4/75"},
                {"-1": "2/25", "0": "12/25", "1": "2/25"},
                {"-1": "-4/75", "1": "4/75"},
                {"-1": "2/75", "0": "-4/75", "1": "2/75"},
            ]),
        ),
        (
            "C3,2",
            "2",
            "chi_10^2 * nu(covariant), degree 3, order 2\n"
            "weight (2,22), truncation 2\n"
            "(2,2): (2/1125*r^-2 + 16/1125*r^-1 - 4/125 + 16/1125*r + 2/1125*r^2, "
            "-2/1125*r^-2 - 28/225*r^-1 + 28/225*r + 2/1125*r^2, "
            "2/1125*r^-2 + 16/1125*r^-1 - 4/125 + 16/1125*r + 2/1125*r^2)\n",
            _nu_payload(2, 3, 2, [2, 22], 2, [
                {"-2": "2/1125", "-1": "16/1125", "0": "-4/125", "1": "16/1125", "2": "2/1125"},
                {"-2": "-2/1125", "-1": "-28/225", "1": "28/225", "2": "2/1125"},
                {"-2": "2/1125", "-1": "16/1125", "0": "-4/125", "1": "16/1125", "2": "2/1125"},
            ]),
        ),
    ],
    ids=["C2,0", "C2,4", "C3,2"],
)
def test_nu_json_with_rational_coefficients(capsys, name, order, text, payload):
    # the series are integral; the covariant's rational content is applied
    # as they are printed
    assert run(capsys, "nu", name, "--order", order) == (0, text, "")
    code, out, _ = run(capsys, "nu", name, "--order", order, "--json")
    assert code == 0 and json.loads(out) == payload


@pytest.mark.parametrize("name, order", [("B", "2"), ("D", "1"), ("C3,2", "1")])
def test_nu_truncation_is_the_order(capsys, name, order):
    # chi_10^m * nu(c) lies on [m, order], whatever its chi_10 power m
    code, out, _ = run(capsys, "nu", name, "--order", order)
    assert code == 0
    assert out.splitlines()[1].endswith(f", truncation {order}")


def test_covariant_of_a_high_power(capsys):
    # the power is formed in log2(5000) nested steps, not 5000
    code, out, _ = run(capsys, "covariant", "a0^5000")
    assert code == 0 and out == "degree 5000, order 0\na0^5000\n"


def test_expand_half_integral_lattice(capsys):
    # chi5 lives on the half-integral lattice: keys and labels in halves
    code, text, _ = run(capsys, "expand", "chi5", "--order", "2")
    assert code == 0
    assert text.splitlines()[:2] == [
        "weight (0,5) with character, truncation 2",
        "(1/2,1/2): 64*r^-1 - 64*r",
    ]
    code, out, _ = run(capsys, "expand", "chi5", "--order", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["denominator"] == 2 and data["truncation"] == "2"
    e = FourierExpansion.from_json(data)
    assert (e.denom, e.kN, e.character) == (2, 4, True)
    assert e.to_json() == data
    assert e.to_text() + "\n" == text


def test_verify_s68_json(capsys):
    code, out, _ = run(capsys, "verify", "s68", "--json", "--no-timestamp")
    assert code == 0
    assert json.loads(out) == {
        "suite": "s68",
        "status": "PASS",
        "report": {
            "constant": "4096",
            "constructions": ["chi5 * chi6_3", "nu(D*f) / chi10^11"],
            "proportional": True,
            "status": "PASS",
        },
    }


def test_verify_eisenstein_json(capsys):
    code, out, _ = run(
        capsys, "verify", "eisenstein", "--order", "2", "--json", "--no-timestamp"
    )
    assert code == 0
    assert json.loads(out) == {
        "suite": "eisenstein",
        "status": "PASS",
        "report": {
            "order": 2,
            "psi4": {"cells": 9, "equal": True},
            "psi6": {"cells": 9, "equal": True},
            "status": "PASS",
        },
    }


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2


def test_each_subcommand_takes_the_options_it_reads():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    got = {
        name: sorted(
            opt for a in p._actions if a.dest != "help" for opt in a.option_strings
        )
        for name, p in sub.choices.items()
    }
    assert got == {
        "covariant": ["--json"],
        "expand": ["--cache", "--json", "--no-cache", "--order"],
        "nu": ["--json", "--order", "--power"],
        "verify": [
            "--cache", "--json", "--kmax", "--no-cache", "--no-timestamp",
            "--order", "--prime",
        ],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["covariant", "A", "--order", "2"],
        ["covariant", "A", "--prime", "5"],
        ["covariant", "A", "--cache", "DIR"],
        ["covariant", "A", "--no-cache"],
        ["covariant", "A", "--no-timestamp"],
        ["expand", "chi10", "--prime", "5"],
        ["expand", "chi10", "--no-timestamp"],
        ["nu", "A", "--prime", "5"],
        ["nu", "A", "--cache", "DIR"],
        ["nu", "A", "--no-cache"],
        ["nu", "A", "--no-timestamp"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[2]}",
)
def test_an_option_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[2:]) in capsys.readouterr().err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["expand", "chi10", "--order", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "modp", "--prime", "6"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (["covariant", "A", "--order", "2"], "unrecognized arguments: --order 2"),
        (["expand", "chi10", "--order", "0"], "truncation order must be >= 1"),
        (["verify", "modp", "--prime", "6"], "6 is not prime"),
    ],
    ids=["argparse", "order", "prime"],
)
def test_a_usage_error_is_one_error_line(capsys, argv, message):
    # argparse's own errors and main's checks alike: no usage line
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_prime_past_the_decided_range(capsys):
    # 318665857834031151167461 passes Miller-Rabin to every base up to 37
    # but is 399165290221 * 798330580441
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "modp", "--prime", "318665857834031151167461"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "only decided below" in err


def test_verify_modp_requires_prime(capsys):
    code, _, err = run(capsys, "verify", "modp")
    assert code == 2
    code, out, _ = run(capsys, "verify", "modp", "--prime", "5")
    assert code == 0
