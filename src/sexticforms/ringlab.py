"""Named-form registry and ring-structure experiments.

Builds the named scalar and vector-valued forms (psi_4, psi_6, chi_10,
chi_12, chi_35, chi_8_8, chi_4_10, chi_6_8, ...) from one registry table.
A normalized form takes its scale from one pin, FourierExpansion.pinned:
one coordinate of one cell set to a fixed value (chi_10 and chi_6_8 at
(1,1) in ``theta``, chi_35 at (2,3) here), so the chi_35 transvectant
chain runs over Z up to its pin.  psi_4 and psi_6 are the Siegel
Eisenstein series, built from their coefficients (``eisenstein``) with
constant term 1; ``eisenstein_report`` checks them against the paper's
construction, nu(B) and nu(-8AB - 3C) / 8.

The module also runs the desk-scale generation checks: ranks of weight-k
monomials in {psi_4, psi_6, chi_10, chi_12} against the generating
function 1/((1-t^4)(1-t^6)(1-t^10)(1-t^12)), and the odd-weight probe that
chi_35 squared falls back into the even subring.  The monomials of all
weights at one truncation come from one ``qexp.evaluate``: the four
generators are packed once, each generator power is built once, and each
monomial is unpacked once.  The evaluation is cut at the truncation N,
the window every rank reads: a cusp factor raises a monomial's natural
window (chi_10^7 lies on [7, 11] at N = 5), and the cells past N are
never formed.  The cusp factors come first: ``arith.evaluate`` orders the
generators by window start, so chi_10^c * chi_12^d is formed on
[c + d, N] before psi_4^a and psi_6^b, dense on [0, N], multiply it.

Rank verdicts are evidence at a truncation, not proofs: a full-rank
result is reported as "consistent with" the expected dimension.  A
weight k is first ranked at max(N, k // 10), read off its weight, and a
weight whose rank falls short there is retried once, one deeper.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from itertools import islice

from . import covariants, linalg, numap, qexp, theta
from .arith import LaurentPoly
from .errors import OddWeight, SexticFormsError, UnknownName
from .qexp import FourierExpansion


class NamedForm:
    """A registry form; ``json_text`` is the JSON text of its expansion,
    keys sorted as the CLI prints it, when it went through the disk cache,
    else None."""

    __slots__ = ("name", "expansion", "json_text")

    def __init__(self, name, expansion, json_text=None):
        self.name = name
        self.expansion = expansion
        self.json_text = json_text

    def __repr__(self):
        return f"NamedForm({self.name!r}, {self.expansion!r})"


def _theta(name):
    """Builder of the theta seed ``name``, looked up when called."""
    return lambda N: getattr(theta, name)(N)


def _nu(covariant, *args):
    """Builder of chi_10 * nu(covariant(*args)) on the window [1, N]."""
    return lambda N: numap.nu_normalized(covariant(*args), 1, N)


def _eisenstein(k):
    """Builder of the Siegel Eisenstein series of weight k; its module is
    imported by the first build."""

    def build(N):
        from . import eisenstein

        return eisenstein.siegel_eisenstein(k, N)

    return build


def _build_chi35(N: int) -> FourierExpansion:
    """chi35 on the window [2, N].  The chain from chi6_8 at max(2, N - 1)
    runs over Z and gives chi10^15 * nu(E) up to scale; one division by
    chi10^13 leaves [2, max(3, N)], where the (2,3) pin fixes the scale,
    cut at N."""
    built = {"f": theta.chi_6_8(max(2, N - 1))}
    for out, left, right, k in covariants.skew_chain_transvectants():
        built[out] = numap.transvectant_expansion(built[left], built[right], k)
    x = built["e0"].exact_div_chi10(13)
    return x.pinned((2, 3), 0, LaurentPoly({1: 8192, -1: -8192})).cut(N)


# the registry, name: (how it is built, builder N -> FourierExpansion)
_REGISTRY = {
    "chi5": ("product of the 10 even theta constants", _theta("chi_5")),
    "chi6_3": ("Sym^6 product of the 6 odd theta gradients", _theta("chi_6_3")),
    "chi10": ("chi5^2, (1,1) coefficient pinned to r - 2 + r^-1", _theta("chi_10")),
    "chi6_8": ("chi5 * chi6_3, (1,1) coefficient vector pinned", _theta("chi_6_8")),
    "psi4": ("Siegel Eisenstein series of weight 4, by Cohen's H", _eisenstein(4)),
    "psi6": ("Siegel Eisenstein series of weight 6, by Cohen's H", _eisenstein(6)),
    "chi12": ("nu(A) * chi10", _nu(covariants.invariant, "A")),
    "chi8_8": ("nu(Hessian) * chi10", _nu(covariants.grace_young, "Hessian")),
    "chi4_10": ("nu(V[8,4]) * chi10", _nu(covariants.grace_young, "V8,4")),
    "chi35": (
        "chi10^2 * nu(E) via the q-side transvectant chain, "
        "(2,3) coefficient pinned to 8192*(r - r^-1)",
        _build_chi35,
    ),
}


def registry_names():
    return sorted(_REGISTRY)


@lru_cache(maxsize=None)
def _build(name: str, N: int) -> FourierExpansion:
    return _REGISTRY[name][1](N)


@lru_cache(maxsize=None)
def _source_digest() -> str:
    """sha256 of the package's own ``*.py`` sources; part of every cache
    key, so entries written by other code are never served."""
    here = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for fname in sorted(os.listdir(here)):
        if fname.endswith(".py"):
            with open(os.path.join(here, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _recipe_hash(name: str, N: int) -> str:
    payload = f"{_source_digest()}|{name}|{N}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _encoded(data) -> str:
    """The JSON text of ``data`` with sorted keys, as the CLI prints it."""
    return json.dumps(data, sort_keys=True)  # the C encoder; json.dump is pure Python


def _read_cached(path: str, digest: str):
    """(expansion, its JSON text) of the entry cached at ``path``, or None
    if the entry is missing, unreadable, corrupt (support outside the cone
    included), written under another key, or edited since: its expansion
    no longer matches the ``expansion_sha256`` stored with it."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if data["recipe_hash"] != digest:
            return None
        text = _encoded(data["expansion"])
        if data["expansion_sha256"] != _sha256(text):
            return None
        return FourierExpansion.from_json(data["expansion"]), text
    except (OSError, ValueError, LookupError, TypeError, AttributeError,
            ArithmeticError, SexticFormsError):
        return None


def named_form(name: str, N: int, cache_dir=None) -> NamedForm:
    key = name.strip().lower().replace(",", "_").replace("-", "_")
    if key not in _REGISTRY:
        raise UnknownName(f"no named form {name!r}")
    path = None
    if cache_dir:
        digest = _recipe_hash(key, N)
        path = os.path.join(cache_dir, f"{key}_{N}_{digest}.json")
        cached = _read_cached(path, digest)
        if cached is not None:
            return NamedForm(key, *cached)
    expansion = _build(key, N)
    text = None
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        text = _encoded(expansion.to_json())
        head = {"recipe_hash": digest, "expansion_sha256": _sha256(text)}
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            # one JSON object whose expansion is the text just hashed
            fh.write(json.dumps(head)[:-1] + ', "expansion": ')
            fh.write(text)
            fh.write("}")
        os.replace(tmp, path)
    return NamedForm(key, expansion, text)


# -- dimensions ---------------------------------------------------------------

GENERATORS = ("psi4", "psi6", "chi10", "chi12")
GENERATOR_WEIGHTS = (4, 6, 10, 12)


def even_dimension(k: int) -> int:
    """Coefficient of t^k in 1/((1-t^4)(1-t^6)(1-t^10)(1-t^12))."""
    if k < 0 or k % 2:
        raise OddWeight("even weights only")
    dp = [1] + [0] * k
    for w in GENERATOR_WEIGHTS:
        for i in range(w, k + 1):
            dp[i] += dp[i - w]
    return dp[k]


def weight_monomials(k: int):
    """Exponent tuples (e4, e6, e10, e12) of weight-k monomials in the
    generators psi4, psi6, chi10, chi12."""
    out = []
    for e12 in range(k // 12 + 1):
        for e10 in range((k - 12 * e12) // 10 + 1):
            rem10 = k - 12 * e12 - 10 * e10
            for e6 in range(rem10 // 6 + 1):
                rem = rem10 - 6 * e6
                if rem % 4 == 0:
                    out.append((rem // 4, e6, e10, e12))
    return out


def _monomials(weights, N: int, cache_dir=None):
    """For each k of ``weights`` in turn, the list of weight-k monomials
    (``weight_monomials``) in psi4, psi6, chi10, chi12 at truncation N,
    all from one packed evaluation (``qexp.evaluate``): each generator
    power is built once for every weight.  The evaluation is cut at N, so
    every monomial lies on [start, N], and one whose start exceeds N is
    zero there, with no cells."""
    gens = [named_form(n, N, cache_dir).expansion for n in GENERATORS]
    exps = [weight_monomials(k) for k in weights]
    forms = qexp.evaluate(gens, [{e: 1} for es in exps for e in es], N)
    for es in exps:
        yield list(islice(forms, len(es)))


def verify_even_generation(k_max: int, N: int, cache_dir=None):
    """Per even weight k <= k_max: rank of the weight-k monomials in the
    four even generators vs. the generating-function dimension.  Weight k
    is first evaluated at truncation max(N, k // 10), as the weight-k
    monomials were measured to reach full rank first at max(1, k // 10)
    for every even k <= 100, and a weight whose rank falls short there is
    retried once, one deeper, at max(N + 1, k // 10 + 1).  Each truncation
    takes one ``_monomials`` call, for the weights due there.  A row's
    ``truncation`` is the last one tried."""
    weights = range(0, k_max + 1, 2)
    first = {k: max(N, k // 10) for k in weights}
    found = {}  # weight: (rank, truncation)
    for n in range(N, max(first.values(), default=N) + 2):
        # rank can only under-count; a short weight is retried one deeper
        due = [
            k for k in weights
            if first[k] == n
            or (first[k] == n - 1 and found[k][0] != even_dimension(k))
        ]
        if due:
            for k, forms in zip(due, _monomials(due, n, cache_dir)):
                found[k] = (qexp.rank_of_span(forms), n)
    report = []
    for k in weights:
        expected = even_dimension(k)
        rank, trunc = found[k]
        report.append(
            {
                "weight": k,
                "expected_dim": expected,
                "rank": rank,
                "truncation": trunc,
                "status": "PASS" if rank == expected else "FAIL",
            }
        )
    return report


def odd_weight_divisibility_check(N: int = 5, chi35_N: int = 3, cache_dir=None):
    """chi_35 probes: cusp (Siegel operator 0), order 1 along the product
    locus, and chi_35^2 lying in the span of the weight-70 even monomials.

    ``weight70_rank`` is the rank of the monomials and ``rank_with_square``
    that rank plus one unless chi_35^2 lies in their span, both read from
    one elimination of the monomials' coefficient rows."""
    x35 = named_form("chi35", chi35_N, cache_dir).expansion
    per, overall = x35.a11_order()
    phi_zero = x35.siegel_phi().is_zero
    (monomials,) = _monomials([70], N, cache_dir)
    square = x35.mul(x35)
    *rows, square_row = qexp.span_matrix(monomials + [square])
    echelon = linalg.echelon(rows)
    base = len(echelon)
    extended = base + (not linalg.in_span(echelon, square_row))
    top = min(m.kN for m in monomials)  # the window the ranks are taken in
    square_nonzero = any(max(key) <= top for key in square.cells)
    return {
        "a11_order": overall,
        "siegel_phi_zero": phi_zero,
        "weight70_monomials": len(monomials),
        "expected_dim": even_dimension(70),
        "truncation": top,
        "weight70_rank": base,
        "rank_with_square": extended,
        "square_visible_in_window": square_nonzero,
        "status": "PASS"
        if (overall == 1 and phi_zero and extended == base and square_nonzero)
        else "FAIL",
    }


def dim_s68_probe(N: int = 3, cache_dir=None):
    """Two independent weight-(6,8) cusp-form constructions compared:
    the theta product chi5*chi6_3 and nu(D*f)/chi10^11."""
    reference = named_form("chi6_8", N, cache_dir).expansion
    d_times_f = covariants.invariant("D") * covariants.universal_sextic()
    other = numap.nu_normalized(d_times_f, 0, N)
    const = qexp.proportionality(other, reference)
    return {
        "constructions": ["chi5 * chi6_3", "nu(D*f) / chi10^11"],
        "proportional": const is not None and const != 0,
        "constant": None if const is None else str(const),
        "status": "PASS" if const not in (None, 0) else "FAIL",
    }


def eisenstein_report(N: int, cache_dir=None):
    """The registry's psi4 and psi6 against the paper's construction on
    [0, N]: nu(B) = psi4 and nu(-8AB - 3C) = 8 * psi6, weight, window and
    every cell; any difference is a FAIL.  Per form, the cells of the
    registry's form and whether the two are equal."""
    report = {"order": N}
    for name, covariant, factor in (
        ("psi4", covariants.invariant("B"), 1),
        ("psi6", covariants.combination_AB_minus_3C(), 8),
    ):
        form = named_form(name, N, cache_dir).expansion
        nu = numap.nu_normalized(covariant, 0, N)
        report[name] = {"cells": len(form.cells), "equal": form.scale(factor) == nu}
    ok = report["psi4"]["equal"] and report["psi6"]["equal"]
    report["status"] = "PASS" if ok else "FAIL"
    return report


def nu_consistency_report(N: int = 2):
    """nu_raw(D) against chi10^11; the constant is reported, not assumed."""
    d = covariants.invariant("D")
    nd = numap.nu_raw(d, N)
    p11 = theta.chi_10(N).pow(11)
    const = qexp.proportionality(nd, p11)
    return {
        "constant": None if const is None else str(const),
        "window_cells": len(nd.cells),
        "status": "PASS" if const not in (None, 0) else "FAIL",
    }
