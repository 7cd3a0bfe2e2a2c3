"""Command-line interface: covariant lookup and inline evaluation, Fourier
expansion of the named forms, and the verification suites.

Each subcommand takes only the options its command reads: covariant
--json; expand --order, --cache, --no-cache, --json; nu --order, --power,
--json; verify --kmax, --order, --prime, --cache, --no-cache, --json,
--no-timestamp.

Exit codes: 0 success / all checks pass, 1 failed check or a division that
leaves a remainder, 2 usage error, printed as one ``error: ...`` line (bad
arguments, an option the subcommand does not take, parse errors, unknown
names, inputs the computation rejects such as odd-order covariants).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import covariants, modp, numap, ringlab
from .covariants import Covariant
from .errors import NotDivisible, ParseError, SexticFormsError, UnknownName
from .poly import SEXTIC_VARS, MultiPoly

CACHE_ENV = "SEXTICFORMS_CACHE"

# frozen display of the weight-(6,8) seed cusp form at truncation 2; the
# chi68-block suite rebuilds the form from theta gradients and compares.
CHI68_GOLDEN = """\
weight (6,8), truncation 2
(1,1): (0, 0, r^-1 - 2 + r, -2*r^-1 + 2*r, r^-1 - 2 + r, 0, 0)
(1,2): (0, 0, -2*r^-2 - 16*r^-1 + 36 - 16*r - 2*r^2, 8*r^-2 + 32*r^-1 - 32*r - 8*r^2, -14*r^-2 + 8*r^-1 + 12 + 8*r - 14*r^2, 12*r^-2 - 24*r^-1 + 24*r - 12*r^2, -4*r^-2 + 16*r^-1 - 24 + 16*r - 4*r^2)
(2,1): (-4*r^-2 + 16*r^-1 - 24 + 16*r - 4*r^2, 12*r^-2 - 24*r^-1 + 24*r - 12*r^2, -14*r^-2 + 8*r^-1 + 12 + 8*r - 14*r^2, 8*r^-2 + 32*r^-1 - 32*r - 8*r^2, -2*r^-2 - 16*r^-1 + 36 - 16*r - 2*r^2, 0, 0)
(2,2): (16*r^-3 - 144*r^-1 + 256 - 144*r + 16*r^3, -72*r^-3 + 216*r^-1 - 216*r + 72*r^3, 128*r^-3 - 256 + 128*r^3, -144*r^-3 - 720*r^-1 + 720*r + 144*r^3, 128*r^-3 - 256 + 128*r^3, -72*r^-3 + 216*r^-1 - 216*r + 72*r^3, 16*r^-3 - 144*r^-1 + 256 - 144*r + 16*r^3)"""


def _int_digit_limit() -> int:
    """The most digits the interpreter converts between int and str, or 0
    where there is no limit (before Python 3.11, or switched off)."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get is not None else 0


# -- inline polynomial parsing ------------------------------------------------


def _is_digit(ch) -> bool:
    # ASCII only: str.isdigit() also accepts superscript digits, which
    # int() refuses
    return "0" <= ch <= "9"


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_op(self, chars):
        ch = self.peek()
        if ch is not None and ch in chars:
            self.pos += 1
            return ch
        return None

    def take_int(self):
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        limit = _int_digit_limit()
        if limit and self.pos - start > limit:
            raise ParseError(
                f"integer literal longer than the interpreter's limit of "
                f"{limit} digits",
                start,
            )
        return int(self.text[start : self.pos])

    def take_name(self):
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start : self.pos]


def parse_polynomial(text: str) -> MultiPoly:
    """Parse +, -, *, /, ^ and parentheses over a0..a6, x1, x2.

    Raises ParseError with the character position on malformed input,
    nesting deeper than the interpreter's recursion limit included;
    division is only allowed by nonzero constants.
    """
    tok = _Tokenizer(text)

    def atom():
        ch = tok.peek()
        if ch is None:
            raise ParseError("unexpected end of input", tok.pos)
        if ch == "(":
            tok.take_op("(")
            inner = expr()
            if not tok.take_op(")"):
                raise ParseError("expected ')'", tok.pos)
            return inner
        if _is_digit(ch):
            return MultiPoly.const(SEXTIC_VARS, tok.take_int())
        if ch.isalpha():
            pos = tok.pos
            name = tok.take_name()
            if name not in SEXTIC_VARS:
                raise ParseError(f"unknown variable {name!r}", pos)
            return MultiPoly.variable(SEXTIC_VARS, name)
        raise ParseError(f"unexpected character {ch!r}", tok.pos)

    def factor():
        sign = 1
        while True:
            if tok.take_op("-"):
                sign = -sign
            elif tok.take_op("+"):
                pass
            else:
                break
        base = atom()
        if tok.take_op("^"):
            base = base**tok.take_int()
        return base if sign == 1 else base.scale(-1)

    def term():
        acc = factor()
        while True:
            if tok.take_op("*"):
                acc = acc * factor()
            elif tok.take_op("/"):
                pos = tok.pos
                div = factor()
                if div.total_degree() != 0 or div.is_zero:
                    raise ParseError(
                        "can only divide by a nonzero constant", pos
                    )
                acc = acc.scale(Fraction(1) / Fraction(div.coefficient()))
            else:
                return acc

    def expr():
        acc = term()
        while True:
            ch = tok.peek()
            if ch == "+":
                tok.take_op("+")
                acc = acc + term()
            elif ch == "-":
                tok.take_op("-")
                acc = acc - term()
            else:
                return acc

    try:
        result = expr()
    except RecursionError:
        raise ParseError("parentheses nested too deeply", tok.pos) from None
    if tok.peek() is not None:
        raise ParseError(f"trailing input {tok.peek()!r}", tok.pos)
    return result


def covariant_from_text(text: str) -> Covariant:
    """Resolve a catalog name, falling back to inline polynomial parsing."""
    try:
        return covariants.resolve(text)
    except UnknownName:
        pass
    poly = parse_polynomial(text)
    a_vars = SEXTIC_VARS[:7]
    x_vars = SEXTIC_VARS[7:]
    degree = poly.homogeneous_degree_on(a_vars)
    order = poly.homogeneous_degree_on(x_vars)
    if degree is None or order is None:
        raise ParseError("polynomial is not bihomogeneous", 0)
    return Covariant(poly, degree, order)


# -- commands -----------------------------------------------------------------


def _cache_dir(args):
    if args.no_cache:
        return None
    path = args.cache or os.environ.get(CACHE_ENV)
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:  # a regular file, or a path through one
            raise SystemExit2(
                f"cannot use {path!r} as the cache directory: {exc.strerror}"
            ) from None
    return path


def _emit(args, text, data, encoded=None):
    """Print ``data()`` as JSON under --json, or its JSON text ``encoded``
    when given, else ``text()``; only the format asked for is built.  A
    result holding an integer past the interpreter's limit for int-to-str
    conversion is a usage error."""
    try:
        out = (encoded or json.dumps(data(), sort_keys=True)) if args.json else text()
    except ValueError:
        limit = _int_digit_limit()
        if not limit:
            raise
        raise SystemExit2(
            f"the result holds an integer of more than {limit} digits, the "
            "interpreter's limit for printing one"
        ) from None
    print(out)


def cmd_covariant(args) -> int:
    cov = covariant_from_text(args.name)
    _emit(
        args,
        lambda: f"degree {cov.degree}, order {cov.order}\n{cov.poly.to_text()}",
        lambda: {
            "degree": cov.degree,
            "order": cov.order,
            "polynomial": cov.poly.to_json(),
        },
    )
    return 0


def cmd_expand(args) -> int:
    form = ringlab.named_form(args.name, args.order, _cache_dir(args))
    _emit(args, form.expansion.to_text, form.expansion.to_json, form.json_text)
    return 0


def cmd_nu(args) -> int:
    cov = covariant_from_text(args.name)
    if cov.is_zero:
        raise SystemExit2("the zero polynomial has no nu-image")
    numap.weight_of_covariant(cov.degree, cov.order)  # rejects odd orders
    if not covariants.is_covariant(cov.poly):
        raise SystemExit2("the polynomial is not a covariant of the sextic")
    if args.power is not None and not 0 <= args.power <= cov.degree:
        raise SystemExit2(
            f"--power must lie between 0 and the degree {cov.degree}"
        )
    power = (
        args.power
        if args.power is not None
        else numap.minimal_chi10_power(cov)
    )
    # nu is linear: evaluate the integer primitive part, print times content
    content = cov.poly.content()
    expansion = numap.nu_normalized(cov.scale(1 / content), power, args.order)
    _emit(
        args,
        lambda: (
            f"chi_10^{power} * nu(covariant), degree {cov.degree}, "
            f"order {cov.order}\n{expansion.to_text(content)}"
        ),
        lambda: {
            "chi10_power": power,
            "degree": cov.degree,
            "order": cov.order,
            "expansion": expansion.to_json(content),
        },
    )
    return 0


def _suite_even_ring(args):
    if args.kmax < 0:
        raise SystemExit2("--kmax must be at least 0")
    rows = ringlab.verify_even_generation(
        args.kmax, max(args.order, 3), _cache_dir(args)
    )
    lines = [
        f"k={r['weight']:>2}  dim={r['expected_dim']:>2}  "
        f"rank={r['rank']:>2}  {r['status']}"
        for r in rows
    ]
    ok = all(r["status"] == "PASS" for r in rows)
    return ok, "\n".join(lines), {"suite": "even-ring", "rows": rows}


def _suite_chi68_block(args):
    got = ringlab.named_form("chi6_8", 2, _cache_dir(args)).expansion.to_text()
    ok = got == CHI68_GOLDEN
    text = "chi6_8 block matches the frozen expansion" if ok else (
        "chi6_8 block MISMATCH\n--- expected ---\n"
        + CHI68_GOLDEN
        + "\n--- got ---\n"
        + got
    )
    return ok, text, {"suite": "chi68-block", "match": ok}


def _reported(suite, report, text=json.dumps, **extra):
    """(ok, text, payload) of a suite that returns one report: ok when its
    status is PASS, ``text(report)`` for the text output, and the report
    with any ``extra`` keys as the JSON payload."""
    ok = report["status"] == "PASS"
    return ok, text(report), {"suite": suite, "report": report, **extra}


def _suite_char2(args):
    return _reported(
        "char2-K", modp.verify_char2_suite(),
        lambda rep: "\n".join(f"{k}: {v}" for k, v in rep.items()),
    )


def _suite_char3(args):
    return _reported(
        "char3", modp.verify_char3_suite(), lambda rep: json.dumps(rep, indent=2)
    )


def _suite_modp(args):
    if args.prime is None:
        raise SystemExit2("suite modp requires --prime")
    rep = modp.modp_invariance_check(args.prime)
    return _reported("modp", rep, prime=args.prime)


def _suite_odd_weight(args):
    # chi35 on [2, M] squares to [4, M + 2]: M = N - 2 reaches the rank
    # window, and at N = 7 the weight-70 monomials reach full rank 73
    rep = ringlab.odd_weight_divisibility_check(
        max(args.order, 7), max(args.order - 2, 5), _cache_dir(args)
    )
    return _reported("odd-weight", rep)


def _suite_s68(args):
    return _reported("s68", ringlab.dim_s68_probe(cache_dir=_cache_dir(args)))


def _suite_nu(args):
    return _reported("nu", ringlab.nu_consistency_report())


def _suite_eisenstein(args):
    return _reported(
        "eisenstein", ringlab.eisenstein_report(args.order, _cache_dir(args))
    )


_SUITES = {
    "even-ring": _suite_even_ring,
    "chi68-block": _suite_chi68_block,
    "char2-K": _suite_char2,
    "char3": _suite_char3,
    "modp": _suite_modp,
    "odd-weight": _suite_odd_weight,
    "s68": _suite_s68,
    "nu": _suite_nu,
    "eisenstein": _suite_eisenstein,
}

_QUICK_SUITES = ("chi68-block", "char2-K", "char3", "nu")


class SystemExit2(SexticFormsError):
    """Usage error raised from inside a command."""


def cmd_verify(args) -> int:
    names = _QUICK_SUITES if args.suite == "quick" else (args.suite,)
    if args.suite == "all":
        names = tuple(n for n in _SUITES if n != "modp" or args.prime)
    all_ok = True
    for name in names:
        if name not in _SUITES:
            raise SystemExit2(
                f"unknown suite {name!r}; choose from "
                + ", ".join(sorted(_SUITES) + ["quick", "all"])
            )
        ok, text, payload = _SUITES[name](args)
        all_ok = all_ok and ok
        if args.json:
            payload["status"] = "PASS" if ok else "FAIL"
            if not args.no_timestamp:
                payload["timestamp"] = int(time.time())
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"[{name}] {'PASS' if ok else 'FAIL'}")
            print(text)
    return 0 if all_ok else 1


# -- entry point ---------------------------------------------------------------


# every option a subcommand may take; _COMMAND_OPTIONS names the ones each
# subcommand reads, and argparse refuses any other as a usage error
_OPTIONS = {
    "--order": dict(
        type=int, default=2, metavar="N", help="truncation order (default 2)"
    ),
    "--power": dict(
        type=int,
        default=None,
        metavar="M",
        help="chi_10 power to keep (default: minimal holomorphic)",
    ),
    "--kmax": dict(type=int, default=20),
    "--prime": dict(type=int, default=None, metavar="P"),
    "--cache": dict(default=None, metavar="DIR"),
    "--no-cache": dict(action="store_true"),
    "--json": dict(action="store_true"),
    "--no-timestamp": dict(
        action="store_true", help="omit the timestamp field from JSON reports"
    ),
}

_COMMAND_OPTIONS = {
    "covariant": ("--json",),
    "expand": ("--order", "--cache", "--no-cache", "--json"),
    "nu": ("--order", "--power", "--json"),
    "verify": (
        "--kmax", "--order", "--prime", "--cache", "--no-cache", "--json",
        "--no-timestamp",
    ),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one ``error: ...`` line,
    exit code 2; its subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: it reads only the
    static option tables."""
    parser = _Parser(
        prog="sexticforms",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help_text, positional, **positional_kw):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(positional, **positional_kw)
        for option in _COMMAND_OPTIONS[name]:
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)

    command("covariant", cmd_covariant, "print a catalog or inline covariant", "name")
    command(
        "expand", cmd_expand, "Fourier expansion of a named form", "name",
        help="one of: " + ", ".join(ringlab.registry_names()),
    )
    command("nu", cmd_nu, "expansion of the nu-image of a covariant", "name")
    command(
        "verify", cmd_verify, "run a verification suite", "suite",
        help="one of: " + ", ".join(sorted(_SUITES) + ["quick", "all"]),
    )
    return parser


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    args = parser.parse_args(argv)
    # --order and --prime are checked on the subcommands that take them
    if getattr(args, "order", 1) < 1:
        parser.error("truncation order must be >= 1")
    prime = getattr(args, "prime", None)
    try:
        if prime is not None and not modp.is_prime(prime):
            parser.error(f"{prime} is not prime")
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return args.func(args)
    except NotDivisible as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SexticFormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
