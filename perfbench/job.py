"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/job.py '<spec json>'

The parent (run.py) starts this script with PYTHONPATH pointing at the
checkout's ``src``.  The script imports the package (every layer, through
``sexticforms.cli``), prints ``ready``, runs the job the spec names and
prints one JSON result line.  The parent times both lines from outside:
spawn to ``ready`` is set-up, ``ready`` to the result is the job.

Modes:
  probe  import only (a set-up sample)
  fill   fill a weight70-warm disk cache through the CLI, each form
         checked against its reference (chi35 at order 3 is the q-side
         transvectant chain build)
  job    the workload's operations, each checked against the stored
         reference (tracing off)
  trace  the same inputs, calling the layers bottom-up with a span around
         every call; its outputs are compared with saved untraced outputs.
         ``recipes`` names the traced recipes in order (weight70-warm's
         traced run also traces the chi35 build of its set-up)

A job result is {"ops": [[name, failed, correct, note], ...]}.  An
operation fails if it raises, exits non-zero, returns a FAIL verdict or
disagrees with the reference; it is correct if its output (verdict
included) matches the reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from fractions import Fraction

import sexticforms.cli as cli
from sexticforms import covariants, modp, numap, qexp, ringlab, theta
from sexticforms.qexp import FourierExpansion

HERE = os.path.dirname(os.path.abspath(__file__))

CHI35_ARGV = ["expand", "chi35", "--order", "3", "--json", "--no-cache"]
NU_ORDER = 5  # also weight70-warm's generator order: the fill checks them
CLI_ARGVS = {
    "covariant D": ["covariant", "D", "--json"],
    "covariant E": ["covariant", "E", "--json"],
    "verify quick": ["verify", "quick", "--json", "--no-timestamp"],
}
PRIMES = (2, 3, 5, 7, 11, 13)
W70_N, W70_CHI35_N = 5, 3
W70_GENERATORS = ("psi4", "psi6", "chi10", "chi12")
# ringlab recipes of the nu-registry forms built from a covariant:
# name -> (covariant function, its arguments, chi10 power kept, offset of the
# nu_raw truncation over the requested one)
NU_RECIPES = {
    "psi4": (covariants.invariant, ("B",), 0, 1),
    "psi6": (covariants.combination_AB_minus_3C, (), 0, 1),
    "chi12": (covariants.invariant, ("A",), 1, 0),
    "chi8_8": (covariants.grace_young, ("Hessian",), 1, 0),
    "chi4_10": (covariants.grace_young, ("V8,4",), 1, 0),
}
THETA_SEEDS = {
    "chi5": theta.chi_5,
    "chi6_3": theta.chi_6_3,
    "chi10": theta.chi_10,
    "chi6_8": theta.chi_6_8,
}
# Forms the traced recipe leaves unnormalized; compared up to a constant.
SCALED = {"chi35", "psi6"}


def load_ref(workload):
    with open(os.path.join(HERE, "refs", f"{workload}.json")) as fh:
        return json.load(fh)


def run_cli(argv):
    """cli.main with stdout captured: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def expansion_of(text):
    return FourierExpansion.from_json(json.loads(text))


def agrees(got, ref, scaled=False):
    """Exact agreement on the common window (up to a nonzero constant when
    ``scaled``), and not vacuous: the common window holds a nonzero cell."""
    top, lo = min(got.kN, ref.kN), min(got.start, ref.start)
    if not any(lo <= min(k) and max(k) <= top for k in ref.cells):
        return False
    if scaled:
        const = qexp.proportionality(got, ref)
        return const is not None and const != 0
    return got.agrees_with(ref)


def window(e, N):
    """The expansion cut down to truncation N."""
    cells = {k: v for k, v in e.cells.items() if max(k) <= N}
    return FourierExpansion(
        e.weight, e.character, N, cells, e.start, e.denom, validate=False
    )


class Ops:
    """Runs named operations and records [name, failed, correct, note]."""

    def __init__(self):
        self.rows = []
        self.outputs = {}

    def run(self, name, fn, check):
        """``fn()`` gives the output; ``check(output)`` gives (failed,
        correct, note).  A raise counts as failed and incorrect."""
        try:
            out = fn()
            failed, correct, note = check(out)
        except Exception as exc:  # one bad operation must not stop the job
            self.rows.append([name, True, False, f"{type(exc).__name__}: {exc}"])
            return None
        self.rows.append([name, failed, correct, note])
        self.outputs[name] = out
        return out


def verdict(ok, note=""):
    return (not ok, ok, note)


def check_cli_expansion(ref, golden=None):
    """Exit code 0 and agreement with the reference; with ``golden``, the
    truncation-2 display must also equal that text."""
    def check(out):
        code, text = out
        if code != 0:
            return (True, False, f"exit {code}")
        got = expansion_of(text)
        ok = agrees(got, FourierExpansion.from_json(ref))
        if golden is not None:
            ok = ok and window(got, 2).to_text() == golden
        return verdict(ok)
    return check


# -- untraced jobs --------------------------------------------------------------


def job_nu_registry(spec, ops, ref):
    for name in sorted(ref):
        argv = ["expand", name, "--order", str(NU_ORDER), "--json",
                "--cache", spec["cache_dir"]]
        golden = cli.CHI68_GOLDEN if name == "chi6_8" else None
        ops.run(f"expand {name}", lambda argv=argv: run_cli(argv),
                check_cli_expansion(ref[name], golden))


def check_w70(ref):
    def check(rep):
        same = all(rep[k] == ref[k] for k in (
            "a11_order", "siegel_phi_zero", "weight70_monomials",
            "square_visible_in_window", "status"))
        square_in_span = rep["rank_with_square"] == rep["weight70_rank"]
        ok = same and square_in_span
        return verdict(ok, f"rank {rep['weight70_rank']}")
    return check


def job_weight70(spec, ops, ref):
    ops.run(
        "odd_weight_divisibility_check",
        lambda: ringlab.odd_weight_divisibility_check(
            N=W70_N, chi35_N=W70_CHI35_N, cache_dir=spec["cache_dir"]),
        check_w70(ref),
    )


def check_cli_json(ref):
    def check(out):
        code, text = out
        return verdict(code == 0 and json.loads(text) == ref, f"exit {code}")
    return check


def check_verify_quick(ref):
    def check(out):
        code, text = out
        lines = [json.loads(line) for line in text.splitlines()]
        suites = [line["suite"] for line in lines]
        all_pass = all(line["status"] == "PASS" for line in lines)
        by_suite = {line["suite"]: line for line in lines}
        ref_nu = next(r for r in ref if r["suite"] == "nu")
        ok = (code == 0 and all_pass and suites == [r["suite"] for r in ref]
              and by_suite["nu"]["report"]["constant"]
              == ref_nu["report"]["constant"])
        return verdict(ok, f"exit {code}")
    return check


def check_modp(ref):
    def check(rep):
        return (rep["status"] != "PASS", rep == ref, rep["status"])
    return check


def job_cli_symbolic(spec, ops, ref):
    for name, argv in CLI_ARGVS.items():
        if name == "verify quick":
            check = check_verify_quick(ref[name])
        else:
            check = check_cli_json(ref[name])
        ops.run(name, lambda argv=argv: run_cli(argv), check)
    for p in PRIMES:
        ops.run(
            f"modp_invariance_check p={p}",
            lambda p=p: modp.modp_invariance_check(p, seed=spec["seed"]),
            check_modp(ref["modp"][str(p)]),
        )


JOBS = {
    "nu-registry": job_nu_registry,
    "weight70-warm": job_weight70,
    "cli-symbolic": job_cli_symbolic,
}


def fill_weight70(spec, ops):
    """Set-up of weight70-warm: the disk cache its job reads, filled by
    ``expand NAME --cache DIR``; chi35 and the generators are checked
    against the chi35 and nu-registry references."""
    refs = dict(load_ref("nu-registry"), chi35=load_ref("chi35")["chi35"])
    orders = {"chi35": W70_CHI35_N, **{g: W70_N for g in W70_GENERATORS}}
    for name, order in orders.items():
        argv = ["expand", name, "--order", str(order), "--json",
                "--cache", spec["cache_dir"]]
        ops.run(f"expand {name}", lambda argv=argv: run_cli(argv),
                check_cli_expansion(refs[name]))


# -- traced run -------------------------------------------------------------------


class Tracer:
    """Spans around the calls the traced recipes make, kept in memory.

    A span is [name, start, end, parent index, job id]; the job id is the
    operation the span serves.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = {"qexp.max_window": 0, "arith.max_coeff_bits": 0}

    @contextlib.contextmanager
    def span(self, name):
        parent = self.stack[-1] if self.stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            out = fn(*args, **kwargs)
        e = getattr(out, "expansion", out)
        if isinstance(e, FourierExpansion):
            self.count_expansion(e)
        return out

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def count_expansion(self, e):
        """Size counts of an expansion a traced call returned."""
        c = self.counts
        self.add("qexp.out_cells", len(e.cells))
        c["qexp.max_window"] = max(c["qexp.max_window"], e.kN)
        for vec in e.cells.values():
            for lp in vec:
                for v in lp.c.values():
                    v = Fraction(v)
                    self.add("arith.coeffs", 1)
                    self.add("arith.fraction_coeffs", v.denominator != 1)
                    c["arith.max_coeff_bits"] = max(
                        c["arith.max_coeff_bits"],
                        abs(v.numerator).bit_length(),
                        v.denominator.bit_length(),
                    )


def span_columns(forms):
    """Column count of the matrix qexp.rank_of_span builds."""
    top = min(g.kN for g in forms)
    return len({
        (key, i, e)
        for g in forms
        for key, vec in g.cells.items() if max(key) <= top
        for i, lp in enumerate(vec) for e in lp.c
    })


def trace_chi35(tr, spec):
    tr.job = "chi35"
    e = tr.call("covariants.invariant", covariants.invariant, "E")
    tr.add("poly.terms", len(e.poly.terms))
    built = {"f": tr.call("theta.chi_6_8", theta.chi_6_8, 2)}
    for out, left, right, k in covariants.skew_chain_transvectants():
        built[out] = tr.call(
            "numap.transvectant_expansion", numap.transvectant_expansion,
            built[left], built[right], k)
    x = built["e0"]
    # chi35 = chi10^2 * nu(E) and the chain output carries chi10^15
    for _ in range(e.degree - 2):
        x = tr.call("qexp.exact_div_chi10", x.exact_div_chi10)
    return {"expand chi35": x}


def trace_nu_registry(tr, spec):
    forms = {}
    for name, fn in THETA_SEEDS.items():
        tr.job = name
        forms[name] = tr.call(f"theta.{fn.__name__}", fn, NU_ORDER)
    for name, (covariant, args, m, extra) in NU_RECIPES.items():
        tr.job = name
        c = tr.call(f"covariants.{covariant.__name__}", covariant, *args)
        tr.add("poly.terms", len(c.poly.terms))
        e = tr.call("numap.nu_raw", numap.nu_raw, c, NU_ORDER + extra)
        for _ in range(c.degree - m):
            e = tr.call("qexp.exact_div_chi10", e.exact_div_chi10)
        forms[name] = e
    # the ringlab write path, into the job's empty cache directory
    for name in sorted(forms):
        tr.job = name
        nf = tr.call("ringlab.named_form", ringlab.named_form, name,
                     NU_ORDER, spec["cache_dir"])
        forms[f"written {name}"] = nf.expansion
    tr.add("ringlab.cache_bytes_written", dir_bytes(spec["cache_dir"]))
    return {f"expand {k}" if not k.startswith("written") else k: v
            for k, v in forms.items()}


def trace_weight70(tr, spec):
    tr.job = "odd_weight_divisibility_check"
    tr.add("ringlab.cache_bytes_read", dir_bytes(spec["cache_dir"]))
    x35 = tr.call("ringlab.named_form", ringlab.named_form, "chi35",
                  W70_CHI35_N, spec["cache_dir"]).expansion
    _, a11 = tr.call("qexp.a11_order", x35.a11_order)
    phi = tr.call("qexp.siegel_phi", x35.siegel_phi)
    gens = [
        tr.call("ringlab.named_form", ringlab.named_form, g, W70_N,
                spec["cache_dir"]).expansion
        for g in W70_GENERATORS
    ]
    powers = {}

    def power(i, e):
        if (i, e) not in powers:
            powers[i, e] = gens[i] if e == 1 else tr.call(
                "qexp.mul", power(i, e - 1).mul, gens[i])
        return powers[i, e]

    monomials = []
    for exps in ringlab.weight_monomials(70):
        acc = None
        for i, e in enumerate(exps):
            if e:
                acc = power(i, e) if acc is None else tr.call(
                    "qexp.mul", acc.mul, power(i, e))
        monomials.append(acc)
    square = tr.call("qexp.mul", x35.mul, x35)
    base = tr.call("qexp.rank_of_span", qexp.rank_of_span, monomials)
    extended = tr.call("qexp.rank_of_span", qexp.rank_of_span, monomials + [square])
    tr.add("qexp.rank_of_span.rows", len(monomials))
    tr.add("qexp.rank_of_span.cols", span_columns(monomials))
    tr.add("qexp.rank_of_span.rank", base)
    tr.add("qexp.rank_of_span.expected_dim", ringlab.even_dimension(70))
    report = {
        "a11_order": a11,
        "siegel_phi_zero": phi.is_zero,
        "weight70_monomials": len(monomials),
        "weight70_rank": base,
        "rank_with_square": extended,
    }
    return {"odd_weight_divisibility_check": report}


def trace_cli_symbolic(tr, spec):
    out = {}
    for name in ("D", "E"):
        tr.job = f"covariant {name}"
        c = tr.call("covariants.invariant", covariants.invariant, name)
        tr.add("poly.terms", len(c.poly.terms))
    tr.job = "verify quick"
    tr.call("modp.verify_char2_suite", modp.verify_char2_suite)
    tr.call("modp.verify_char3_suite", modp.verify_char3_suite)
    for name, argv in CLI_ARGVS.items():
        tr.job = name
        out[name] = tr.call("cli.main", run_cli, argv)
    for p in PRIMES:
        tr.job = f"modp_invariance_check p={p}"
        out[tr.job] = tr.call("modp.modp_invariance_check",
                              modp.modp_invariance_check, p, seed=spec["seed"])
    return out


TRACES = {
    "chi35": trace_chi35,  # traced with weight70-warm, whose set-up builds chi35
    "nu-registry": trace_nu_registry,
    "weight70-warm": trace_weight70,
    "cli-symbolic": trace_cli_symbolic,
}


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def traced_agrees(name, got, untraced):
    """A traced output against the untraced job's output of the same name."""
    if isinstance(got, FourierExpansion):
        code, text = untraced
        scaled = name.split()[-1] in SCALED and name.startswith("expand")
        return code == 0 and agrees(got, expansion_of(text), scaled)
    if isinstance(got, tuple):
        return list(got) == untraced
    return all(untraced.get(k) == v for k, v in got.items())


def trace(spec):
    tr = Tracer()
    # exact_div_chi10 builds its divisor through the theta module attribute;
    # a span there shows the chi_10(kN) build inside each division.
    chi_10 = theta.chi_10
    theta.chi_10 = lambda N: tr.call("theta.chi_10", chi_10, N)
    result, recipe_s = {}, {}
    try:
        for recipe in spec["recipes"]:
            top = len(tr.spans)
            with tr.span("bench.trace"):
                result.update(TRACES[recipe](tr, spec))
            recipe_s[recipe] = tr.spans[top][2] - tr.spans[top][1]
    finally:
        theta.chi_10 = chi_10
    untraced = {}
    for path in spec["compare"]:
        with open(path) as fh:
            untraced.update(json.load(fh))
    ops = Ops()
    for name, got in result.items():
        key = name.replace("written ", "expand ")
        ops.run(f"traced {name}", lambda got=got: got,
                lambda got, name=name, key=key: verdict(
                    traced_agrees(name, got, untraced[key])))
    return {"ops": ops.rows, "spans": tr.spans, "counts": tr.counts,
            "recipe_s": recipe_s}


def main():
    spec = json.loads(sys.argv[1])
    if not os.path.realpath(cli.__file__).startswith(spec["src"] + os.sep):
        sys.exit(f"imported {cli.__file__}, not the package under {spec['src']}")
    print("ready", flush=True)
    mode = spec["mode"]
    if mode == "probe":
        result = {"ops": []}
    elif mode == "trace":
        result = trace(spec)
    else:
        ops = Ops()
        if mode == "fill":
            fill_weight70(spec, ops)
        else:
            JOBS[spec["workload"]](spec, ops, load_ref(spec["workload"]))
        result = {"ops": ops.rows}
        if spec.get("save"):
            with open(spec["save"], "w") as fh:
                json.dump(ops.outputs, fh)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
