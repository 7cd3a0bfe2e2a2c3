"""Regenerate the stored references in perfbench/refs/ from the code in src/.

Usage: python3 perfbench/make_refs.py

The references were made from the seed code; regenerate them only when a
change is meant to alter an output, and say so in that change.  The mod-p
verdicts must not depend on the SL(2) sample seed, so two seeds are run and
compared.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import job  # noqa: E402  (needs the path above)
from sexticforms import modp, ringlab  # noqa: E402


def cli_json(argv):
    code, text = job.run_cli(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return [json.loads(line) for line in text.splitlines()]


def main():
    nu_names = [n for n in ringlab.registry_names() if n != "chi35"]
    modp_refs = {}
    for p in job.PRIMES:
        a, b = (modp.modp_invariance_check(p, seed=s) for s in (1, 2))
        if a != b:
            raise SystemExit(f"mod-{p} verdict depends on the sample seed")
        modp_refs[str(p)] = a
    refs = {
        "chi35": {"chi35": cli_json(job.CHI35_ARGV)[0]},
        "nu-registry": {
            n: cli_json(["expand", n, "--order", str(job.NU_ORDER), "--json", "--no-cache"])[0]
            for n in nu_names
        },
        "weight70-warm": ringlab.odd_weight_divisibility_check(
            N=job.W70_N, chi35_N=job.W70_CHI35_N),
        "cli-symbolic": {
            "covariant D": cli_json(job.CLI_ARGVS["covariant D"])[0],
            "covariant E": cli_json(job.CLI_ARGVS["covariant E"])[0],
            "verify quick": cli_json(job.CLI_ARGVS["verify quick"]),
            "modp": modp_refs,
        },
    }
    os.makedirs(os.path.join(HERE, "refs"), exist_ok=True)
    for workload, ref in refs.items():
        with open(os.path.join(HERE, "refs", f"{workload}.json"), "w") as fh:
            json.dump(ref, fh, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
