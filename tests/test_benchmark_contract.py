"""The names perfbench/job.py calls still exist and agree with the golden
chi6_8 block: the benchmark script is loaded by path, as it is, and run on
chi6_8 at order 2.  Every nu-registry form, built through ringlab, equals
the benchmark's stored reference."""

import importlib.util
import json
import os

import pytest

from sexticforms import cli, ringlab
from sexticforms.qexp import FourierExpansion

ROOT = os.path.join(os.path.dirname(__file__), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "chi6_8_N2.json")


@pytest.fixture(scope="module")
def job():
    spec = importlib.util.spec_from_file_location(
        "perfbench_job", os.path.join(ROOT, "perfbench", "job.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_job_checks_the_golden_chi68_block(job):
    with open(GOLDEN) as fh:
        ref = json.load(fh)
    code, text = job.run_cli(["expand", "chi6_8", "--order", "2", "--json", "--no-cache"])
    assert code == 0
    got = job.expansion_of(text)
    assert job.agrees(got, FourierExpansion.from_json(ref))
    assert job.window(got, 2).to_text() == cli.CHI68_GOLDEN
    check = job.check_cli_expansion(ref, cli.CHI68_GOLDEN)
    assert check((code, text)) == (False, True, "")


def test_nu_registry_forms_equal_the_benchmark_reference(job):
    ref = job.load_ref("nu-registry")
    for name in sorted(ref):
        got = ringlab.named_form(name, job.NU_ORDER).expansion
        assert got.to_json() == ref[name], name
