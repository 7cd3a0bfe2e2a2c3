"""The names perfbench/job.py calls still exist and agree with the golden
chi6_8 block: the benchmark script is loaded by path, as it is, and run on
chi6_8 at order 2.  Every nu-registry form, built through ringlab, equals
the benchmark's stored reference, and the benchmark's traced recipes
agree with the program they trace."""

import importlib.util
import os

import pytest

from sexticforms import cli, ringlab
from sexticforms.qexp import FourierExpansion

ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture(scope="module")
def job():
    spec = importlib.util.spec_from_file_location(
        "perfbench_job", os.path.join(ROOT, "perfbench", "job.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_job_checks_the_golden_chi68_block(job):
    # the reference is at order 5; its window at order 2 is the block
    ref = job.load_ref("nu-registry")["chi6_8"]
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


def test_traced_recipes_agree_with_the_program(job, tmp_path):
    tr, spec = job.Tracer(), {"cache_dir": str(tmp_path)}
    (chi35,) = job.trace_chi35(tr, spec).values()
    assert job.agrees(chi35, ringlab.named_form("chi35", 3).expansion, scaled=True)
    (report,) = job.trace_weight70(tr, spec).values()
    full = ringlab.odd_weight_divisibility_check(job.W70_N, job.W70_CHI35_N)
    assert report == {key: full[key] for key in report}
    forms = job.trace_nu_registry(tr, spec)
    assert set(forms) == {
        f"{kind} {name}" for kind in ("expand", "written")
        for name in job.load_ref("nu-registry")
    }
    for label, got in forms.items():
        name = label.split()[-1]
        want = ringlab.named_form(name, job.NU_ORDER).expansion
        assert job.agrees(got, want, scaled=name in job.SCALED), label
