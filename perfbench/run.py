"""Benchmark of the sexticforms package: exact computations timed from
outside, one fresh interpreter per job, with a separate traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # one run of every workload

The user of the package is one person running one exact computation at a
stated truncation; what they see is the time to a verified result, the
memory it takes and whether the verdict is right.  Each job therefore runs
in a fresh interpreter (no lru_cache carries over, as for a CLI user), one
at a time, with SEXTICFORMS_CACHE unset.  Set-up is interpreter start plus
the package import; for weight70-warm it also fills that workload's disk
cache.  Every job, and that fill, checks its outputs against the
references in perfbench/refs/ (made from the seed code by make_refs.py).

Workloads (see BENCHMARK.json for why each was chosen):
  nu-registry    expand every registry form but chi35 at --order 5 into an
                 empty cache directory, in one interpreter
  weight70-warm  ringlab.odd_weight_divisibility_check(N=5, chi35_N=3) on a
                 disk cache filled in set-up by the same code, through
                 expand chi35 --order 3 (the q-side transvectant chain) and
                 expand of its four generators at --order 5
  cli-symbolic   covariant D, covariant E, verify quick, and
                 modp.modp_invariance_check(p, seed) for p = 2..13
Only cli-symbolic uses the seed (as the SL(2) sample seed); the others
accept it and record that they ignore it.  chi35 at order 3 is not a
workload of its own: one build takes 16-24 s, too long for a steady median
within a run, so it is timed as part of weight70-warm's set-up and traced
in weight70-warm's traced run.

With --trace 0 the run measures jobs for --seconds seconds (at least one
job; no job starts that the median job so far says would end past the
limit) and reports the end-to-end metrics: job_s (median), setup_s
(median of set-up samples), peak_rss_mb (median over jobs) and ok_ratio
(1 - failed_ratio, as a metric that is never 0).  With
--trace 1 it runs one untraced job and one traced job, which calls the
layers bottom-up with a span around each call, and reports the per-layer
metrics and the tracing overhead.  The spans are written to
.perfbench_work/trace-<workload>-<seed>.json.

The Tier-1 test wall time is not a workload here: it runs hypothesis
suites, not user traffic, and is left to the Tier-1 check.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the run
metadata (Python version, nproc, commit, seed, sample counts).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("nu-registry", "weight70-warm", "cli-symbolic")
PROBES = 8  # set-up probes per run besides the jobs' own
JOB_TIMEOUT_S = 170


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "SEXTICFORMS_CACHE"}
    env["PYTHONPATH"] = SRC
    return env


def spawn(spec):
    """Run job.py with ``spec``; time spawn -> ready -> result from here."""
    spec = dict(spec, src=os.path.realpath(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "job.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        t1 = time.perf_counter()
        line = proc.stdout.readline()
        t2 = time.perf_counter()
        proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
    result = None
    if ready.strip() == "ready" and line and proc.returncode == 0:
        result = json.loads(line)
    return {
        "setup_s": t1 - t0,
        "job_s": t2 - t1,
        "rss_mb": usage.ru_maxrss / 1024,
        "result": result,
        "exit": proc.returncode,
    }


class Tally:
    """Operations attempted, failed and checked across the jobs of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = {}  # message -> how many times it occurred

    def note(self, message):
        self.failures[message] = self.failures.get(message, 0) + 1

    def add(self, run, what):
        if run["result"] is None:
            self.attempted += 1
            self.failed += 1
            self.correct = False
            self.note(f"{what}: exit {run['exit']}")
            return
        for name, failed, correct, note in run["result"]["ops"]:
            self.attempted += 1
            self.failed += bool(failed)
            self.correct = self.correct and correct
            if failed or not correct:
                self.note(f"{name}: {note or 'mismatch'}")


def git_commit():
    """The commit of a git checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    """sha256 over the package sources: identifies the code measured."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def probes(n):
    return [spawn({"mode": "probe"})["setup_s"] for _ in range(n)]


def set_up(workload, seed, tmp, tally, save=None):
    """Warm the bytecode caches; for weight70-warm also fill the disk cache,
    whose checked operations go into ``tally``.  Returns the cache directory
    and the fill's seconds (spawn to filled)."""
    spawn({"mode": "probe"})
    if workload != "weight70-warm":
        return None, None
    cache_dir = tempfile.mkdtemp(dir=tmp)
    fill = spawn({"mode": "fill", "workload": workload, "seed": seed,
                  "cache_dir": cache_dir, "save": save})
    tally.add(fill, "fill weight70-warm")
    if fill["result"] is None:
        raise RuntimeError(f"filling the weight70-warm cache failed: exit {fill['exit']}")
    return cache_dir, fill["setup_s"] + fill["job_s"]


def job_spec(workload, seed, tmp, cache_dir, **extra):
    if workload == "nu-registry":
        cache_dir = tempfile.mkdtemp(dir=tmp)  # every job starts empty
    return dict(mode="job", workload=workload, seed=seed, cache_dir=cache_dir, **extra)


def timed_run(workload, seed, seconds, tmp):
    tally, jobs = Tally(), []
    cache_dir, fill_s = set_up(workload, seed, tmp, tally)
    # set-up samples: probes before and after the jobs, and each job's own
    setup = [fill_s] if fill_s is not None else probes(PROBES // 2)
    start = time.perf_counter()
    while not jobs or (time.perf_counter() - start + statistics.median(
            run["setup_s"] + run["job_s"] for run in jobs) <= seconds):
        run = spawn(job_spec(workload, seed, tmp, cache_dir))
        tally.add(run, workload)
        jobs.append(run)
    if fill_s is None:
        setup += probes(PROBES - PROBES // 2) + [run["setup_s"] for run in jobs]
    job_s = [run["job_s"] for run in jobs]
    rss = [run["rss_mb"] for run in jobs]
    metrics = {
        "job_s": (statistics.median(job_s), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    info = {
        "samples": {"job_s": len(job_s), "setup_s": len(setup),
                    "peak_rss_mb": len(rss)},
        "job_s_samples": job_s,
        "job_s_quartiles": quartiles(job_s),
        "setup_s_quartiles": quartiles(setup),
        "failed_ratio": tally.failed / tally.attempted,
    }
    return tally, metrics, info


def layer_metrics(spans, counts):
    """Per-function inclusive seconds and calls; per-layer self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _job in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = dict(counts)
    for i, (name, start, end, _parent, _job) in enumerate(spans):
        layer = name.split(".")[0]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + end - start
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        key = f"{layer}.self_s"
        out[key] = out.get(key, 0.0) + end - start - child_time[i]
    return out


def traced_run(workload, seed, tmp):
    tally = Tally()
    saved, recipes = [os.path.join(tmp, "untraced.json")], [workload]
    fill_saved = None
    if workload == "weight70-warm":  # also trace the chi35 build of set-up
        fill_saved = os.path.join(tmp, "fill.json")
        saved.insert(0, fill_saved)
        recipes.insert(0, "chi35")
    cache_dir, _ = set_up(workload, seed, tmp, tally, save=fill_saved)
    plain = spawn(job_spec(workload, seed, tmp, cache_dir, save=saved[-1]))
    tally.add(plain, workload)
    spec = job_spec(workload, seed, tmp, cache_dir, compare=saved, recipes=recipes)
    traced = spawn(dict(spec, mode="trace"))
    tally.add(traced, f"traced {workload}")
    values = {}
    if traced["result"] is not None:
        spans = traced["result"]["spans"]
        values = layer_metrics(spans, traced["result"]["counts"])
        path = os.path.join(WORK, f"trace-{workload}-{seed}.json")
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "job"],
                       "spans": spans}, fh)
        values["trace.spans"] = len(spans)
        # the workload's own recipe, not the chi35 build traced before it
        values["trace.traced_s"] = traced["result"]["recipe_s"][workload]
        values["trace.overhead_ratio"] = values["trace.traced_s"] / plain["job_s"]
    values["trace.job_s"] = plain["job_s"]
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    metrics = {name: (values.get(name, 0), unit) for name, unit in units.items()}
    info = {"samples": {"job_s": 1, "traced_s": 1},
            "failed_ratio": tally.failed / tally.attempted}
    return tally, metrics, info


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace):
    os.makedirs(WORK, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=WORK)
    try:
        if trace:
            return traced_run(workload, seed, tmp)
        return timed_run(workload, seed, seconds, tmp)
    finally:
        shutil.rmtree(tmp)


def metadata(workload, seed, seconds, trace):
    return {
        "workload": workload,
        "seed": seed,
        "seed_used": workload == "cli-symbolic",
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
    }


def result_line(tally, metrics):
    return json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sexticforms", "__init__.py")):
        sys.exit(f"no package source at {SRC}/sexticforms; run from a checkout")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    total, merged = Tally(), {}
    for workload in workloads:
        tally, metrics, info = run_workload(
            workload, args.seed, args.seconds, args.trace)
        meta = metadata(workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"meta": meta, **info, "failures": tally.failures}))
        total.attempted += tally.attempted
        total.failed += tally.failed
        total.correct = total.correct and tally.correct
        prefix = "" if len(workloads) == 1 else f"{workload}."
        merged.update({prefix + k: v for k, v in metrics.items()})
        if len(workloads) > 1:
            shown = {k: round(v, 4) for k, (v, _u) in metrics.items()}
            print(f"{workload:14s} failed_ratio={info['failed_ratio']:.4f} {shown}")
    print(result_line(total, merged))


if __name__ == "__main__":
    main()
