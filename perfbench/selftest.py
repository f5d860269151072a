#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

For every workload it checks that run.py passes at --scale small with every
end-to-end and per-layer metric present, that two runs with one seed give
the same fingerprint and virtual-time metrics, and that a planted wrong
reference makes the command fail. It also checks that BENCHMARK.json names
the same workloads and metrics as run.py, and that a directory holding
only the benchmark (no simulator sources) fails without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

VIRTUAL = ("vtime_s", "mpmd_gap_x", "paper_gap_err", "p50_us", "p999_us",
           "vt.cpu_s", "vt.net_s", "vt.thread_mgmt_s", "vt.thread_sync_s",
           "vt.runtime_s", "net.msgs", "rel.retransmits")

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        failures.append(what)


def bench(root, workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "small"] + list(extra)
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=root,
                         timeout=600)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    fp = next((ln.split()[1] for ln in lines if ln.startswith("fingerprint ")),
              None)
    return out.returncode, result, fp


def check_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expect(sorted(w["name"] for w in spec["workloads"]) ==
           sorted(run.WORKLOADS), "BENCHMARK.json workloads match run.py")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] ==
           [(n, u) for n, u, _ in run.END_TO_END],
           "BENCHMARK.json end_to_end metrics match run.py")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] ==
           [(n, u) for n, u, _ in run.PER_LAYER],
           "BENCHMARK.json per_layer metrics match run.py")


def check_workload(name):
    rc, res, fp = bench(ROOT, name, 7, 0)
    expect(rc == 0 and res and res["correct"] and res["failed"] == 0,
           "%s: passes its checks" % name)
    if res:
        expect(sorted(res["metrics"]) == sorted(n for n, _, _ in run.END_TO_END)
               and all(v["value"] != 0 for v in res["metrics"].values()),
               "%s: every end-to-end metric reported and non-zero" % name)
    rc2, res2, fp2 = bench(ROOT, name, 7, 0)
    expect(rc2 == 0 and fp is not None and fp == fp2,
           "%s: same seed, same fingerprint" % name)
    _, _, fp3 = bench(ROOT, name, 8, 0)
    expect(fp3 is not None and fp3 != fp,
           "%s: another seed, another fingerprint" % name)

    rc, t1, _ = bench(ROOT, name, 7, 1)
    rc2, t2, _ = bench(ROOT, name, 7, 1)
    expect(rc == 0 and t1 and t1["correct"] and
           sorted(t1["metrics"]) == sorted(n for n, _, _ in run.PER_LAYER),
           "%s: traced run reports every per-layer metric" % name)
    if t1 and t2 and rc2 == 0:
        same = all(t1["metrics"][k]["value"] == t2["metrics"][k]["value"]
                   for k in VIRTUAL)
        expect(same, "%s: virtual-time metrics repeat exactly" % name)

    rc, res, _ = bench(ROOT, name, 7, 0, "--plant-bad-reference")
    expect(rc != 0 and res is not None and not res["correct"] and
           res["failed"] > 0,
           "%s: a planted wrong reference fails the command" % name)


def check_bare_directory():
    bare = os.path.join(run.BUILD, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        rc, res, _ = bench(bare, "water-rmi", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and res is None,
           "without simulator sources: fails and prints no result")


def main():
    check_benchmark_json()
    for name in sorted(run.WORKLOADS):
        check_workload(name)
    check_bare_directory()
    print("%d check(s) failed" % len(failures) if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
