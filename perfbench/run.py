#!/usr/bin/env python3
"""End-to-end benchmark of the ThAM simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale full|small] [--plant-bad-reference]

Builds the simulator's libraries and the workload harness from source
(perfbench/CMakeLists.txt, into .bench_build/perfbench), generates the
workload's inputs from --seed, runs the harness for --seconds of host time,
checks every output, and prints a report whose last line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
untraced and then traced (half the budget each) and reports the per-layer
metrics, the span self times and the tracing overhead. The exit code is 0
only when every check passed. perfbench/README.md lists every metric with
its unit and clock.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DEADLINE_S = 170  # a run must end within 180 s of its build

# --- Metrics ---------------------------------------------------------------
# (name, unit, clock). Clocks: "host" is the wall clock of the machine that
# runs the benchmark, "virtual" the simulated machine's time, "count" an
# exact tally, "ratio" a quotient of counts.

END_TO_END = [
    ("wall_s", "s", "host"),
    ("setup_s", "s", "host"),
    ("msgs_per_s", "1/s", "host"),
    ("peak_rss_mib", "MiB", "host"),
    ("ok_frac", "ratio", "ratio"),
]

PER_LAYER = [
    ("sim.drain_share", "ratio", "host"),
    ("sim.barrier_share", "ratio", "host"),
    ("sim.merge_share", "ratio", "host"),
    ("sim.plan_share", "ratio", "host"),
    ("sim.epochs", "count", "count"),
    ("sim.parked_frac", "ratio", "ratio"),
    ("sim.stale_frac", "ratio", "ratio"),
    ("sim.events_per_s", "1/s", "host"),
    ("sim.kib_per_node", "KiB", "host"),
    ("sim.ctx_switches", "count", "count"),
    ("net.msgs", "count", "count"),
    ("net.bytes", "bytes", "count"),
    ("net.polls", "count", "count"),
    ("am.short_msgs", "count", "count"),
    ("am.bulk_msgs", "count", "count"),
    ("threads.creates", "count", "count"),
    ("threads.sync_ops", "count", "count"),
    ("threads.lock_contended_frac", "ratio", "ratio"),
    ("vt.cpu_s", "s", "virtual"),
    ("vt.net_s", "s", "virtual"),
    ("vt.thread_mgmt_s", "s", "virtual"),
    ("vt.thread_sync_s", "s", "virtual"),
    ("vt.runtime_s", "s", "virtual"),
    ("ccxx.host_overhead_s", "s", "host"),
    ("rel.data_frames", "count", "count"),
    ("rel.retransmits", "count", "count"),
    ("rel.retx_ratio", "ratio", "ratio"),
    ("rel.acks_per_frame", "ratio", "ratio"),
    ("rel.dup_drops", "count", "count"),
    ("rel.gave_up", "count", "count"),
    ("rel.srtt_us", "us", "virtual"),
    ("fault.drops", "count", "count"),
    ("fault.dups", "count", "count"),
    ("serve.batch_fill", "ratio", "ratio"),
    ("serve.backend_lookups", "count", "count"),
    ("serve.mean_queue_depth", "count", "virtual"),
    ("serve.rejected_frac", "ratio", "ratio"),
    ("vtime_s", "s", "virtual"),
    ("failed_frac", "ratio", "ratio"),
    ("mpmd_gap_x", "x", "virtual"),
    ("paper_gap_err", "ratio", "virtual"),
    ("p50_us", "us", "virtual"),
    ("p999_us", "us", "virtual"),
    ("latency_samples", "count", "count"),
    ("alloc.per_msg", "ratio", "count"),
    ("trace.overhead_s", "s", "host"),
] + [("span.%s_s" % name, "s", "host") for name in (
    "setup.engine", "setup.net_am", "setup.reliable_fault", "setup.topology",
    "setup.runtime", "apps.build", "run.splitc", "run.ccxx", "run.serve",
    "verify.serial", "teardown")]

# --- Workloads -------------------------------------------------------------

MASK64 = (1 << 64) - 1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def derive(seed, salt):
    """A 63-bit seed for one input of the workload, from the run's seed."""
    h = int.from_bytes(hashlib.sha256(salt.encode()).digest()[:8], "little")
    return splitmix64((seed & MASK64) ^ h) >> 1


def em3d_scale(seed, small):
    # em3d-ghost on Split-C, sp2, parallel engine with 4 workers, 16,384
    # simulated nodes with a light share of the graph each (graph = 2 N,
    # degree 4, 2 iterations, 32 KiB stacks). Chosen because it is the
    # parallel engine's target: node arena and stacks exceed the L3, the
    # run is drain-bound, and the dissemination barrier sends most of its
    # 1.2 M messages. It uses no threads, no CC++ and no Reliable.
    procs = 256 if small else 16384
    return {
        "procs": procs, "graph_nodes": 2 * procs, "degree": 4, "iters": 2,
        "remote_fraction": 0.5, "seed": derive(seed, "em3d.graph"),
        "machine": "sp2", "stack_kib": 32, "threads": 4, "full_topology": 0,
    }, procs


def water_rmi(seed, small):
    # water-atomic, 512 molecules on 4 procs, sp2, sequential engine, run
    # on Split-C and then on CC++: the paper's Figure 6 row. Chosen because
    # the CC++ half is dominated by the RMI path (marshal/dispatch, thread
    # create and switch: 786 K creates, 2 M switches) while the Split-C
    # half sends the same 1.57 M messages with no threads. It bypasses the
    # parallel executor, coll and Reliable.
    return {
        "procs": 4, "molecules": 64 if small else 512, "steps": 2,
        "seed": derive(seed, "water.system"), "machine": "sp2", "threads": 1,
        "paper_sc_s": 1.79, "paper_cc_s": 10.0,
    }, 4


def serve_lossy(seed, small):
    # The serving fabric (6 clients, 3 servers, balancer, backend) open
    # loop at 0.8 offered load on lossy-cluster, over transport::Reliable
    # with 5 % loss and 1 % duplication injected by fault. Sequential
    # engine: on 4 workers this 11-node machine runs 3x slower (5.1 s
    # against 1.7 s per repetition). Chosen because it
    # is the only workload that runs serve, fault, Reliable's framing,
    # acks and retransmit timers, and stats::Histogram; 98,304 requests
    # leave about 90 latency samples beyond p99.9.
    clients = 6
    per_client = 64 if small else 16384
    return {
        "clients": clients, "servers": 3, "requests_per_client": per_client,
        "offered_load": 0.8, "mean_service_ns": 50000, "queue_cap": 16,
        "batch_max": 4, "backend_fraction": 0.25,
        "seed": derive(seed, "serve.traffic"), "machine": "lossy-cluster",
        "threads": 1, "plan_seed": derive(seed, "fault.plan"), "loss": 0.05,
        "dup": 0.01, "min_tail_samples": 0 if small else 10,
    }, 2 + 3 + clients


WORKLOADS = {
    "em3d-scale": em3d_scale,
    "water-rmi": water_rmi,
    "serve-lossy": serve_lossy,
}

# --- Build and run ---------------------------------------------------------


def fail_setup(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("simulator sources not found under %s" %
                   os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
                  "--target", "perfbench_harness", "perfbench_traced"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail_setup("build failed: " + " ".join(cmd))


def source_digest():
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        top = os.path.join(ROOT, base)
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_harness(binary, args, cfg, seconds, deadline, extra):
    cmd = [os.path.join(BUILD, binary), "--workload", args.workload,
           "--seconds", "%.3f" % seconds] + extra
    if args.plant_bad_reference:
        cmd.append("--plant-bad-reference")
    for k, v in cfg.items():
        cmd += ["--set", "%s=%s" % (k, v)]
    # The workload's inputs come only from --set: drop any THAM_* overrides
    # (machine profile, worker threads) the caller's environment carries.
    env = {k: v for k, v in os.environ.items() if not k.startswith("THAM_")}
    budget = max(10.0, deadline - time.monotonic())
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env,
                             timeout=budget)
    except subprocess.TimeoutExpired:
        return None, "harness timed out after %.0f s (hung or deadlocked)" % budget
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        return None, "harness exited with code %d" % out.returncode
    try:
        return json.loads(out.stdout), None
    except ValueError:
        return None, "harness printed no result"


# --- Metric derivation -----------------------------------------------------


def med(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(res):
    reps = res["reps"]
    attempted = sum(r["attempted"] for r in reps)
    missed = sum(r["failed"] + r["refused"] for r in reps)
    return {
        "wall_s": med([r["wall_s"] for r in reps]),
        "setup_s": med(res["setup_s"]),
        "msgs_per_s": med([r["messages"] / r["wall_s"] for r in reps]),
        "peak_rss_mib": res["peak_rss_kib"] / 1024.0,
        "ok_frac": ratio(attempted - missed, attempted),
    }


def per_layer(plain, traced, nodes):
    reps = traced["reps"]

    def m(key):
        return med([r["layer"].get(key, 0.0) for r in reps])

    def share(key):
        return med([ratio(r["layer"].get(key, 0.0),
                          r["layer"].get("sim.worker_ns", 0.0)) for r in reps])

    attempted = sum(r["attempted"] for r in reps)
    missed = sum(r["failed"] + r["refused"] for r in reps)
    out = {
        "sim.drain_share": share("sim.drain_ns"),
        "sim.barrier_share": share("sim.barrier_ns"),
        "sim.merge_share": share("sim.merge_ns"),
        "sim.plan_share": share("sim.plan_ns"),
        "sim.epochs": m("sim.epochs"),
        "sim.parked_frac": ratio(m("sim.parked_epochs"), m("sim.shard_epochs")),
        "sim.stale_frac": ratio(m("sim.stale_events"),
                                m("sim.events") + m("sim.stale_events")),
        "sim.events_per_s": med([ratio(r["layer"].get("sim.events", 0.0),
                                       r["layer"].get("sim.wall_ns", 0.0) / 1e9)
                                 for r in reps]),
        "sim.kib_per_node": plain["peak_rss_kib"] / nodes,
        "threads.lock_contended_frac": ratio(m("threads.lock_contended"),
                                             m("threads.lock_acquires")),
        "rel.retx_ratio": ratio(m("rel.data_frames"),
                                m("rel.data_frames") + m("rel.retransmits")),
        "rel.acks_per_frame": ratio(m("rel.acks_sent"), m("rel.data_frames")),
        "vtime_s": med([r["vtime_s"] for r in reps]),
        "failed_frac": ratio(missed, attempted),
        "alloc.per_msg": ratio(sum(r["allocs"] for r in reps),
                               sum(r["messages"] for r in reps)),
        "trace.overhead_s": med([r["wall_s"] for r in reps]) -
                            med([r["wall_s"] for r in plain["reps"]]),
    }
    for name, _, _ in PER_LAYER:
        if name not in out:
            out[name] = m(name)
    return out


def check(res, label, errors):
    if res is None:
        return
    if not res["reps"]:
        errors.append("%s: no repetition ran" % label)
    first = res["reps"][0]["fingerprint"] if res["reps"] else None
    for i, r in enumerate(res["warmup"] + res["reps"]):
        errors.extend("%s rep %d: %s" % (label, i, e) for e in r["errors"])
        if r["fingerprint"] != first:
            errors.append("%s rep %d: fingerprint differs from rep 0 "
                          "(simulation is not deterministic)" % (label, i))


def fingerprint(res):
    fp = res["reps"][0]["fingerprint"]
    blob = json.dumps(fp, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16], fp


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full",
                    help="small: reduced inputs for the self-test")
    ap.add_argument("--plant-bad-reference", action="store_true",
                    help="perturb the reference outputs; every check must fail")
    args = ap.parse_args()

    build()
    deadline = time.monotonic() + DEADLINE_S
    cfg, nodes = WORKLOADS[args.workload](args.seed, args.scale == "small")
    errors = []
    if args.trace:
        run_id = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
        spans = os.path.join(BUILD, "spans-%s.json" % run_id)
        plain, err = run_harness("perfbench_harness", args, cfg,
                                 args.seconds / 2, deadline, [])
        if err:
            errors.append("untraced run: " + err)
        traced, err = run_harness("perfbench_traced", args, cfg,
                                  args.seconds / 2, deadline,
                                  ["--spans", spans, "--run-id", run_id])
        if err:
            errors.append("traced run: " + err)
        check(plain, "untraced", errors)
        check(traced, "traced", errors)
        main_res = traced
        if plain and traced and not errors:
            if fingerprint(plain)[0] != fingerprint(traced)[0]:
                errors.append("traced run changed the simulation fingerprint")
            metrics = per_layer(plain, traced, nodes)
        else:
            metrics = {}
        table = PER_LAYER
    else:
        main_res, err = run_harness("perfbench_harness", args, cfg,
                                    args.seconds, deadline, [])
        if err:
            errors.append(err)
        check(main_res, "run", errors)
        metrics = end_to_end(main_res) if main_res and main_res["reps"] else {}
        table = END_TO_END

    attempted = 1
    failed = 1
    if main_res and main_res["reps"]:
        reps = main_res["reps"]
        attempted = sum(r["attempted"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        if errors and failed == 0:
            failed = sum(r["attempted"] for r in reps if r["errors"]) or 1
        host = dict(main_res["host"])
        host["git_sha"] = git_sha()
        host["source_digest"] = source_digest()
        print("perfbench %s seed=%d trace=%d scale=%s" %
              (args.workload, args.seed, args.trace, args.scale))
        print("host " + json.dumps(host, sort_keys=True))
        print("inputs " + json.dumps(cfg, sort_keys=True))
        fp_hex, fp = fingerprint(main_res)
        print("fingerprint %s %s" % (fp_hex, json.dumps(fp, sort_keys=True)))
        print("repetitions %d" % len(reps))
        for name, unit, clock in table:
            if name in metrics:
                print("  %-30s %18.9g %-6s %s" %
                      (name, metrics[name], unit, clock))
    for e in errors:
        print("CHECK FAILED: " + e)
    correct = not errors
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in table if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
