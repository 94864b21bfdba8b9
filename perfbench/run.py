#!/usr/bin/env python3
"""The APRIL simulator benchmark: one command, one workload per call.

Builds the harness (perfbench/harness.cc plus the simulator sources in
src/) with CMake, runs one workload as a closed loop for --seconds of
host time, checks every program against its oracle and the recorded
deterministic counters, and prints every metric by name and unit. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json with
--trace 0 and its per-layer metrics with --trace 1.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --workload NAME --record

See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 12345
WORKLOADS = ("table3_perfect", "table3_alewife", "coherent16_mt")
# Harness wall-clock limit: every run must end well inside 180 s.
HARNESS_TIMEOUT_S = 170

SETUP_SPANS = ("runtime.emit_s", "mult.compile_s", "isa.assemble_s",
               "machine.construct_s", "machine.boot_s")
REPORT_SPANS = ("stats.dump_json_s", "profile.verify_s")
BUCKETS = ("useful", "switch", "trap", "local_miss", "idle", "hazard")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the harness; return its path or exit 1."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: simulator sources (src/) not found next to "
            "perfbench/")
        sys.exit(1)
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out):
        out = os.path.join(ROOT, out)
    out = os.path.join(out, "perfbench")
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for a checkout at another path cannot
        # be reused; start it afresh.
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or os.path.realpath(home[0]) != os.path.realpath(HERE):
            shutil.rmtree(out)
    if not os.path.isfile(cache):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("perfbench: cmake configure failed")
            sys.exit(1)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return os.path.join(out, "april_perfbench")


def harness(binary, args):
    """Run the harness; return its exit code and standard output."""
    try:
        p = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S)
        sys.exit(1)
    return p.returncode, p.stdout


def counters_path(workload):
    return os.path.join(HERE, "counters", workload + ".json")


def ratio(a, b):
    return a / b if b else 0.0


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (percentile, value); (0, min) when there are ten samples
    or fewer, so no percentile qualifies.
    """
    xs = sorted(samples)
    k = len(xs) - 10
    if k < 1:
        return 0.0, xs[0]
    return 100.0 * k / len(xs), xs[k - 1]


def compare_counters(got, recorded):
    """Names of the recorded counters the run did not reproduce."""
    return sorted(k for k, v in recorded.items() if got.get(k) != v)


def end_to_end(d):
    reps = d["reps"]
    wall = [r["wall_s"] for r in reps]
    setup = [sum(r["spans"][s] for s in SETUP_SPANS) for r in reps]
    cps = [ratio(r["sim_cycles"], r["spans"]["machine.run_s"]) for r in reps]
    return {
        "wall_s": (statistics.median(wall), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "sim_cycles_per_s": (statistics.median(cps), "1/s"),
        "sim_cycles": (statistics.median(r["sim_cycles"] for r in reps),
                       "cycles"),
        "peak_rss_mb": (d["peak_rss_mb"], "MB"),
    }


def per_layer(d, mismatched):
    reps = d["reps"]
    # A repetition whose programs all failed leaves counters out.
    c = collections.defaultdict(float, d["counters"])
    t = d["traced"]
    m = {}

    def med(f):
        return statistics.median(f(r) for r in reps)

    for name in reps[0]["spans"]:
        m[name] = (med(lambda r: r["spans"][name]), "s")
    run_s = m["machine.run_s"][0]
    wall = [r["wall_s"] for r in reps]
    pct, tail_s = tail(wall)
    m["wall.reps"] = (len(reps), "count")
    m["wall.tail_pct"] = (pct, "%")
    m["wall.tail_s"] = (tail_s, "s")
    m["phase.accounted_frac"] = (med(lambda r: sum(
        r["spans"][s] for s in SETUP_SPANS + ("machine.run_s",)
        + REPORT_SPANS) / r["wall_s"]), "ratio")
    m["phase.spans_frac"] = (med(
        lambda r: sum(r["spans"].values()) / r["wall_s"]), "ratio")
    m["mem.image_mb"] = (d["mem.image_mb"], "MB")
    m["stats.json_bytes"] = (d["stats.json_bytes"], "bytes")
    m["machine.ns_per_node_cycle"] = (
        1e9 * ratio(run_s, c["proc.node_cycles"]), "ns")
    m["machine.ns_per_inst"] = (1e9 * ratio(run_s, c["proc.insts"]), "ns")
    m["machine.host_threads"] = (d["fingerprint"]["host_threads"],
                                 "threads")
    m["machine.quanta"] = (c["machine.quanta"], "count")
    cycles = c["proc.node_cycles"]
    for k in ("insts", "node_cycles", "switches"):
        m["proc." + k] = (c["proc." + k], "count")
    m["proc.utilization"] = (ratio(c["proc.cycles_useful"]
                                   + c["proc.cycles_hazard"], cycles),
                             "ratio")
    m["proc.stall_frac"] = (ratio(c["proc.stall_cycles"], cycles), "ratio")
    for b in BUCKETS:
        m["proc.bucket." + b] = (ratio(c["proc.cycles_" + b], cycles),
                                 "ratio")
    for k in ("cache.hits", "cache.misses", "coherence.local_misses",
              "coherence.remote_misses", "coherence.inv_sent",
              "coherence.writebacks", "network.packets",
              "network.flit_hops", "runtime.spawns", "runtime.steals",
              "runtime.blocks", "runtime.resumes"):
        m[k] = (c[k], "count")
    m["cache.miss_rate"] = (ratio(c["cache.misses"],
                                  c["cache.hits"] + c["cache.misses"]),
                            "ratio")
    m["coherence.remote_latency_mean"] = (
        ratio(c["coherence.remote_latency_sum"],
              c["coherence.remote_latency_count"]), "cycles")
    m["network.latency_mean"] = (ratio(c["network.latency_sum"],
                                       c["network.latency_count"]),
                                 "cycles")
    for k in ("trace.run_overhead", "machine.skip_speedup",
              "machine.thread_speedup"):
        m[k] = (t[k], "ratio")
    for k in ("trace.", "coherence.txn_", "task.", "profile."):
        m[k + "write_s"] = (t[k + "write_s"], "s")
        m[k + "bytes"] = (t[k + "bytes"], "bytes")
    for k in ("trace.dropped", "coherence.txn_dropped", "task.dropped"):
        m[k] = (t[k], "count")
    m["fail_rate"] = (ratio(d["failed"], d["attempted"]), "ratio")
    m["counters.mismatched"] = (mismatched, "count")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the harness against the driver and "
                         "its failure counting")
    ap.add_argument("--record", action="store_true",
                    help="record the workload's deterministic counters "
                         "at the default seed")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if a.self_test:
        code, out = harness(binary, ["--self-test"])
        print(out, end="")
        return code

    seed = DEFAULT_SEED if a.record else a.seed
    args = ["--workload", a.workload, "--seed", str(seed),
            "--seconds", str(a.seconds)]
    if a.trace:
        args.append("--trace")
    code, out = harness(binary, args)
    if code != 0:
        log("perfbench: harness exited with %d" % code)
        return 1
    d = json.loads(out.strip().splitlines()[-1])

    if a.record:
        os.makedirs(os.path.dirname(counters_path(a.workload)),
                    exist_ok=True)
        with open(counters_path(a.workload), "w") as f:
            json.dump({"seed": DEFAULT_SEED, "counters": d["counters"]},
                      f, indent=1, sort_keys=True)
            f.write("\n")
        log("perfbench: recorded %s" % counters_path(a.workload))
        return 0 if d["failed"] == 0 else 1

    # The recorded counters hold at the default seed: compare the run
    # itself there, and the traced pass's default-seed reference
    # repetition otherwise.
    with open(counters_path(a.workload)) as f:
        recorded = json.load(f)["counters"]
    if seed == DEFAULT_SEED:
        mismatched = compare_counters(d["counters"], recorded)
    elif "reference_counters" in d:
        mismatched = compare_counters(d["reference_counters"], recorded)
    else:
        mismatched = []
    for k in mismatched:
        log("perfbench: counter %s differs from the recorded value" % k)

    fp = d["fingerprint"]
    print("host: nproc=%d compiler=%s %s build=%s host_threads=%d seed=%d"
          % (fp["nproc"], fp["compiler"], fp["compiler_version"],
             fp["build_type"], fp["host_threads"], fp["seed"]))
    for e in d["errors"]:
        print("failure: " + e)
    wall = [r["wall_s"] for r in d["reps"]]
    pct, tail_s = tail(wall)
    tail_text = ("p%.0f %.4f s" % (pct, tail_s) if pct else
                 "no percentile has ten repetitions beyond it")
    print("wall_s over %d repetitions: median %.4f s, %s"
          % (len(wall), statistics.median(wall), tail_text))

    metrics = per_layer(d, len(mismatched)) if a.trace else end_to_end(d)
    for name, (value, unit) in metrics.items():
        print("%-32s %.6g %s" % (name, value, unit))
    result = {
        "correct": d["failed"] == 0,
        "attempted": d["attempted"],
        "failed": d["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
