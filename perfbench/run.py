#!/usr/bin/env python3
"""SwitchV2P simulator benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Builds the benchmark executable
with dune, then runs one workload for about S seconds and prints, as the
last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer ledger
(--trace 1) named in BENCHMARK.json.

A run covers K fixed inputs ("sub-seeds" derived from --seed; K is a
per-workload constant), each simulated in its own process, one
single-domain simulation per process. Sub-seeds are run round-robin
while time remains, so most are repeated; the first process of a run
warms the machine up and its times are not used.

Host times are scaled to one host speed, then pooled over all timed
processes of the run. Wall time on a shared host drifts by tens of
percent over minutes, so a fixed reference kernel (perfbench/lib/
reference.ml, shaped like the simulator's event loop and independent of
the program under test) is timed in a process of its own before and
after every process, and that process's host times are multiplied by
REF_NOMINAL_S / the mean of the two readings. run_s is the
mean event count of the K inputs times the trimmed mean of the scaled
Network.run nanoseconds per event, and setup_s is the median of the
processes' scaled set-up medians. The raw wall times and the reference
readings are printed on the '#' lines.
Simulated outcomes are exact per input and are averaged over the K
inputs.

Every process checks its own output (packet conservation, every flow
started and accounted for); repeats of one input must produce the same
result digest, and a traced run must reproduce its untraced run.
A process that fails either check counts as failed, and a failed run
contributes 0 to flow_done_frac. The command exits 1 if any check
failed, and 2 without a result if the benchmark cannot run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = {
    # name: sub-seeds per run. Distinct inputs average out the
    # seed-to-seed variation of the workload; the first pass over them
    # takes about half of a 40 s run on a 2-core x86 box (processes take
    # 2-3.5 s, 3.5-5 s, 2-3.5 s and 5-8 s), and the rest of the
    # run repeats them, which the digest check needs.
    "hadoop_v2p": 6,
    "websearch_direct": 4,
    "churn_v2p": 6,
    "ft16_alibaba": 3,
}

# Share of the timed samples dropped at each end before averaging
# nanoseconds per event: a process that lands on a stall of the shared
# host moves a plain mean by a whole sample.
TRIM = 0.1

# Host times are reported at the host speed at which the reference
# kernel takes this long: about its time on a quiet 2-core x86 box, so
# that a run_s reads close to the wall time a user of such a box sees.
REF_NOMINAL_S = 0.2

EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
PROCESS_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 800


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet",
             "./perfbench/bin/main.exe"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    except FileNotFoundError:
        die("dune not found on PATH")
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        die("build failed")


def sub_seeds(seed, k):
    return [seed * 16 + j for j in range(k)]


def run_exe(args, what):
    try:
        p = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s: timed out" % what)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        die("%s: exited %d" % (what, p.returncode))
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        die("%s: unreadable output" % what)


def run_process(workload, seed, trace):
    return run_exe(["--workload", workload, "--seed", str(seed)]
                   + (["--trace"] if trace else []),
                   "%s seed %d" % (workload, seed))


def reference_s():
    return run_exe(["--reference"], "reference kernel")["ref_s"]


def metric_specs(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def trimmed_mean(xs, share):
    xs = sorted(xs)
    k = int(len(xs) * share)
    return statistics.fmean(xs[k:len(xs) - k])


def end_to_end(seeds, runs, order):
    """End-to-end metrics of an untraced run.

    Host times pool every process but the warm-up one; the simulated
    outcomes, exact per input, are averaged over the inputs; so is the
    peak RSS, the median of each input's repeats."""
    timed = [dict(r["metrics"], ref_s=r["ref_s"]) for _, r in order[1:]] \
        or [dict(order[0][1]["metrics"], ref_s=order[0][1]["ref_s"])]
    events = statistics.fmean(runs[s][0]["metrics"]["events"] for s in seeds)

    def run_s(scale):
        return events * trimmed_mean(
            [m["run_s"] / m["events"] * scale(m) for m in timed], TRIM)

    def setup_s(scale):
        return statistics.median(m["setup_s"] * scale(m) for m in timed)

    def host(m):
        return REF_NOMINAL_S / m["ref_s"]

    def raw(m):
        return 1.0

    for s, r in order:
        m = r["metrics"]
        print("# process seed=%d run_s=%.6g events=%d setup_s=%.6g ref_s=%.6g"
              % (s, m["run_s"], m["events"], m["setup_s"], r["ref_s"]))
    print("# raw wall time: run_s %.6g s, setup_s %.6g s; reference kernel "
          "median %.6g s (nominal %g s) over %d timed processes" % (
              run_s(raw), setup_s(raw),
              statistics.median(m["ref_s"] for m in timed), REF_NOMINAL_S,
              len(timed)))
    values = {
        "run_s": run_s(host),
        "setup_s": setup_s(host),
        "peak_rss_mb": statistics.fmean(
            statistics.median(r["metrics"]["peak_rss_mb"] for r in runs[s])
            for s in seeds),
    }
    per_input = []
    for s in seeds:
        m = runs[s][0]["metrics"]
        ok = all(r["ok"] for r in runs[s])
        # Complements of fractions that are 0 on healthy runs, so that
        # no end-to-end metric is ever 0; a failed check zeroes
        # flow_done_frac.
        per_input.append({
            "hit_rate": m["hit_rate"],
            "fct_mean_us": m["fct_mean_us"],
            "fct_p99_us": m["fct_p99_us"],
            "first_pkt_us": m["first_pkt_us"],
            "pkt_nodrop_frac": 1.0 - m["pkt_drop_frac"],
            "flow_done_frac": (1.0 - m["flow_fail_frac"]) if ok else 0.0,
        })
    for k in per_input[0]:
        values[k] = statistics.fmean(o[k] for o in per_input)
    return values


def print_ledger(results):
    print("# ledger (spans of the first traced process; self = total - children)")
    for s in results[0]["spans"]:
        print("#   %-16s parent=%-12s count=%-9d total=%.6fs self=%.6fs"
              % (s["name"], s["parent"] or "-", s["count"], s["total_s"],
                 s["self_s"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    trace = args.trace == 1
    if not os.path.isfile("BENCHMARK.json"):
        die("run from the repository root (BENCHMARK.json not found)")
    specs = metric_specs(trace)
    build()

    seeds = sub_seeds(args.seed, WORKLOADS[args.workload])
    runs = {s: [] for s in seeds}
    order = []  # (sub-seed, result) in the order run
    start = time.monotonic()
    # Host-speed readings bracket every untraced process.
    ref_before = None if trace else reference_s()
    passes = 0
    while True:
        for s in seeds:
            elapsed = time.monotonic() - start
            # The first pass always completes in an untraced run (every
            # input's outcomes count); a traced process is several times
            # longer, so a traced run stops at the deadline after its
            # first input.
            done_first = passes > 0 or (trace and order)
            if done_first and elapsed + cost > args.seconds:
                break
            t0 = time.monotonic()
            r = run_process(args.workload, s, trace)
            if not trace:
                ref_after = reference_s()
                r["ref_s"] = (ref_before + ref_after) / 2
                ref_before = ref_after
            cost = time.monotonic() - t0
            runs[s].append(r)
            order.append((s, r))
        else:
            passes += 1
            continue
        break

    attempted = failed = 0
    for s in seeds:
        rs = runs[s]
        digests = {r["digest"] for r in rs}
        for r in rs:
            attempted += 1
            if len(digests) > 1:
                r["ok"] = False
                r["errors"].append("digest differs across repeats of seed %d" % s)
            if not r["ok"]:
                failed += 1
                print("# FAILED seed %d: %s" % (s, "; ".join(r["errors"])))
    seeds = [s for s in seeds if runs[s]]

    first = runs[seeds[0]][0]
    print("# %s seed=%d sub_seeds=%s processes=%d sched=%s git_rev=%s "
          "nproc=%d ocaml=%s" % (
              args.workload, args.seed, seeds, attempted,
              ",".join(sorted({r["sched"] for rs in runs.values() for r in rs})),
              first["git_rev"], first["nproc"], first["ocaml"]))

    if trace:
        per_seed = [[r["metrics"] for r in runs[s]] for s in seeds]
        values = {spec["name"]: statistics.fmean(
            statistics.median(m[spec["name"]] for m in ms) for ms in per_seed)
            for spec in specs}
    else:
        values = end_to_end(seeds, runs, order)
    metrics = {}
    for spec in specs:
        name = spec["name"]
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print("# %-28s %14.6g %s" % (name, values[name], spec["unit"]))
    if trace:
        print_ledger(runs[seeds[0]])

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
