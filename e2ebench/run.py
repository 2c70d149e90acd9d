#!/usr/bin/env python3
"""End-to-end checkpoint benchmark runner.

Builds e2e_bench from the checkout's sources (into .bench_build/), then runs
one workload and prints, as the last line of stdout, one JSON object with the
keys correct, attempted, failed and metrics.

  python3 e2ebench/run.py --workload synth-capture --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --self-test

--trace 0 prints the end-to-end metrics of an untraced run. --trace 1 runs
the workload twice, in two processes: untraced, then as a traced replay of
the same cycles. It checks that both passes wrote byte-identical logs and
recovered identical states, and prints the replay's per-layer metrics plus
obs.trace_overhead_pct, the replay's extra time over the untraced pass.
--self-test runs every workload at a tiny size through both passes and checks
the metric names, units, sample counts, ordering invariants and digests.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
WORK = os.path.join(ROOT, ".bench_build", "e2ebench-work")
BINARY = os.path.join(BUILD, "e2e_bench")
WORKLOADS = ["synth-capture", "analysis-phases", "history-service"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "e2e_bench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_pass(workload, seed, seconds, trace, work, state, extra=()):
    """Run one binary pass; its human-readable lines go to our stdout, its
    closing JSON line and state file are returned."""
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work, "--state-out", state, *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        with open(state) as f:
            return result, json.load(f)
    except (IndexError, ValueError, OSError):
        log("e2ebench: pass of %s produced no result (exit %d)"
            % (workload, proc.returncode))
        return None, None


def compare(untraced, traced):
    """The replay must write the same bytes and recover the same states."""
    problems = []
    for key in ("cycles", "epochs", "log_crcs", "recoveries"):
        if untraced[key] != traced[key]:
            problems.append("traced %s differ from untraced" % key)
    return problems


def run_workload(workload, seed, seconds, trace, extra=()):
    """Returns (result JSON, untraced state, traced state or None)."""
    work = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
    try:
        if trace:
            extra = (*extra, "--log-crcs")
        a_json, a_state = run_pass(workload, seed, seconds, False, work,
                                   os.path.join(work, "untraced.json"), extra)
        if not trace or a_json is None:
            return a_json, a_state, None
        spans = os.path.join(ROOT, ".bench_build", "spans-%s.json" % workload)
        b_json, b_state = run_pass(
            workload, seed, seconds, True, work,
            os.path.join(work, "traced.json"),
            (*extra, "--cycles", str(a_state["cycles"]), "--spans-out", spans))
        if b_json is None:
            return None, a_state, None
        problems = compare(a_state, b_state)
        for p in problems:
            print("  FAILED: " + p)
        overhead = 100.0 * (b_state["timed_ms"] - a_state["timed_ms"]) / \
            a_state["timed_ms"]
        print("  %-30s %-14.6g %-6s n=%d" % ("obs.trace_overhead_pct", overhead,
                                             "%", b_state["epochs"]))
        b_json["metrics"]["obs.trace_overhead_pct"] = {"value": overhead,
                                                       "unit": "%"}
        b_json["attempted"] += a_json["attempted"]
        b_json["failed"] += a_json["failed"] + len(problems)
        b_json["correct"] = (a_json["correct"] and b_json["correct"]
                             and not problems)
        b_state["metrics"].append(["obs.trace_overhead_pct", overhead, "%",
                                   b_state["epochs"]])
        return b_json, a_state, b_state
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test():
    """Every workload at a tiny size, untraced and traced."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in WORKLOADS:
        result, untraced, traced = run_workload(workload, 1, 1, True,
                                                ("--tiny",))
        if result is None:
            failures.append("%s: no result" % workload)
            continue
        if not result["correct"] or result["failed"] != 0:
            failures.append("%s: failed_ops_ratio %d/%d" % (
                workload, result["failed"], result["attempted"]))
        for state, listed, need_n in ((untraced, bench["end_to_end"], True),
                                      (traced, bench["per_layer"], False)):
            got = {m[0]: m for m in state["metrics"]}
            for metric in listed:
                m = got.get(metric["name"])
                if m is None or m[2] != metric["unit"]:
                    failures.append("%s: %s missing or not in %s" % (
                        workload, metric["name"], metric["unit"]))
                elif need_n and m[3] < 1:
                    failures.append("%s: %s has n=0" % (workload, m[0]))
            for name, unit, n, lo, p50, p90, hi in state["timings"]:
                if n and not lo <= p50 <= p90 <= hi:
                    failures.append("%s: %s breaks min<=p50<=p90<=max" % (
                        workload, name))
    for f in failures:
        print("SELF-TEST FAILED: " + f)
    print("self-test: %s" % ("ok" if not failures else
                             "%d failure(s)" % len(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload or --self-test is required")
    if not build():
        log("e2ebench: build failed")
        return 2
    if args.self_test:
        return self_test()
    result, _, _ = run_workload(args.workload, args.seed, args.seconds,
                                args.trace == 1)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
