#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only re-check the build. The benchmark binary prints one JSON line per
metric and per output check; this script prints them through and ends with
the result line: the metrics BENCHMARK.json names (end_to_end ones for
--trace 0, per_layer ones for --trace 1), and correct/attempted/failed.

--smoke runs every workload at a tiny scale, untraced and traced, and checks
that every metric named in BENCHMARK.json is printed with a unit and a
sample count and that every output check ran.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ["tune-edges", "tune-heuristic", "exact-certify", "serve-mixed"]

# Output checks each workload must run at least once (untraced / traced).
CHECKS = {
    "tune-edges": ["tune.best_validates", "tune.reprice_bit_equal",
                   "tune.best_le_baseline"],
    "exact-certify": ["exact.certificate_matches_reference",
                      "exact.best_validates", "exact.reprice_bit_equal",
                      "exact.best_le_baseline"],
    "serve-mixed": ["serve.response_ok", "serve.one_tuning_run_per_key",
                    "serve.warm_equals_cold", "serve.restart_equals_cold",
                    "serve.restart_served_warm",
                    "serve.restart_zero_tuning_runs",
                    "serve.tune_one_reference"],
}
CHECKS["tune-heuristic"] = CHECKS["tune-edges"]
TRACED_CHECKS = ["trace.neutral_results", "trace.spans_written",
                 "trace.span_buffer_held_all", "probe.walk_indices_match_fresh",
                 "probe.replay_prefixes_valid", "probe.generate_c_nonempty"]
TRACED_EXTRA = {"exact-certify": ["exact.threads_neutral"],
                "serve-mixed": ["diskstore.get_hits_every_key"]}


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources not found under " + ROOT)
        return False
    if not shutil.which("cmake"):
        log("cmake not found")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cfg, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def run_binary(workload, seed, seconds, trace, scale=1.0, echo=True):
    """Runs one workload; returns (metrics, checks, ops) or None on error.

    With `echo`, the binary's metric and check lines are printed through."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scale", str(scale), "--work-dir", WORK, "--repo-root", ROOT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(60.0, 3 * seconds + 90))
    except subprocess.TimeoutExpired:
        log("benchmark timed out")
        return None
    if proc.returncode != 0:
        log("benchmark exited with code %d" % proc.returncode)
        return None
    metrics, checks, ops = {}, {}, None
    for line in proc.stdout.splitlines():
        if echo:
            print(line)
        try:
            rec = json.loads(line)
        except ValueError:
            continue
        kind = rec.get("type")
        if kind == "metric":
            metrics[rec["name"]] = rec
        elif kind == "check":
            checks[rec["name"]] = rec
        elif kind == "ops":
            ops = rec
    if ops is None:
        log("benchmark printed no operation tally")
        return None
    return metrics, checks, ops


def contract_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(metrics, ops, names):
    missing = [n for n in names if n not in metrics]
    if missing:
        log("metrics missing from the benchmark output: " + ", ".join(missing))
        return None
    attempted = max(1, int(ops["attempted"]))
    failed = min(attempted, int(ops["failed"]))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n]["value"], "unit": metrics[n]["unit"]}
                    for n in names},
    }


def smoke():
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            got = run_binary(workload, 1, 1, trace, scale=0.05, echo=False)
            if got is None:
                problems.append("%s trace=%d: run failed" % (workload, trace))
                continue
            metrics, checks, ops = got
            for name in contract_names(trace):
                m = metrics.get(name)
                if m is None or not m.get("unit") or "samples" not in m:
                    problems.append("%s trace=%d: metric %s missing or "
                                    "without unit/samples" % (workload, trace, name))
            expected = CHECKS[workload] + (
                TRACED_CHECKS + TRACED_EXTRA.get(workload, []) if trace else [])
            for name in expected:
                if checks.get(name, {}).get("ran", 0) < 1:
                    problems.append("%s trace=%d: check %s never ran"
                                    % (workload, trace, name))
            failed = [c for c in checks.values() if c["failed"]]
            for c in failed:
                problems.append("%s trace=%d: check %s failed"
                                % (workload, trace, c["name"]))
    for p in problems:
        log("smoke: " + p)
    log("smoke: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    if not build():
        log("build failed")
        return 1
    if args.smoke:
        return smoke()
    got = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    metrics, _, ops = got
    line = result_line(metrics, ops, contract_names(args.trace))
    if line is None:
        return 1
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
