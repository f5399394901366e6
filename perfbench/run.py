#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: wire_steady, wire_drift, cosim_shared_gpu (see BENCHMARK.json).

The script builds the `perfbench` crate next to it (release, offline) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset, and then runs
fresh processes of it, one per measurement:

* --trace 0: SETUP_PROBES processes that stop at the first timed request,
  then one process that runs the timed phase and the correctness checks.
  `setup_s` is the median over all of them; every other end-to-end metric
  comes from the timed process.
* --trace 1: an untraced process for a quarter of the time, a traced one
  for half and another untraced one for the last quarter. The per-layer
  metrics come from the traced process; `trace.overhead_pct` compares its
  throughput with the untraced ones. A traced wire run writes its spans
  under the target directory.

Timing metrics are read over slices of the timed phase: a quarter of a
second for the wire workloads, a second for the co-simulation. Between
slices, while the program is idle, the benchmark times a fixed
computation of its own and scales each slice's times to a nominal host
speed (src/calib.rs), because a shared host's speed drifts by tens of
percent within minutes. Each metric is the median of that slice's
figure over the slices in which the host stole no more CPU than in the
eighth least-stolen one: every steal-free slice on a calm host. For the
wire workloads that includes each slice's own 99th-percentile latency,
so the slices a stall spoils do not move it (src/timing.rs). The timings
as measured, before scaling, are printed too.

Before the result it prints the environment, the workload's measured
properties and every metric with its unit and sample count. The last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 when the checks
pass, 1 when a check failed (the result line says which record), and 2
when the benchmark could not run (no result line).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_steady", "wire_drift", "cosim_shared_gpu")
# Fresh processes that measure set-up only; with the timed process they
# give the median `setup_s` over SETUP_PROBES + 1 set-ups.
SETUP_PROBES = 10
# Every process of one invocation must finish within this many seconds.
BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Build output goes to stderr: the last stdout line is the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("building perfbench failed")
    return os.path.join(target_dir(), "release", "perfbench")


def run_process(binary, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time budget")
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"perfbench {' '.join(args)} timed out") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"perfbench {' '.join(args)} exited with {done.returncode}")
    return json.loads(lines[-1])


def command_output(cmd):
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def env_block(args, report, traced):
    git = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"])
    env = {
        "git_rev": git,
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "build_profile": "release",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
    }
    env.update(report["env"])
    return env


def print_block(title, items):
    print(title)
    for name, value in items:
        print(f"  {name:34} {value}")


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:34} {m['value']:>16.6g} {m['unit']:<6} (n={m['samples']:.0f})")


def measure(binary, args):
    """Runs the processes; returns the reported run, the metrics of the
    result line, the failed checks and extra metric tables to print."""
    deadline = time.monotonic() + BUDGET_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        # Untraced quarter, traced half, untraced quarter: the overhead
        # compares the traced half with both quarters, so a drift in host
        # speed over the run cancels to first order.
        quarter = base + ["--seconds", str(args.seconds / 4), "--trace", "0"]
        spans = os.path.join(target_dir(), "perfbench-spans", f"{args.workload}.jsonl")
        first = run_process(binary, ["run"] + quarter, deadline)
        report = run_process(binary, ["run"] + base + ["--seconds", str(args.seconds / 2),
                                                      "--trace", "1", "--spans", spans],
                             deadline)
        last = run_process(binary, ["run"] + quarter, deadline)
        rps = lambda r: r["metrics"]["throughput_rps"]["value"]
        base_rps = (rps(first) + rps(last)) / 2
        metrics = dict(report["layers"])
        metrics["trace.overhead_pct"] = {
            "value": (base_rps - rps(report)) / base_rps * 100.0,
            "unit": "%",
            "samples": 3,
        }
        errors = [r["error"] for r in (first, report, last) if r["error"]]
        tables = [("end-to-end metrics, first untraced quarter", first["metrics"]),
                  ("end-to-end metrics, traced half", report["metrics"]),
                  ("end-to-end metrics, last untraced quarter", last["metrics"])]
        if args.workload != "cosim_shared_gpu":
            print(f"spans written to {spans}")
    else:
        setups = [run_process(binary, ["setup"] + base, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        report = run_process(binary, ["run"] + base + ["--seconds", str(args.seconds),
                                                      "--trace", "0"], deadline)
        setups.append(report["setup_s"])
        metrics = dict(report["metrics"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s",
                              "samples": len(setups)}
        errors = [report["error"]] if report["error"] else []
        tables = []
    return report, metrics, errors, tables


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")
    try:
        binary = build()
        report, metrics, errors, tables = measure(binary, args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print_block(f"perfbench {args.workload}: environment",
                env_block(args, report, bool(args.trace)).items())
    print_block("workload properties (timed phase)", report["properties"].items())
    print_block("requests", [(k, report[k]) for k in
                             ("attempted", "completed", "failed", "retries")])
    for title, table in tables:
        print_metrics(title, table)
    if not args.trace:
        print_metrics("end-to-end timing as measured, before host-speed scaling",
                      report["raw_metrics"])
    print_metrics("per-layer metrics" if args.trace else "end-to-end metrics", metrics)
    if args.trace:
        groups = ("transport.cpu_us_per_req", "threaded.mux_cpu_us_per_req",
                  "threaded.worker_cpu_us_per_req", "engine.cpu_us_per_req",
                  "other.cpu_us_per_req")
        total = sum(metrics[g]["value"] for g in groups)
        print(f"thread-group CPU adds up to {total:.6g} us/req; process CPU over the "
              f"traced phase: {report['env']['cpu_us_per_req_whole_phase']:.6g} us/req")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    result = {
        "correct": not errors,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
