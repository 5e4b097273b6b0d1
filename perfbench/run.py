#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload sim-fig6 --seed 1 --seconds 30 --trace 0

Run it from the repository root. It builds the measuring program
(perfbench/lobench.exe) from source with dune, runs the workload once,
and prints, as the last line of standard output,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. It exits non-zero when the build fails,
when a correctness gate fails, or when the repository sources are not
there. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

# Seed kept out of tuning, for re-checking a claim on unseen inputs.
HELD_OUT_SEED = 90017

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
EXE = os.path.join("_build", "default", "perfbench", "lobench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(env):
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/lobench.exe"],
            stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune is not installed")
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if done.returncode != 0:
        fail("build failed", 3)


def measure(args, env):
    """Run the measuring program in its own process group; return its
    stdout, exit status and peak resident set (MB) over it and every
    process it reaped."""
    proc = subprocess.Popen(
        [EXE, args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, env=env, start_new_session=True)

    def kill():
        print("perfbench: run timed out", file=sys.stderr)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(RUN_TIMEOUT_S, kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    # A child the program forked (sim-fig6's reference run) shares its
    # group; none may outlive it.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return out, proc.returncode, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog="held-out seed: %d" % HELD_OUT_SEED)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the repository root: %s is missing" % need)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    env = dict(os.environ, DUNE_CACHE="disabled")
    build(env)
    out, code, peak_rss_mb = measure(args, env)
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        fail("the measuring program printed no result (exit %d)" % code, 4)
    result = json.loads(lines[-1])

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if args.trace == 0:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail("metric %s (%s) is not in BENCHMARK.json as such"
                 % (name, m["unit"]), 4)
    # Per-layer counters of layers this workload never calls read 0.
    for name, unit in units.items():
        if name not in metrics:
            if args.trace == 0:
                fail("end-to-end metric %s was not measured" % name, 4)
            metrics[name] = {"value": 0, "unit": unit}
    result["metrics"] = {name: metrics[name] for name in units}
    result["correct"] = bool(result["correct"]) and code == 0
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
