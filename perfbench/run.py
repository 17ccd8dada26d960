#!/usr/bin/env python3
"""zetaheights benchmark: one workload per call, one JSON line of results.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: table1, session (see README.md). Each
runs in a fresh single-threaded process (BLAS and OpenMP pinned to one
thread) started from this script; the package is imported from src/ of the
checkout this script sits in. Processes are started until their timed
rounds add up to --seconds (at most MAX_PROCESSES), and then processes that
stop after set-up, until SETUPS set-up times are in hand. With --trace 0 the end-to-end metrics are printed. With
--trace 1 a single traced process gives the per-layer metrics and writes
its spans to perfbench/out/. Times are in reference seconds (calibrate.py);
the measured seconds behind them go to standard error.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 when every process ran to its end, whatever the checks
found; a run that cannot start or finish exits 1 without that line.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("table1", "session")
SETUPS = 3
MAX_PROCESSES = 5
DEADLINE_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("ZH_CONFIG", None)  # the package's default RunConfig throughout
    return env


def run_child(args, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("no time left for the next process")
    spawned_at = time.monotonic()
    # subprocess.run kills and reaps the child when the timeout expires
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          stdout=subprocess.PIPE, text=True, env=child_env(),
                          cwd=ROOT, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def end_to_end(procs, setups):
    rounds = [r for p in procs for r in p["rounds"]]

    def median(key):
        return statistics.median(r[key] for r in rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median("wall_s"), "s"),
        "row_s": (statistics.median(t for r in rounds for t in r["rows_s"]), "s"),
        "zeros_s": (median("zeros_s"), "s"),
        "reports_s": (median("reports_s"), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in procs), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(traced):
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = {"value": traced["rounds"][0]["wall_s"], "unit": "s"}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "zetaheights" / "__init__.py").is_file():
        print(f"error: no zetaheights package under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if selftest.main() != 0:
        print("error: the benchmark's checks failed their self-test", file=sys.stderr)
        return 1
    deadline = time.monotonic() + DEADLINE_S
    try:
        procs = [run_child(args, deadline)]
        while (not args.trace and len(procs) < MAX_PROCESSES
               and math.fsum(r["raw_wall_s"] for p in procs for r in p["rounds"])
               < args.seconds):
            procs.append(run_child(args, deadline))
        setups = list(procs)
        while not args.trace and len(setups) < SETUPS:
            setups.append(run_child(args, deadline, setup_only=True))
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(procs[0])
    else:
        metrics = end_to_end(procs, [p["setup_s"] for p in setups])
        rounds = [r for p in procs for r in p["rounds"]]
        print("measured seconds: set-up median %.4f, round median %.4f over %d rounds"
              % (statistics.median(p["raw_setup_s"] for p in setups),
                 statistics.median(r["raw_wall_s"] for r in rounds), len(rounds)),
              file=sys.stderr)
    print(json.dumps({"correct": all(p["correct"] for p in procs),
                      "attempted": sum(p["attempted"] for p in procs),
                      "failed": sum(p["failed"] for p in procs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
