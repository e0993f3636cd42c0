"""Benchmark of siegel-runge: end-to-end and per-layer metrics per workload.

    python3 bench/run.py --workload embed_reduced --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; the library is imported from ``src/``.
The run pins itself, and with it every process it starts, to one CPU.
Each run starts eight worker processes one after another: the fifth sets
up and runs the timed phase, the others only set up, so that the set-ups
span the whole run.  ``setup_s`` is the median of their eight set-up
times, each scaled by the control kernel (``control.py``) timed just
before the process starts and just after its set-up.  With ``--trace 0``
the metrics are the end-to-end ones; ``--trace 1`` runs the workload
traced and prints the per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record of each run, with its metadata, goes to
``bench/results/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import control

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("embed_reduced", "embed_unreduced", "reduce_tube", "cli_cold")
#: Set-up-only workers started before and after the worker that runs the
#: timed phase; setup_s is the median scaled set-up time of all of them and
#: that worker.
SETUPS_BEFORE = 4
SETUPS_AFTER = 3

#: Control-kernel calls timed before starting each worker; the worker
#: times as many after its set-up.
SETUP_CONTROL_REPS = 200

#: Wall-clock budget of one workload: this allowance for the set-ups, the
#: fresh-input pass and process starts, plus twice ``--seconds``.
SETUP_ALLOWANCE_S = 60.0

#: Environment variables removed before starting workers, so that every
#: run measures the library defaults.
CLEARED_ENV = ("SIEGEL_RUNGE_THREADS",)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline: float, setup_only: bool) -> dict:
    """Run one worker; its record gains ``setup_scaled_s``."""
    control_before = control.seconds(SETUP_CONTROL_REPS)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload}: worker did not finish within the budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args.workload}: worker exited with {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_scaled_s"] = (rec["setup_s"] * control.REF_S
                             / (0.5 * (control_before + rec["control_s"])))
    return rec


def run_workload(args) -> dict:
    deadline = time.monotonic() + SETUP_ALLOWANCE_S + 2.0 * args.seconds
    setups = [run_worker(args, deadline, True) for _ in range(SETUPS_BEFORE)]
    rec = run_worker(args, deadline, False)
    setups.append(rec)
    setups += [run_worker(args, deadline, True) for _ in range(SETUPS_AFTER)]
    rec["setup_samples_s"] = [s["setup_s"] for s in setups]
    rec["setup_scaled_samples_s"] = scaled = [s["setup_scaled_s"] for s in setups]
    if not args.trace:
        rec["metrics"] = {"setup_s": {"value": statistics.median(scaled), "unit": "s"},
                          **rec["metrics"]}
    rec["cleared_env"] = {k: os.environ.get(k) for k in CLEARED_ENV}
    rec["args"] = {"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace}
    return rec


def report(name: str, rec: dict) -> None:
    print(f"{name}: seed {rec['args']['seed']}, {rec['args']['seconds']} s, "
          f"trace {rec['args']['trace']}, inputs {rec['digest']}")
    for metric, m in rec["metrics"].items():
        note = ""
        if metric == "setup_s":
            note = (f"  (scaled median of {len(rec['setup_samples_s'])} set-ups;"
                    f" wall median {statistics.median(rec['setup_samples_s']):.4g} s)")
        elif metric.startswith("theta."):
            note = "  (computed from the inputs)"
        elif metric == "latency_ms_tail":
            t = rec["tail"]
            note = f"  (p{t['percentile']:g} over {t['samples']} {t['per']}s, {t['beyond']} beyond)"
        print(f"  {metric:38s} {m['value']:14.6g} {m['unit']}{note}")
    if "wall" in rec:
        wall = rec["wall"]
        for metric, unit in (("ops_per_s", "1/s"), ("latency_ms_p50", "ms"), ("latency_ms_tail", "ms")):
            print(f"  {'(wall, unscaled) ' + metric:38s} {wall[metric]:14.6g} {unit}")
    if "fresh" in rec:
        f = rec["fresh"]
        print(f"  {'(new inputs, once each) latency_ms_p50':38s} {f['latency_ms_p50']:14.6g} ms"
              f"  ({f['inputs']} inputs, {f['ratio']:.3g} x the timed p50,"
              f" at most {f['max_ratio']:g})")
    print(f"  {'ops_failed':38s} {rec['failed']:14d} of {rec['attempted']} attempted")
    for cause, count in rec["raised"].items():
        print(f"    raised {count}x: {cause}")
    for miss in rec["misses"]:
        print(f"    check missed: {miss}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One CPU for this process and every process it starts, so that the
    # control kernel and the operations it scales share a core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "siegel_runge" / "__init__.py").is_file():
        print(f"error: no siegel_runge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    for name, rec in records.items():
        report(name, rec)
        path = results / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(rec, indent=1) + "\n")

    prefix = len(records) > 1
    metrics = {(f"{n}." if prefix else "") + k: v
               for n, r in records.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records.values())
    guards = all(r.get("fresh", {}).get("ok", True) for r in records.values())
    print(json.dumps({
        "correct": failed == 0 and guards,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
