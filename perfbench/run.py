#!/usr/bin/env python3
"""wamlkit benchmark: closed-loop CLI queries with known answers.

    python3 perfbench/run.py --workload sat-interp --seed 1 --seconds 50 --trace 0

Each workload runs in one fresh child interpreter (``child.py``) that
drives ``wamlkit.cli.main(argv + ["--json"])`` in-process, one query at a
time.  With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  ``--workload all``
runs every workload in turn and prints one row per workload.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# a first run in a fresh checkout may also compile the package
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{workload}: run did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: benchmark child exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: benchmark child printed no result")
    return json.loads(lines[-1])


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report(results: dict[str, dict], trace: int) -> None:
    names = list(next(iter(results.values()))["metrics"])
    print("metric (unit)".ljust(44) + "".join(w.rjust(16) for w in results))
    if not trace:
        rows = [("failed_frac (fraction)",
                 [r["failed"] / r["attempted"] for r in results.values()]),
                ("samples (count)", [r["attempted"] for r in results.values()])]
    else:
        rows = []
    for name in names:
        unit = next(iter(results.values()))["metrics"][name]["unit"]
        rows.append((f"{name} ({unit})",
                     [r["metrics"][name]["value"] for r in results.values()]))
    for label, values in rows:
        print(label.ljust(44) + "".join(fmt(v).rjust(16) for v in values))
    for workload, r in results.items():
        kinds = ", ".join(f"{k} {v['count']}x {v['median_ms']:.1f}ms"
                          for k, v in r["kinds"].items())
        print(f"{workload} query classes (count, median latency): {kinds}")
        for failure in r["failures"]:
            print(f"{workload} FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one pass, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {
        w: run_child(w, args.seed, args.seconds, args.trace, args.tiny) for w in chosen
    }
    report(results, args.trace)
    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
