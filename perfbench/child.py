"""One workload run inside a fresh interpreter; started by ``run.py``.

Sets the workload up several times (fresh import of the package, input
generation, file writes) and keeps the last set-up, then issues whole
passes of queries in a closed loop through ``wamlkit.cli.main`` until the
run time is used up, checks every verdict against the oracle, and prints
one JSON object with the run's metrics on its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(SRC))
import workloads  # noqa: E402  (sibling module; the script's directory is on sys.path)

SETUP_REPEATS = 15
MIN_QUERIES = 100

# per-layer metrics of the traced run: span name -> reported fields
LAYERS = {
    "cli.main": ("self_s", "total_s"),
    "syntax.parse": ("self_s",),
    "syntax.print_formula": ("self_s",),
    "syntax.enumerate_formulas": ("calls", "self_s", "formulas"),
    "model.load": ("calls", "self_s"),
    "model.make_model": ("calls", "self_s"),
    "semantics.check": ("calls", "self_s"),
    "semantics.ModelEvaluator.init": ("calls", "self_s"),
    "semantics.ModelEvaluator.mask": ("calls", "self_s", "nested"),
    "semantics.bounded_sat": ("calls", "self_s", "total_s", "sat", "unsat", "budget_exceeded"),
    "bisim.greatest_bisim": ("calls", "self_s", "pairs"),
    "bisim.distinguishing_formula": ("calls", "self_s", "formula_size"),
    "bisim.check_bisim": ("calls", "self_s"),
    "unravel.unravel": ("calls", "self_s", "nodes", "budget_exceeded"),
    "unravel.check_pmorphism": ("calls", "self_s"),
    "proof.check_script": ("calls", "self_s", "total_s", "lines"),
    "proof.is_tautology": ("calls", "self_s"),
    "interp.build_counterexample": ("self_s",),
    "interp.verify_counterexample": ("self_s", "total_s"),
}


def fresh_import():
    """Import ``wamlkit.cli`` from this checkout, dropping any earlier
    import so that every set-up pays for the package's import again."""
    for name in [m for m in sys.modules if m == "wamlkit" or m.startswith("wamlkit.")]:
        del sys.modules[name]
    import wamlkit.cli

    if not Path(wamlkit.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"wamlkit imported from {wamlkit.cli.__file__}, not from {SRC}")
    return wamlkit.cli


def execute(cli, query):
    """Run one query; return (exit code or None, stdout, error text, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(query.argv + ["--json"])
        error = (err.getvalue().strip() or "exit code 2") if rc == 2 else None
    except SystemExit as e:  # argparse rejected the argv
        rc, error = 2, f"SystemExit({e.code}): {err.getvalue().strip()}"
    except Exception as e:  # any other raise is an unexpected failure
        rc, error = None, f"{type(e).__name__}: {e}"
    return rc, out.getvalue(), error, time.perf_counter() - start


def run_passes(cli, passes, seconds, min_queries, tracer=None):
    """Issue whole passes until ``seconds`` have passed and at least
    ``min_queries`` queries were issued; return the records and the wall
    time of the passes.

    Equal outputs are kept once, so that the memory the records hold
    stops growing once the passes repeat and peak RSS does not follow the
    number of passes a run managed."""
    records = []
    outputs = {}
    start = time.perf_counter()
    index = 0
    while True:
        for query in passes[index % len(passes)]:
            if tracer is not None:
                tracer.query_id = len(records)
            rc, out, error, latency = execute(cli, query)
            records.append((query, rc, outputs.setdefault(out, out), error, latency, index))
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(records) >= min_queries:
            return records, elapsed


def score(records):
    """Check each record against the oracle; return failure reasons.

    A query fails when it raised, exited 2 (usage error or exhausted
    budget) or disagreed with its known answer."""
    import oracle

    memo = {}
    failures = []
    for query, rc, out, error, _, _ in records:
        if error is not None or rc is None:
            failures.append(f"{query.kind} {query.argv[:2]}: {error}")
            continue
        key = (tuple(query.argv), rc, out)
        if key not in memo:
            try:
                memo[key] = oracle.check(query, rc, out)
            except (ValueError, KeyError, TypeError) as e:
                memo[key] = f"unreadable output: {type(e).__name__}: {e}"
        if memo[key] is not None:
            failures.append(f"{query.kind} {' '.join(query.argv)[:120]}: {memo[key]}")
    return failures


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def pass_percentile(records, share):
    """The percentile of each pass's latencies in ms, averaged over the
    passes.  A percentile of the whole run is an order statistic, which
    jumps with the share of the run the machine spent in a fast or slow
    spell; the mean over passes follows that share smoothly."""
    by_pass = defaultdict(list)
    for record in records:
        by_pass[record[5]].append(record[4] * 1000)
    return statistics.fmean(percentile(v, share) for v in by_pass.values())


def setup(args):
    """Set the workload up SETUP_REPEATS times and keep the last one.

    The set-up time is the median of the repeats.  The interpreter's own
    start is left out: it is one sample of process creation, which on a
    shared host swings by more than the program's import does."""
    times = []
    for rep in range(SETUP_REPEATS):
        directory = OUT / f"inputs-{args.workload}-{args.seed}-{rep}"
        shutil.rmtree(directory, ignore_errors=True)
        start = time.perf_counter()
        cli = fresh_import()
        passes = workloads.build(args.workload, args.seed, directory, args.tiny)
        times.append(time.perf_counter() - start)
        if rep + 1 < SETUP_REPEATS:
            shutil.rmtree(directory, ignore_errors=True)
    return cli, passes, directory, statistics.median(times)


def layer_metrics(tracer, traced_qps, untraced_qps, queries):
    metrics = {}
    for name, fields in LAYERS.items():
        counts = tracer.counts.get(name, {})
        for field in fields:
            if field == "self_s":
                value, unit = tracer.self_s.get(name, 0.0), "s"
            elif field == "total_s":
                value, unit = tracer.total_s.get(name, 0.0), "s"
            elif field == "calls":
                value, unit = tracer.calls.get(name, 0), "count"
            elif field == "nested":
                value, unit = tracer.nested.get(name, 0), "count"
            elif field == "formulas":
                value, unit = counts.get("items", 0), "count"
            else:
                value, unit = counts.get(field, 0), "count"
            metrics[f"{name}.{field}"] = {"value": value, "unit": unit}
    metrics["trace.queries"] = {"value": queries, "unit": "count"}
    metrics["trace.spans"] = {"value": len(tracer.spans), "unit": "count"}
    metrics["trace.overhead_frac"] = {
        "value": 1.0 - traced_qps / untraced_qps,
        "unit": "fraction",
    }
    return metrics


def by_kind(records):
    groups = defaultdict(list)
    for query, _, _, _, seconds, _ in records:
        groups[query.kind].append(seconds * 1000)
    return {k: {"count": len(v), "median_ms": statistics.median(v)} for k, v in sorted(groups.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    min_queries = 1 if args.tiny else MIN_QUERIES

    OUT.mkdir(exist_ok=True)
    cli, passes, directory, setup_s = setup(args)
    try:
        if args.trace:
            # untraced first, then the same passes traced; the throughput
            # ratio of the two halves is the tracing overhead
            import tracer as tracing

            half = args.seconds / 2
            plain, plain_s = run_passes(cli, passes, half, 1)
            tracer = tracing.Tracer()
            tracer.install()
            traced, traced_s = run_passes(cli, passes, half, 1, tracer)
            records = plain + traced
            stem = f"{args.workload}-seed{args.seed}"
            tracer.write(OUT / f"trace-{stem}.tsv.gz")
            metrics = layer_metrics(tracer, len(traced) / traced_s, len(plain) / plain_s,
                                    len(traced))
            (OUT / f"layers-{stem}.json").write_text(json.dumps(
                {name: {"calls": tracer.calls[name], "nested": tracer.nested[name],
                        "self_s": tracer.self_s[name], "total_s": tracer.total_s[name],
                        **tracer.counts.get(name, {})}
                 for name in sorted(tracer.total_s)}, indent=1))
        else:
            records, elapsed = run_passes(cli, passes, args.seconds, min_queries)
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        failures = score(records)
        if not args.trace:
            metrics = {
                "queries_per_s": {"value": len(records) / elapsed, "unit": "1/s"},
                "latency_p50_ms": {"value": pass_percentile(records, 0.5), "unit": "ms"},
                "latency_p90_ms": {"value": pass_percentile(records, 0.9), "unit": "ms"},
                "answered_frac": {"value": 1.0 - len(failures) / len(records),
                                  "unit": "fraction"},
                "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
        (OUT / f"queries-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps([[r[0].kind, r[5], r[4]] for r in records]))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": metrics,
        "kinds": by_kind(records),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
