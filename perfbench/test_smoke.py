"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric_without_failures(workload, seed):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", "0", "--tiny")
    r = result(proc)
    assert r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        assert r["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert r["metrics"][metric["name"]]["value"] > 0
    assert "failed_frac (fraction)" in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_reports_every_layer_metric(workload):
    r = result(bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", "1", "--tiny"))
    assert r["failed"] == 0
    for metric in SPEC["per_layer"]:
        assert r["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert r["metrics"]["cli.main.total_s"]["value"] > 0


def test_wrong_expected_answer_counts_as_failed(tmp_path):
    import child

    cli = child.fresh_import()
    queries = [q for q in workloads.build("sat-interp", 1, tmp_path, tiny=True)[0]
               if q.argv[0] == "sat"][:4]
    records = [(q, *child.execute(cli, q), 0) for q in queries]
    assert child.score(records) == []
    queries[0].expect["sat"] = not queries[0].expect["sat"]
    failures = child.score(records)
    assert len(failures) == 1 and failures[0].startswith(queries[0].kind)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "sat-interp", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
