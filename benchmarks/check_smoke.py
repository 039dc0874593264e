"""Smoke tests of the benchmark harness, at tiny sizes and no timing claims.

    python3 -m pytest benchmarks/check_smoke.py

The file name keeps it out of the package's default test collection: each
case runs the benchmark as a child process and trains small models.
"""

import json
import math
import shutil
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

from tracer import NAME, Tracer, children_of, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "train_multivariate", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_rebinds_imported_names_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from stockcast import evaluation, indicators, market_data

    bars = tuple(
        market_data.Bar(date(2020, 1, 1) + timedelta(days=k), *[1.0 + k] * 5, 10.0)
        for k in range(40)
    )
    original = evaluation.build_features
    tracer = Tracer()
    with tracer.installed():
        assert evaluation.build_features is indicators.build_features is not original
        evaluation.build_features(market_data.OhlcvSeries("T", bars), column_set="univariate")
    assert evaluation.build_features is original
    assert tracer.spans[0][NAME] == "indicators.build_features"


def test_self_time_subtracts_only_other_modules():
    # name, start, end, parent, op, note
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None],
        ["cli.cmd_train", 1.0, 9.0, 0, 0, None],
        ["lstm.train", 2.0, 8.0, 1, 0, None],
        ["lstm.backward", 3.0, 4.0, 2, 0, None],
        ["jsonio.dump_json", 5.0, 7.0, 2, 0, None],
    ]
    own = self_times(spans, children_of(spans))
    assert own == [4.0, 2.0, 4.0, 1.0, 2.0]
