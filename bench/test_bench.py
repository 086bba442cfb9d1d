"""Fast tests of the benchmark itself, on tiny workloads.

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("membership", "formula", "polytope", "cli")
#: Traced metrics that count work rather than time it; they must repeat exactly.
DETERMINISTIC_UNITS = ("count", "bits", "ratio")


def bench(workload, trace, cwd=ROOT, seed=7):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, out = result(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert set(out["metrics"]) == set(run.END_TO_END_UNITS)
    for name, unit in run.END_TO_END_UNITS.items():
        assert out["metrics"][name]["unit"] == unit
        assert out["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] for line in lines)
    assert any(line.split()[:1] == ["failed_share"] for line in lines)
    assert out["attempted"] >= 1 and out["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    units = tracing.per_layer_metric_units()
    _, first = result(workload, 1)
    _, second = result(workload, 1)
    assert set(first["metrics"]) == set(units)
    deterministic = [
        name for name, unit in units.items()
        if unit in DETERMINISTIC_UNITS and name != "trace.overhead_share"
    ]
    for name in deterministic:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    calls = {name: first["metrics"][name]["value"] for name in units if name.endswith(".calls")}
    if workload == "formula":
        assert calls["linalg.lp_feasible.calls"] == 0
    if workload in ("membership", "polytope"):
        assert all(v == 0 for k, v in calls.items() if k.startswith("formula."))


def test_cli_known_defect_counts_as_failed():
    lines, out = result("cli", 0)
    assert out["failed"] > 0
    assert any("escaped ValueError" in line and "inverted_primes" in line for line in lines)


def test_wrong_witness_raises_failed_share(monkeypatch):
    package, workload, _ = run.set_up("membership", 3, tiny=True)
    count = len(workload.queries)
    assert not run.drive(workload, count=count).failures

    original = package.hull.membership_report_Q

    def swapped_witness(d, points):
        report = original(d, points)
        if report.combination is None or len(report.combination.support) < 2:
            return report
        (i, a), (j, b), *rest = report.combination.support
        if a == b:
            return report
        combination = package.hull.BaryCombination(((i, b), (j, a), *rest))
        return replace(report, combination=combination)

    monkeypatch.setattr(package.hull, "membership_report_Q", swapped_witness)
    outcome = run.drive(workload, count=count)
    assert outcome.wrong > 0
    assert len(outcome.failures) / outcome.attempted > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("membership", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
