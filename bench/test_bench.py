"""Tests of the benchmark itself, on reduced inputs.

    python3 -m pytest bench/test_bench.py -q

They are not part of the tier-1 suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_TUPLES = [(-3, 2, 3, -3), (-3, 6, 5, -3)]
SMALL_N = 5
SMALL_GRID = "r=-5..-3;s=2;t=3..5;u=-3"
SMALL_N_MAX = 4
README_GRID = workloads.GRID_POOL[0]

# Counts later changes may cite: they must repeat exactly from run to run.
COUNTS = [
    "qlaurent.mul.calls", "qlaurent.mul.term_pairs", "qlaurent.exact_div.calls",
    "qlaurent.exact_div.dividend_span", "degopt.brute.points",
    "pipeline.cache.hits", "pipeline.cache.misses",
]


def verify_outputs(grid, n_max, tmp, jobs=1):
    out = tmp / f"jobs{jobs}"
    out.mkdir(parents=True)
    rc, _, err = workloads.run_cli(
        workloads.verify_argv(grid, n_max, out, out / "cache", jobs))
    assert rc == 0, err
    return (out / "report.json").read_bytes(), (out / "summary.csv").read_bytes()


def small_jones():
    expected = {}
    for params in SMALL_TUPLES:
        rc, out, _ = workloads.run_cli(workloads.jones_argv(params, SMALL_N))
        assert rc == 0
        expected[workloads.jones_key(params, SMALL_N)] = workloads.sha256(out)
    return workloads.JonesWorkload(SMALL_TUPLES, SMALL_N, expected)


def small_verify(tmp, warm):
    report, csv = verify_outputs(SMALL_GRID, SMALL_N_MAX, tmp)
    expected = {workloads.verify_key(SMALL_GRID, SMALL_N_MAX): {
        "tuples": 4, "report": workloads.sha256(report), "csv": workloads.sha256(csv)}}
    workload = workloads.VerifyWorkload(SMALL_GRID, SMALL_N_MAX, expected, tmp / "work", warm)
    workload.setup()
    return workload


def traced_counts(workload):
    phase = run.measure(workload, passes=workload.trace_passes, layers=True)
    assert phase.failed == 0, workload.errors
    metrics = tracing.layer_metrics(phase.tracer, len(phase.walls))
    return {name: metrics[name] for name in COUNTS}


def test_counts_repeat_exactly(tmp_path):
    jones = small_jones()
    first = traced_counts(jones)
    assert first == traced_counts(jones)
    assert first["qlaurent.mul.calls"] > 0 and first["qlaurent.exact_div.calls"] > 0

    for warm in (False, True):
        workload = small_verify(tmp_path / f"warm{warm}", warm)
        first = traced_counts(workload)
        assert first == traced_counts(workload)
        loads = 4 * SMALL_N_MAX
        assert first["pipeline.cache.hits"] == (loads if warm else 0)
        assert first["pipeline.cache.misses"] == (0 if warm else loads)
        assert (first["qlaurent.mul.calls"] == 0) == warm
        assert first["degopt.brute.points"] > 0


def test_warm_guard_fails_a_pass_that_recomputes(tmp_path):
    workload = small_verify(tmp_path, warm=True)
    record = next(workload.cache.rglob("*.json"))
    record.write_text("{")
    phase = run.measure(workload, passes=1)
    assert phase.failed == phase.attempted == 4
    assert "cache misses or discards" in workload.errors[0]


def test_jobs_do_not_change_report_bytes(tmp_path):
    assert verify_outputs(README_GRID, 4, tmp_path, jobs=1) == verify_outputs(
        README_GRID, 4, tmp_path, jobs=2)


def test_seed_zero_picks_the_named_inputs(tmp_path):
    assert workloads.make_workload("jones-high", 0, tmp_path).tuples == [
        (-3, 2, 3, -3), (-3, 6, 5, -3)]
    assert workloads.make_workload("verify-cold", 0, tmp_path).grid == (
        "r=-5..-3;s=2..4;t=3..5;u=-3..-1")
    for seed in range(8):  # every pool member has a reference digest
        for name in workloads.WORKLOADS:
            workloads.make_workload(name, seed, tmp_path)


@pytest.mark.parametrize("n, pct, rank", [(5, 100, 5), (20, 50, 10), (600, 98, 588)])
def test_tail_keeps_ten_samples_beyond(n, pct, rank):
    assert run.tail(range(1, n + 1)) == (rank, pct)
