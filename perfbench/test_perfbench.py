"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import ingest
from perfbench.common import make_engine, tail_permille
from perfbench.layers import WRAPPED, LayerTracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "n, permille", [(9, 500), (19, 500), (40, 750), (100, 900), (199, 900), (1000, 990), (10_000, 999)]
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, permille):
    assert tail_permille(n) == permille


def test_tracer_self_times_add_up_and_uninstall_restores():
    before = {(owner, attr): vars(owner).get(attr) for owner, attr, _, _ in WRAPPED}
    engine = make_engine(200)
    edges = [(u, v) for u in range(40) for v in range(u + 1, 40)]
    tracer = LayerTracer()
    tracer.install()
    try:
        start = time.perf_counter()
        engine.insert_batch(edges)
        engine.delete_batch(edges[::2])
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert abs(tracer.updater_self_s() - wall) <= 0.05 * wall
    assert tracer.self_s["frontier.driver_self_s"] > 0
    assert tracer.counts["graph.mutate_edges"] == len(edges) + len(edges[::2])
    assert tracer.counts["frontier.moves"] > 0
    for owner, attr, _, _ in WRAPPED:
        assert vars(owner).get(attr) is before[(owner, attr)]


def test_ingest_work_counters_repeat_exactly_for_a_seed():
    for name in ingest.WORKLOADS:
        first = ingest.run(name, seed=5, seconds=1, trace=True)
        second = ingest.run(name, seed=5, seconds=1, trace=True)
        assert first.failed == 0 and second.failed == 0, first.problems + second.problems
        assert first.work == second.work
        assert set(first.work) == {
            "frontier.rounds", "frontier.moves", "marking.marked", "marking.dags"
        }
        # The traced cycle's counts equal the per-cycle work counters.
        for key, value in first.work.items():
            assert first.layers[key]["value"] == value
            assert second.layers[key]["value"] == value


@pytest.mark.parametrize("workload", ["ingest-road", "serve-mixed"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_the_declared_metrics(workload, trace):
    proc = _run_cli(
        ROOT, "--workload", workload, "--seed", "2", "--seconds", "1", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert not (ROOT / ".perfbench-state").exists()


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _run_cli(
        tmp_path, "--workload", "ingest-road", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
