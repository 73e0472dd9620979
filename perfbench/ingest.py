"""The bulk-ingest workloads: insert a whole edge set, then delete it, in
ten equal batches per phase, on the bare engine (closed loop, one
thread, no readers).

One insert-then-delete pass over the edge set is a *cycle*.  Every cycle
starts from a freshly constructed engine, so all cycles do identical
work; the number of cycles is fixed by ``--seconds`` alone (never by the
clock), which makes the batch count and the work counters a pure
function of the seed and ``--seconds``.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from repro.graph.generators import chung_lu, grid_road
from repro.types import Edge

from perfbench.common import (
    SETUP_REPEATS,
    Metric,
    Outcome,
    check_structure,
    make_engine,
    peak_rss_mb,
    summarize,
    timed_setup,
)
from perfbench.layers import LayerTracer, check_self_sum, per_layer_metrics, ratio

BATCHES_PER_PHASE = 10


@dataclass(frozen=True)
class IngestWorkload:
    name: str
    generate: Callable[[int], tuple[int, list[Edge]]]
    #: Nominal wall time of one cycle; ``--seconds`` / this = cycles.
    cycle_seconds: float


def _powerlaw(seed: int) -> tuple[int, list[Edge]]:
    n = 20_000
    return n, chung_lu(n, 100_000, seed=seed)


def _road(seed: int) -> tuple[int, list[Edge]]:
    rows = cols = 225
    return rows * cols, grid_road(rows, cols, seed=seed)


WORKLOADS = {
    "ingest-powerlaw": IngestWorkload("ingest-powerlaw", _powerlaw, 4.5),
    "ingest-road": IngestWorkload("ingest-road", _road, 4.5),
}


def cycles_for(seconds: float, cycle_seconds: float, trace: bool) -> int:
    """Cycles to run: about ``seconds`` worth, at least one (two when
    traced, which alternates untraced and traced cycles)."""
    cycles = max(1, round(seconds / cycle_seconds))
    if trace:
        cycles = max(2, cycles + cycles % 2)
    return cycles


def _prepare(wl: IngestWorkload, seed: int):
    n, edges = wl.generate(seed)
    random.Random(seed).shuffle(edges)
    size = math.ceil(len(edges) / BATCHES_PER_PHASE)
    batches = [edges[i : i + size] for i in range(0, len(edges), size)]
    return n, batches, make_engine(n)


def run(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    wl = WORKLOADS[name]
    out = Outcome(name)
    setup_s, (n, batches, engine) = timed_setup(lambda: _prepare(wl, seed))
    cycles = cycles_for(seconds, wl.cycle_seconds, trace)
    tracer = LayerTracer()
    walls: list[float] = []  # untraced batch wall times
    edges_timed = 0
    untraced_cycle_walls: list[float] = []
    traced_cycle_walls: list[float] = []
    first_work = None
    accuracy = None
    for cycle in range(cycles):
        if cycle:
            # Release the last cycle's engine before building the next.
            engine = None
            gc.collect()
            engine = make_engine(n)
        traced = trace and cycle % 2 == 1
        work: Counter[str] = Counter()
        cycle_walls: list[float] = []
        gc.collect()
        for phase in ("insert", "delete"):
            for batch in batches:
                if traced:
                    tracer.install()
                try:
                    start = time.perf_counter()
                    if phase == "insert":
                        applied = engine.insert_batch(batch)
                    else:
                        applied = engine.delete_batch(batch)
                    wall = time.perf_counter() - start
                finally:
                    tracer.uninstall()
                cycle_walls.append(wall)
                out.attempted += len(batch)
                out.failed += len(batch) - applied
                work["frontier.rounds"] += engine.plds.last_batch_rounds
                work["frontier.moves"] += engine.plds.last_batch_moves
                work["marking.marked"] += engine.last_batch_marked
                work["marking.dags"] += engine.last_batch_dags
                if not traced:
                    walls.append(wall)
                    edges_timed += applied
            if phase == "insert" and cycle == 0:
                accuracy = check_structure(out, engine, "at the peak graph")
        (traced_cycle_walls if traced else untraced_cycle_walls).append(
            sum(cycle_walls)
        )
        out.check(
            engine.graph.num_edges == 0 and max(engine.levels()) == 0,
            f"cycle {cycle}: engine not empty after deleting every edge",
        )
        if first_work is None:
            first_work = dict(work)
        out.check(
            dict(work) == first_work,
            f"cycle {cycle}: work counters {dict(work)} differ from cycle 0",
        )
    out.work = dict(first_work)

    summary = summarize([w * 1e3 for w in walls])
    note = f"n={summary.n} batches, {cycles} cycles"
    out.metrics["setup_s"] = Metric(setup_s, "s", f"median of {SETUP_REPEATS} set-ups")
    # Edges of one cycle over its median wall time (a pair median when the
    # count is even): robust to one disturbed cycle on a shared machine.
    cycle_edges = edges_timed // len(untraced_cycle_walls)
    out.metrics["update_edges_per_s"] = Metric(
        ratio(cycle_edges, statistics.median(untraced_cycle_walls)),
        "1/s",
        f"{note}, median cycle",
    )
    out.metrics["batch_p50_ms"] = Metric(summary.p50, "ms", note)
    out.extra[f"batch_{summary.tail_label}_ms"] = Metric(summary.tail, "ms", note)
    out.metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    assert accuracy is not None
    acc_note = f"n={accuracy.vertices} vertices at the peak graph"
    out.metrics["approx_error_mean"] = Metric(accuracy.mean, "x", acc_note)
    out.metrics["approx_error_max"] = Metric(accuracy.max, "x", acc_note)

    if trace:
        _trace_report(out, tracer, traced_cycle_walls, untraced_cycle_walls)
    return out


def _trace_report(
    out: Outcome,
    tracer: LayerTracer,
    traced_cycles: list[float],
    untraced_cycles: list[float],
) -> None:
    # A traced run has equal numbers of identical traced and untraced cycles.
    traced_wall = sum(traced_cycles)
    overhead = traced_wall - sum(untraced_cycles)
    self_sum = check_self_sum(out, tracer, traced_wall)
    out.layers = per_layer_metrics(
        tracer,
        traced_wall,
        {
            "trace.batch_wall_s": traced_wall,
            "trace.self_sum_share": ratio(self_sum, traced_wall),
            "trace.overhead_s": overhead,
            "trace.overhead_share": ratio(overhead, sum(untraced_cycles)),
        },
    )
