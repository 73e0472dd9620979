"""Wrapper timers that split batch time across the repository's layers.

A traced batch runs with each layer's public entry points replaced by a
thin wrapper that records the call's duration on a per-thread stack.  A
layer's *self time* is its calls' total duration minus the wrapped calls
nested inside them, so the self times of everything on the updater
thread add up to the wall time of the outermost calls.  Counts come from
return values and public attributes only.

The wrappers are installed for traced batches and removed afterwards, so
untraced batches run the unmodified code.  Nothing under ``src/`` is
changed.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro import persist
from repro.core.frontier import FrontierCPLDS, FrontierMarkingHooks
from repro.graph.dynamic_graph import DynamicGraph
from repro.lds.store import FrontierLevelStore
from repro.persist import BatchJournal
from repro.reads.epoch import EpochSnapshotStore
from repro.runtime.supervisor import SupervisedCPLDS
from repro.unionfind.vectorized import VectorizedUnionFind

Counter = Callable[["LayerTracer", tuple, Any], None]


def _count_mutated(t: "LayerTracer", args: tuple, result: Any) -> None:
    t.counts["graph.mutate_edges"] += int(result)


def _count_sync(t: "LayerTracer", args: tuple, result: Any) -> None:
    store = args[0]
    t.counts["store.sync_csr_calls"] += 1
    version = store.graph.version
    if t._csr_seen.get(id(store)) != version:
        t._csr_seen[id(store)] = version
        t.counts["store.csr_rebuilds"] += 1


def _count_gather(t: "LayerTracer", args: tuple, result: Any) -> None:
    t.counts["store.gathered_rows"] += int(result[1].size)


def _count_inv1(t: "LayerTracer", args: tuple, result: Any) -> None:
    t.counts["store.inv1_cands"] += int(args[1].size)
    t.counts["store.inv1_hits"] += int(result.size)


def _count_desire(t: "LayerTracer", args: tuple, result: Any) -> None:
    t.counts["store.desire_cands"] += int(args[1].size)
    t.counts["store.desire_hits"] += int(result[0].size)


def _count_set_level(t: "LayerTracer", args: tuple, result: Any) -> None:
    t.counts["store.set_level_calls"] += 1


def _count_engine(t: "LayerTracer", args: tuple, result: Any) -> None:
    plds = args[0].plds
    t.counts["frontier.rounds"] += plds.last_batch_rounds
    t.counts["frontier.moves"] += plds.last_batch_moves


def _count_phase_end(t: "LayerTracer", args: tuple, result: Any) -> None:
    cp = args[0].cp
    t.counts["marking.marked"] += cp.last_batch_marked
    t.counts["marking.dags"] += cp.last_batch_dags


def _count_pairs(t: "LayerTracer", args: tuple, result: Any) -> None:
    t.counts["uf.pairs"] += len(args[1])


def _counter(name: str) -> Counter:
    def count(t: "LayerTracer", args: tuple, result: Any) -> None:
        t.counts[name] += 1

    return count


#: (owner, attribute, self-time metric, counter).  Owners are classes
#: (methods, possibly inherited) or modules (functions looked up at call
#: time).  Several entry points may share one metric.
WRAPPED: tuple[tuple[Any, str, str, Counter | None], ...] = (
    (DynamicGraph, "filter_new_edges", "graph.filter_s", None),
    (DynamicGraph, "filter_present_edges", "graph.filter_s", None),
    (DynamicGraph, "insert_batch", "graph.mutate_s", _count_mutated),
    (DynamicGraph, "delete_batch", "graph.mutate_s", _count_mutated),
    (FrontierLevelStore, "apply_edges", "store.apply_edges_self_s", None),
    (FrontierLevelStore, "sync_csr", "store.sync_csr_s", _count_sync),
    (FrontierLevelStore, "gather_rows", "store.gather_rows_self_s", _count_gather),
    (FrontierLevelStore, "bulk_inv1_violators_arr", "store.inv1_s", _count_inv1),
    (FrontierLevelStore, "bulk_desire_levels_arr", "store.desire_s", _count_desire),
    (FrontierLevelStore, "bulk_raise_level_rows", "store.raise_s", None),
    (FrontierLevelStore, "bulk_move_to_level_rows", "store.move_s", None),
    (FrontierLevelStore, "set_level", "store.set_level_s", _count_set_level),
    (FrontierCPLDS, "insert_batch", "frontier.driver_self_s", _count_engine),
    (FrontierCPLDS, "delete_batch", "frontier.driver_self_s", _count_engine),
    (FrontierCPLDS, "apply_batch", "frontier.driver_self_s", _count_engine),
    (FrontierMarkingHooks, "bulk_insert_moves", "marking.moves_s", None),
    (FrontierMarkingHooks, "bulk_delete_moves", "marking.moves_s", None),
    (FrontierMarkingHooks, "batch_end", "marking.batch_end_self_s", _count_phase_end),
    (VectorizedUnionFind, "union_pairs", "uf.union_pairs_s", _count_pairs),
    (VectorizedUnionFind, "find_many", "uf.find_many_s", None),
    (EpochSnapshotStore, "publish", "epoch.publish_s", _counter("epoch.publishes")),
    (EpochSnapshotStore, "pin", "epoch.pin_s", None),
    (BatchJournal, "append_batch", "journal.append_s", None),
    (BatchJournal, "commit", "journal.commit_s", None),
    (persist, "save_cplds", "checkpoint.save_s", _counter("checkpoint.writes")),
    (SupervisedCPLDS, "apply_batch", "service.apply_self_s", None),
    (FrontierCPLDS, "snapshot_state", "service.snapshot_state_s", None),
)

#: Self-time metrics, in report order.
TIMINGS: tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name, _ in WRAPPED))

#: Timings spent off the updater thread (the reader's epoch pins); they
#: are not part of any batch's wall time.
READER_TIMINGS = frozenset({"epoch.pin_s"})


class LayerTracer:
    """Accumulates self time and counts per layer while installed."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._csr_seen: dict[int, int] = {}
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Replace every entry point in :data:`WRAPPED` with a timer."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in WRAPPED:
            original = getattr(owner, attr)
            own = attr in vars(owner)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        """Put back the original entry points (safe to call when idle)."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, name: str, count: Counter | None) -> Callable:
        local = self._local
        self_s = self.self_s
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                # Each metric is written by one thread only (pins by the
                # reader, everything else by the updater), so the
                # unlocked read-modify-write cannot lose an update.
                self_s[name] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(self, args, result)
            return result

        return timed

    # ------------------------------------------------------------------
    def updater_self_s(self) -> float:
        """Summed self time of every layer on the updater thread."""
        return sum(v for k, v in self.self_s.items() if k not in READER_TIMINGS)


#: Relative tolerance of the check that the updater's self times add up
#: to the traced batches' wall time.
SELF_SUM_TOLERANCE = 0.05


def check_self_sum(out, tracer: LayerTracer, batch_wall_s: float) -> float:
    """Check (into ``out``) that the layer self times, driver included,
    sum to the traced batch wall time; return the sum."""
    self_sum = tracer.updater_self_s()
    out.check(
        abs(self_sum - batch_wall_s) <= SELF_SUM_TOLERANCE * batch_wall_s,
        f"layer self times sum to {self_sum:.4f}s, batch wall {batch_wall_s:.4f}s",
    )
    return self_sum


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


#: Per-layer metrics a workload supplies itself, with their units.  A
#: workload that lacks the layer reports 0.
EXTRA_UNITS: dict[str, str] = {
    "journal.bytes_per_update": "B",
    "service.retries": "count",
    "service.batch_failures": "count",
    "serve.batch_wait_p90_ms": "ms",
    "serve.updater_busy_share": "ratio",
    "service.read_p50_us": "us",
    "service.read_p99_us": "us",
    "service.reads_per_s": "1/s",
    "epoch.bulk_read_p50_us": "us",
    "epoch.bulk_read_p99_us": "us",
    "trace.batch_wall_s": "s",
    "trace.self_sum_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def per_layer_metrics(
    tracer: LayerTracer, batch_wall_s: float, extra: dict[str, float]
) -> dict[str, dict[str, float | str]]:
    """The traced run's metric block: self times, their shares of
    ``batch_wall_s`` (the traced batches' wall time), counts, hit ratios
    and the :data:`EXTRA_UNITS` entries, from ``extra`` or 0."""
    unknown = set(extra) - set(EXTRA_UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    out: dict[str, dict[str, float | str]] = {}
    for name in TIMINGS:
        out[name] = {"value": tracer.self_s.get(name, 0.0), "unit": "s"}
        if name not in READER_TIMINGS:
            share = ratio(tracer.self_s.get(name, 0.0), batch_wall_s)
            out[share_name(name)] = {"value": share, "unit": "ratio"}
    c = tracer.counts
    for name in (
        "graph.mutate_edges",
        "store.sync_csr_calls",
        "store.csr_rebuilds",
        "store.gathered_rows",
        "store.inv1_cands",
        "store.desire_cands",
        "store.set_level_calls",
        "frontier.rounds",
        "frontier.moves",
        "marking.marked",
        "marking.dags",
        "uf.pairs",
        "epoch.publishes",
        "checkpoint.writes",
    ):
        out[name] = {"value": c.get(name, 0), "unit": "count"}
    out["store.inv1_hit_ratio"] = {
        "value": ratio(c.get("store.inv1_hits", 0), c.get("store.inv1_cands", 0)),
        "unit": "ratio",
    }
    out["store.desire_hit_ratio"] = {
        "value": ratio(c.get("store.desire_hits", 0), c.get("store.desire_cands", 0)),
        "unit": "ratio",
    }
    for name, unit in EXTRA_UNITS.items():
        out[name] = {"value": extra.get(name, 0), "unit": unit}
    return out


def share_name(timing: str) -> str:
    """``store.sync_csr_s`` -> ``store.sync_csr_share``."""
    return timing[: -len("_s")] + "_share"
