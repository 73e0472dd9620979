"""The served read/write mix: the deployed stack under reads.

``SupervisedCPLDS`` (journal on, default ``sync=False`` and
``checkpoint_every=64``) holds 80% of a power-law graph.  The main thread
applies sliding-window mixed batches open-loop at :data:`RATE` batches
per second; one reader thread runs closed-loop point reads and pinned
epoch bulk reads, with think time, against the same service.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time
from collections import deque

import numpy as np

from repro.graph.generators import chung_lu
from repro.runtime.supervisor import (
    JOURNAL_FILENAME,
    HealthState,
    SupervisedCPLDS,
    restore_from_dir,
)
from repro.types import Edge

from perfbench.common import (
    SETUP_REPEATS,
    LatencyHistogram,
    Metric,
    Outcome,
    check_structure,
    make_engine,
    peak_rss_mb,
    percentile,
    summarize,
    timed_setup,
)
from perfbench.layers import LayerTracer, check_self_sum, per_layer_metrics, ratio

N_VERTICES = 10_000
N_EDGES = 50_000
PRELOAD_FRACTION = 0.8
#: Preload batches.  With ``checkpoint_every=64`` the first checkpoint of
#: the timed window then falls on its 40th batch.
PRELOAD_BATCHES = 24
#: Each batch inserts this many edges not in the graph and deletes the
#: same number of the oldest edges in it.
HALF_BATCH = 250
#: Open-loop batch rate (batches per second).  The updater is about 23%
#: busy; a batch then still fits its 167 ms slot when a slow stretch of a
#: shared host makes it 4x slower (see README).
RATE = 6.0
#: Interpreter switch interval while the reader and the updater share
#: the GIL (the CPython default, fixed here so it cannot drift).
SWITCH_INTERVAL_S = 0.005
#: Of every ten reader operations, nine are point reads and one is a
#: pinned bulk read of :data:`BULK_SIZE` vertices.
READS_PER_BULK = 9
BULK_SIZE = 1024
#: The reader pauses this long after each bulk read: a closed loop with
#: think time.  With a reader that never pauses, which takes the GIL each
#: time the updater lets it go, batch times on a shared host had two
#: modes about 2x apart (README, *Noise*).
THINK_S = 0.001
#: Zipf exponent of point-read targets over vertex ids (chung_lu gives low
#: ids the highest expected degree, so skewed reads hit hubs).
ZIPF_S = 1.2


class _Service:
    """One set-up: the preloaded service and its journal directory."""

    def __init__(self, seed: int, state_root: str) -> None:
        edges = chung_lu(N_VERTICES, N_EDGES, seed=seed)
        random.Random(seed).shuffle(edges)
        cut = int(PRELOAD_FRACTION * len(edges))
        self.present: deque[Edge] = deque(edges[:cut])
        self.absent: deque[Edge] = deque(edges[cut:])
        self.dir = tempfile.mkdtemp(prefix="serve-", dir=state_root)
        self.service = SupervisedCPLDS(make_engine(N_VERTICES), journal_dir=self.dir)
        size = math.ceil(cut / PRELOAD_BATCHES)
        for i in range(0, cut, size):
            self.service.apply_batch(insertions=edges[i : min(i + size, cut)])

    def schedule(self, batches: int) -> list[tuple[list[Edge], list[Edge]]]:
        """Sliding-window batches: unseen (or long-deleted) edges in, the
        oldest edges out."""
        out = []
        for _ in range(batches):
            ins = [self.absent.popleft() for _ in range(HALF_BATCH)]
            dels = [self.present.popleft() for _ in range(HALF_BATCH)]
            self.present.extend(ins)
            self.absent.extend(dels)
            out.append((ins, dels))
        return out

    def discard(self) -> None:
        self.service.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def _read_targets(seed: int):
    rng = np.random.default_rng(seed + 1)
    weights = np.arange(1, N_VERTICES + 1, dtype=np.float64) ** -ZIPF_S
    points = rng.choice(N_VERTICES, size=1 << 18, p=weights / weights.sum())
    blocks = [
        rng.choice(N_VERTICES, size=BULK_SIZE, replace=False) for _ in range(64)
    ]
    return points.tolist(), blocks


class _Reader(threading.Thread):
    """Closed-loop reader: nine Zipf point reads, one pinned bulk read,
    then a pause of :data:`THINK_S`.

    Latencies go to one of two parts: part 1 while the updater is in a
    traced batch's interval, part 0 otherwise (the whole window when
    nothing is traced), so read figures come from untraced batches only.
    """

    def __init__(self, service: SupervisedCPLDS, seed: int) -> None:
        super().__init__(name="perfbench-reader", daemon=True)
        self.service = service
        self.points, self.blocks = _read_targets(seed)
        self.stop = threading.Event()
        self.part = 0
        self.points_by_part = (LatencyHistogram(1 << 16), LatencyHistogram(1 << 16))
        self.bulks_by_part = (LatencyHistogram(1 << 18), LatencyHistogram(1 << 18))
        self.point, self.bulk = self.points_by_part[0], self.bulks_by_part[0]
        self.errors = 0

    def run(self) -> None:
        svc = self.service
        points, blocks = self.points, self.blocks
        clock = time.perf_counter_ns
        sleep, think = time.sleep, THINK_S
        k = 0
        b = 0
        mask = len(points) - 1
        while not self.stop.is_set():
            point = self.points_by_part[self.part]
            point_counts, point_limit = point.counts, point.limit_ns
            bulk = self.bulks_by_part[self.part]
            for _ in range(READS_PER_BULK):
                v = points[k]
                k = (k + 1) & mask
                t0 = clock()
                try:
                    svc.read(v)
                except Exception:  # a failed read is an error, not a crash
                    self.errors += 1
                d = clock() - t0
                if d < point_limit:
                    point_counts[d] += 1
                else:
                    point.over.append(d)
            block = blocks[b]
            b = (b + 1) % len(blocks)
            t0 = clock()
            try:
                with svc.pin_epoch() as pin:
                    got = pin.coreness_many(block)
                if got.shape != (BULK_SIZE,):
                    self.errors += 1
            except Exception:
                self.errors += 1
            bulk.add(clock() - t0)
            sleep(think)


def _check_restore(out: Outcome, directory: str, live_levels: list[int], when: str) -> int:
    """Check that ``restore_from_dir`` on the journal directory alone gives
    the live levels; return the number of journal batches it replayed."""
    restored, report = restore_from_dir(directory)
    out.check(
        restored.levels() == live_levels,
        f"levels restored from the journal directory {when} differ from the live engine",
    )
    out.notes.append(
        f"durability {when}: restored through seq {report.recovered_through} from "
        f"checkpoint seq {report.checkpoint_seq} + {report.replayed} replayed batches"
    )
    return report.replayed


def run(name: str, seed: int, seconds: float, trace: bool, state_root: str) -> Outcome:
    out = Outcome(name)
    setup_s, env = timed_setup(lambda: _Service(seed, state_root), _Service.discard)
    try:
        _run(out, env, seed, seconds, trace, setup_s)
    finally:
        env.discard()
    return out


def _run(
    out: Outcome, env: _Service, seed: int, seconds: float, trace: bool, setup_s: float
) -> None:
    svc = env.service
    batches = max(2, round(seconds * RATE))
    schedule = env.schedule(batches)
    journal = os.path.join(env.dir, JOURNAL_FILENAME)
    tracer = LayerTracer()
    reader = _Reader(svc, seed)
    latency_ms: list[float] = []
    waits_ms: list[float] = []
    service_s: list[float] = []
    traced_s: list[float] = []
    untraced_s: list[float] = []
    traced_bytes = traced_updates = 0
    dropped = 0
    telemetry = svc.telemetry
    retries0, failures0 = telemetry.retries, telemetry.batch_failures
    checkpoints0 = telemetry.checkpoints_written

    #: Seconds of the window spent in untraced / traced batch intervals.
    part_s = [0.0, 0.0]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        reader.start()
        start = mark = time.perf_counter()
        for i, (ins, dels) in enumerate(schedule):
            due = start + i / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            traced = trace and i % 2 == 1
            now = time.perf_counter()
            part_s[reader.part] += now - mark
            mark = now
            reader.part = int(traced)
            size0 = os.path.getsize(journal) if traced else 0
            ckpt0 = telemetry.checkpoints_written
            if traced:
                tracer.install()
            try:
                begin = time.perf_counter()
                outcome = svc.apply_batch(ins, dels)
                end = time.perf_counter()
            finally:
                tracer.uninstall()
            latency_ms.append((end - due) * 1e3)
            waits_ms.append(max(0.0, begin - due) * 1e3)
            service_s.append(end - begin)
            dropped += len(outcome.dropped)
            if traced:
                traced_bytes += os.path.getsize(journal) - size0
                traced_updates += len(ins) + len(dels)
            if telemetry.checkpoints_written == ckpt0:
                # Checkpoint batches stay out of the overhead estimate.
                (traced_s if traced else untraced_s).append(end - begin)
        window_end = time.perf_counter()
        part_s[reader.part] += window_end - mark
        window_s = window_end - start
        window_checkpoints = telemetry.checkpoints_written - checkpoints0
    finally:
        reader.stop.set()
        reader.join(timeout=30)
        sys.setswitchinterval(old_interval)
    out.check(not reader.is_alive(), "reader thread stopped")

    updates = batches * 2 * HALF_BATCH
    point = reader.point.summary_us()
    bulk = reader.bulk.summary_us()
    reads = sum(h.n for h in reader.points_by_part + reader.bulks_by_part)
    out.attempted += updates + reads
    out.failed += dropped + reader.errors
    out.check(svc.health is HealthState.HEALTHY, f"service health is {svc.health.name}")
    out.check(dropped == 0, f"{dropped} updates dropped")

    # Read before the checks below build a second engine beside the live one.
    rss_mb = peak_rss_mb()
    engine = svc.impl
    accuracy = check_structure(out, engine, "after the window")
    live_levels = engine.levels()
    # Durability, twice: while the service is open, the journal records
    # after its last checkpoint must replay to the live levels; after
    # close() (which checkpoints), the fresh checkpoint must load to them.
    replayed = _check_restore(out, env.dir, live_levels, "before close()")
    out.check(replayed > 0, "durability before close() replayed no journal batches")
    svc.close()
    _check_restore(out, env.dir, live_levels, "after close()")

    batch = summarize(latency_ms)
    note = f"n={batch.n} batches at {RATE:g}/s, due-time latency"
    out.metrics["setup_s"] = Metric(setup_s, "s", f"median of {SETUP_REPEATS} set-ups")
    out.metrics["update_edges_per_s"] = Metric(
        ratio(updates, sum(service_s)), "1/s", f"n={batch.n} batches, apply_batch wall"
    )
    out.metrics["batch_p50_ms"] = Metric(batch.p50, "ms", note)
    out.metrics["peak_rss_mb"] = Metric(rss_mb, "MB", "before the correctness checks")
    acc_note = f"n={accuracy.vertices} vertices after the window"
    out.metrics["approx_error_mean"] = Metric(accuracy.mean, "x", acc_note)
    out.metrics["approx_error_max"] = Metric(accuracy.max, "x", acc_note)

    busy = ratio(sum(service_s), window_s)
    untraced_only = ", untraced batches only" if trace else ""
    point_note = f"n={point.n} point reads{untraced_only}"
    bulk_note = f"n={bulk.n} pinned bulk reads of {BULK_SIZE}{untraced_only}"
    extra = out.extra
    extra[f"batch_{batch.tail_label}_ms"] = Metric(batch.tail, "ms", note)
    if batch.n >= 100:
        extra["batch_p90_ms"] = Metric(percentile(latency_ms, 90), "ms", note)
    extra["read_p50_us"] = Metric(point.p50, "us", point_note)
    extra["read_p99_us"] = Metric(reader.point.percentile_us(99), "us", point_note)
    extra[f"read_{point.tail_label}_us"] = Metric(point.tail, "us", point_note)
    extra["reads_per_s"] = Metric(ratio(point.n, part_s[0]), "1/s", point_note)
    extra["bulk_read_p50_us"] = Metric(bulk.p50, "us", bulk_note)
    extra["bulk_read_p99_us"] = Metric(reader.bulk.percentile_us(99), "us", bulk_note)
    extra["updater_busy_share"] = Metric(busy, "ratio", "apply_batch wall / window")
    extra["batch_wait_p90_ms"] = Metric(percentile(waits_ms, 90), "ms", "lateness of batch start")
    extra["error_rate"] = Metric(ratio(out.failed, out.attempted), "ratio")
    out.notes.append(
        f"policy: open loop {RATE:g} batches/s x {batches}, reader closed loop "
        f"with {THINK_S * 1e3:g} ms think time, "
        f"2 threads, switch interval {SWITCH_INTERVAL_S * 1e3:g} ms, journal "
        "sync=False (flushed, not fsynced), checkpoint_every=64; "
        f"{window_checkpoints} checkpoints in the window"
    )

    if trace:
        traced_wall = sum(service_s[1::2])
        overhead = (
            (statistics.median(traced_s) - statistics.median(untraced_s))
            * len(service_s[1::2])
            if traced_s and untraced_s
            else 0.0
        )
        self_sum = check_self_sum(out, tracer, traced_wall)
        out.layers = per_layer_metrics(
            tracer,
            traced_wall,
            {
                "journal.bytes_per_update": ratio(traced_bytes, traced_updates),
                "service.retries": telemetry.retries - retries0,
                "service.batch_failures": telemetry.batch_failures - failures0,
                "serve.batch_wait_p90_ms": percentile(waits_ms, 90),
                "serve.updater_busy_share": busy,
                "service.read_p50_us": point.p50,
                "service.read_p99_us": extra["read_p99_us"].value,
                "service.reads_per_s": extra["reads_per_s"].value,
                "epoch.bulk_read_p50_us": bulk.p50,
                "epoch.bulk_read_p99_us": extra["bulk_read_p99_us"].value,
                "trace.batch_wall_s": traced_wall,
                "trace.self_sum_share": ratio(self_sum, traced_wall),
                "trace.overhead_s": overhead,
                "trace.overhead_share": ratio(overhead, traced_wall - overhead),
            },
        )

