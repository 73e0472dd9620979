"""Shared pieces of the workloads: the engine under test, set-up timing,
timing summaries, the accuracy check and the result record."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, TypeVar

import numpy as np

from repro import engines
from repro.exact.peeling import core_decomposition
from repro.lds.coreness import approximation_factor, lemma_3_2_bounds
from repro.lds.params import LDSParams

T = TypeVar("T")

#: The paper's ``-opt 20`` (also what ``harness/experiments.py`` uses).
#: The theory-default group height makes the dense ``n x width`` ``down``
#: matrix too large for realistic graphs on a 7 GB machine; see README.
LEVELS_PER_GROUP = 20

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 7


def make_engine(n: int):
    """The engine under test: CPLDS on the ``columnar-frontier`` backend
    with the default sequential executor."""
    return engines.create(
        "cplds",
        n,
        backend="columnar-frontier",
        params=LDSParams(n, levels_per_group=LEVELS_PER_GROUP),
    )


def timed_setup(
    build: Callable[[], T], discard: Callable[[T], None] = lambda _: None
) -> tuple[float, T]:
    """Run ``build`` :data:`SETUP_REPEATS` times; return the median wall
    time and the last result (earlier results go to ``discard``).  An
    earlier result is released before the next build, so no two are alive
    at once and :func:`peak_rss_mb` sees one."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        if result is not None:
            discard(result)
            result = None
            gc.collect()
        start = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


# ----------------------------------------------------------------------
# Timing summaries
# ----------------------------------------------------------------------
#: Candidate tail percentiles, in tenths of a percent, highest first.
_TAILS_PERMILLE = (999, 990, 950, 900, 750)


def tail_permille(n: int) -> int:
    """The highest candidate percentile (in tenths of a percent) that
    leaves at least ten of ``n`` samples beyond it; 500 (the median)
    when none does."""
    for p in _TAILS_PERMILLE:
        if n * (1000 - p) >= 10 * 1000:
            return p
    return 500


@dataclass(frozen=True)
class Summary:
    """Median and tail of a sample of timings (in the sample's unit)."""

    p50: float
    tail_permille: int
    tail: float
    n: int

    @property
    def tail_label(self) -> str:
        return f"p{self.tail_permille / 10:g}"


def summarize(samples) -> Summary:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        return Summary(0.0, 500, 0.0, 0)
    p = tail_permille(int(arr.size))
    return Summary(
        float(np.percentile(arr, 50)), p, float(np.percentile(arr, p / 10)), int(arr.size)
    )


class LatencyHistogram:
    """Nanosecond latencies counted exactly in constant memory.

    ``counts[d]`` is the number of samples of ``d`` ns for ``d < limit_ns``;
    longer samples are kept individually in ``over``.  Hot loops inline
    :meth:`add` (see ``serve._Reader``).
    """

    def __init__(self, limit_ns: int) -> None:
        self.limit_ns = limit_ns
        self.counts = [0] * limit_ns
        self.over: list[int] = []

    def add(self, ns: int) -> None:
        if ns < self.limit_ns:
            self.counts[ns] += 1
        else:
            self.over.append(ns)

    @property
    def n(self) -> int:
        return sum(self.counts) + len(self.over)

    def percentile_us(self, q: float) -> float:
        """Nearest-rank ``q``-th percentile, in microseconds."""
        n = self.n
        if n == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100 * n))
        cum = np.cumsum(np.asarray(self.counts, dtype=np.int64))
        if rank <= cum[-1]:
            return float(np.searchsorted(cum, rank)) / 1e3
        return sorted(self.over)[rank - int(cum[-1]) - 1] / 1e3

    def summary_us(self) -> Summary:
        n = self.n
        p = tail_permille(n) if n else 500
        return Summary(self.percentile_us(50), p, self.percentile_us(p / 10), n)


def percentile(samples, q: float) -> float:
    arr = np.asarray(samples, dtype=np.float64)
    return float(np.percentile(arr, q)) if arr.size else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ----------------------------------------------------------------------
# Accuracy against exact peeling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Accuracy:
    mean: float
    max: float
    vertices: int
    #: Vertices whose estimate falls outside the Lemma 3.2 interval.
    outside_bound: int


def approximation_error(engine) -> Accuracy:
    """Per-vertex error factor ``max(k̂/k, k/k̂)`` of the engine's current
    estimates against exact peeling, over vertices of coreness >= 1, and
    the number of estimates outside Lemma 3.2's interval.  Quiescent use
    only."""
    exact = core_decomposition(engine.graph)
    params = engine.params
    table = params.estimate_table
    factors = []
    outside = 0
    for lvl, k in zip(engine.levels(), exact.tolist()):
        if k > 0:
            estimate = table[lvl]
            factors.append(approximation_factor(estimate, k))
            lo, hi = lemma_3_2_bounds(params, k)
            outside += not lo <= estimate <= hi
    if not factors:
        return Accuracy(1.0, 1.0, 0, 0)
    return Accuracy(statistics.fmean(factors), max(factors), len(factors), outside)


def check_structure(out: "Outcome", engine, where: str) -> Accuracy:
    """Quiescent correctness checks: the LDS invariants, and every
    estimate inside Lemma 3.2's interval around its exact coreness."""
    try:
        engine.check_invariants()
        ok = True
    except AssertionError as exc:
        ok = False
        out.notes.append(f"invariant violation: {exc}")
    out.check(ok, f"LDS invariants {where}")
    accuracy = approximation_error(engine)
    out.check(
        accuracy.vertices > 0 and accuracy.outside_bound == 0,
        f"{accuracy.outside_bound} estimates outside the Lemma 3.2 interval {where}",
    )
    return accuracy


# ----------------------------------------------------------------------
# Result record
# ----------------------------------------------------------------------
@dataclass
class Metric:
    value: float
    unit: str
    #: Human-readable context: sample count, percentile used, policy.
    note: str = ""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    #: End-to-end metrics (every workload reports the same names).
    metrics: dict[str, Metric] = field(default_factory=dict)
    #: Metrics that apply to this workload only (printed, not gated).
    extra: dict[str, Metric] = field(default_factory=dict)
    #: Per-layer metrics of the traced run.
    layers: dict[str, dict] = field(default_factory=dict)
    #: Deterministic work counters (per insert-then-delete cycle for the
    #: ingest workloads).
    work: dict[str, int] = field(default_factory=dict)
    #: Failed correctness checks, by description.
    problems: list[str] = field(default_factory=list)
    #: Free-form lines for the human-readable report.
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one correctness check; record it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
