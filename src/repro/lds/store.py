"""Pluggable level-store backends: the storage seam under LDS/PLDS/CPLDS.

Every level structure in this library maintains the same three per-vertex
quantities — the live ``level``, the up-degree ``up_deg`` and the
below-level counter map ``down`` — but nothing about the *algorithms*
(rebalance sweeps, marking, the read sandwich) depends on how those
quantities are laid out in memory.  This module makes the layout a choice:

* :class:`~repro.lds.bookkeeping.ObjectLevelStore` — the original plain
  Python lists + dict-of-counts representation.  Kept as the semantic
  reference; every other backend is differentially tested against it.
* :class:`ColumnarLevelStore` — GBBS-style flat state: ``level`` and
  ``up_deg`` are contiguous numpy ``int64`` arrays and ``down`` is a dense
  ``(n × width)`` counter matrix (``width`` grows lazily with the highest
  occupied level, so it stays "num_groups-ish" in practice).  Invariant
  checks and desire-level scans over whole candidate sets become single
  vectorised kernels, and snapshots are O(1)-ish array copies.
* :class:`FrontierLevelStore` — the columnar layout plus the whole-frontier
  machinery behind the ``columnar-frontier`` engine: neighbour gathers as
  ``offsets``/``targets`` slices of the graph's own CSR
  (:meth:`FrontierLevelStore.sync_csr`), and array-in/array-out round kernels
  (:meth:`~FrontierLevelStore.bulk_inv1_violators_arr`,
  :meth:`~FrontierLevelStore.bulk_desire_levels_arr`,
  :meth:`~FrontierLevelStore.bulk_raise_level_rows`,
  :meth:`~FrontierLevelStore.bulk_move_to_level_rows`) consumed by the
  frontier round driver in :mod:`repro.core.frontier`.

All backends expose the same surface (see :class:`LevelStore`); pick one
with :func:`make_store` or — at the system level — via
``repro.engines.create(name, backend=...)``.

Concurrency note: both layouts expose ``level`` as a plain Python list —
element reads are one C-level operation under the CPython GIL, which is the
single-word-read atomicity the paper's read protocol assumes (and a list
read returns an unboxed ``int``, keeping the reader hot path allocation
free).  The columnar store mirrors the list into a private ``int64`` array
for its vectorised kernels; the list is always written last, so it is the
reader-visible word.  The counter structures remain writer-private.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import LDSError
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.dynamic_graph import DynamicGraph, as_edge_array
from repro.lds.params import LDSParams
from repro.obs import REGISTRY as _OBS
from repro.types import Vertex

#: Registered storage backends, in preference order.
BACKENDS = ("object", "columnar", "columnar-frontier")

# Cached kernel-call counters: one label per vectorised kernel, plus a rows
# counter so a snapshot shows both call counts and work volume.
_K_SCATTER = _OBS.counter("columnar_kernel_calls_total", {"kernel": "scatter_counters"})
_K_RAISE = _OBS.counter("columnar_kernel_calls_total", {"kernel": "bulk_raise_level"})
_K_INV1 = _OBS.counter("columnar_kernel_calls_total", {"kernel": "bulk_inv1_violators"})
_K_DESIRE = _OBS.counter("columnar_kernel_calls_total", {"kernel": "bulk_desire_levels"})
_K_MOVE = _OBS.counter("columnar_kernel_calls_total", {"kernel": "bulk_move_to_level"})
_K_ROWS = _OBS.counter("columnar_kernel_rows_total")


@runtime_checkable
class LevelStore(Protocol):
    """The storage contract shared by every level-store backend.

    Attributes
    ----------
    backend:
        The backend's registry name (``"object"`` / ``"columnar"`` /
        ``"columnar-frontier"``; see :data:`BACKENDS`).
    supports_bulk:
        True when the store provides vectorised whole-round decisions
        (:meth:`bulk_inv1_violators` / :meth:`bulk_desire_levels`); the PLDS
        uses them in place of per-vertex executor work when available.
    level:
        Indexable per-vertex live levels; element reads must be GIL-atomic
        (this is what concurrent readers touch).
    """

    backend: str
    supports_bulk: bool
    params: LDSParams
    graph: DynamicGraph

    # -- reads ----------------------------------------------------------
    def get_level(self, v: Vertex) -> int: ...
    def levels_snapshot(self) -> list[int]: ...
    def snapshot_levels(self): ...

    # -- edge/level bookkeeping -----------------------------------------
    def on_edge_inserted(self, u: Vertex, v: Vertex) -> None: ...
    def on_edge_deleted(self, u: Vertex, v: Vertex) -> None: ...
    def apply_edges(self, edges: np.ndarray, kind: str) -> np.ndarray: ...
    def set_level(self, v: Vertex, new_level: int) -> None: ...

    # -- invariant predicates -------------------------------------------
    def satisfies_invariant1(self, v: Vertex) -> bool: ...
    def satisfies_invariant2(self, v: Vertex) -> bool: ...
    def desire_level(self, v: Vertex) -> int: ...

    # -- state management -----------------------------------------------
    def reset(self) -> None: ...
    def load_levels(self, levels: Sequence[int]) -> None: ...
    def snapshot(self): ...
    def restore(self, snap) -> None: ...

    # -- verification ----------------------------------------------------
    def recompute_counters(self): ...
    def assert_counters_consistent(self) -> None: ...


class ColumnarLevelStore:
    """Flat-array level state with vectorised round decisions.

    ``level`` / ``up_deg`` are flat ``int64`` arrays; ``down`` is a dense
    ``(n, width)`` counter matrix whose ``width`` lazily doubles to cover
    the highest level any vertex has occupied (bounded by
    ``params.num_levels``).  The per-level invariant thresholds are
    precomputed once into arrays, so a whole decision round — "which of
    these candidates violate Invariant 1/2" — is a handful of fancy-indexed
    numpy expressions instead of O(candidates) Python calls.
    """

    backend = "columnar"
    supports_bulk = True

    __slots__ = (
        "params", "graph", "level", "up_deg", "down",
        "_level_arr", "_stamp", "_width", "_upper", "_lower", "_lower_list",
    )

    #: Below this neighbour count ``set_level`` uses a scalar loop (the
    #: numpy fixed overhead dominates for tiny degrees).
    _VECTOR_MIN_DEG = 16

    def __init__(self, graph: DynamicGraph, params: LDSParams) -> None:
        if params.num_vertices != graph.num_vertices:
            raise ValueError(
                f"params sized for n={params.num_vertices} but graph has "
                f"n={graph.num_vertices}"
            )
        self.params = params
        self.graph = graph
        n = graph.num_vertices
        num_levels = params.num_levels
        # The live, reader-visible levels: a plain list (fast unboxed scalar
        # reads for the read protocol and the per-move hot loops), mirrored
        # into an int64 array for the vectorised kernels.
        self.level = [0] * n
        self._level_arr = np.zeros(n, dtype=np.int64)
        self.up_deg = np.zeros(n, dtype=np.int64)
        self._width = min(num_levels, 8)
        self.down = np.zeros((n, self._width), dtype=np.int64)
        self._stamp = np.zeros(n, dtype=bool)  # scratch for bulk kernels
        self._upper = np.array(
            [params.upper_threshold(l) for l in range(num_levels)],
            dtype=np.float64,
        )
        self._lower = np.array(
            [params.lower_threshold(l) for l in range(num_levels)],
            dtype=np.float64,
        )
        self._lower_list = self._lower.tolist()
        # All vertices start at level 0: every pre-existing neighbour is up.
        for v in range(n):
            d = graph.degree(v)
            if d:
                self.up_deg[v] = d

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get_level(self, v: Vertex) -> int:
        """The live level of ``v`` — a single atomic list read."""
        return self.level[v]

    def levels_snapshot(self) -> list[int]:
        """A plain-int copy of all live levels (quiescent use only)."""
        return list(self.level)

    def snapshot_levels(self) -> np.ndarray:
        """An O(n) array copy of the live levels (indexable snapshot)."""
        return self._level_arr.copy()

    # ------------------------------------------------------------------
    # Capacity management for the dense down matrix
    # ------------------------------------------------------------------
    def _ensure_width(self, lvl: int) -> None:
        if lvl < self._width:
            return
        num_levels = self.params.num_levels
        new = self._width
        while new <= lvl:
            new = min(num_levels, max(new * 2, lvl + 1))
        grown = np.zeros((self.down.shape[0], new), dtype=np.int64)
        grown[:, : self._width] = self.down
        self.down = grown
        self._width = new

    # ------------------------------------------------------------------
    # Edge bookkeeping
    # ------------------------------------------------------------------
    def on_edge_inserted(self, u: Vertex, v: Vertex) -> None:
        """Update counters for a newly inserted edge ``(u, v)``."""
        lu, lv = self.level[u], self.level[v]
        if lv >= lu:
            self.up_deg[u] += 1
        else:
            self.down[u, lv] += 1
        if lu >= lv:
            self.up_deg[v] += 1
        else:
            self.down[v, lu] += 1

    def on_edge_deleted(self, u: Vertex, v: Vertex) -> None:
        """Update counters for a just-deleted edge ``(u, v)``."""
        lu, lv = self.level[u], self.level[v]
        if lv >= lu:
            self.up_deg[u] -= 1
        else:
            self.down[u, lv] -= 1
        if lu >= lv:
            self.up_deg[v] -= 1
        else:
            self.down[v, lu] -= 1

    def apply_edges(self, edges: np.ndarray, kind: str) -> np.ndarray:
        """Apply one pre-filtered ``(k, 2)`` batch to the graph, then fix
        all counters with two ``np.add.at`` scatter kernels (one per
        endpoint side); returns the batch array."""
        arr = as_edge_array(edges)
        if not len(arr):
            return arr
        if kind == "insert":
            applied = self.graph.insert_batch(arr)
            sign = 1
        elif kind == "delete":
            applied = self.graph.delete_batch(arr)
            sign = -1
        else:
            raise ValueError(f"unknown edge-batch kind {kind!r}")
        if applied != len(arr):
            raise LDSError(
                f"apply_edges expects a pre-filtered batch: {len(arr)} "
                f"edges submitted but {applied} applied"
            )
        self._scatter_counters(arr, sign)
        return arr

    def _scatter_counters(self, arr: np.ndarray, sign: int) -> None:
        """Accumulate counter deltas for an edge array (levels held fixed,
        so the updates are order-independent)."""
        if _OBS.enabled:
            _K_SCATTER.inc()
            _K_ROWS.inc(int(arr.shape[0]))
        level = self._level_arr
        for a, b in ((arr[:, 0], arr[:, 1]), (arr[:, 1], arr[:, 0])):
            la = level[a]
            lb = level[b]
            up = lb >= la
            if up.any():
                np.add.at(self.up_deg, a[up], sign)
            dn = ~up
            if dn.any():
                np.add.at(self.down, (a[dn], lb[dn]), sign)

    # ------------------------------------------------------------------
    # Level changes
    # ------------------------------------------------------------------
    def set_level(self, v: Vertex, new_level: int) -> None:
        """Move ``v`` to ``new_level``, fixing all affected counters.

        Semantics identical to the object store's; the live level write
        happens last.  Large neighbourhoods are reclassified with masked
        array kernels, tiny ones with a scalar loop.
        """
        old = self.level[v]
        new_level = int(new_level)
        if new_level == old:
            return
        if not 0 <= new_level < self.params.num_levels:
            raise ValueError(
                f"new_level {new_level} out of range [0, {self.params.num_levels})"
            )
        self._ensure_width(new_level)
        nbrs = self.graph.neighbors_unsafe(v)
        if len(nbrs) >= self._VECTOR_MIN_DEG:
            self._set_level_vector(v, old, new_level, nbrs)
        elif nbrs:
            self._set_level_scalar(v, old, new_level, nbrs)
        self._level_arr[v] = new_level
        self.level[v] = new_level

    def _set_level_scalar(
        self, v: Vertex, old: int, new_level: int, nbrs: set
    ) -> None:
        level = self.level
        up_deg = self.up_deg
        down = self.down
        moving_up = new_level > old
        lo, hi = (old, new_level) if moving_up else (new_level, old)
        for w in nbrs:
            lw = level[w]
            was_up = old >= lw
            is_up = new_level >= lw
            if was_up and not is_up:
                up_deg[w] -= 1
                down[w, new_level] += 1
            elif not was_up and is_up:
                down[w, old] -= 1
                up_deg[w] += 1
            elif not was_up and not is_up:
                down[w, old] -= 1
                down[w, new_level] += 1
            if lw >= hi or lw < lo:
                continue
            if moving_up:
                up_deg[v] -= 1
                down[v, lw] += 1
            else:
                down[v, lw] -= 1
                up_deg[v] += 1

    def _set_level_vector(
        self, v: Vertex, old: int, new_level: int, nbrs: set
    ) -> None:
        w = np.fromiter(nbrs, count=len(nbrs), dtype=np.int64)
        lw = self._level_arr[w]
        was_up = lw <= old
        is_up = lw <= new_level
        # w's view of v (neighbour sets are duplicate-free, so plain fancy
        # assignment is safe on the w side).
        up2down = was_up & ~is_up
        if up2down.any():
            t = w[up2down]
            self.up_deg[t] -= 1
            self.down[t, new_level] += 1
        down2up = ~was_up & is_up
        if down2up.any():
            t = w[down2up]
            self.down[t, old] -= 1
            self.up_deg[t] += 1
        down2down = ~was_up & ~is_up
        if down2down.any():
            t = w[down2down]
            self.down[t, old] -= 1
            self.down[t, new_level] += 1
        # v's view of w: only neighbours whose level sits between the old
        # and new level switch sides (duplicates possible per level, so
        # scatter with np.add.at).
        if new_level > old:
            crossed = (lw >= old) & (lw < new_level)
            k = int(crossed.sum())
            if k:
                self.up_deg[v] -= k
                np.add.at(self.down[v], lw[crossed], 1)
        else:
            crossed = (lw >= new_level) & (lw < old)
            k = int(crossed.sum())
            if k:
                self.up_deg[v] += k
                np.subtract.at(self.down[v], lw[crossed], 1)

    def bulk_raise_level(
        self, movers: Sequence[Vertex], old: int
    ) -> list[int]:
        """Move every vertex in ``movers`` from ``old`` to ``old + 1`` in
        one scatter pass; returns the non-mover neighbours sitting at the
        destination level (the insertion sweep's re-check set).

        The counter delta of a simultaneous single-level raise reduces to
        three neighbour masks (mover–mover edges cancel: both endpoints
        stay mutually "up"):

        * neighbour at ``old``   — mover loses an up-neighbour, gains
          ``down[old]``;
        * neighbour at ``old+1`` — neighbour's ``down[old]`` becomes an
          up-neighbour;
        * neighbour above        — neighbour's ``down[old]`` shifts to
          ``down[old+1]``.

        Equivalent to calling :meth:`set_level` once per mover (the counter
        state is a pure function of the final levels); the live level list
        is written last, after all counters.
        """
        new = old + 1
        self._ensure_width(new)
        if _OBS.enabled:
            _K_RAISE.inc()
            _K_ROWS.inc(len(movers))
        graph = self.graph
        varr = np.fromiter(movers, count=len(movers), dtype=np.int64)
        counts = np.fromiter(
            (len(graph.neighbors_unsafe(v)) for v in movers),
            count=len(movers),
            dtype=np.int64,
        )
        requeue: list[int] = []
        total = int(counts.sum())
        if total:
            flat = np.empty(total, dtype=np.int64)
            pos = 0
            for v in movers:
                nb = graph.neighbors_unsafe(v)
                k = len(nb)
                flat[pos : pos + k] = np.fromiter(nb, count=k, dtype=np.int64)
                pos += k
            src = np.repeat(varr, counts)
            # Drop mover-mover pairs (no counter change) via the reusable
            # stamp array: O(movers) to set and clear.
            stamp = self._stamp
            stamp[varr] = True
            keep = ~stamp[flat]
            stamp[varr] = False
            flat = flat[keep]
            src = src[keep]
            lw = self._level_arr[flat]
            at_old = lw == old
            if at_old.any():
                np.add.at(self.up_deg, src[at_old], -1)
                np.add.at(self.down[:, old], src[at_old], 1)
            at_new = lw == new
            if at_new.any():
                t = flat[at_new]
                np.add.at(self.down[:, old], t, -1)
                np.add.at(self.up_deg, t, 1)
                requeue = np.unique(t).tolist()
            above = lw > new
            if above.any():
                t = flat[above]
                np.add.at(self.down[:, old], t, -1)
                np.add.at(self.down[:, new], t, 1)
        self._level_arr[varr] = new
        level = self.level
        for v in movers:
            level[v] = new
        return requeue

    # ------------------------------------------------------------------
    # Invariant predicates
    # ------------------------------------------------------------------
    def satisfies_invariant1(self, v: Vertex) -> bool:
        """Degree upper bound (vacuous at the top level)."""
        lvl = self.level[v]
        if lvl >= self.params.max_level:
            return True
        return bool(self.up_deg[v] <= self._upper[lvl])

    def satisfies_invariant2(self, v: Vertex) -> bool:
        """Degree lower bound at ``ℓ − 1``."""
        lvl = self.level[v]
        if lvl == 0:
            return True
        at_or_above = self.up_deg[v] + self.down[v, lvl - 1]
        return bool(at_or_above >= self._lower[lvl])

    def desire_level(self, v: Vertex) -> int:
        """Max feasible level ``d <= ℓ(v)`` — descending suffix scan.

        ``cnt(d) = up_deg(v) + Σ_{j >= d-1} down(v)[j]`` is the number of
        neighbours at ``>= d − 1``; the answer is the highest ``d`` with
        ``cnt(d) >= lower_threshold(d)``.  One row ``tolist`` then plain-int
        arithmetic: levels are O(log² n), so a Python scan beats the numpy
        fixed costs of a cumsum kernel on every realistic input.
        Equivalent to the object store's breakpoint scan (differentially
        tested).
        """
        lvl = self.level[v]
        if lvl == 0:
            return 0
        m = min(lvl, self._width)
        row = self.down[v, :m].tolist()
        up = int(self.up_deg[v])
        lower = self._lower_list
        suffix = 0
        for d in range(lvl, 0, -1):
            if d - 1 < m:
                suffix += row[d - 1]
            if up + suffix >= lower[d]:
                return d
        return 0

    # ------------------------------------------------------------------
    # Bulk (vectorised) round decisions
    # ------------------------------------------------------------------
    def bulk_inv1_violators(self, cands: Sequence[Vertex]) -> list[Vertex]:
        """Which candidates violate Invariant 1, in submission order."""
        if _OBS.enabled:
            _K_INV1.inc()
            _K_ROWS.inc(len(cands))
        c = np.asarray(cands, dtype=np.int64)
        lv = self._level_arr[c]
        viol = (lv < self.params.max_level) & (self.up_deg[c] > self._upper[lv])
        return [cands[i] for i in np.nonzero(viol)[0]]

    def bulk_desire_levels(
        self, cands: Sequence[Vertex]
    ) -> list[tuple[Vertex, int]]:
        """(vertex, desire level) for every Invariant-2 violator among
        ``cands`` (others are simply omitted)."""
        if _OBS.enabled:
            _K_DESIRE.inc()
            _K_ROWS.inc(len(cands))
        c = np.asarray(cands, dtype=np.int64)
        lv = self._level_arr[c]
        positive = lv > 0
        below = np.where(positive, lv - 1, 0)
        cnt = self.up_deg[c] + np.where(positive, self.down[c, below], 0)
        viol = positive & (cnt < self._lower[lv])
        return [
            (cands[i], self.desire_level(cands[i]))
            for i in np.nonzero(viol)[0]
        ]

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero all levels and recompute counters for the current graph
        (every vertex back at level 0)."""
        n = self.graph.num_vertices
        self.level[:] = [0] * n
        self._level_arr[:] = 0
        self.up_deg[:] = 0
        self.down[:] = 0
        graph = self.graph
        for v in range(graph.num_vertices):
            d = graph.degree(v)
            if d:
                self.up_deg[v] = d

    def load_levels(self, levels: Sequence[int]) -> None:
        """Adopt a level assignment and rebuild all counters from the graph
        (one vectorised pass over the edge array)."""
        arr = np.asarray(levels, dtype=np.int64)
        n = self.graph.num_vertices
        if arr.shape != (n,):
            raise ValueError(f"expected {n} levels, got shape {arr.shape}")
        if n and (arr.min() < 0 or arr.max() >= self.params.num_levels):
            raise ValueError("level assignment out of range")
        if n:
            self._ensure_width(int(arr.max()))
        self._level_arr[:] = arr
        self.level[:] = arr.tolist()
        self.up_deg[:] = 0
        self.down[:] = 0
        edges = self.graph.edge_array()
        if len(edges):
            self._scatter_counters(edges, 1)

    def snapshot(self):
        """O(1)-ish state snapshot: three array copies."""
        return (
            self._level_arr.copy(), self.up_deg.copy(), self.down.copy()
        )

    def restore(self, snap) -> None:
        """Restore a :meth:`snapshot` (the snapshot stays reusable).

        ``level``/``up_deg`` are written in place so references held by the
        read hot path stay valid.
        """
        level, up_deg, down = snap
        self._level_arr[:] = level
        self.level[:] = level.tolist()
        self.up_deg[:] = up_deg
        if down.shape[1] != self._width:
            self.down = down.copy()
            self._width = down.shape[1]
        else:
            self.down[:] = down

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def recompute_counters(self) -> tuple[list[int], list[dict[int, int]]]:
        """Recompute ``up_deg`` / ``down`` from scratch, in the common
        (list, dict-per-vertex) exchange format."""
        n = self.graph.num_vertices
        up = [0] * n
        down: list[dict[int, int]] = [dict() for _ in range(n)]
        level = self.level
        for v in range(n):
            lv = level[v]
            for w in self.graph.neighbors_unsafe(v):
                lw = level[w]
                if lw >= lv:
                    up[v] += 1
                else:
                    key = int(lw)
                    down[v][key] = down[v].get(key, 0) + 1
        return up, down

    def assert_counters_consistent(self) -> None:
        """Raise ``AssertionError`` if any counter drifted from the graph."""
        if self.level != self._level_arr.tolist():
            raise AssertionError("level list and its array mirror diverged")
        up, down = self.recompute_counters()
        width = self._width
        for v in range(self.graph.num_vertices):
            if up[v] != int(self.up_deg[v]):
                raise AssertionError(
                    f"up_deg[{v}] = {int(self.up_deg[v])}, recomputed {up[v]}"
                )
            row = {
                lvl: int(c)
                for lvl, c in enumerate(self.down[v, :width].tolist())
                if c
            }
            if down[v] != row:
                raise AssertionError(
                    f"down[{v}] = {row}, recomputed {down[v]}"
                )


class FrontierLevelStore(ColumnarLevelStore):
    """Columnar store + CSR neighbour gathers + whole-frontier round kernels.

    The backend behind the ``columnar-frontier`` engine.  It keeps no edges
    of its own: neighbour gathers (:meth:`gather_rows`) slice the graph's
    one CSR, served by :func:`~repro.graph.csr.csr_view` through
    :meth:`sync_csr`.  The graph merges every applied batch into that CSR
    and keys its view on :attr:`DynamicGraph.version`, so the view is
    current by construction, out-of-band mutations such as
    ``restore_state``/``rebuild`` included.

    The ``*_arr`` / ``*_rows`` kernels are the array-in/array-out versions
    of the scalar round decisions; each is differentially pinned to the
    scalar semantics by the backend differential suite.
    """

    backend = "columnar-frontier"
    #: The frontier round driver (repro.core.frontier) takes over the PLDS
    #: phase loops when the store advertises this.
    supports_frontier = True

    __slots__ = ("_iota",)

    def __init__(self, graph: DynamicGraph, params: LDSParams) -> None:
        super().__init__(graph, params)
        self._iota = np.arange(1024, dtype=np.int64)

    # ------------------------------------------------------------------
    # CSR view + gathers
    # ------------------------------------------------------------------
    def sync_csr(self) -> CSRGraph:
        """The graph's CSR view (derived once per edge-set version)."""
        return csr_view(self.graph)

    def gather_rows(self, varr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All CSR adjacency rows of ``varr`` flattened: ``(src, flat)``
        where ``flat[i]`` is a neighbour of ``src[i]``.  Syncs the CSR view
        on demand (one version comparison when already current), so phases
        that never gather skip the derivation entirely."""
        csr = self.sync_csr()
        offsets = csr.offsets
        start = offsets[varr]
        cnt = offsets[varr + 1] - start
        total = int(cnt.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if total > len(self._iota):
            self._iota = np.arange(
                max(total, 2 * len(self._iota)), dtype=np.int64
            )
        cum = np.cumsum(cnt)
        # iota - repeat(exclusive-cumsum - start): one repeat pass instead
        # of two, and the iota ramp is a cached slice, not a fresh arange.
        idx = self._iota[:total] - np.repeat(cum - cnt - start, cnt)
        return np.repeat(varr, cnt), csr.targets[idx]

    # ------------------------------------------------------------------
    # Array-in/array-out round kernels
    # ------------------------------------------------------------------
    def bulk_inv1_violators_arr(self, cands: np.ndarray) -> np.ndarray:
        """Array version of :meth:`bulk_inv1_violators` (sorted input stays
        sorted — the mask preserves order)."""
        if _OBS.enabled:
            _K_INV1.inc()
            _K_ROWS.inc(int(cands.size))
        lv = self._level_arr[cands]
        viol = (lv < self.params.max_level) & (self.up_deg[cands] > self._upper[lv])
        return cands[viol]

    def bulk_desire_levels_arr(
        self, cands: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Array version of :meth:`bulk_desire_levels`: ``(violators,
        desires)`` with the violators in input order.

        The desire level is the highest ``d <= ℓ(v)`` whose neighbour count
        ``cnt(d) = up_deg + Σ_{j >= d-1} down[j]`` meets
        ``lower_threshold(d)`` (``d = 0`` is always feasible).  Feasibility
        is downward-closed in ``d``: lowering ``d`` only adds terms to the
        suffix sum, so ``cnt`` does not decrease, while ``lower_threshold``
        (``(1+δ)^{group(d-1)}``) does not increase.  Hence if ``d`` is
        feasible so is every ``d' < d``, and the desire level is the
        boundary of a monotone predicate: a vectorised binary search finds
        it for all violators at once in ``O(log ℓ)`` gather passes.  A
        violator is infeasible at ``ℓ(v)`` itself, so the search runs over
        ``[0, ℓ(v) − 1]``.

        Only the first ``max ℓ(v)`` columns of ``down`` are read —
        ``down[v, j]`` counts neighbours strictly below ``ℓ(v)``, so it is
        zero for ``j >= ℓ(v)``.
        """
        if _OBS.enabled:
            _K_DESIRE.inc()
            _K_ROWS.inc(int(cands.size))
        lv = self._level_arr[cands]
        positive = lv > 0
        below = np.where(positive, lv - 1, 0)
        cnt0 = self.up_deg[cands] + np.where(positive, self.down[cands, below], 0)
        viol = positive & (cnt0 < self._lower[lv])
        v = cands[viol]
        if v.size == 0:
            return v, np.empty(0, dtype=np.int64)
        lvl_v = lv[viol]
        top = int(lvl_v.max())  # < width: _ensure_width keeps it so
        # prefix[:, j] = Σ_{k < j} down[v, k] for j in [0, top], so
        # cnt(d) = up_deg + prefix[:, top] - prefix[:, d - 1].
        prefix = np.zeros((v.size, top + 1), dtype=np.int64)
        np.cumsum(self.down[v, :top], axis=1, out=prefix[:, 1:])
        total = self.up_deg[v] + prefix[:, top]
        rows = np.arange(v.size)
        lo = np.zeros(v.size, dtype=np.int64)  # feasible (d = 0 always is)
        hi = lvl_v - 1  # the desire level is at most hi
        lower = self._lower
        while (lo < hi).any():
            # A settled row (lo >= hi) probes mid == lo, which leaves lo
            # unchanged whatever the probe says (mid == 0 reads column -1,
            # in bounds).
            mid = (lo + hi + 1) >> 1
            ok = total - prefix[rows, mid - 1] >= lower[mid]
            lo = np.where(ok, mid, lo)
            hi = np.where(ok, hi, mid - 1)
        return v, lo

    def bulk_raise_level_rows(
        self, movers: np.ndarray, old: int, src: np.ndarray, flat: np.ndarray
    ) -> np.ndarray:
        """:meth:`bulk_raise_level` fed by pre-gathered CSR rows; returns
        the requeue set (non-mover neighbours at the destination level) as
        a sorted array."""
        new = old + 1
        self._ensure_width(new)
        if _OBS.enabled:
            _K_RAISE.inc()
            _K_ROWS.inc(int(movers.size))
        requeue = np.empty(0, dtype=np.int64)
        if flat.size:
            stamp = self._stamp
            stamp[movers] = True
            keep = ~stamp[flat]
            stamp[movers] = False
            f = flat[keep]
            s = src[keep]
            lw = self._level_arr[f]
            at_old = lw == old
            if at_old.any():
                np.add.at(self.up_deg, s[at_old], -1)
                np.add.at(self.down[:, old], s[at_old], 1)
            # Neighbours at >= new all leave v's down[old] class …
            not_below = lw >= new
            if not_below.any():
                np.add.at(self.down[:, old], f[not_below], -1)
            # … landing in up_deg (== new) or down[new] (> new).
            at_new = lw == new
            if at_new.any():
                t = f[at_new]
                np.add.at(self.up_deg, t, 1)
                requeue = np.unique(t)
            above = lw > new
            if above.any():
                np.add.at(self.down[:, new], f[above], 1)
        self._level_arr[movers] = new
        level = self.level
        for v in movers.tolist():
            level[v] = new
        return requeue

    def bulk_move_to_level_rows(
        self, movers: np.ndarray, lstar: int, src: np.ndarray, flat: np.ndarray
    ) -> None:
        """Move every mover to ``lstar`` (a strict down-move) in one scatter
        pass over the pre-gathered rows.

        Counter state is a pure function of the final levels, so each row
        (``v=src[i]`` mover, ``w=flat[i]``) contributes a remove-old-class /
        add-new-class delta to ``v``'s ledger and — for non-mover ``w`` — to
        ``w``'s view of ``v``; mover–mover edges appear as two rows, one per
        direction, and intermediate cancellations are harmless under
        ``np.add.at``.  Equivalent to interleaved :meth:`set_level` calls;
        the live level list is written last.
        """
        self._ensure_width(lstar)
        if _OBS.enabled:
            _K_MOVE.inc()
            _K_ROWS.inc(int(movers.size))
        if flat.size:
            stamp = self._stamp
            stamp[movers] = True
            w_moves = stamp[flat]
            stamp[movers] = False
            lw_old = self._level_arr[flat]
            old_src = self._level_arr[src]
            lw_new = np.where(w_moves, lstar, lw_old)
            # v's ledger: remove w's old class, add its new class.
            old_up = lw_old >= old_src
            np.add.at(self.up_deg, src[old_up], -1)
            dn = ~old_up
            np.add.at(self.down, (src[dn], lw_old[dn]), -1)
            new_up = lw_new >= lstar
            np.add.at(self.up_deg, src[new_up], 1)
            dn = ~new_up
            np.add.at(self.down, (src[dn], lw_new[dn]), 1)
            # Non-mover w's view of v (mover w rows are covered by their own
            # symmetric row).
            nm = ~w_moves
            t = flat[nm]
            ov = old_src[nm]
            lw = lw_old[nm]
            was_up = ov >= lw
            np.add.at(self.up_deg, t[was_up], -1)
            np.add.at(self.down, (t[~was_up], ov[~was_up]), -1)
            is_up = lstar >= lw
            np.add.at(self.up_deg, t[is_up], 1)
            np.add.at(self.down[:, lstar], t[~is_up], 1)
        self._level_arr[movers] = lstar
        level = self.level
        for v in movers.tolist():
            level[v] = lstar


def make_store(
    backend: str, graph: DynamicGraph, params: LDSParams
) -> LevelStore:
    """Construct the level store named ``backend`` over ``graph``."""
    from repro.lds.bookkeeping import ObjectLevelStore

    if backend == "object":
        return ObjectLevelStore(graph, params)
    if backend == "columnar":
        return ColumnarLevelStore(graph, params)
    if backend == "columnar-frontier":
        return FrontierLevelStore(graph, params)
    raise ValueError(
        f"unknown level-store backend {backend!r} (available: {BACKENDS})"
    )
