"""CSR (compressed sparse row) views of an undirected graph.

The exact k-core peeling algorithm (:mod:`repro.exact.peeling`) and the
frontier level store's neighbour gathers are the hot numeric kernels in this
library that benefit from contiguous arrays.  Both read the one CSR the
:class:`DynamicGraph` owns: its sorted directed-key array ``u*n + v`` (both
directions of every edge, rows ascending), which the graph merges each
applied batch into.  A :class:`CSRGraph` is that array split into
``offsets`` and ``targets``; it is immutable by convention, and since the
graph replaces its key array rather than writing it, a view taken before a
mutation stays frozen.

:func:`csr_view` is the cached entry point: it keys the view on the
graph's edge-set version, so repeated callers between mutations (every
``core_decomposition`` / ``degeneracy`` / ``k_core_subgraph`` call in an
analysis session, or every gather of a frontier phase) share one set of
arrays, and the derivation after a mutation is O(n + m) array passes.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import VertexOutOfRange
from repro.graph.dynamic_graph import DynamicGraph
from repro.obs import REGISTRY as _OBS
from repro.types import Edge, Vertex

# The columnar kernels' counters (see repro.lds.store): a CSR derivation
# counts as one call and its directed keys as rows.
_K_CSR = _OBS.counter("columnar_kernel_calls_total", {"kernel": "csr_rebuild"})
_K_ROWS = _OBS.counter("columnar_kernel_rows_total")


class CSRGraph:
    """Immutable CSR adjacency: ``offsets`` (n+1 int64) and ``targets`` (2m int64).

    The neighbours of ``v`` are ``targets[offsets[v]:offsets[v+1]]``, sorted
    ascending for reproducibility and cache-friendly scans.
    """

    __slots__ = ("offsets", "targets", "_n", "_m")

    def __init__(self, offsets: np.ndarray, targets: np.ndarray) -> None:
        self.offsets = offsets
        self.targets = targets
        self._n = len(offsets) - 1
        self._m = len(targets) // 2

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_keys(cls, num_vertices: int, keys: np.ndarray) -> "CSRGraph":
        """Split sorted directed keys ``u*n + v`` into ``offsets``/``targets``."""
        n = num_vertices
        offsets = np.zeros(n + 1, dtype=np.int64)
        if not keys.size:
            return cls(offsets, keys)
        src, targets = np.divmod(keys, n)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        return cls(offsets, targets)

    @classmethod
    def from_dynamic(cls, g: DynamicGraph) -> "CSRGraph":
        """The graph's CSR: the cached :func:`csr_view` (single-threaded;
        call quiescent).  Never mutated, so it stays a snapshot of the edge
        set at the time of the call."""
        return csr_view(g)

    @classmethod
    def from_edges(cls, num_vertices: int, edges: Iterable[Edge]) -> "CSRGraph":
        """Build directly from an edge list (duplicates collapsed)."""
        g = DynamicGraph(num_vertices, edges)
        return cls.from_dynamic(g)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        return self._m

    def degree(self, v: Vertex) -> int:
        self._check_vertex(v)
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        """All vertex degrees as an int64 array (a fresh copy)."""
        return np.diff(self.offsets)

    def neighbors(self, v: Vertex) -> np.ndarray:
        """Neighbour slice of ``v`` (a *view*; do not mutate)."""
        self._check_vertex(v)
        return self.targets[self.offsets[v] : self.offsets[v + 1]]

    def _check_vertex(self, v: Vertex) -> None:
        if not 0 <= v < self._n:
            raise VertexOutOfRange(v, self._n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self._n}, m={self._m})"


def csr_view(g: DynamicGraph) -> CSRGraph:
    """The CSR of ``g``, cached on the graph's edge-set version.

    The first call after any mutation splits the graph's key array
    (:meth:`DynamicGraph.adjacency_keys`) into ``offsets``/``targets`` in
    O(n + m) array passes; every further call before the next mutation
    returns the exact same :class:`CSRGraph` object (and therefore the same
    arrays).  The dirty check is one integer comparison.
    """
    cached = g._csr_cache
    version = g._version
    if cached is not None and cached[0] == version:
        return cached[1]  # type: ignore[return-value]
    keys = g.adjacency_keys()
    if _OBS.enabled:
        _K_CSR.inc()
        _K_ROWS.inc(int(keys.size))
    csr = CSRGraph.from_keys(g.num_vertices, keys)
    g._csr_cache = (version, csr)
    return csr
