"""Mutable undirected graph with batch edge updates.

This is the substrate the level data structures are maintained against.  It
plays the role of GBBS's dynamic graph representation in the paper's C++
implementation: adjacency is stored per vertex, batches of insertions or
deletions are applied collectively, and duplicate/conflicting updates inside a
batch are filtered exactly as the paper's pre-processing step prescribes
("batches contain a mix of insertions and deletions, which are separated into
insertion and deletion sub-batches during pre-processing").

Design notes
------------
A batch enters as one ``(k, 2)`` int64 array (lists of pairs are converted
once).  Pre-processing is a few whole-batch numpy passes, as in PLDS's flat
GBBS arrays: validate (integer dtype, range, self-loops), canonicalise to
``(min, max)``, de-duplicate keeping first-seen order, and filter against the
current edge set.  Validation covers the whole batch before anything is
mutated, so a malformed batch leaves the graph untouched.

The edge set is held twice, for two kinds of consumer:

* ``list[set[int]]`` adjacency, for the per-vertex Python hot loops (small
  rebalancing rounds, hook trigger scans, invariant checks) that ask "is
  ``w`` a neighbour of ``v``" or walk one neighbourhood;
* a sorted int64 array of *directed keys* ``u*n + v`` (both directions of
  every edge, rows ascending): the graph's one CSR.  Batch membership tests
  are a ``searchsorted`` against it, and :func:`repro.graph.csr.csr_view`
  derives ``offsets``/``targets`` from it for the frontier engine's gathers
  and exact peeling.  Each applied batch is merged in with ``searchsorted``
  plus ``insert`` (or a mask for deletions): an O(m) memmove, no sort of m.
  The arrays are never written in place, so a view taken earlier stays
  frozen.  Single-edge updates (:meth:`insert_edge`/:meth:`delete_edge`)
  only mark the key array stale; it is rebuilt from the sets on next use,
  so edge-at-a-time callers never pay the O(m) merge.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Iterable, Iterator, Union

import numpy as np

from repro.errors import EdgeStateError, SelfLoopError, VertexOutOfRange
from repro.types import Edge, EdgeBatch, Vertex

#: A batch: a ``(k, 2)`` integer array or an iterable of vertex pairs.
Batch = Union[np.ndarray, EdgeBatch, Iterable[Edge]]

_NO_EDGES = np.empty((0, 2), dtype=np.int64)
_NO_KEYS = np.empty(0, dtype=np.int64)
_NO_EDGES.flags.writeable = False
_NO_KEYS.flags.writeable = False


def as_edge_array(edges: Batch) -> np.ndarray:
    """A batch as a ``(k, 2)`` int64 array (no range or loop checks).

    Raises ``TypeError`` for non-integer vertex ids: the dtype numpy infers
    is checked before the int64 cast, which would otherwise truncate ``1.5``
    or parse ``'1'`` silently.
    """
    if not isinstance(edges, np.ndarray):
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        if not edges:
            return _NO_EDGES
        if set(map(len, edges)) != {2}:
            raise ValueError("every edge of a batch must be a pair")
        # A flat list converts about twice as fast as a list of pairs.
        edges = np.array(list(chain.from_iterable(edges))).reshape(-1, 2)
    if edges.size == 0:
        return _NO_EDGES
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"an edge batch must have shape (k, 2), got {edges.shape}")
    if edges.dtype.kind not in "iub":
        raise TypeError(f"vertex ids must be integers, got dtype {edges.dtype}")
    return edges.astype(np.int64, copy=False)


class DynamicGraph:
    """An undirected simple graph over a fixed vertex set ``[0, n)``.

    Parameters
    ----------
    num_vertices:
        Size of the vertex universe.  Matching the paper, the vertex set is
        fixed up front and only edges change dynamically.
    edges:
        Optional initial edges; duplicates are ignored.

    Examples
    --------
    >>> g = DynamicGraph(4, edges=[(0, 1), (1, 2)])
    >>> g.num_edges
    2
    >>> g.insert_batch([(2, 3), (0, 2)])
    2
    >>> sorted(g.neighbors(2))
    [0, 1, 3]
    >>> g.filter_new_edges([(3, 2), (1, 3)]).tolist()
    [[1, 3]]
    """

    __slots__ = ("_n", "_adj", "_m", "_version", "_keys", "_csr_cache")

    def __init__(self, num_vertices: int, edges: Iterable[Edge] = ()) -> None:
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        self._n = num_vertices
        self._adj: list[set[Vertex]] = [set() for _ in range(num_vertices)]
        self._m = 0
        #: Monotonic edge-set version: bumped whenever the edge set actually
        #: changes.  The cached CSR view compares against it.
        self._version = 0
        #: Sorted directed keys ``u*n + v`` of every edge, both directions;
        #: ``None`` when stale (rebuilt from the sets by :meth:`adjacency_keys`).
        self._keys: np.ndarray | None = _NO_KEYS
        #: ``(version, CSRGraph)`` cache slot for :func:`repro.graph.csr.csr_view`.
        self._csr_cache: tuple[int, object] | None = None
        self.insert_batch(edges)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the (fixed) vertex universe."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges currently present."""
        return self._m

    @property
    def version(self) -> int:
        """Monotonic edge-set version (bumps only on actual changes)."""
        return self._version

    def degree(self, v: Vertex) -> int:
        """Degree of ``v``."""
        self._check_vertex(v)
        return len(self._adj[v])

    def neighbors(self, v: Vertex) -> frozenset[Vertex]:
        """A read-only view of ``v``'s neighbourhood.

        Returned as a ``frozenset`` copy so concurrent readers can iterate
        safely while an update batch mutates the underlying sets.
        """
        self._check_vertex(v)
        return frozenset(self._adj[v])

    def neighbors_unsafe(self, v: Vertex) -> set[Vertex]:
        """The live adjacency set of ``v`` — no copy, no bounds check.

        Only for single-threaded hot loops inside the level data structures;
        mutating it directly corrupts the edge count.
        """
        return self._adj[v]

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether edge ``(u, v)`` is currently present."""
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adj[u]

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical ``(min, max)`` form."""
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_array(self) -> np.ndarray:
        """All edges as a canonical ``(m, 2)`` int64 array, sorted."""
        keys = self.adjacency_keys()
        n = self._n
        if not n:
            return _NO_EDGES
        u, v = np.divmod(keys, n)
        up = u < v
        return np.stack([u[up], v[up]], axis=1)

    def adjacency_keys(self) -> np.ndarray:
        """The sorted directed keys ``u*n + v`` (both directions of every
        edge): row ``u`` of the CSR is the run of keys in ``[u*n, (u+1)*n)``.

        The returned array is never modified; later updates replace it.
        """
        keys = self._keys
        if keys is None:
            n = self._n
            deg = np.fromiter(map(len, self._adj), dtype=np.int64, count=n)
            targets = np.fromiter(
                chain.from_iterable(self._adj), dtype=np.int64, count=2 * self._m
            )
            keys = np.repeat(np.arange(n, dtype=np.int64) * n, deg) + targets
            keys.sort()
            self._keys = keys
        return keys

    def copy(self) -> "DynamicGraph":
        """An independent deep copy of the current graph state."""
        g = DynamicGraph(self._n)
        g._adj = [set(s) for s in self._adj]
        g._m = self._m
        g._keys = self._keys  # immutable: sharing is safe
        return g

    def clear(self) -> None:
        """Remove every edge, keeping the vertex universe and the adjacency
        set objects (live references from hot loops stay valid)."""
        for s in self._adj:
            s.clear()
        self._m = 0
        self._keys = _NO_KEYS
        self._version += 1

    # ------------------------------------------------------------------
    # Batch pre-processing
    # ------------------------------------------------------------------
    def canonical_batch(self, edges: Batch) -> np.ndarray:
        """Validate a batch and return it canonical (``u < v`` per row) and
        de-duplicated in first-seen order, as a ``(k, 2)`` int64 array.

        Raises before returning anything if any id is not an integer
        (``TypeError``), out of range (:class:`VertexOutOfRange`) or a
        self-loop (:class:`SelfLoopError`).
        """
        arr, _, _ = self._prepare(edges)
        return arr

    def _prepare(self, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(batch, keys, order)``: the canonical first-seen-deduplicated
        batch, its canonical keys ``u*n + v`` sorted ascending, and for each
        sorted key the row of ``batch`` it came from."""
        arr = as_edge_array(edges)
        k = len(arr)
        if k == 0:
            return _NO_EDGES, _NO_KEYS, _NO_KEYS
        n = self._n
        a = arr[:, 0]
        b = arr[:, 1]
        if arr.min() < 0 or arr.max() >= n:
            bad = (arr < 0) | (arr >= n)
            raise VertexOutOfRange(int(arr[bad][0]), n)
        loops = a == b
        if loops.any():
            raise SelfLoopError(int(a[np.argmax(loops)]))
        u = np.minimum(a, b)
        v = np.maximum(a, b)
        key = u * n + v
        order = np.argsort(key)
        skey = key[order]
        head = np.ones(k, dtype=bool)
        np.not_equal(skey[1:], skey[:-1], out=head[1:])
        if not head.all():
            # Duplicates: keep each key's first occurrence.
            starts = np.flatnonzero(head)
            order = np.minimum.reduceat(order, starts)
            skey = skey[starts]
            first = np.sort(order)
            u = u[first]
            v = v[first]
            # Re-point the sorted keys at rows of the deduplicated batch.
            order = np.searchsorted(first, order)
        return np.stack([u, v], axis=1), skey, order

    def _present(self, skey: np.ndarray) -> np.ndarray:
        """Membership of sorted canonical keys in the edge set."""
        keys = self.adjacency_keys()
        if keys.size == 0:
            return np.zeros(skey.size, dtype=bool)
        pos = np.searchsorted(keys, skey)
        np.minimum(pos, keys.size - 1, out=pos)
        return keys[pos] == skey

    def _select(self, edges, want_present: bool, strict: bool):
        """Pre-process a batch and keep the rows whose presence in the
        graph is ``want_present``: ``(rows, sorted keys of the rows)``."""
        arr, skey, order = self._prepare(edges)
        if skey.size:
            keep = self._present(skey)
            if not want_present:
                keep = ~keep
            if strict and not keep.all():
                u, v = arr[order[~keep].min()].tolist()
                state = "not present" if want_present else "already present"
                raise EdgeStateError(f"edge ({u}, {v}) {state}")
            if not keep.all():
                arr = arr[np.sort(order[keep])]
                skey = skey[keep]
        return arr, skey

    # ------------------------------------------------------------------
    # Batch mutation
    # ------------------------------------------------------------------
    def insert_batch(self, edges: Batch, *, strict: bool = False) -> int:
        """Insert a batch of edges; return how many were actually new.

        Already-present edges are skipped (or rejected with
        :class:`~repro.errors.EdgeStateError` when ``strict``), matching the
        batch pre-processing in the paper's framework.  The whole batch is
        validated first: on any error the graph is unchanged.
        """
        arr, skey = self._select(edges, False, strict)
        count = len(arr)
        if not count:
            return 0
        adj = self._adj
        for u, v in zip(arr[:, 0].tolist(), arr[:, 1].tolist()):
            adj[u].add(v)
            adj[v].add(u)
        # _select materialised the key array; merge both directions in.
        keys = self._keys
        new = np.concatenate([skey, arr[:, 1] * self._n + arr[:, 0]])
        new.sort()
        self._keys = np.insert(keys, np.searchsorted(keys, new), new)
        self._m += count
        self._version += 1
        return count

    def delete_batch(self, edges: Batch, *, strict: bool = False) -> int:
        """Delete a batch of edges; return how many were actually removed.

        Absent edges are skipped (or rejected with
        :class:`~repro.errors.EdgeStateError` when ``strict``); the whole
        batch is validated first.
        """
        arr, skey = self._select(edges, True, strict)
        count = len(arr)
        if not count:
            return 0
        adj = self._adj
        for u, v in zip(arr[:, 0].tolist(), arr[:, 1].tolist()):
            adj[u].discard(v)
            adj[v].discard(u)
        keys = self._keys
        gone = np.concatenate([skey, arr[:, 1] * self._n + arr[:, 0]])
        gone.sort()  # sorted needles search several times faster
        keep = np.ones(keys.size, dtype=bool)
        keep[np.searchsorted(keys, gone)] = False
        self._keys = keys[keep]
        self._m -= count
        self._version += 1
        return count

    def insert_edge(self, u: Vertex, v: Vertex) -> bool:
        """Insert one edge; return ``True`` if it was new."""
        u, v = self._check_pair(u, v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._m += 1
        self._version += 1
        self._keys = None
        return True

    def delete_edge(self, u: Vertex, v: Vertex) -> bool:
        """Delete one edge; return ``True`` if it was present."""
        u, v = self._check_pair(u, v)
        if v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._m -= 1
        self._version += 1
        self._keys = None
        return True

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def filter_new_edges(self, edges: Batch) -> np.ndarray:
        """Canonical sub-batch of ``edges`` not already in the graph, as a
        ``(k, 2)`` int64 array in first-seen order (validated like
        :meth:`canonical_batch`)."""
        return self._select(edges, False, False)[0]

    def filter_present_edges(self, edges: Batch) -> np.ndarray:
        """Canonical sub-batch of ``edges`` currently in the graph, as a
        ``(k, 2)`` int64 array in first-seen order (validated like
        :meth:`canonical_batch`)."""
        return self._select(edges, True, False)[0]

    def _check_vertex(self, v: Vertex) -> None:
        if not 0 <= v < self._n:
            raise VertexOutOfRange(v, self._n)

    def _check_pair(self, u: Vertex, v: Vertex) -> tuple[int, int]:
        """One edge validated like a batch row: ``(min, max)`` as ints."""
        u = operator.index(u)
        v = operator.index(v)
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise SelfLoopError(u)
        return (u, v) if u < v else (v, u)

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __contains__(self, edge: Edge) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __len__(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicGraph(n={self._n}, m={self._m})"
