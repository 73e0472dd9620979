"""Array-native batch ingestion: whole-batch validation, the graph's
incrementally merged CSR, and ``(k, 2)`` array batches on every backend.

* A malformed batch (self-loop, out-of-range or negative id, non-integer
  id) is rejected before anything is mutated: graph, levels, counters and
  ``batch_number`` are untouched and the next batch runs normally.
* After every batch the graph's :func:`csr_view` equals a CSR built from
  scratch for the same edge set, views taken earlier never change, and
  the filter/mutation results match a plain set model.
* ndarray batches and list-of-tuples batches drive every backend to the
  same levels and work counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.errors import SelfLoopError, VertexOutOfRange
from repro.graph import DynamicGraph
from repro.graph.csr import csr_view
from repro.lds.plds import PLDS
from repro.lds.store import BACKENDS


def _state(cp):
    return (
        sorted(cp.graph.edges()),
        cp.graph.num_edges,
        list(cp.levels()),
        cp.batch_number,
    )


class TestMalformedBatches:
    """Every backend rejects a bad batch before its first mutation."""

    BAD = [
        ([(3, 4), (5, 5)], SelfLoopError),
        ([(3, 4), (5, 10)], VertexOutOfRange),
        ([(3, 4), (-1, 9)], VertexOutOfRange),
        ([(3, 4), (1.5, 2)], TypeError),
        ([(3, 4), ("1", 2)], TypeError),
        ([(3, 4), (1, 2, 3)], ValueError),
    ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch,error", BAD)
    def test_insert_leaves_state_untouched(self, backend, batch, error):
        cp = engines.create("cplds", 10, backend=backend)
        cp.insert_batch([(0, 1), (1, 2)])
        before = _state(cp)
        with pytest.raises(error):
            cp.insert_batch(batch)
        assert _state(cp) == before
        cp.check_invariants()
        assert cp.insert_batch([(3, 4)]) == 1
        cp.check_invariants()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch,error", BAD)
    def test_delete_leaves_state_untouched(self, backend, batch, error):
        cp = engines.create("cplds", 10, backend=backend)
        cp.insert_batch([(0, 1), (1, 2), (3, 4)])
        before = _state(cp)
        with pytest.raises(error):
            cp.delete_batch(batch)
        assert _state(cp) == before
        cp.check_invariants()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mixed_batch_checks_deletions_before_inserting(self, backend):
        cp = engines.create("cplds", 10, backend=backend)
        cp.insert_batch([(0, 1), (1, 2)])
        before = _state(cp)
        with pytest.raises(SelfLoopError):
            cp.apply_batch(insertions=[(3, 4), (4, 5)], deletions=[(0, 1), (6, 6)])
        assert _state(cp) == before
        cp.check_invariants()
        assert cp.apply_batch(insertions=[(3, 4)], deletions=[(0, 1)]) == (1, 1)
        cp.check_invariants()


class TestNegativeIds:
    """``-1`` must not alias vertex ``n - 1`` through list indexing."""

    def _graph(self):
        return DynamicGraph(10, [(9, 2), (0, 1)])

    @pytest.mark.parametrize(
        "op",
        ["filter_new_edges", "filter_present_edges", "insert_batch", "delete_batch"],
    )
    @pytest.mark.parametrize("edge", [(-1, 2), (-1, 3), (2, -1)])  # present / absent alias
    def test_batch_paths_raise(self, op, edge):
        g = self._graph()
        with pytest.raises(VertexOutOfRange):
            getattr(g, op)([edge])
        assert sorted(g.edges()) == [(0, 1), (2, 9)]

    @pytest.mark.parametrize("op", ["insert_edge", "delete_edge", "has_edge"])
    def test_single_edge_paths_raise(self, op):
        g = self._graph()
        with pytest.raises(VertexOutOfRange):
            getattr(g, op)(-1, 2)
        assert g.num_edges == 2

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_delete_raises(self, backend):
        cp = engines.create("cplds", 10, backend=backend)
        cp.insert_batch([(9, 2)])
        with pytest.raises(VertexOutOfRange):
            cp.delete_batch([(-1, 2)])
        assert cp.graph.num_edges == 1


# ----------------------------------------------------------------------
# The incrementally merged CSR against a set model
# ----------------------------------------------------------------------
_N = 9
_pair = st.tuples(st.integers(0, _N - 1), st.integers(0, _N - 1)).filter(
    lambda e: e[0] != e[1]
)
_batch = st.lists(_pair, max_size=12)  # duplicates and reversed pairs included
_op = st.one_of(
    st.tuples(st.just("insert"), _batch),
    st.tuples(st.just("delete"), _batch),
    st.tuples(st.just("insert_edge"), _pair),
    st.tuples(st.just("delete_edge"), _pair),
    st.tuples(st.just("clear"), st.none()),
    st.tuples(st.just("snapshot"), st.none()),
    st.tuples(st.just("restore"), st.none()),
)


def _canon(batch):
    """First-seen canonical dedup, the reference pre-processing."""
    out, seen = [], set()
    for u, v in batch:
        e = (min(u, v), max(u, v))
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def _scratch_csr(n, model):
    """CSR built from scratch for the edge set ``model``."""
    rows = [sorted(w for e in model for w in e if v in e and w != v) for v in range(n)]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    targets = np.array([w for r in rows for w in r], dtype=np.int64)
    return offsets, targets


class _Checker:
    """Checks a graph against its set model; keeps every view taken so far
    with a copy of its arrays, to prove none of them changes later."""

    def __init__(self, n):
        self.n = n
        self.held: list[tuple[np.ndarray, np.ndarray]] = []

    def check(self, g, model):
        assert g.num_edges == len(model)
        assert set(g.edges()) == model
        assert set(map(tuple, g.edge_array().tolist())) == model
        csr = csr_view(g)
        offsets, targets = _scratch_csr(self.n, model)
        assert csr.offsets.tolist() == offsets.tolist()
        assert csr.targets.tolist() == targets.tolist()
        for arr in (csr.offsets, csr.targets, g.adjacency_keys()):
            self.held.append((arr, arr.copy()))
        for arr, frozen in self.held:
            assert np.array_equal(arr, frozen)


class TestIncrementalCSR:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(_op, max_size=25))
    def test_graph_matches_set_model(self, ops):
        g = DynamicGraph(_N)
        model: set = set()
        snap: set = set()
        checker = _Checker(_N)
        for kind, arg in ops:
            if kind == "insert":
                canon = _canon(arg)
                new = [e for e in canon if e not in model]
                assert g.filter_new_edges(arg).tolist() == [list(e) for e in new]
                assert g.insert_batch(arg) == len(new)
                model.update(new)
            elif kind == "delete":
                canon = _canon(arg)
                present = [e for e in canon if e in model]
                assert g.filter_present_edges(arg).tolist() == [list(e) for e in present]
                assert g.delete_batch(arg) == len(present)
                model.difference_update(present)
            elif kind == "insert_edge":
                e = (min(arg), max(arg))
                assert g.insert_edge(*arg) == (e not in model)
                model.add(e)
            elif kind == "delete_edge":
                e = (min(arg), max(arg))
                assert g.delete_edge(*arg) == (e in model)
                model.discard(e)
            elif kind == "clear":
                g.clear()
                model.clear()
            elif kind == "snapshot":
                snap = set(model)
            else:  # restore, as PLDS.restore_state does it
                g.clear()
                g.insert_batch(sorted(snap))
                model = set(snap)
            checker.check(g, model)

    @settings(max_examples=30, deadline=None)
    @given(ops=st.lists(_op, max_size=20))
    def test_frontier_engine_restore_state(self, ops):
        """Through the frontier PLDS: snapshot/restore_state and a clear
        (restoring the empty snapshot) keep the CSR current."""
        plds = PLDS(_N, backend="columnar-frontier")
        empty = plds.snapshot_state()
        snap = empty
        model: set = set()
        snap_model: set = set()
        checker = _Checker(_N)
        for kind, arg in ops:
            if kind in ("insert", "insert_edge"):
                batch = arg if kind == "insert" else [arg]
                new = [e for e in _canon(batch) if e not in model]
                assert plds.batch_insert(batch) == len(new)
                model.update(new)
            elif kind in ("delete", "delete_edge"):
                batch = arg if kind == "delete" else [arg]
                present = [e for e in _canon(batch) if e in model]
                assert plds.batch_delete(batch) == len(present)
                model.difference_update(present)
            elif kind == "clear":
                plds.restore_state(empty)
                model = set()
            elif kind == "snapshot":
                snap = plds.snapshot_state()
                snap_model = set(model)
            else:
                plds.restore_state(snap)
                model = set(snap_model)
            plds.check_invariants()
            checker.check(plds.graph, model)


def test_copy_is_independent_of_later_batches():
    g = DynamicGraph(6, [(0, 1), (1, 2), (2, 3)])
    h = g.copy()
    g.delete_batch([(1, 2)])
    g.insert_batch([(4, 5)])
    assert h.filter_present_edges([(1, 2), (4, 5)]).tolist() == [[1, 2]]
    assert sorted(map(tuple, h.edge_array().tolist())) == [(0, 1), (1, 2), (2, 3)]
    assert csr_view(h).targets.tolist() == [1, 0, 2, 1, 3, 2]


# ----------------------------------------------------------------------
# ndarray batches == list-of-tuples batches, on every backend
# ----------------------------------------------------------------------
def _observe(cp):
    return (
        list(cp.levels()),
        cp.plds.last_batch_moves,
        cp.plds.last_batch_rounds,
        cp.last_batch_marked,
        cp.last_batch_dags,
        cp.batch_number,
        cp.plds.executor.stats.rounds,
        cp.plds.executor.stats.items,
    )


class TestArrayBatches:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_array_and_list_batches_agree(self, backend):
        rng = np.random.default_rng(5)
        n = 40
        as_list = engines.create("cplds", n, backend=backend)
        as_array = engines.create("cplds", n, backend=backend)
        for step in range(12):
            ins = rng.integers(0, n, size=(25, 2))
            ins = ins[ins[:, 0] != ins[:, 1]]
            dels = rng.integers(0, n, size=(10, 2))
            dels = dels[dels[:, 0] != dels[:, 1]]
            lists = (
                [tuple(e) for e in ins.tolist()],
                [tuple(e) for e in dels.tolist()],
            )
            if step % 3 == 0:
                a = as_list.insert_batch(lists[0])
                b = as_array.insert_batch(ins)
            elif step % 3 == 1:
                a = as_list.delete_batch(lists[1])
                b = as_array.delete_batch(dels)
            else:
                a = as_list.apply_batch(*lists)
                b = as_array.apply_batch(ins, dels)
            assert a == b
            assert _observe(as_list) == _observe(as_array)
        as_array.check_invariants()


class TestLazyDagMap:
    def test_built_on_first_access_and_cached(self):
        cp = engines.create("cplds", 12, backend="columnar-frontier")
        cp.insert_batch([(u, v) for u in range(6) for v in range(u + 1, 6)])
        assert cp._dag_map is None
        dag = cp.last_batch_dag_map
        assert len(dag) == cp.last_batch_marked
        assert len(set(dag.values())) == cp.last_batch_dags
        assert all(type(v) is int and type(r) is int for v, r in dag.items())
        assert cp.last_batch_dag_map is dag
