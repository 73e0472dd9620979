"""The engine registry and the backend differential property.

The differential test is the refactor's correctness anchor: the same update
schedule driven through the same engine on the ``object``, ``columnar`` and
``columnar-frontier`` level stores must produce identical levels, identical
coreness estimates, identical deterministic work counters
(moves/rounds/marked/DAGs) and identical invariant verdicts — through plain
batches, snapshot/restore round-trips, and supervised crash/recover cycles
alike.

DAG *roots* are deliberately not compared raw: the object engine's root
choice depends on set-iteration order within a marking round (a vertex never
becomes root of a pre-existing DAG), while the frontier engine's union-find
always picks the min-id member.  The DAG *partition* — which vertices ended
up merged — is order-independent, so the differential canonicalizes
``last_batch_dag_map`` to a sorted tuple of member groups before comparing.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engines
from repro.core import CPLDS, frontier
from repro.engines import CoreEngine
from repro.graph.generators import chung_lu
from repro.lds.params import LDSParams
from repro.lds.plds import UpdateHooks
from repro.lds.store import BACKENDS, FrontierLevelStore
from repro.persist import _checkpoint_checksum, load_cplds, save_cplds
from repro.runtime.chaos import ChaosHooks
from repro.runtime.inject import HookChain
from repro.runtime.supervisor import SupervisedCPLDS


def mixed_schedule(seed, n, num_batches):
    """Deterministic mixed insert/delete schedule over ``n`` vertices."""
    rng = random.Random(seed)
    live = set()
    batches = []
    for _ in range(num_batches):
        ins = []
        for _ in range(rng.randint(1, 10)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v:
                continue
            e = (min(u, v), max(u, v))
            if e not in live and e not in ins:
                ins.append(e)
        dels = rng.sample(sorted(live), min(len(live), rng.randint(0, 3)))
        live.update(ins)
        live.difference_update(dels)
        batches.append((ins, dels))
    return batches


class TestRegistry:
    def test_available_engines(self):
        names = engines.available()
        assert names == tuple(sorted(names))
        for name in ("cplds", "lds", "plds", "nonsync", "syncreads", "naive"):
            assert name in names

    def test_backends_listing(self):
        assert engines.backends() == BACKENDS

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="cplds"):
            engines.create("no-such-engine", 8)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            engines.create("cplds", 8, backend="no-such-backend")

    def test_lds_rejects_executor(self):
        class FakeExecutor:
            pass

        with pytest.raises(ValueError):
            engines.create("lds", 8, executor=FakeExecutor())

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            engines.register("cplds", lambda *a, **k: None)
        # replace=True is the explicit override (restore the original after).
        original = engines._FACTORIES["cplds"]
        try:
            engines.register("cplds", original, replace=True)
        finally:
            engines._FACTORIES["cplds"] = original

    @pytest.mark.parametrize("name", ["cplds", "plds", "lds", "nonsync",
                                      "syncreads", "naive"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_engine_satisfies_core_engine(self, name, backend):
        impl = engines.create(name, 10, backend=backend)
        assert isinstance(impl, CoreEngine)
        assert impl.backend == backend
        impl.insert_batch([(0, 1), (1, 2)])
        assert impl.read(1) >= 1.0
        assert len(impl.levels()) == 10
        impl.delete_batch([(0, 1)])

    def test_params_threaded_through(self):
        params = LDSParams(12, levels_per_group=4)
        impl = engines.create("cplds", 12, params=params, backend="columnar")
        assert impl.params is params


class TestBackendDifferential:
    @pytest.mark.parametrize("engine", ["cplds", "plds", "nonsync", "naive"])
    def test_same_schedule_same_state(self, engine):
        n = 24
        impls = {
            be: engines.create(engine, n, backend=be) for be in BACKENDS
        }
        for ins, dels in mixed_schedule(11, n, 25):
            for impl in impls.values():
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            obj = impls["object"]
            obj_levels = list(obj.levels())
            obj_reads = [obj.read(v) for v in range(n)]
            for be in BACKENDS[1:]:
                other = impls[be]
                assert list(other.levels()) == obj_levels, be
                assert [other.read(v) for v in range(n)] == obj_reads, be
        for impl in impls.values():
            impl.check_invariants()

    def test_snapshot_restore_round_trip(self):
        n = 20
        for be in BACKENDS:
            impl = engines.create("cplds", n, backend=be)
            schedule = mixed_schedule(5, n, 12)
            for ins, dels in schedule[:6]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            snap = impl.snapshot_state()
            levels_at_snap = list(impl.levels())
            for ins, dels in schedule[6:]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            impl.restore_state(snap)
            assert list(impl.levels()) == levels_at_snap
            impl.check_invariants()
            # The restored structure keeps working.
            for ins, dels in schedule[6:]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            impl.check_invariants()

    def test_restore_diverge_reconverge(self):
        """Restoring both backends to the same snapshot point and replaying
        the same suffix must keep them identical."""
        n = 18
        schedule = mixed_schedule(7, n, 14)
        finals = {}
        for be in BACKENDS:
            impl = engines.create("cplds", n, backend=be)
            for ins, dels in schedule[:7]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            snap = impl.snapshot_state()
            impl.insert_batch([(0, 1), (2, 3)])  # divergence to undo
            impl.restore_state(snap)
            for ins, dels in schedule[7:]:
                impl.insert_batch(ins)
                impl.delete_batch(dels)
            impl.check_invariants()
            finals[be] = list(impl.levels())
        assert len({tuple(v) for v in finals.values()}) == 1


def canonical_dag_partition(dag_map):
    """Order-independent view of a batch's DAG merges.

    Groups ``last_batch_dag_map`` members by root and drops the root ids
    themselves (they are construction-order artefacts in the object engine);
    what must agree across backends is *which* vertices merged together.
    """
    groups: dict = {}
    for v, root in dag_map.items():
        groups.setdefault(root, []).append(v)
    return sorted(tuple(sorted(g)) for g in groups.values())


_VERTS = 16
_edge = (
    st.tuples(st.integers(0, _VERTS - 1), st.integers(0, _VERTS - 1))
    .filter(lambda e: e[0] != e[1])
    .map(lambda e: (min(e), max(e)))
)
_batch = st.tuples(
    st.lists(_edge, max_size=10, unique=True),
    st.lists(st.integers(0, 10_000), max_size=3),
)


class TestHypothesisDifferential:
    """Property form of the backend differential, all three backends.

    Beyond levels and reads, this asserts the *work counters* the CI bench
    gate keys on (moves, rounds, marked vertices, DAG count) are
    bit-identical per phase, and that the DAG partitions match canonically —
    the frontier engine's claim is "same algorithm, array execution", so
    every deterministic observable must agree, not just the final state.
    """

    @settings(max_examples=25, deadline=None)
    @given(batches=st.lists(_batch, min_size=1, max_size=10))
    def test_backends_bit_identical(self, batches):
        n = _VERTS
        impls = {be: engines.create("cplds", n, backend=be) for be in BACKENDS}
        live: set = set()
        for ins, del_picks in batches:
            ins = [e for e in ins if e not in live]
            pool = sorted(live)
            dels = sorted({pool[i % len(pool)] for i in del_picks}) if pool else []
            live.update(ins)
            live.difference_update(dels)

            for phase_edges, apply in ((ins, "insert_batch"), (dels, "delete_batch")):
                observed = {}
                for be, impl in impls.items():
                    getattr(impl, apply)(phase_edges)
                    observed[be] = {
                        "levels": list(impl.levels()),
                        "reads": [impl.read(v) for v in range(n)],
                        "moves": impl.plds.last_batch_moves,
                        "rounds": impl.plds.last_batch_rounds,
                        "marked": impl.last_batch_marked,
                        "dags": impl.last_batch_dags,
                        "partition": canonical_dag_partition(
                            impl.last_batch_dag_map
                        ),
                    }
                for be in BACKENDS[1:]:
                    assert observed[be] == observed["object"], (be, apply)

        # Snapshots: backend-specific payloads, backend-neutral content.
        snaps = {be: impl.snapshot_state() for be, impl in impls.items()}
        for be in BACKENDS[1:]:
            assert (
                snaps[be]["plds"]["edges"] == snaps["object"]["plds"]["edges"]
            )
            assert snaps[be]["batch_number"] == snaps["object"]["batch_number"]
        for be, impl in impls.items():
            impl.insert_batch([(0, 1), (1, 2)])  # diverge...
            impl.restore_state(snaps[be])  # ...and come back
            impl.check_invariants()
        final = {be: list(impl.levels()) for be, impl in impls.items()}
        assert len({tuple(v) for v in final.values()}) == 1


class TestSupervisedDifferential:
    def _run(self, backend, tmp_path, journaled):
        n = 20
        hooks = ChaosHooks()

        def attach(impl: CPLDS) -> None:
            impl.plds.hooks = HookChain(impl.plds.hooks, hooks)

        service = SupervisedCPLDS(
            engines.create("cplds", n, backend=backend),
            journal_dir=str(tmp_path / backend) if journaled else None,
            checkpoint_every=3,
            max_retries=2,
            backoff_base=0.0,
        )
        attach(service.impl)
        service.post_restore = attach

        trace = []
        for i, (ins, dels) in enumerate(mixed_schedule(3, n, 10)):
            if i in (2, 5):
                # One crash within the retry budget, one forcing bisection.
                hooks.arm_crash(after_moves=1, times=1 if i == 2 else 4)
            outcome = service.apply_batch(ins, dels)
            hooks.clear()
            trace.append(
                (
                    [(r.insertions, r.deletions) for r in outcome.applied],
                    len(outcome.dropped),
                    [service.read(v) for v in range(n)],
                )
            )
        service.impl.check_invariants()
        levels = list(service.impl.levels())
        recoveries = service.telemetry.recoveries
        service.close()
        return trace, levels, recoveries

    @pytest.mark.parametrize("journaled", [True, False])
    def test_crash_recover_identical_across_backends(self, tmp_path, journaled):
        runs = {
            be: self._run(be, tmp_path, journaled) for be in BACKENDS
        }
        for be in BACKENDS[1:]:
            assert runs[be] == runs["object"], be
        assert runs["object"][2] > 0, "schedule never exercised recovery"

    def test_reopen_preserves_backend(self, tmp_path):
        for be in BACKENDS:
            d = tmp_path / be
            service = SupervisedCPLDS(
                engines.create("cplds", 12, backend=be),
                journal_dir=str(d),
            )
            service.apply_batch([(0, 1), (1, 2), (2, 3)], [])
            levels = list(service.impl.levels())
            service._journal.close()  # simulated process death
            service, report = SupervisedCPLDS.open(str(d))
            assert service.impl.backend == be
            assert list(service.impl.levels()) == levels
            assert report.recovered_through == 1
            service.close()


class TestPersistBackends:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoint_round_trip(self, tmp_path, backend):
        impl = engines.create("cplds", 16, backend=backend)
        for ins, dels in mixed_schedule(9, 16, 8):
            impl.insert_batch(ins)
            impl.delete_batch(dels)
        path = tmp_path / "ckpt.npz"
        save_cplds(impl, path)
        restored = load_cplds(path)
        assert restored.backend == backend
        assert list(restored.levels()) == list(impl.levels())
        assert restored.batch_number == impl.batch_number

    def test_v2_checkpoint_still_loads(self, tmp_path):
        """A hand-written version-2 archive (no backend field, v2 checksum)
        restores onto the object backend."""
        reference = engines.create("cplds", 8)
        reference.insert_batch([(0, 1), (1, 2), (2, 3), (0, 2)])
        edges = np.asarray(
            list(reference.graph.edges()), dtype=np.int64
        ).reshape(-1, 2)
        levels = np.asarray(reference.levels(), dtype=np.int64)
        p = reference.params
        checksum = _checkpoint_checksum(
            8, edges, levels, reference.batch_number,
            p.delta, p.lam, p.group_height,
        )
        path = tmp_path / "v2.npz"
        np.savez_compressed(
            path,
            format_version=np.int64(2),
            num_vertices=np.int64(8),
            edges=edges,
            levels=levels,
            batch_number=np.int64(reference.batch_number),
            delta=np.float64(p.delta),
            lam=np.float64(p.lam),
            group_height=np.int64(p.group_height),
            checksum=np.uint32(checksum),
        )
        restored = load_cplds(path)
        assert restored.backend == "object"
        assert list(restored.levels()) == list(reference.levels())


class TestDeleteRoundCarry:
    """The deletion driver carries each round's ``(violator, desire)``
    pairs forward and recomputes only the rows a move touched.  A spy on
    the store checks, on every deletion round, that the merged result is
    exactly a full ``bulk_desire_levels_arr`` over the outstanding set."""

    @pytest.mark.parametrize("hooks", ["bulk", "chain", "noop"])
    def test_carry_equals_full_recompute(self, monkeypatch, hooks):
        kernel = FrontierLevelStore.bulk_desire_levels_arr
        merge = frontier._merge_sorted
        seen = {"cands": None, "rounds": 0, "carried": 0, "small": 0, "big": 0}

        def spy_kernel(store, cands):
            seen["store"], seen["cands"] = store, cands
            return kernel(store, cands)

        def spy_merge(carry_v, carry_d, fresh_v, fresh_d):
            viols, desires = merge(carry_v, carry_d, fresh_v, fresh_d)
            outstanding = np.union1d(carry_v, seen["cands"])
            full_v, full_d = kernel(seen["store"], outstanding)
            assert viols.tolist() == full_v.tolist()
            assert desires.tolist() == full_d.tolist()
            seen["rounds"] += 1
            seen["carried"] += int(carry_v.size)
            if viols.size:
                movers = int((desires == desires.min()).sum())
                seen["small" if movers <= frontier._SMALL_FRONTIER else "big"] += 1
            return viols, desires

        monkeypatch.setattr(FrontierLevelStore, "bulk_desire_levels_arr", spy_kernel)
        monkeypatch.setattr(frontier, "_merge_sorted", spy_merge)

        n = 300
        params = LDSParams(n, levels_per_group=4)
        name = "plds" if hooks == "noop" else "cplds"
        impl = engines.create(name, n, backend="columnar-frontier", params=params)
        ref = engines.create(name, n, backend="object", params=params)
        plds = getattr(impl, "plds", impl)
        ref_plds = getattr(ref, "plds", ref)
        if hooks == "chain":
            plds.hooks = HookChain(plds.hooks, UpdateHooks())
        edges = chung_lu(n, 3000, seed=5)
        impl.insert_batch(edges)
        ref.insert_batch(edges)
        order = np.random.default_rng(0).permutation(len(edges))
        for chunk in np.array_split(order, 4):
            batch = [edges[i] for i in chunk]
            impl.delete_batch(batch)
            ref.delete_batch(batch)
            assert list(impl.levels()) == list(ref.levels())
            assert plds.last_batch_moves == ref_plds.last_batch_moves
            assert plds.last_batch_rounds == ref_plds.last_batch_rounds
        impl.check_invariants()
        # Every driver branch ran, and the carry was non-trivial.
        assert seen["small"] and seen["big"] and seen["carried"], seen
