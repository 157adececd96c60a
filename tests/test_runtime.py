"""The shard executor: wire format round-trips and parallel batch paths.

The wire format must reproduce structures *exactly* — equal fact sets,
equal fingerprints, the same interning order, and indexes that rebuild
to the same masks in the receiving process.  The parallel entry points
must agree with their serial counterparts bit for bit, fall back to the
serial fast path below the batch threshold, and keep the rewired
consumers (``ucq_certain_answers``, the boundedness probe) exact.
"""

import pickle

import pytest

from repro import EngineConfig, Session
from repro.core import OneCQ, build_cactus, full_shape, path_structure
from repro.core import runtime
from repro.core.homengine import covers_any, evaluate_batch
from repro.core.runtime import (
    from_wire,
    parallel_covers_any,
    parallel_evaluate_batch,
    parallel_screen,
    to_wire,
)
from repro.session import set_default_session
from repro.core.structure import BitsetIndex
from repro.workloads import instance_family, random_instance


@pytest.fixture
def small_pool():
    """A default session with a 2-worker pool and a tiny threshold,
    restored afterwards: the free entry points below run in it."""
    session = Session(EngineConfig(workers=2, parallel_min=4))
    previous = set_default_session(session)
    yield session
    session.close()
    set_default_session(previous)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


class TestWireFormat:
    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip_preserves_everything(self, seed):
        s = random_instance(10, 18, seed, preds=("R", "S"))
        _ = s.fingerprint  # force, to compare against the rebuilt one
        r = from_wire(pickle.loads(pickle.dumps(to_wire(s))))
        assert r == s
        assert r.fingerprint == s.fingerprint
        assert r.node_order == s.node_order
        assert dict(r.node_index) == dict(s.node_index)

    def test_rebuilt_indexes_equal(self):
        s = random_instance(8, 14, seed=4, preds=("R", "S"))
        r = from_wire(to_wire(s))
        mine, theirs = r.bitset_index, s.bitset_index
        rebuilt = BitsetIndex(s)
        for idx in (mine, theirs):
            assert idx.nodes == rebuilt.nodes
            assert idx.succ == rebuilt.succ
            assert idx.pred == rebuilt.pred
            assert idx.label_nodes == rebuilt.label_nodes
            assert idx.has_out == rebuilt.has_out
            assert idx.has_in == rebuilt.has_in

    def test_composite_cactus_nodes_survive(self):
        # Cactus nodes are (path, variable) tuples — the wire format
        # must carry them and keep the interning order (and with it the
        # fingerprint) stable across the hop.
        one_cq = OneCQ.from_structure(path_structure(["T", "T", "F"]))
        cactus = build_cactus(one_cq, full_shape(one_cq.span, 2))
        s = cactus.structure
        r = from_wire(pickle.loads(pickle.dumps(to_wire(s))))
        assert r == s
        assert r.fingerprint == s.fingerprint
        assert r.node_order == s.node_order

    def test_empty_structure(self):
        from repro.core import Structure

        r = from_wire(to_wire(Structure()))
        assert len(r.nodes) == 0 and r.size() == 0


# ----------------------------------------------------------------------
# Parallel batch entry points
# ----------------------------------------------------------------------


class TestParallelEvaluateBatch:
    def test_matches_serial(self, small_pool):
        q = path_structure(["T", "", "F"])
        family = instance_family(24, 20, 40, seed=5)
        assert parallel_evaluate_batch(q, family) == evaluate_batch(q, family)

    def test_order_preserved(self, small_pool):
        q = path_structure(["T", "F"])
        yes = path_structure(["T", "F"])
        no = path_structure(["F", "T"])
        family = [yes, no] * 8
        assert parallel_evaluate_batch(q, family) == [True, False] * 8

    def test_small_batch_serial_fallback(self, small_pool):
        small_pool.close()
        q = path_structure(["T", "F"])
        family = instance_family(3, 6, 8, seed=1)  # below min_batch=4
        assert parallel_evaluate_batch(q, family) == evaluate_batch(q, family)
        assert not small_pool.pool_info().running  # no pool was spawned for it

    def test_workers_one_disables_parallelism(self, small_pool):
        small_pool.close()
        q = path_structure(["T", "F"])
        family = instance_family(12, 6, 8, seed=2)
        result = parallel_evaluate_batch(q, family, workers=1)
        assert result == evaluate_batch(q, family)
        assert not small_pool.pool_info().running

    def test_empty_batch(self, small_pool):
        assert parallel_evaluate_batch(path_structure(["T"]), []) == []


class TestParallelScreen:
    def test_matches_per_query_serial(self, small_pool):
        queries = [
            path_structure(["T", "F"]),
            path_structure(["T", "", "F"]),
            path_structure(["", ""]),
        ]
        family = instance_family(16, 15, 30, seed=8)
        sharded = parallel_screen(queries, family)
        assert sharded == [evaluate_batch(q, family) for q in queries]

    def test_serial_fallback_below_threshold(self, small_pool):
        small_pool.close()
        queries = [path_structure(["T", "F"])]
        family = instance_family(3, 6, 8, seed=4)
        assert parallel_screen(queries, family) == [
            evaluate_batch(queries[0], family)
        ]
        assert not small_pool.pool_info().running

    def test_empty_query_pool(self, small_pool):
        assert parallel_screen([], instance_family(8, 5, 6, seed=1)) == []


class TestParallelUcqAnswers:
    def test_matches_serial_or_of_disjuncts(self, small_pool):
        from repro.core.runtime import parallel_ucq_answers

        disjuncts = [
            path_structure(["T", "F"]),
            path_structure(["T", "", "F"]),
        ]
        family = instance_family(16, 12, 24, seed=6)
        sharded = parallel_ucq_answers(disjuncts, family)
        assert sharded is not None  # pool up, batch over threshold
        per_disjunct = [evaluate_batch(d, family) for d in disjuncts]
        expected = [
            any(col[i] for col in per_disjunct) for i in range(len(family))
        ]
        assert sharded == expected

    def test_returns_none_below_threshold(self, small_pool):
        from repro.core.runtime import parallel_ucq_answers

        small_pool.close()
        disjuncts = [path_structure(["T", "F"])]
        family = instance_family(3, 6, 8, seed=2)
        assert parallel_ucq_answers(disjuncts, family) is None
        assert not small_pool.pool_info().running

    def test_returns_none_for_empty_inputs(self, small_pool):
        from repro.core.runtime import parallel_ucq_answers

        assert parallel_ucq_answers([], instance_family(8, 5, 6, 1)) is None
        assert parallel_ucq_answers([path_structure(["T"])], []) is None


class TestParallelCoversAny:
    def test_matches_serial(self, small_pool):
        target = random_instance(30, 70, seed=11)
        sources = [random_instance(3, 4, seed=s) for s in range(16)]
        assert parallel_covers_any(target, sources) == covers_any(
            target, sources
        )

    def test_negative_batch(self, small_pool):
        target = path_structure(["", ""])  # unlabelled edge
        sources = [path_structure(["T"], prefix=f"q{i}") for i in range(12)]
        assert not parallel_covers_any(target, sources)

    def test_seed_pair_conventions(self, small_pool):
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", "", ""], prefix="d")
        assert parallel_covers_any(d, [(q, {"q0": "d1"})])
        assert not parallel_covers_any(d, [(q, {"q0": "d2"})])
        assert parallel_covers_any(
            d, [q, q], seeds=[{"q0": "d2"}, {"q0": "d0"}]
        )
        with pytest.raises(ValueError):
            parallel_covers_any(d, [q, q, q], seeds=[None])
        with pytest.raises(ValueError):
            parallel_covers_any(d, [(q, None)], seeds=[None])

    def test_seeds_cross_process(self, small_pool):
        # Force the sharded path (batch >= min_batch) with seeds that
        # only admit one specific source: the hit must be found in a
        # worker and reported back.
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", "", ""], prefix="d")
        pairs = [(q, {"q0": "d2"})] * 7 + [(q, {"q0": "d0"})]
        assert parallel_covers_any(d, pairs)
        assert not parallel_covers_any(d, [(q, {"q0": "d2"})] * 8)


class TestRewiredConsumers:
    def test_ucq_certain_answers_parallel_matches_serial(self, small_pool):
        from repro.core.boundedness import (
            ucq_certain_answer,
            ucq_certain_answers,
            ucq_rewriting,
        )

        one_cq = OneCQ.from_structure(path_structure(["T", "T", "F"]))
        ucq = ucq_rewriting(one_cq, 2)
        family = instance_family(16, 5, 7, seed=9)
        batch = ucq_certain_answers(ucq, family)
        single = [ucq_certain_answer(ucq, data) for data in family]
        assert batch == single

    def test_probe_boundedness_unchanged(self, small_pool):
        from repro import zoo
        from repro.core.boundedness import Verdict, probe_boundedness

        probe = probe_boundedness(
            OneCQ.from_structure(zoo.q5()), probe_depth=3
        )
        assert probe.verdict is Verdict.BOUNDED and probe.depth == 1

    def test_screen_zoo_sweep(self, small_pool):
        from repro.core.boundedness import ucq_certain_answers, ucq_rewriting
        from repro.zoo import screen_zoo

        family = instance_family(8, 8, 14, seed=2)
        rows = {row.name: row for row in screen_zoo(family, probe_depth=3)}
        assert rows["q1"].decision is None  # two solitary Fs: not a 1-CQ
        assert rows["q2"].answers is None  # unbounded: no certified depth
        q5 = rows["q5"]
        assert q5.covering_depth == 1
        one_cq = OneCQ.from_structure(__import__("repro").zoo.q5())
        expected = ucq_certain_answers(ucq_rewriting(one_cq, 1), family)
        assert list(q5.answers) == expected


class TestPoolManagement:
    def test_configure_and_info(self):
        with Session(EngineConfig(workers=3, parallel_min=7)) as s:
            assert s.pool_info().workers == 3
            assert s.pool_info().min_batch == 7

    def test_shutdown_idempotent(self):
        s = Session(EngineConfig(workers=2))
        s.close()
        s.close()
        assert not s.pool_info().running
