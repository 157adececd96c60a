"""The resilient execution layer: budgets, tri-state answers, and the
fault-injection story of the pool runtime.

Three layers under test:

* **Cooperative governance** — ``deadline_ms`` / ``hom_fuel`` /
  ``cactus_max_nodes`` must stop hostile runs early with a typed
  reason, never a hang, and known partial results must survive.
* **Worker-fault recovery** — injected crashes, hangs and corrupt
  results (``EngineConfig.fault_plan``) must recover to answers
  identical to the serial path, via requeue-once and then in-parent
  quarantine.
* **Degradation bookkeeping** — submit failures fall back cleanly,
  the failure/cooldown state machine heals, the wire LRU evicts, and
  ``Session.close`` is idempotent.
"""

import time

import pytest

from repro import (
    Answer,
    Budget,
    CactusBudgetExceeded,
    DeadlineExceeded,
    EngineConfig,
    EngineError,
    FuelExhausted,
    OneCQ,
    ResourceExhausted,
    Session,
    zoo,
)
from repro.core import runtime
from repro.core.boundedness import (
    Verdict,
    probe_boundedness,
    ucq_certain_answers,
    ucq_rewriting,
)
from repro.core.homengine import evaluate_batch_governed
from repro.core.runtime import (
    parallel_evaluate_batch,
    parallel_screen,
    parallel_screen_stream,
    to_wire,
)
from repro.core.structure import path_structure
from repro.workloads import instance_family, random_instance


def faulty_session(fault_plan, **overrides):
    base = dict(
        backend="bitset",
        workers=2,
        parallel_min=4,
        pool_cooldown_ms=0,
        fault_plan=fault_plan,
    )
    base.update(overrides)
    return Session(EngineConfig(**base))


QUERY = path_structure(["T", "", "F"])
FAMILY = instance_family(12, 14, 26, seed=31)


# ----------------------------------------------------------------------
# Taxonomy + Answer semantics
# ----------------------------------------------------------------------


class TestTaxonomy:
    def test_hierarchy(self):
        for cls in (DeadlineExceeded, FuelExhausted, CactusBudgetExceeded):
            assert issubclass(cls, ResourceExhausted)
            assert issubclass(cls, EngineError)

    def test_from_reason_round_trip(self):
        for cls, reason in (
            (DeadlineExceeded, "deadline"),
            (FuelExhausted, "fuel"),
            (CactusBudgetExceeded, "cactus-nodes"),
        ):
            exc = ResourceExhausted.from_reason(reason)
            assert type(exc) is cls and exc.reason == reason
        other = ResourceExhausted.from_reason("elsewhere")
        assert type(other) is ResourceExhausted
        assert other.reason == "elsewhere"

    def test_answer_known_compares_like_bool(self):
        assert Answer.TRUE == True  # noqa: E712
        assert Answer.FALSE == False  # noqa: E712
        assert Answer.TRUE != False  # noqa: E712
        assert bool(Answer.TRUE) and not bool(Answer.FALSE)
        assert hash(Answer.TRUE) == hash(True)

    def test_answer_unknown_refuses_bool(self):
        u = Answer.unknown("fuel")
        assert not u.known and u.reason == "fuel"
        with pytest.raises(EngineError):
            bool(u)
        assert u != True and u != False  # noqa: E712
        assert u == Answer.unknown("fuel")
        assert u != Answer.unknown("deadline")

    def test_answer_wire_round_trip(self):
        for entry in (True, False, "deadline", "fuel"):
            decoded = Answer.decode(entry)
            if isinstance(entry, bool):
                assert decoded is entry
            else:
                assert isinstance(decoded, Answer)
                assert decoded.encode() == entry

    def test_budget_fuel_and_deadline(self):
        b = Budget(fuel=3)
        b.charge(2)
        b.charge()
        with pytest.raises(FuelExhausted):
            b.charge()
        expired = Budget(deadline_ms=1)
        time.sleep(0.005)
        with pytest.raises(DeadlineExceeded):
            expired.checkpoint()

    def test_ungoverned_config_resolves_no_budget(self):
        assert Budget.from_config(EngineConfig()) is None
        assert not EngineConfig().governed
        assert EngineConfig(hom_fuel=5).governed
        assert EngineConfig(deadline_ms=5).governed


# ----------------------------------------------------------------------
# Cooperative governance surfaces
# ----------------------------------------------------------------------


class TestGovernedSurfaces:
    def test_certain_answer_fuel_unknown(self):
        with Session(EngineConfig(hom_fuel=1)) as s:
            got = s.certain_answer(zoo.q2(), zoo.d2())
            assert isinstance(got, Answer) and got.reason == "fuel"

    def test_certain_answer_matches_ungoverned_when_budget_suffices(self):
        with Session(EngineConfig(hom_fuel=10_000_000)) as s:
            assert s.certain_answer(zoo.q2(), zoo.d2()) is True
            assert s.certain_answer(zoo.q2(), zoo.d1()) is False

    def test_deep_probe_deadline(self):
        # The acceptance scenario: a deep probe over an unbounded sirup
        # that runs for tens of seconds ungoverned must come back
        # UNKNOWN within ~2x the deadline instead of hanging.
        q4 = OneCQ.from_structure(zoo.q4())
        with Session(EngineConfig(deadline_ms=2000)) as s:
            started = time.monotonic()
            probe = probe_boundedness(q4, probe_depth=150, session=s)
            elapsed = time.monotonic() - started
        assert probe.verdict is Verdict.INCONCLUSIVE
        assert probe.reason == "deadline"
        assert elapsed < 4.5
        assert "deadline" in probe.describe()

    def test_span2_probe_deadline_instead_of_shape_explosion(self):
        # Span >= 2 shape universes grow as a tower; deep enumeration
        # used to spend unbounded time *materialising subshapes* before
        # yielding anything.  The budget is charged inside the
        # recursion, so even this run stops at the deadline.
        q2 = OneCQ.from_structure(zoo.q2())
        with Session(EngineConfig(deadline_ms=1000)) as s:
            started = time.monotonic()
            probe = probe_boundedness(q2, probe_depth=40, session=s)
            elapsed = time.monotonic() - started
        assert probe.verdict is Verdict.INCONCLUSIVE
        assert probe.reason == "deadline"
        assert elapsed < 3.0

    def test_probe_untouched_when_budget_suffices(self):
        q5 = OneCQ.from_structure(zoo.q5())
        with Session(EngineConfig(deadline_ms=60_000)) as s:
            probe = probe_boundedness(q5, probe_depth=3, session=s)
        assert probe.verdict is Verdict.BOUNDED and probe.depth == 1
        assert probe.reason is None

    def test_cactus_max_nodes_cap(self):
        one_cq = OneCQ.from_structure(zoo.q5())
        with Session(EngineConfig(cactus_max_nodes=6)) as s:
            with pytest.raises(CactusBudgetExceeded):
                list(s.iter_cactuses(one_cq, max_depth=4))

    def test_evaluate_batch_governed_keeps_partial_results(self):
        with Session(EngineConfig()) as s:
            oracle = [
                s.has_homomorphism(QUERY, d) for d in FAMILY
            ]
        with Session(EngineConfig(hom_fuel=120)) as s:
            entries = evaluate_batch_governed(QUERY, FAMILY, session=s)
        assert len(entries) == len(FAMILY)
        seen_unknown = False
        for i, entry in enumerate(entries):
            if isinstance(entry, str):
                seen_unknown = True
                assert entry == "fuel"
            else:
                # Every known answer must be exact, and exhaustion is
                # a suffix: nothing known comes after the first UNKNOWN.
                assert not seen_unknown
                assert entry == oracle[i]

    def test_ucq_certain_answers_tri_state(self):
        one_cq = OneCQ.from_structure(path_structure(["T", "T", "F"]))
        ucq = ucq_rewriting(one_cq, 2)
        family = instance_family(8, 5, 7, seed=9)
        with Session(EngineConfig()) as s:
            want = ucq_certain_answers(ucq, family, session=s)
        with Session(EngineConfig(hom_fuel=10_000_000)) as s:
            roomy = ucq_certain_answers(ucq, family, session=s)
        assert roomy == want
        with Session(EngineConfig(hom_fuel=1)) as s:
            starved = ucq_certain_answers(ucq, family, session=s)
        # Exhaustion may leave cheap refutations known (arc consistency
        # decides some instances without burning fuel), but every known
        # entry must be sound and at least one slot must be UNKNOWN.
        assert any(isinstance(e, Answer) and not e.known for e in starved)
        for got, oracle in zip(starved, want):
            if not isinstance(got, Answer):
                assert got == oracle

    def test_governed_parallel_batch_decodes(self):
        with faulty_session((), hom_fuel=1) as s:
            got = parallel_evaluate_batch(QUERY, FAMILY, session=s)
        assert len(got) == len(FAMILY)
        assert all(isinstance(e, Answer) and e.reason == "fuel" for e in got)
        with faulty_session((), hom_fuel=10_000_000) as s:
            roomy = parallel_evaluate_batch(QUERY, FAMILY, session=s)
        with Session(EngineConfig(workers=1)) as s:
            want = parallel_evaluate_batch(QUERY, FAMILY, session=s)
        assert roomy == want


# ----------------------------------------------------------------------
# Fault injection: crash / hang / corrupt
# ----------------------------------------------------------------------


def serial_screen(queries, family):
    with Session(EngineConfig(workers=1)) as s:
        return [
            [s.has_homomorphism(q, d) for d in family] for q in queries
        ]


class TestFaultInjection:
    def test_crash_mid_screen_recovers_identically(self):
        queries = [QUERY, path_structure(["T", "F"])]
        want = serial_screen(queries, FAMILY)
        with faulty_session((("crash", 0),)) as s:
            got = parallel_screen(queries, FAMILY, session=s)
            info = s.pool_info()
        assert got == want
        assert info.last_fallback is not None

    def test_crash_mid_stream_recovers_identically(self):
        queries = [QUERY]
        want = serial_screen(queries, FAMILY)
        with faulty_session((("crash", 0),)) as s:
            shards = sorted(
                parallel_screen_stream(queries, FAMILY, session=s),
                key=lambda sh: sh.start,
            )
        got = [[] for _ in queries]
        for shard in shards:
            for qi, row in enumerate(shard.answers):
                got[qi].extend(row)
        assert got == want

    def test_hang_hits_shard_timeout_and_completes_serially(self):
        want = serial_screen([QUERY], FAMILY)[0]
        with faulty_session(
            (("hang", 0),), shard_timeout_ms=200
        ) as s:
            started = time.monotonic()
            got = parallel_evaluate_batch(QUERY, FAMILY, session=s)
            elapsed = time.monotonic() - started
            info = s.pool_info()
        assert got == want
        assert elapsed < 30  # nowhere near the 600s injected sleep
        assert info.last_fallback is not None

    def test_corrupt_result_detected_and_recovered(self):
        want = serial_screen([QUERY], FAMILY)[0]
        with faulty_session((("corrupt", 0),)) as s:
            got = parallel_evaluate_batch(QUERY, FAMILY, session=s)
            info = s.pool_info()
        assert got == want
        assert info.last_fallback == "WorkerFailure"

    def test_late_fault_only_hits_scheduled_task(self):
        # A fault deep in the schedule leaves earlier tasks untouched;
        # answers are identical either way.
        want = serial_screen([QUERY], FAMILY)[0]
        with faulty_session((("corrupt", 1),)) as s:
            got = parallel_evaluate_batch(QUERY, FAMILY, session=s)
        assert got == want

    def test_fault_plan_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(fault_plan=(("explode", 0),))
        with pytest.raises(ValueError):
            EngineConfig(fault_plan=(("crash", -1),))
        # "kill" (uncatchable SIGKILL, unlike "crash"'s os._exit) is a
        # valid mode, and "jobfail" is the service tier's fault.
        assert EngineConfig(fault_plan=(("kill", 0),)).fault_plan
        assert EngineConfig(fault_plan=(("jobfail", 2),)).fault_plan

    def test_fault_plan_from_env(self):
        # The chaos bench drives a live server through REPRO_FAULT_PLAN;
        # malformed entries are dropped, not fatal — crashing the server
        # they were meant to test would defeat the point.
        config = EngineConfig.from_env(
            {"REPRO_FAULT_PLAN": "jobfail:0, kill:2,bogus,crash:x,hang:-1"}
        )
        assert config.fault_plan == (("jobfail", 0), ("kill", 2))
        assert EngineConfig.from_env({}).fault_plan == ()

    def test_kill_9_worker_recovers_identically(self):
        # SIGKILL is uncatchable: the worker dies without unwinding,
        # the pool breaks, and recovery must still reproduce the
        # serial answers exactly.
        queries = [QUERY, path_structure(["T", "F"])]
        want = serial_screen(queries, FAMILY)
        with faulty_session((("kill", 0),)) as s:
            got = parallel_screen(queries, FAMILY, session=s)
            info = s.pool_info()
        assert got == want
        assert info.last_fallback is not None

    def test_kill_mid_stream_keeps_shards_contiguous(self):
        # A worker SIGKILLed mid-stream must not tear the shard
        # contract: the yielded shards still jointly cover
        # range(len(FAMILY)) exactly once — no gap, no overlap, no
        # re-yield of already-streamed indices — and reassembling them
        # reproduces the serial oracle.
        queries = [QUERY, path_structure(["T", "F"])]
        want = serial_screen(queries, FAMILY)
        with faulty_session((("kill", 0),)) as s:
            shards = list(s.screen(queries, FAMILY, stream=True))
            info = s.pool_info()
        spans = sorted((sh.start, sh.stop) for sh in shards)
        assert spans[0][0] == 0 and spans[-1][1] == len(FAMILY)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        got = [[None] * len(FAMILY) for _ in queries]
        for sh in shards:
            for qi, row in enumerate(sh.answers):
                got[qi][sh.start : sh.stop] = row
        assert got == want
        assert info.last_fallback is not None

    def test_kill_9_worker_with_store_stays_consistent(self, tmp_path):
        # A worker SIGKILLed while sharing the durable store must not
        # tear it: answers match the serial oracle and a full checksum
        # sweep afterwards drops nothing (WAL atomicity).
        queries = [QUERY, path_structure(["T", "F"])]
        want = serial_screen(queries, FAMILY)
        with faulty_session(
            (("kill", 0),), cache_dir=str(tmp_path / "cache")
        ) as s:
            got = parallel_screen(queries, FAMILY, session=s)
            checked, dropped = s.store.verify()
        assert got == want
        assert dropped == 0 and checked > 0


# ----------------------------------------------------------------------
# Degradation paths
# ----------------------------------------------------------------------


class TestDegradationPaths:
    def test_submit_failure_falls_back_and_heals(self):
        with faulty_session(()) as s:
            rt = s.pool
            want = parallel_evaluate_batch(QUERY, FAMILY, session=s)
            assert rt.info().running
            # Shut the executor down behind the runtime's back: the
            # next submit raises RuntimeError, which must requeue on a
            # fresh pool, not crash and not silently drop shards.
            rt._pool.shutdown(wait=True)
            got = parallel_evaluate_batch(QUERY, FAMILY, session=s)
            info = rt.info()
        assert got == want
        assert info.failures == 0  # the retry round completed clean
        assert info.last_fallback == "submit:RuntimeError"

    def test_failure_cooldown_state_machine(self):
        rt = runtime.PoolRuntime(
            EngineConfig(workers=2, pool_cooldown_ms=60)
        )
        try:
            assert rt.get_pool() is not None
            rt.mark_failed("one")
            assert rt.info().failures == 1 and not rt.info().broken
            rt.mark_failed("two")
            info = rt.info()
            assert info.failures == 2 and info.broken
            assert info.last_fallback == "two"
            assert rt.get_pool() is None  # quarantined
            time.sleep(0.08)
            assert not rt.info().broken  # cooldown elapsed
            assert rt.get_pool() is not None  # health probe respawns
            assert rt.info().failures == 0
        finally:
            rt.shutdown()

    def test_mark_healthy_clears_streak(self):
        rt = runtime.PoolRuntime(EngineConfig(workers=2))
        try:
            rt.mark_failed("hiccup")
            rt.mark_healthy()
            assert rt.info().failures == 0
            assert rt.get_pool() is not None
        finally:
            rt.shutdown()

    def test_wire_cache_lru_eviction(self):
        wires = [
            to_wire(random_instance(4, 6, seed)) for seed in range(3)
        ]
        runtime._WIRE_CACHE.clear()
        try:
            a = runtime.from_wire_cached(wires[0], limit=2)
            runtime.from_wire_cached(wires[1], limit=2)
            assert runtime.from_wire_cached(wires[0], limit=2) is a
            runtime.from_wire_cached(wires[2], limit=2)  # evicts wires[1]
            assert len(runtime._WIRE_CACHE) == 2
            assert wires[1] not in runtime._WIRE_CACHE
            assert wires[0] in runtime._WIRE_CACHE
        finally:
            runtime._WIRE_CACHE.clear()

    def test_session_close_idempotent(self):
        s = Session(EngineConfig(workers=2, parallel_min=4))
        parallel_evaluate_batch(QUERY, FAMILY, session=s)
        s.close()
        s.close()  # must be a no-op, not an error
        assert not s.pool.info().running
        # Reuse after close re-arms it: pools respawn lazily.
        parallel_evaluate_batch(QUERY, FAMILY, session=s)
        s.close()
        assert not s.pool.info().running

    def test_atexit_sweep_registered(self):
        rt = runtime.PoolRuntime(EngineConfig(workers=2))
        assert rt in runtime._LIVE_RUNTIMES
        assert rt.get_pool() is not None
        runtime._shutdown_all_pools()
        assert not rt.info().running
