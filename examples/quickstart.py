"""Quickstart: d-sirups, cactuses and boundedness in five minutes.

Run with ``python examples/quickstart.py`` after ``pip install -e .``.

This walks through the paper's opening example: the covering axiom
``T(x) | F(x) <- A(x)`` turns a plain conjunctive query into a recursive
one, and the central question is whether that recursion can be unfolded
to bounded depth (FO-rewritability).
"""

from repro import EngineConfig, Session, zoo
from repro.core import (
    OneCQ,
    certain_answer,
    compile_programs,
    evaluate,
    iter_cactuses,
    matrix_backend_available,
    parallel_evaluate_batch,
    probe_boundedness,
    ucq_certain_answers,
    ucq_rewriting,
)
from repro.workloads import instance_family


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A d-sirup is a Boolean CQ q evaluated under the covering axiom.
    #    q2 from Example 1:  T -S-> T -R-> F  (P-complete evaluation).
    # ------------------------------------------------------------------
    q2 = zoo.q2()
    d2 = zoo.d2()
    print("q2 atoms:")
    print(q2.describe())
    print()
    answer = certain_answer(q2, d2)
    print(f"certain answer of (Delta_q2, G) over D2: {answer}")

    # ------------------------------------------------------------------
    # 2. For 1-CQs the d-sirup is equivalent to the datalog program Pi_q
    #    with recursive sirup Sigma_q (rules (5)-(7) of the paper).
    # ------------------------------------------------------------------
    programs = compile_programs(q2)
    print()
    print("compiled datalog program Pi_q2:")
    print(programs.pi.describe())
    result = evaluate(programs.pi, d2)
    print(f"datalog engine agrees: {result.holds(programs.goal)}")

    # ------------------------------------------------------------------
    # 3. Recursion unfolds into cactuses (the Q-expansions of Sec. 2).
    # ------------------------------------------------------------------
    one_cq = OneCQ.from_structure(q2)
    print()
    print("first cactuses for q2:")
    for cactus in list(iter_cactuses(one_cq, max_depth=2))[:4]:
        print(f"  {cactus.describe()}")

    # ------------------------------------------------------------------
    # 4. Boundedness: q5 is bounded (FO-rewritable), q2 is not.
    # ------------------------------------------------------------------
    print()
    for name, q in [("q2", zoo.q2()), ("q5", zoo.q5())]:
        verdict = probe_boundedness(OneCQ.from_structure(q), probe_depth=3)
        print(f"boundedness probe for {name}: {verdict.describe()}")

    # ------------------------------------------------------------------
    # 5. A bounded query has a UCQ rewriting usable on any RDBMS.
    # ------------------------------------------------------------------
    rewriting = ucq_rewriting(OneCQ.from_structure(zoo.q5()), depth=1)
    print()
    print(f"UCQ rewriting of (Pi_q5, G): {len(rewriting)} disjuncts, "
          f"sizes {[r.size() for r in rewriting]}")

    # ------------------------------------------------------------------
    # 6. Engine knobs: hom backends and the sharded batch runtime.
    #
    #    Backends: "naive" (oracle), "bitset" (default), "matrix"
    #    (numpy boolean-matrix semiring, best on large edge-rich
    #    targets; falls back to the bitset search when numpy is
    #    missing).  Select per call with backend=..., per session with
    #    EngineConfig(backend=...), for the default session with
    #    REPRO_HOM_BACKEND.
    #
    #    Batch traffic can shard across a bounded process pool:
    #    EngineConfig(workers=...) (REPRO_HOM_WORKERS) sets the worker
    #    count, parallel_min (REPRO_HOM_PARALLEL_MIN) the batch size
    #    below which everything stays on the serial fast path.
    #    ucq_certain_answers and the boundedness probe route through it
    #    automatically; parallel_evaluate_batch / parallel_covers_any /
    #    parallel_screen are the direct entry points.  A session's
    #    settings are fixed by its config: for another pool size, build
    #    another session.
    # ------------------------------------------------------------------
    print()
    print(f"matrix backend available: {matrix_backend_available()}")
    family = instance_family(count=32, n=20, edge_count=40, seed=1)
    with Session(EngineConfig(workers=2, parallel_min=16)) as pooled:
        answers = parallel_evaluate_batch(
            rewriting[0], family, session=pooled
        )
        screened = pooled.ucq_certain_answers(rewriting, family)
    print(f"family of {len(family)} instances: "
          f"{sum(answers)} match disjunct 0, "
          f"{sum(screened)} satisfy the full UCQ")

    # ------------------------------------------------------------------
    # 7. Sessions: one typed configuration + execution context.
    #
    #    Sections 1-5 ran in the *default session*, configured from the
    #    REPRO_* environment on first use.  For anything beyond one-off
    #    calls, build an explicit Session: it owns a frozen EngineConfig
    #    plus all mutable engine state (hom backend + hom-cache, cactus
    #    factory pool + structure intern, process pool), so two
    #    differently-configured evaluations can live side by side in one
    #    process without sharing anything.
    #
    #    Every free function takes session=...; the common ones are
    #    also methods:
    #        certain_answer(q, d)        -> session.certain_answer(q, d)
    #        evaluate_dsirup(q, d, s)    -> session.evaluate_dsirup(q, d, s)
    #          (session.evaluate() takes a *semiring* — see sec. 10)
    #        hom counting                -> session.count_homomorphisms
    #          (a thin wrapper over the COUNT semiring instance)
    #        decide_boundedness(q)       -> session.decide_boundedness(q)
    #        probe_boundedness(cq, d)    -> session.probe_boundedness(cq, d)
    #        ucq_certain_answers(u, f)   -> session.ucq_certain_answers(u, f)
    #        parallel_screen(qs, f)      -> session.screen(qs, f)
    #    Backend, cache and pool settings live only in EngineConfig;
    #    session.hom_cache_info(), pool_info(), clear_caches() and
    #    close() inspect and release the state they govern.
    #    Precedence everywhere is env < config < per-call kwarg, and
    #    EngineConfig.from_env() is the only place REPRO_* is read.
    #
    #    backend="auto" resolves per call: matrix for large edge-rich
    #    targets, bitset otherwise (calibrated from BENCH_batch.json).
    # ------------------------------------------------------------------
    print()
    oracle = Session(EngineConfig(backend="naive", hom_cache=False))
    with Session(EngineConfig(backend="auto", workers=2,
                              parallel_min=16)) as fast:
        q5 = OneCQ.from_structure(zoo.q5())
        rewriting = fast.ucq_rewriting(q5, depth=1)
        agree = fast.ucq_certain_answers(rewriting, family) == \
            oracle.ucq_certain_answers(rewriting, family)
        print(f"sessions (auto vs naive oracle) agree on q5's UCQ: {agree}")

        # Streaming screen: shard results arrive in completion order,
        # so a long screen surfaces its first answers early.
        total = 0
        for shard in fast.screen(rewriting, family, stream=True):
            total += sum(any(col) for col in zip(*shard.answers))
        print(f"streamed screen: {total} instances satisfy some disjunct")
    oracle.close()

    # ------------------------------------------------------------------
    # 8. Choosing a backend: the decomp DP and the auto routing rules.
    #
    #    Four concrete backends answer every hom check identically:
    #
    #      naive   the original backtracker — the correctness oracle
    #      bitset  int-bitset AC-3 + backtracking — the default; best
    #              on small, label-pruned structures
    #      matrix  numpy boolean-semiring matvecs — best on LARGE
    #              DENSE targets (hundreds of nodes, >= ~4 edges/node)
    #      decomp  semijoin DP over a tree decomposition of the QUERY
    #              — polynomial-time for bounded-width queries, pure
    #              python.  Best whenever the query is tree-shaped
    #              (paths, ditrees, cactuses: width 1) and the target
    #              is large but not in matrix's dense corner, and on
    #              refutation-heavy workloads where backtracking AC-3
    #              re-enqueues: one directional semijoin pass per query
    #              edge decides the answer (BENCH_decomp.json).
    #
    #    The query's decomposition width is computed once and cached
    #    (repro.core.decomp.query_width); the compiled DecompPlan is
    #    interned per content fingerprint, so one plan is replayed
    #    across thousands of targets — pool workers included.
    #
    #    backend="auto" routes per call, in order:
    #      1. query width <= 1 and target >= 100 nodes and not
    #         (numpy present and >= 4 edges/node)   -> decomp
    #      2. target >= 100 nodes, >= 2 edges/node, numpy -> matrix
    #      3. everything else                            -> bitset
    #
    #    session.count_homomorphisms with backend="decomp" counts by
    #    bag products (no enumeration); chain-shaped probes (span-1
    #    queries, one cactus per depth) warm-start their coverage DP
    #    across depths, exchanging answers with the session hom-cache
    #    (REPRO_PROBE_WARMSTART=0 restores the batch path; bushy
    #    span>=2 probes keep it automatically).
    # ------------------------------------------------------------------
    from repro.core import decomp, path_structure, query_width

    q5_structure = zoo.q5()
    print()
    print(f"q5 decomposition width: {query_width(q5_structure)} "
          f"({decomp.tree_decomposition(q5_structure).describe()})")
    with Session(EngineConfig(backend="auto")) as routed:
        big = instance_family(count=1, n=150, edge_count=450, seed=2)[0]
        print("auto routes tree query on a large sparse target to:",
              routed.resolve_backend(None, big, path_structure([""] * 8)))
        print("certain answers agree on decomp:",
              routed.evaluate_batch(rewriting[0], family, backend="decomp")
              == answers)

    # ------------------------------------------------------------------
    # 9. Resilience: deadlines, fuel budgets, and tri-state answers.
    #
    #    Boundedness is undecidable in general and even the decidable
    #    fragments are 2ExpTime-hard, so any real deployment needs a
    #    way to say "spend at most this much".  EngineConfig has three
    #    cooperative budgets, checked cheaply inside the hot loops:
    #
    #      deadline_ms       wall-clock cap for one top-level call
    #      hom_fuel          unit-step cap on homomorphism search work
    #      cactus_max_nodes  size cap on any single cactus expansion
    #
    #    A governed call never hangs and never lies: instead of an
    #    answer it may return Answer.unknown(reason) — a tri-state
    #    value that refuses bool() so exhaustion cannot be mistaken
    #    for False.  The reasons mirror a typed failure taxonomy
    #    (EngineError > ResourceExhausted > DeadlineExceeded /
    #    FuelExhausted / CactusBudgetExceeded, plus WorkerFailure for
    #    pool faults); inner engine layers raise, only the outermost
    #    API converts to UNKNOWN.  Batch surfaces keep every answer
    #    settled before the budget tripped.
    #
    #    The process pool is governed too: shard_timeout_ms bounds any
    #    single shard, a crashed or hung worker pool is rebuilt and the
    #    failed shards requeued once, and a second failure quarantines
    #    the pool (cooldown, then a health probe respawns it) while the
    #    work completes serially in the parent — same answers, slower.
    # ------------------------------------------------------------------
    from repro import Answer

    print()
    # A hostile query under a deadline: q2's span-2 shape universe is
    # tower-exponential, so a deep probe would run ~forever ungoverned.
    # Under deadline_ms=2000 it returns UNKNOWN("deadline") within ~2x
    # the deadline; the example uses 300ms only to keep this file fast.
    hostile = OneCQ.from_structure(zoo.q2())
    with Session(EngineConfig(deadline_ms=300)) as governed:
        probe = governed.probe_boundedness(hostile, probe_depth=40)
        print(f"deep probe of q2 under a 300ms deadline: "
              f"{probe.describe()}")

        # Fuel-starved batch evaluation: settled prefixes survive,
        # exhausted slots come back UNKNOWN instead of a wrong False.
    with Session(EngineConfig(hom_fuel=50)) as governed:
        entries = governed.ucq_certain_answers(rewriting, family[:8])
        shown = ["?" if isinstance(e, Answer) and not e.known else e
                 for e in entries]
        print(f"fuel-starved UCQ sweep (tri-state): {shown}")
        unknown = next((e for e in entries
                        if isinstance(e, Answer) and not e.known), None)
        if unknown is not None:
            print(f"UNKNOWN reason: {unknown.reason!r}; bool() on it "
                  f"raises EngineError rather than guessing")

    # ------------------------------------------------------------------
    # 10. Semirings: one evaluation surface, every mode.
    #
    #    Session.evaluate(q, data, semiring=...) evaluates the CQ q as
    #    the K-relation provenance value
    #
    #        val(q, D) = SUM over homs h of PROD over atoms a of w(h(a))
    #
    #    for any registered commutative semiring K and any per-fact
    #    annotation w (weights={fact: value}; unannotated facts default
    #    to the semiring's one).  "bool" is the classic existence
    #    check, "count" the exact hom count, and the same DP backends
    #    (decomp's bag products, matrix's matvecs) run the weighted
    #    modes with no new algorithms — only the algebra changes.
    # ------------------------------------------------------------------
    from repro.core import BinaryFact, Structure

    # A tuple-independent probabilistic instance: each edge fact holds
    # independently with the annotated marginal probability.  Under
    # "prob" the value is the EXPECTED number of witnesses (exact, by
    # linearity of expectation — witnesses are not disjoint events).
    edge = path_structure(["", ""])          # one R-edge query
    diamond = Structure(
        nodes=("a", "b1", "b2", "c"),
        unary=(),
        binary=(
            BinaryFact("R", "a", "b1"), BinaryFact("R", "a", "b2"),
            BinaryFact("R", "b1", "c"), BinaryFact("R", "b2", "c"),
        ),
    )
    probs = {f: 0.5 for f in diamond.binary_facts}
    print()
    with Session() as s:
        ev = s.evaluate(edge, diamond, "prob", weights=probs)
        print(f"expected R-edge witnesses at p=0.5 each: {ev.value} "
              f"(4 edges x 0.5)")

        # Min-cost witness: annotate costs, read off the cheapest hom.
        # minplus is *selective* (x + y is one of x, y), so enumeration
        # carries the arg-best witness along for free.
        two_hop = path_structure(["", "", ""])
        costs = {BinaryFact("R", "a", "b1"): 1.0,
                 BinaryFact("R", "b1", "c"): 1.0,
                 BinaryFact("R", "a", "b2"): 5.0,
                 BinaryFact("R", "b2", "c"): 5.0}
        ev = s.evaluate(two_hop, diamond, "minplus", weights=costs,
                        backend="bitset")
        mid = ev.witness["v1"] if ev.witness else "?"
        print(f"cheapest 2-hop a->c costs {ev.value} (via {mid})")

        # Why-provenance: WHICH fact sets support the answer.  Values
        # are sets of witness fact-sets; every backend agrees with the
        # enumeration oracle because the algebra is the same.
        ev = s.evaluate(edge, diamond, "why")
        print(f"why-provenance of the R-edge query: "
              f"{len(ev.value)} singleton witness sets (one per edge)")

        # count_homomorphisms is now literally the COUNT instance:
        n_paths = s.count_homomorphisms(two_hop, diamond)
        assert n_paths == s.evaluate(two_hop, diamond, "count").value
        print(f"2-hop paths through the diamond: {n_paths}")

    # ------------------------------------------------------------------
    # 11. Durable engine state: the crash-safe store + checkpoint/resume.
    #
    #    EngineConfig(cache_dir=...) (or REPRO_CACHE_DIR) layers a disk
    #    tier under the session caches: hom answers, semiring values and
    #    compiled decomp plans spill to a checksummed sqlite store
    #    (repro.core.store.DurableStore), shared by pool workers and by
    #    every later process pointed at the same directory.  Long
    #    screens and boundedness probes also checkpoint their settled
    #    results row by row, so a killed process resumes where it died
    #    — identical answers, skipping finished work — instead of
    #    starting over.
    #
    #    The store is expendable by design: every row carries a
    #    checksum (corrupt rows are dropped and recomputed, never
    #    believed), a torn or version-skewed file is quarantined and
    #    rebuilt, and an unusable directory degrades the session to
    #    memory-only.  `python -m repro cache stats|clear|verify` and
    #    scripts/bench_store.py operate on it from the shell.
    # ------------------------------------------------------------------
    import tempfile

    print()
    with tempfile.TemporaryDirectory() as cache_dir:
        q5 = OneCQ.from_structure(zoo.q5())
        with Session(EngineConfig(cache_dir=cache_dir, workers=1)) as cold:
            cold_probe = cold.probe_boundedness(q5, probe_depth=3)
            cold_screen = cold.screen([zoo.q3(), zoo.q5()], family[:12])
            stats = cold.store.stats()
            print(f"cold run persisted {stats.entries} rows "
                  f"({len(stats.namespaces)} namespaces) to {stats.path}")

        # A brand-new process pointed at the same directory — here just
        # a second session — replays the checkpoints from disk: same
        # answers, (almost) no hom search.
        with Session(EngineConfig(cache_dir=cache_dir, workers=1)) as warm:
            warm_probe = warm.probe_boundedness(q5, probe_depth=3)
            warm_screen = warm.screen([zoo.q3(), zoo.q5()], family[:12])
            agree = (warm_probe.verdict == cold_probe.verdict
                     and warm_screen == cold_screen)
            print(f"warm restart agrees with cold run: {agree} "
                  f"(hom cache misses after restart: "
                  f"{warm.hom.cache_info().misses})")

    # ------------------------------------------------------------------
    # 12. The service tier: async jobs over HTTP with streaming results.
    #
    #    `python -m repro serve` exposes sessions as a multi-tenant job
    #    API: POST /v1/jobs accepts decide/evaluate/probe/screen work,
    #    GET /v1/jobs/<id>/events streams a screen's shards as
    #    server-sent events while the matrix fills in, and every job
    #    transition lands in the durable store.  So a server killed
    #    -9 mid-job reports — and *resumes* — that job after restart:
    #    the engine's shard checkpoints turn the re-run into a replay,
    #    and the answers come back digest-identical.
    # ------------------------------------------------------------------
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro.service import (
        ServiceClient,
        answer_to_json,
        structure_to_json,
    )

    def serve(state_dir, env_extra=None):
        """One `python -m repro serve` subprocess on a free port."""
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.update(env_extra or {})
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--cache-dir", state_dir,
             "serve", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        port = int(proc.stdout.readline().strip().rsplit(":", 1)[1])
        return proc, ServiceClient("127.0.0.1", port)

    print()
    screen_queries = [zoo.q3(), zoo.q5()]
    big_family = instance_family(24, 400, 1200, seed=11)
    payload = {
        "queries": [structure_to_json(q) for q in screen_queries],
        "instances": [structure_to_json(i) for i in big_family],
    }
    with Session(EngineConfig(workers=0)) as oracle:
        want = [[answer_to_json(a) for a in row]
                for row in oracle.screen(screen_queries, big_family)]

    with tempfile.TemporaryDirectory() as state_dir:
        # A short lease TTL so the killed server's job ownership lapses
        # quickly; the restarted server adopts the orphan at the next
        # heartbeat after expiry.
        lease = {"REPRO_SERVICE_LEASE_TTL_MS": "2000"}
        proc, client = serve(state_dir, env_extra=lease)
        try:
            job_id = client.submit("screen", payload)["id"]
            streamed = 0
            for event, _data in client.watch(job_id, timeout=120):
                if event == "shard":
                    streamed += 1
                    if streamed >= 2:
                        break  # enough streaming: crash the server
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        print(f"server killed -9 mid-screen; job {job_id} had streamed "
              f"{streamed} shards over SSE")

        # A fresh server over the same state directory recovers the
        # in-flight job from its durable record and re-runs it — the
        # checkpointed shards replay from disk instead of recomputing.
        proc, client = serve(state_dir, env_extra=lease)
        try:
            final = client.wait(job_id, timeout=120)
            stats = client.metrics()["service"]
            resumed = stats["recovered"] + stats["adopted"]
            print(f"restarted server resumed {resumed} job(s): "
                  f"status {final['status']}, matrix identical to a "
                  f"direct Session.screen: "
                  f"{final['result']['matrix'] == want}")
        finally:
            proc.terminate()
            proc.wait()

    # ------------------------------------------------------------------
    # 13. Supervision: cancel, bounded retry, quarantine, drain.
    #
    #    Jobs are supervised.  Transient failures (a killed pool
    #    worker, a corrupted checkpoint row) are retried with
    #    exponential backoff and quarantined FAILED after
    #    `--retry-max` attempts; a running job can be cancelled
    #    cooperatively — the engine's Budget machinery checks the flag
    #    between shards and at search checkpoints — and its SSE stream
    #    ends in `event: cancelled`; SIGTERM drains gracefully:
    #    admission answers 503 + Retry-After while running jobs
    #    settle, queued jobs persist for the next process.  Knobs:
    #    serve --retry-max/--drain-ms/--lease-ttl-ms, or the matching
    #    REPRO_SERVICE_RETRY_MAX / REPRO_SERVICE_DRAIN_MS /
    #    REPRO_SERVICE_LEASE_TTL_MS environment variables.
    # ------------------------------------------------------------------
    print()
    with tempfile.TemporaryDirectory() as state_dir:
        # An injected fault (the engine's fault plan, here driven over
        # the environment) makes the first execution die like a real
        # worker crash; the supervisor retries and the job still lands.
        proc, client = serve(state_dir, env_extra={
            "REPRO_FAULT_PLAN": "jobfail:0",
            "REPRO_SERVICE_RETRY_BACKOFF_MS": "10",
        })
        try:
            hurt = client.wait(client.submit("decide", {
                "query": structure_to_json(zoo.q5()),
            })["id"], timeout=120)
            print(f"injected first-attempt crash: status "
                  f"{hurt['status']!r} after {hurt['attempts']} attempts")

            # Cooperative cancellation, observed over the live SSE
            # stream: cancel after the first shard and the stream's
            # terminal frame is `event: cancelled` (the shards already
            # checkpointed stay on disk for a later resubmit).
            job_id = client.submit("screen", payload)["id"]
            last = None
            for event, _data in client.watch(job_id, timeout=120):
                last = event
                if event == "shard":
                    client.cancel(job_id)
            record = client.job(job_id)
            print(f"cancelled mid-screen: terminal SSE event {last!r}, "
                  f"status {record['status']!r} after "
                  f"{record['events']} checkpointed shard(s)")
        finally:
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(30)
        print(f"SIGTERM drain: server exited {rc} (running jobs "
              f"settled, queued jobs persisted for the next process)")


if __name__ == "__main__":
    main()
