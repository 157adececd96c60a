"""Sharded parallel batch evaluation: wire format + bounded process pool.

The batch entry points of :mod:`repro.core.homengine` —
:func:`~repro.core.homengine.covers_any` (many sources, one target) and
:func:`~repro.core.homengine.evaluate_batch` (one query, many targets)
— are embarrassingly parallel across their batch axis.  This module
adds the process-pool story the engine was designed around:

Wire format
===========

:func:`to_wire` flattens a :class:`~repro.core.structure.Structure` to
a compact picklable triple ``(node_order, unary, binary)`` with facts
referring to nodes by their interning index; :func:`from_wire` rebuilds
the structure *preserving the interning order* and leaves every index
lazy, so a worker only pays for the indexes its chunk actually touches.
Shipping the wire form instead of pickling structures directly avoids
serialising the lazily-built engine indexes (bitset masks, dense
matrices, compiled source plans), which can dwarf the facts themselves.

Each worker process additionally keeps a small content-keyed LRU of
rebuilt structures (:func:`from_wire_cached`, bounded by the session's
``worker_cache_size`` / ``REPRO_HOM_WORKER_CACHE``): the wire triple is
itself the structure's content fingerprint in serialised form, so a
family screened repeatedly — back-to-back :func:`parallel_screen`
sweeps over the same instances — skips the rebuild *and* reuses every
index the worker already built on those structures.

Pool
====

Each :class:`~repro.session.Session` owns one :class:`PoolRuntime`: a
lazily-created :class:`~concurrent.futures.ProcessPoolExecutor` bounded
by the session's worker count (``EngineConfig.workers``; default the
machine's CPU count, ``<= 1`` after resolution disables parallelism)
and the ``min_batch`` threshold (``EngineConfig.parallel_min``), both
fixed for the session's lifetime; ``Session.close`` releases the
workers.  Pool creation failure (sandboxes without process
support) permanently degrades that runtime to the serial path — never
an error.

Sharded entry points
====================

:func:`parallel_evaluate_batch` and :func:`parallel_covers_any` mirror
their serial counterparts exactly.  Batches smaller than ``min_batch``
(``EngineConfig.parallel_min``, default 24) — and all batches when the
pool is disabled or unavailable — take the serial fast path, sharing
the in-process hom-cache; large batches are chunked across the
workers.  ``covers_any`` keeps its early-exit semantics: the scan
returns as soon as any chunk reports a hit and cancels chunks that
have not started.

:func:`parallel_screen` is the many-queries x one-family shape (zoo
bulk classification, UCQ disjunct sweeps, E1-style tables): the family
is wired once, each worker rebuilds its chunk once, and every query is
answered against the rebuilt chunk — amortising the per-instance
serialisation and index-rebuild cost across the whole query pool.
:func:`parallel_screen_stream` is its streaming variant: a generator of
:class:`ScreenShard` results in *completion order* (not chunk order),
so a long screen surfaces its first answers while later shards are
still running — the consumer behind
:meth:`repro.session.Session.screen` with ``stream=True``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import signal
import time
import weakref
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import homengine
from .config import BACKEND_CHOICES, EngineConfig
from .errors import (
    Answer,
    ResourceExhausted,
    UnknownSemiring,
    WorkerFailure,
    governed_scope,
)
from .semiring import Evaluation, Semiring, resolve_semiring
from .structure import BinaryFact, Structure, UnaryFact

# The failure types that mean "the pool (or one worker) let us down" —
# the only ones the sharded entry points are allowed to swallow into
# recovery.  Anything else raised out of a worker is an engine bug and
# must propagate to the caller, not silently degrade to the serial
# path.
_POOL_FAILURES = (
    BrokenProcessPool,
    CancelledError,
    FuturesTimeout,
    TimeoutError,
    OSError,
    pickle.PickleError,
)

Wire = tuple  # (node_order, unary, binary) — see to_wire

__all__ = [
    "PoolInfo",
    "PoolRuntime",
    "ScreenShard",
    "from_wire",
    "from_wire_cached",
    "parallel_covers_any",
    "parallel_evaluate_batch",
    "parallel_screen",
    "parallel_screen_stream",
    "parallel_semiring_batch",
    "parallel_ucq_answers",
    "to_wire",
]


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------


def to_wire(structure: Structure) -> Wire:
    """A compact picklable form of ``structure``.

    ``(node_order, unary, binary)`` with ``unary`` a tuple of
    ``(label, node_index)`` pairs and ``binary`` a tuple of
    ``(pred, src_index, dst_index)`` triples.  Node names themselves
    appear once (in ``node_order``), so composite cactus node names are
    not repeated per fact, and the receiving side rebuilds the same
    interning order — fingerprints and bitset positions survive the
    round trip.  Fact order is whatever the frozensets iterate (the
    receiving side rebuilds sets, and sorting here would put an
    ``O(E log E)`` toll on the parent's shard-dispatch hot path).
    """
    index = structure.node_index
    unary = tuple(
        (f.label, index[f.node]) for f in structure.unary_facts
    )
    binary = tuple(
        (f.pred, index[f.src], index[f.dst])
        for f in structure.binary_facts
    )
    return (structure.node_order, unary, binary)


def from_wire(wire: Wire) -> Structure:
    """Rebuild a :class:`Structure` from :func:`to_wire` output.

    The wire's node order becomes the structure's interning order;
    everything else (label maps, adjacency, bitset/matrix indexes,
    fingerprint) stays lazy and is rebuilt in the receiving process on
    first use.
    """
    order, unary, binary = wire
    order = tuple(order)
    s = Structure(
        order,
        (UnaryFact(label, order[i]) for label, i in unary),
        (BinaryFact(pred, order[si], order[di]) for pred, si, di in binary),
    )
    s._node_order = order
    return s


# Per-process rebuilt-structure LRU, keyed on the wire triple itself
# (node order + facts — a serialised content fingerprint; two equal
# wires rebuild identical structures, so the cached object, along with
# every index lazily built on it since, is a sound substitute).  Lives
# at module level so it persists across tasks inside one pool worker;
# the parent process never populates it.
_WIRE_CACHE: OrderedDict[Wire, Structure] = OrderedDict()


def from_wire_cached(wire: Wire, limit: int) -> Structure:
    """:func:`from_wire` through the per-process LRU (``limit <= 0``
    bypasses the cache entirely)."""
    if limit <= 0:
        return from_wire(wire)
    cached = _WIRE_CACHE.get(wire)
    if cached is None:
        cached = from_wire(wire)
        _WIRE_CACHE[wire] = cached
        while len(_WIRE_CACHE) > limit:
            _WIRE_CACHE.popitem(last=False)
    else:
        _WIRE_CACHE.move_to_end(wire)
    return cached


def _freeze_seed(seed) -> tuple | None:
    if not seed:
        return None
    return tuple(seed.items())


# ----------------------------------------------------------------------
# Worker entry points (must be importable top-level functions)
# ----------------------------------------------------------------------

# One session per worker process, keyed by the (picklable, frozen)
# EngineConfig that shipped with the task.  Tasks from the same calling
# session reuse it — along with its hom-cache — across the pool's
# lifetime; a task from a differently-configured session swaps it out.
_WORKER_SESSION: tuple[EngineConfig, object] | None = None

# Fault injection (test-only, driven by ``EngineConfig.fault_plan``):
# the per-process ordinal counts chunk tasks this worker has started —
# only while a fault plan ships, so production workers never touch it —
# and the pending action signals "corrupt" to the chunk function that
# triggered it.
_FAULT_ORDINAL = 0
_FAULT_ACTION: str | None = None


def _maybe_inject_fault(config: EngineConfig | None) -> None:
    """Fire the configured fault, if this worker task is scheduled for
    one.  ``crash`` hard-exits the worker (simulating a segfault),
    ``kill`` SIGKILLs it (uncatchable — no atexit, no buffered-write
    flush — the honest ``kill -9``), ``hang`` sleeps far past any sane
    shard timeout, ``corrupt`` arms :func:`_take_fault` so the chunk
    function returns a wrong-shaped result.  Never fires in the parent
    process, so the in-parent serial quarantine path always computes
    real answers."""
    global _FAULT_ORDINAL, _FAULT_ACTION
    _FAULT_ACTION = None
    if config is None or not config.fault_plan:
        return
    if multiprocessing.parent_process() is None:
        return
    ordinal = _FAULT_ORDINAL
    _FAULT_ORDINAL += 1
    for mode, when in config.fault_plan:
        if when == ordinal:
            if mode == "crash":
                os._exit(86)
            if mode == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            if mode == "hang":
                time.sleep(600)
            _FAULT_ACTION = mode
            return


def _take_fault() -> str | None:
    """Consume the pending injected fault action, if any."""
    global _FAULT_ACTION
    action = _FAULT_ACTION
    _FAULT_ACTION = None
    return action


def _worker_session(config: EngineConfig | None):
    """The worker-side session honouring the calling session's resolved
    config (``None`` — a task from an old-style caller — falls back to
    the worker's env-built default session)."""
    global _WORKER_SESSION
    _maybe_inject_fault(config)
    if config is None:
        return None
    if _WORKER_SESSION is not None and _WORKER_SESSION[0] == config:
        return _WORKER_SESSION[1]
    from ..session import Session

    session = Session(config)
    _WORKER_SESSION = (config, session)
    return session


def _worker_evaluate_chunk(
    query_wire: Wire,
    instance_wires: list[Wire],
    backend: str | None,
    cache_limit: int = 0,
    use_cache: bool | None = None,
    config: EngineConfig | None = None,
) -> "list[bool | str]":
    session = _worker_session(config)
    if _take_fault() == "corrupt":
        return "corrupt"  # type: ignore[return-value]
    query = from_wire_cached(query_wire, cache_limit)
    if config is not None and config.governed:
        # One budget per chunk task: each worker gets the full
        # per-operation fuel/deadline for its shard, and exhaustion
        # travels back as reason-string entries, not an exception.
        with governed_scope(session):
            return homengine.evaluate_batch_governed(
                query,
                [from_wire_cached(w, cache_limit) for w in instance_wires],
                backend=backend,
                use_cache=use_cache,
                session=session,
            )
    return homengine.evaluate_batch(
        query,
        (from_wire_cached(w, cache_limit) for w in instance_wires),
        backend=backend,
        use_cache=use_cache,
        session=session,
    )


def _worker_semiring_chunk(
    query_wire: Wire,
    instance_wires: list[Wire],
    semiring_name: str,
    weights_wire: tuple | None,
    backend: str | None,
    cache_limit: int = 0,
    use_cache: bool | None = None,
    config: EngineConfig | None = None,
) -> "list[tuple]":
    """One semiring-tagged shard: evaluate the query over a chunk of
    instances under a named (registry-resolved) semiring.

    Answers travel per-dtype through the semiring's wire codec:
    entries are ``("ok", sr.encode(value))`` or — once a governed
    budget trips — ``("x", reason)`` for every remaining slot, the
    semiring analogue of the reason-string tail of
    :func:`~repro.core.homengine.evaluate_batch_governed`.
    """
    session = _worker_session(config)
    if _take_fault() == "corrupt":
        return "corrupt"  # type: ignore[return-value]
    sr = resolve_semiring(semiring_name)
    weights = (
        None
        if weights_wire is None
        else {fact: sr.decode(val) for fact, val in weights_wire}
    )
    query = from_wire_cached(query_wire, cache_limit)
    out: "list[tuple]" = []
    reason: str | None = None
    with governed_scope(session) as budget:
        for wire in instance_wires:
            if reason is not None:
                out.append(("x", reason))
                continue
            try:
                if budget is not None:
                    budget.checkpoint()
                ev = homengine.semiring_evaluate(
                    query,
                    from_wire_cached(wire, cache_limit),
                    sr,
                    weights=weights,
                    backend=backend,
                    use_cache=use_cache,
                    session=session,
                )
                out.append(("ok", sr.encode(ev.value)))
            except ResourceExhausted as exc:
                reason = exc.reason
                out.append(("x", reason))
    return out


def _worker_ucq_chunk(
    disjunct_wires: list[Wire],
    instance_wires: list[Wire],
    backend: str | None,
    cache_limit: int = 0,
    use_cache: bool | None = None,
    config: EngineConfig | None = None,
) -> "list[bool | str]":
    session = _worker_session(config)
    if _take_fault() == "corrupt":
        return "corrupt"  # type: ignore[return-value]
    disjuncts = [from_wire_cached(w, cache_limit) for w in disjunct_wires]
    answers: "list[bool | str]" = []
    with governed_scope(session) as budget:
        reason: str | None = None
        for wire in instance_wires:
            if reason is not None:
                answers.append(reason)
                continue
            try:
                if budget is not None:
                    budget.checkpoint()
                instance = from_wire_cached(wire, cache_limit)
                answers.append(
                    any(
                        homengine.has_homomorphism(
                            d, instance, backend=backend,
                            use_cache=use_cache, session=session,
                        )
                        for d in disjuncts
                    )
                )
            except ResourceExhausted as exc:
                reason = exc.reason
                answers.append(reason)
    return answers


def _worker_screen_chunk(
    query_wires: list[Wire],
    instance_wires: list[Wire],
    backend: str | None,
    cache_limit: int = 0,
    use_cache: bool | None = None,
    config: EngineConfig | None = None,
) -> "list[list[bool | str]]":
    session = _worker_session(config)
    if _take_fault() == "corrupt":
        return []  # wrong row count for any non-empty query pool
    queries = [from_wire_cached(w, cache_limit) for w in query_wires]
    instances = [from_wire_cached(w, cache_limit) for w in instance_wires]
    if config is not None and config.governed:
        with governed_scope(session):
            return [
                homengine.evaluate_batch_governed(
                    q, instances, backend=backend, use_cache=use_cache,
                    session=session,
                )
                for q in queries
            ]
    return [
        homengine.evaluate_batch(
            q, instances, backend=backend, use_cache=use_cache,
            session=session,
        )
        for q in queries
    ]


def _worker_covers_chunk(
    target_wire: Wire,
    pairs: list[tuple[Wire, tuple | None]],
    backend: str | None,
    cache_limit: int = 0,
    use_cache: bool | None = None,
    config: EngineConfig | None = None,
) -> "bool | str":
    session = _worker_session(config)
    if _take_fault() == "corrupt":
        return None  # type: ignore[return-value]
    target = from_wire_cached(target_wire, cache_limit)
    with governed_scope(session) as budget:
        try:
            for source_wire, seed_items in pairs:
                if budget is not None:
                    budget.checkpoint()
                if homengine.has_homomorphism(
                    from_wire_cached(source_wire, cache_limit),
                    target,
                    seed=dict(seed_items) if seed_items else None,
                    backend=backend,
                    use_cache=use_cache,
                    session=session,
                ):
                    return True
        except ResourceExhausted as exc:
            return exc.reason
    return False


# ----------------------------------------------------------------------
# Pool management
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PoolInfo:
    """Configuration and liveness of one session's shard executor.

    ``broken`` now means *quarantined*: the pool is resting out a
    cooldown after repeated failures and will be health-probed again
    once it elapses.  ``last_fallback`` records why the most recent
    serial fallback or quarantine happened (``None`` if never).
    """

    workers: int
    min_batch: int
    running: bool
    broken: bool
    failures: int = 0
    last_fallback: str | None = None


_MAX_POOL_FAILURES = 2

# Every live runtime, for the atexit sweep: an interpreter exiting with
# a still-open session (a REPL, a script that never calls close())
# must not leave orphaned worker processes behind.  Weak references —
# garbage-collected runtimes need no sweep, and registering in
# __init__ must not keep them alive.
_LIVE_RUNTIMES: "weakref.WeakSet[PoolRuntime]" = weakref.WeakSet()


def _shutdown_all_pools() -> None:
    for rt in list(_LIVE_RUNTIMES):
        try:
            rt.shutdown()
        except Exception:
            pass


atexit.register(_shutdown_all_pools)


class PoolRuntime:
    """The mutable shard-executor state of one session.

    Owns the (lazily created) :class:`ProcessPoolExecutor`, the
    serial-fallback threshold, the failure bookkeeping, and the
    worker-side cache limit shipped with every task.  Sessions never
    share a runtime, so two differently-sized pools can coexist in one
    process.

    Failure policy: a worker fault (crash, hang past the shard
    timeout, corrupt result, broken pool) drops the pool and requeues
    the failed shards once on a fresh one; a second consecutive
    failure *quarantines* the runtime — serial execution only — for
    ``pool_cooldown_ms``, after which the next large batch
    health-probes a new pool.  Quarantine is a cooldown, not a death
    sentence: transient faults (an OOM-killed worker, a container
    hiccup) heal on their own, while a deterministically crashing
    workload stops burning spawn + wire + recompute on every call.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.workers = config.effective_workers()
        self.min_batch = config.parallel_min
        self.worker_cache = config.worker_cache_size
        self.shard_timeout = (
            None
            if config.shard_timeout_ms is None
            else config.shard_timeout_ms / 1000.0
        )
        self.cooldown = config.pool_cooldown_ms / 1000.0
        self.last_fallback: str | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._pool_size = 0  # max_workers the live pool was created with
        self._quarantined_until: float | None = None
        self._failures = 0  # consecutive failures since last success
        _LIVE_RUNTIMES.add(self)

    def _quarantined(self) -> bool:
        return (
            self._quarantined_until is not None
            and time.monotonic() < self._quarantined_until
        )

    def info(self) -> PoolInfo:
        return PoolInfo(
            self.workers,
            self.min_batch,
            self._pool is not None,
            self._quarantined(),
            self._failures,
            self.last_fallback,
        )

    def shutdown(self) -> None:
        """Stop the worker processes (they respawn lazily when needed).

        Queued futures are cancelled; running shards finish first (a
        *hung* shard is the one case that would block forever, and
        :meth:`mark_failed` — which terminates — handles it before any
        orderly shutdown runs).
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def get_pool(self) -> ProcessPoolExecutor | None:
        """The session's executor, or ``None`` when parallelism is
        unavailable.

        Always sized by the *configured* worker count: a per-call
        ``workers=`` override gates the serial/parallel decision and
        caps the chunk fan-out, but never creates or resizes the pool
        (size it with ``EngineConfig.workers``).
        """
        if self.workers <= 1:
            return None
        if self._quarantined_until is not None:
            if time.monotonic() < self._quarantined_until:
                return None
            # Cooldown elapsed: health-probe by building a fresh pool.
            self._quarantined_until = None
            self._failures = 0
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
                self._pool_size = self.workers
            except (OSError, ValueError):  # no process support here
                self._quarantine("spawn-failed")
                return None
        return self._pool

    def _quarantine(self, reason: str) -> None:
        self._quarantined_until = time.monotonic() + self.cooldown
        self.last_fallback = reason

    def mark_failed(self, reason: str | None = None) -> None:
        """Drop a pool that raised; the next large batch respawns a
        fresh one — but a second consecutive failure quarantines the
        runtime for the cooldown (see the class docstring).

        Worker processes are terminated outright: a *hung* worker
        ignores an orderly shutdown, and waiting on it would turn a
        shard timeout back into the very hang it guards against.
        """
        pool = self._pool
        self._pool = None
        if pool is not None:
            try:
                procs = list((getattr(pool, "_processes", None) or {}).values())
            except Exception:
                procs = []
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            for proc in procs:
                try:
                    proc.terminate()
                except Exception:
                    pass
        self._failures += 1
        if reason is not None:
            self.last_fallback = reason
        if self._failures >= _MAX_POOL_FAILURES:
            self._quarantined_until = time.monotonic() + self.cooldown

    def mark_healthy(self) -> None:
        """A completed round clears the consecutive-failure streak."""
        self._failures = 0

    def shard_chunks(self, items: Sequence, eff_workers: int, threshold: int):
        """Gate the parallel path and split ``items`` into worker chunks.

        The one place the serial-fallback policy lives: small batch,
        single-worker override, or no usable pool all return
        ``(None, None)`` — the caller then takes its serial path.
        """
        if eff_workers <= 1 or len(items) < threshold:
            return None, None
        pool = self.get_pool()
        if pool is None:
            return None, None
        return pool, _chunk(items, min(eff_workers, self._pool_size) * 2)

    def run_chunks(self, pool, worker, args_list, validate=None,
                   on_result=None):
        """Run one task per argument tuple with the full fault story.

        Per-shard timeouts (``shard_timeout_ms``), parent-side result
        validation (a corrupt wire result raises
        :class:`~repro.core.errors.WorkerFailure`), one retry round of
        only the failed shards on a rebuilt pool, and — when the retry
        fails too and the runtime is quarantined — in-parent serial
        execution of the stragglers, running the *same* chunk
        functions, where fault injection never fires and engine
        exceptions propagate normally.  Always returns a full,
        input-ordered result list.

        ``on_result(i, result)``, when given, fires once per shard as
        its *validated* result lands — the checkpoint hook: a crash
        later in the round cannot un-settle shards already reported.
        """
        results: list = [None] * len(args_list)
        pending = list(range(len(args_list)))
        for attempt in (0, 1):
            if pool is None:
                break
            still_failed: list[int] = []
            reason: str | None = None
            futures: list[tuple[int, object]] = []
            for i in pending:
                try:
                    futures.append((i, pool.submit(worker, *args_list[i])))
                except (RuntimeError, OSError, pickle.PickleError) as exc:
                    # submit() after a concurrent shutdown raises
                    # RuntimeError; unpicklable args surface here too.
                    reason = f"submit:{type(exc).__name__}"
                    still_failed.append(i)
            for i, future in futures:
                try:
                    result = future.result(timeout=self.shard_timeout)
                    if validate is not None and not validate(
                        result, args_list[i]
                    ):
                        raise WorkerFailure("corrupt worker result shape")
                    results[i] = result
                    if on_result is not None:
                        on_result(i, result)
                except (*_POOL_FAILURES, WorkerFailure) as exc:
                    reason = type(exc).__name__
                    future.cancel()
                    still_failed.append(i)
            if not still_failed:
                self.mark_healthy()
                return results
            pending = sorted(still_failed)
            self.mark_failed(reason)
            pool = self.get_pool() if attempt == 0 else None
        # Quarantined (or pool gone): finish the stragglers in-parent.
        for i in pending:
            results[i] = worker(*args_list[i])
            if on_result is not None:
                on_result(i, results[i])
        return results


def _runtime(session) -> PoolRuntime:
    """The :class:`PoolRuntime` of ``session`` (default if ``None``)."""
    if session is not None:
        return session.pool
    from ..session import default_session

    return default_session().pool


def _worker_opts(
    session, backend: str | None
) -> tuple[str, bool | None, EngineConfig]:
    """What shipped tasks must honour from the calling session.

    Workers run their *own* sessions, so an explicitly configured
    calling session would silently lose its knobs the moment a batch
    shards.  This resolves everything on the parent side: the wire
    backend is the per-call override or the calling session's default
    (``"auto"`` ships as-is — workers keep resolving it per call),
    ``use_cache`` is ``False`` when the calling session disabled its
    hom-cache (``None`` otherwise: an enabled parent cache lets each
    worker use its own LRU, which is the point of pooling), and the
    *full resolved* :class:`EngineConfig` ships alongside, so worker
    sessions honour the caller's cache sizes and thresholds instead of
    env-built defaults.  ``workers`` is forced to 1 in the shipped
    config: a worker must never spawn a nested pool.
    """
    if session is None:
        from ..session import default_session

        session = default_session()
    engine = session.hom
    if backend is not None and backend not in BACKEND_CHOICES:
        # Validate on the parent side: a typo'd backend must raise
        # here, not fail inside every worker and burn the pool's
        # failure budget (two bad calls would otherwise take the whole
        # session's parallelism out of service).
        raise ValueError(
            f"unknown backend {backend!r}; expected {BACKEND_CHOICES}"
        )
    wire_backend = (
        backend if backend is not None else engine.default_backend
    )
    wire_config = session.config.replace(workers=1)
    return (
        wire_backend,
        (None if engine.cache_enabled else False),
        wire_config,
    )


def _chunk(items: Sequence, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, near-equal runs."""
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    chunks = []
    start = 0
    for i in range(parts):
        end = start + size + (1 if i < extra else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


# Parent-side result-shape validators, one per chunk function: a
# worker that returns the wrong shape (the "corrupt wire" fault, or a
# genuinely garbled pickle round trip) is treated as a WorkerFailure
# and its shard requeued/quarantined, never silently folded into the
# answer.  Entries may be reason strings on governed sessions, so only
# the container shape is checked, not element types.


def _validate_row(result, args) -> bool:
    return isinstance(result, list) and len(result) == len(args[1])


def _validate_screen(result, args) -> bool:
    return (
        isinstance(result, list)
        and len(result) == len(args[0])
        and all(
            isinstance(row, list) and len(row) == len(args[1])
            for row in result
        )
    )


def _validate_covers(result, args) -> bool:
    return isinstance(result, (bool, str))


def _sharded_ordered(
    rt, items, eff_workers, threshold, worker, make_args, validate=None,
    on_chunk=None,
):
    """Run ``worker`` over chunks of ``items``, collecting in order.

    The shared scaffolding of the order-preserving entry points:
    gate/chunk via :meth:`PoolRuntime.shard_chunks`, build one argument
    tuple per chunk (``make_args`` is only called on the parallel path,
    so shared wire forms are not built for serial batches), and
    delegate to :meth:`PoolRuntime.run_chunks` — which owns the
    timeout/retry/quarantine fault story and always returns a full
    input-ordered result list.  Returns ``None`` only for the serial
    gate (small batch, single worker, no usable pool); worker faults
    are recovered *inside* ``run_chunks``, and anything else a worker
    raises is an engine bug that propagates.

    ``on_chunk(start, chunk, result)``, when given, fires per settled
    chunk with the chunk's offset into ``items`` (the checkpoint hook
    threaded down to :meth:`PoolRuntime.run_chunks`'s ``on_result``).
    """
    pool, chunks = rt.shard_chunks(items, eff_workers, threshold)
    if pool is None:
        return None
    args_list = [make_args(chunk) for chunk in chunks]
    on_result = None
    if on_chunk is not None:
        starts = []
        pos = 0
        for chunk in chunks:
            starts.append(pos)
            pos += len(chunk)

        def on_result(i, result):
            on_chunk(starts[i], chunks[i], result)

    return rt.run_chunks(pool, worker, args_list, validate, on_result)


# ----------------------------------------------------------------------
# Sharded batch entry points
# ----------------------------------------------------------------------


def parallel_evaluate_batch(
    query: Structure,
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> list[bool]:
    """:func:`~repro.core.homengine.evaluate_batch`, sharded.

    Small batches (fewer than ``min_batch`` instances), a single-worker
    configuration, and pool-less sandboxes all take the serial path —
    byte-for-byte today's behaviour, hom-cache included.  Large batches
    are split into two chunks per worker (for load balancing) and
    evaluated in worker processes that rebuild the structures from the
    wire format; result order matches the input order.  A per-call
    ``workers=`` override gates the serial/parallel decision and caps
    this call's chunk fan-out; the pool itself is sized by the session
    config (``EngineConfig.workers``).
    """
    rt = _runtime(session)
    wire_backend, wire_cache, wire_config = _worker_opts(session, backend)
    instances = list(instances)
    shared: dict = {}

    def make_args(chunk):
        if "query" not in shared:
            shared["query"] = to_wire(query)
        return (
            shared["query"],
            [to_wire(s) for s in chunk],
            wire_backend,
            rt.worker_cache,
            wire_cache,
            wire_config,
        )

    chunk_results = _sharded_ordered(
        rt,
        instances,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
        _worker_evaluate_chunk,
        make_args,
        _validate_row,
    )
    if chunk_results is None:
        # Serial fast path (small batch, single worker, no pool).
        if wire_config.governed:
            return [
                Answer.decode(entry)
                for entry in homengine.evaluate_batch_governed(
                    query, instances, backend=backend, session=session
                )
            ]
        return homengine.evaluate_batch(
            query, instances, backend=backend, session=session
        )
    flat = [answer for chunk in chunk_results for answer in chunk]
    if wire_config.governed:
        return [Answer.decode(entry) for entry in flat]
    return flat


def _validate_semiring_row(result, args) -> bool:
    return (
        isinstance(result, list)
        and len(result) == len(args[1])
        and all(isinstance(e, tuple) and len(e) == 2 for e in result)
    )


def parallel_semiring_batch(
    query: Structure,
    instances: Iterable[Structure],
    semiring: "str | Semiring" = "bool",
    *,
    weights=None,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> "list[Evaluation]":
    """One weighted query over many instances, sharded: the semiring
    analogue of :func:`parallel_evaluate_batch`.

    Returns one :class:`~repro.core.semiring.Evaluation` per instance,
    input order.  Weights ship once per chunk as ``(fact,
    encoded-value)`` pairs and values come back through the semiring's
    per-dtype wire codec, so worker answers are canonical (``why``
    polynomials sort their witness sets).  Only *registered* semirings
    can cross the process boundary — a bespoke unregistered
    :class:`~repro.core.semiring.Semiring` instance (or an opaque
    ``node_filter``-free call with unpicklable weights) quietly takes
    the serial path, identical answers included.  Governed behaviour
    matches the outermost-surface contract: entries computed before a
    budget trips are kept, later entries carry ``reason``.
    """
    rt = _runtime(session)
    wire_backend, wire_cache, wire_config = _worker_opts(session, backend)
    sr = resolve_semiring(semiring)
    instances = list(instances)

    def serial() -> "list[Evaluation]":
        out: "list[Evaluation]" = []
        reason: str | None = None
        with governed_scope(session) as budget:
            for data in instances:
                if reason is not None:
                    out.append(
                        Evaluation(None, sr.name, wire_backend, reason=reason)
                    )
                    continue
                try:
                    if budget is not None:
                        budget.checkpoint()
                    out.append(
                        homengine.semiring_evaluate(
                            query, data, sr, weights=weights,
                            backend=backend, session=session,
                        )
                    )
                except ResourceExhausted as exc:
                    reason = exc.reason
                    out.append(
                        Evaluation(None, sr.name, wire_backend, reason=reason)
                    )
        return out

    try:
        shippable = resolve_semiring(sr.name) is sr
    except UnknownSemiring:
        shippable = False
    weights_wire = None
    if shippable and weights is not None:
        try:
            weights_wire = tuple(
                (fact, sr.encode(val)) for fact, val in weights.items()
            )
            pickle.dumps(weights_wire)
        except (TypeError, pickle.PickleError, AttributeError):
            shippable = False
    if not shippable:
        return serial()
    shared: dict = {}

    def make_args(chunk):
        if "query" not in shared:
            shared["query"] = to_wire(query)
        return (
            shared["query"],
            [to_wire(s) for s in chunk],
            sr.name,
            weights_wire,
            wire_backend,
            rt.worker_cache,
            wire_cache,
            wire_config,
        )

    chunk_results = _sharded_ordered(
        rt,
        instances,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
        _worker_semiring_chunk,
        make_args,
        _validate_semiring_row,
    )
    if chunk_results is None:
        return serial()
    out: "list[Evaluation]" = []
    for tag, payload in (e for chunk in chunk_results for e in chunk):
        if tag == "ok":
            out.append(Evaluation(sr.decode(payload), sr.name, wire_backend))
        else:
            out.append(Evaluation(None, sr.name, wire_backend, reason=payload))
    return out


def _screen_ckpt(session, queries, instances, wire_backend):
    """The checkpoint home for one screen: ``((store, ns), done)``, or
    ``(None, {})`` when checkpointing is unavailable or off.

    The namespace digests the full operation identity — every query
    and instance fingerprint plus the backend — so resuming finds
    exactly its own rows and any other screen cannot.  ``done`` maps
    instance index -> settled per-query bool column; rows of the wrong
    shape (a stale or damaged checkpoint) are ignored, never trusted.
    """
    if session is None:
        from ..session import default_session

        session = default_session()
    store = getattr(session, "store", None)
    if (
        store is None
        or not store.enabled
        or not session.config.durable_checkpoints
    ):
        return None, {}
    from .store import op_digest

    ns = "ckpt:" + op_digest(
        "screen",
        tuple(q.fingerprint for q in queries),
        tuple(s.fingerprint for s in instances),
        wire_backend,
    )
    nq = len(queries)
    done: dict[int, tuple] = {}
    for key, value in store.load_ns(ns).items():
        if (
            isinstance(key, int)
            and 0 <= key < len(instances)
            and isinstance(value, tuple)
            and len(value) == nq
            and all(isinstance(v, bool) for v in value)
        ):
            done[key] = value
    return (store, ns), done


def _settled_rows(result, chunk_len, index_map, start=0):
    """The checkpoint rows of one settled screen chunk: for each fully
    Boolean column (no governed reason entries), ``(original_index,
    column)``.  ``result`` is the chunk's per-query answer lists."""
    rows = []
    for j in range(chunk_len):
        col = tuple(row[j] for row in result)
        if all(isinstance(v, bool) for v in col):
            rows.append((index_map[start + j], col))
    return rows


def parallel_screen(
    queries: Sequence[Structure],
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    on_shard=None,
    session=None,
) -> list[list[bool]]:
    """Evaluate a pool of Boolean CQs over one instance family, sharded.

    Returns one answer vector per query, ``result[qi][di]`` being the
    answer of ``queries[qi]`` on the ``di``-th instance — exactly
    ``[evaluate_batch(q, instances) for q in queries]``, which is also
    the serial fallback.  The parallel path shards by *instances*: the
    family is wired once, each worker rebuilds its chunk once and
    answers every query against it, so the per-instance serialisation
    and index-rebuild cost is amortised over the whole query pool.
    This is the bulk-classification traffic shape (a zoo of queries
    screened over one :func:`~repro.workloads.generators.instance_family`).

    With a durable store attached (``cache_dir`` +
    ``durable_checkpoints``), settled instance columns are persisted
    as they complete: a process killed mid-screen — or a governed
    screen whose budget tripped partway — resumes from the checkpoint
    on the next identical call, recomputing only the unsettled
    instances and returning answers identical to an uninterrupted run.

    ``on_shard(shard)``, when given, fires one :class:`ScreenShard` per
    settled span *as it completes* — the shard-completion hook the
    service tier's job progress reporting hangs off.  Shards arrive in
    completion order (checkpoint-replayed spans first), carry decoded
    tri-state answers, and jointly cover ``range(len(instances))``
    exactly once, the same contract :func:`parallel_screen_stream`
    yields under.
    """
    rt = _runtime(session)
    wire_backend, wire_cache, wire_config = _worker_opts(session, backend)
    queries = list(queries)
    instances = list(instances)
    if not queries:
        return []
    nq = len(queries)
    ckpt, ckpt_done = _screen_ckpt(session, queries, instances, wire_backend)
    missing = [i for i in range(len(instances)) if i not in ckpt_done]
    sub = [instances[i] for i in missing]

    def emit(start: int, rows) -> None:
        """Fire ``on_shard`` for one settled block of sub-coordinates
        ``start..start+len``, remapped to original instance indices and
        split where checkpointed instances interleave."""
        if on_shard is None or not rows or not rows[0]:
            return
        if wire_config.governed:
            rows = [[Answer.decode(entry) for entry in row] for row in rows]
        span = len(rows[0])
        j = 0
        while j < span:
            k = j
            while (
                k + 1 < span
                and missing[start + k + 1] == missing[start + k] + 1
            ):
                k += 1
            on_shard(
                ScreenShard(
                    missing[start + j],
                    missing[start + k] + 1,
                    tuple(tuple(row[j : k + 1]) for row in rows),
                )
            )
            j = k + 1

    if on_shard is not None and ckpt_done:
        # Checkpoint-replayed spans complete first, by definition.
        for start, stop in _contiguous_runs(sorted(ckpt_done)):
            on_shard(
                ScreenShard(
                    start,
                    stop,
                    tuple(
                        tuple(ckpt_done[i][qi] for i in range(start, stop))
                        for qi in range(nq)
                    ),
                )
            )
    shared: dict = {}

    def make_args(chunk):
        if "queries" not in shared:
            shared["queries"] = [to_wire(q) for q in queries]
        return (
            shared["queries"],
            [to_wire(s) for s in chunk],
            wire_backend,
            rt.worker_cache,
            wire_cache,
            wire_config,
        )

    on_chunk = None
    if ckpt is not None or on_shard is not None:

        def on_chunk(start, chunk, result):
            if ckpt is not None:
                store, ns = ckpt
                store.write_rows(
                    ns, _settled_rows(result, len(chunk), missing, start)
                )
            emit(start, result)

    chunk_results = None
    if sub:
        chunk_results = _sharded_ordered(
            rt,
            sub,
            rt.workers if workers is None else workers,
            rt.min_batch if min_batch is None else min_batch,
            _worker_screen_chunk,
            make_args,
            _validate_screen,
            on_chunk=on_chunk,
        )
    if chunk_results is None:
        if wire_config.governed:
            with governed_scope(session):
                sub_rows = [
                    homengine.evaluate_batch_governed(
                        q, sub, backend=backend, session=session
                    )
                    for q in queries
                ]
            # Settled columns checkpoint even when the budget tripped
            # partway: the resumed screen finishes only the UNKNOWNs.
            if on_chunk is not None:
                on_chunk(0, sub, sub_rows)
            sub_rows = [
                [Answer.decode(entry) for entry in row] for row in sub_rows
            ]
        elif on_chunk is not None:
            # Checkpointing/reporting serial path: instance-major so
            # each settled column is durable (and reported) before the
            # next instance starts — kill -9 between instances loses
            # at most the one in flight.
            sub_rows = [[] for _ in queries]
            for j, instance in enumerate(sub):
                col = tuple(
                    homengine.has_homomorphism(
                        q, instance, backend=backend, session=session
                    )
                    for q in queries
                )
                for qi, v in enumerate(col):
                    sub_rows[qi].append(v)
                on_chunk(j, [instance], [[v] for v in col])
        else:
            sub_rows = [
                homengine.evaluate_batch(
                    q, sub, backend=backend, session=session
                )
                for q in queries
            ]
    else:
        sub_rows = [[] for _ in queries]
        for chunk_answers in chunk_results:
            for qi, answers in enumerate(chunk_answers):
                if wire_config.governed:
                    answers = [Answer.decode(entry) for entry in answers]
                sub_rows[qi].extend(answers)
    if not ckpt_done:
        return sub_rows
    results: list[list] = [[None] * len(instances) for _ in queries]
    for i, col in ckpt_done.items():
        for qi in range(len(queries)):
            results[qi][i] = col[qi]
    for j, pos in enumerate(missing):
        for qi in range(len(queries)):
            results[qi][pos] = sub_rows[qi][j]
    return results


@dataclass(frozen=True)
class ScreenShard:
    """One completed shard of a streaming screen.

    ``answers[qi][i]`` is the answer of query ``qi`` on instance
    ``start + i`` of the screened family; shards arrive in completion
    order and jointly cover ``range(len(instances))`` exactly once.
    """

    start: int  # first instance index covered by this shard
    stop: int  # one past the last instance index
    answers: tuple[tuple[bool, ...], ...]  # per query, per instance


def parallel_screen_stream(
    queries: Sequence[Structure],
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> Iterator[ScreenShard]:
    """The streaming variant of :func:`parallel_screen`: yield each
    shard's answers *as its worker completes*, not in chunk order.

    A long screen (thousands of instances, an expensive query pool)
    surfaces its first answers while later shards are still running;
    collecting the stream and sorting by ``start`` reproduces
    :func:`parallel_screen` exactly (a property the tests pin).  Serial
    batches — below ``min_batch``, single worker, pool-less sandbox —
    yield one shard per instance as it is answered, so streaming
    consumers behave identically (modulo shard granularity) on every
    substrate.  A worker failure mid-stream falls back to serial
    evaluation of the not-yet-yielded suffix; indices already yielded
    are never re-yielded.

    With a durable store attached, previously checkpointed instance
    columns are yielded first as synthesized shards (no recompute),
    then the remaining instances stream normally, checkpointing each
    settled shard as it lands.
    """
    rt = _runtime(session)
    wire_backend, wire_cache, wire_config = _worker_opts(session, backend)
    queries = list(queries)
    instances = list(instances)
    if not queries or not instances:
        return
    nq = len(queries)
    ckpt, ckpt_done = _screen_ckpt(session, queries, instances, wire_backend)
    if ckpt_done:
        # Replay the checkpoint as contiguous synthesized shards.
        for start, stop in _contiguous_runs(sorted(ckpt_done)):
            yield ScreenShard(
                start,
                stop,
                tuple(
                    tuple(ckpt_done[i][qi] for i in range(start, stop))
                    for qi in range(nq)
                ),
            )
    missing = [i for i in range(len(instances)) if i not in ckpt_done]
    if not missing:
        return
    sub = [instances[i] for i in missing]
    for shard in _screen_stream_raw(
        rt, queries, sub, backend, workers, min_batch, session,
        wire_backend, wire_cache, wire_config,
    ):
        span = shard.stop - shard.start
        result = [list(row) for row in shard.answers]
        if ckpt is not None:
            store, ns = ckpt
            store.write_rows(
                ns, _settled_rows(result, span, missing, shard.start)
            )
        # Remap sub-coordinate shards back to original indices,
        # splitting where checkpointed instances interleave.
        j = shard.start
        while j < shard.stop:
            k = j
            while k + 1 < shard.stop and missing[k + 1] == missing[k] + 1:
                k += 1
            yield ScreenShard(
                missing[j],
                missing[k] + 1,
                tuple(
                    tuple(row[j - shard.start : k + 1 - shard.start])
                    for row in result
                ),
            )
            j = k + 1


def _contiguous_runs(indices):
    """``(start, stop)`` spans of consecutive ints in a sorted list."""
    runs = []
    for i in indices:
        if runs and i == runs[-1][1]:
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return [(a, b) for a, b in runs]


def _screen_stream_raw(
    rt, queries, instances, backend, workers, min_batch, session,
    wire_backend, wire_cache, wire_config,
) -> Iterator[ScreenShard]:
    """The pre-checkpoint streaming screen body: completion-ordered
    shards over exactly the given instances (coordinates are positions
    in ``instances`` — :func:`parallel_screen_stream` remaps them)."""
    governed = wire_config.governed

    def _serial_answer(q, instance):
        if governed:
            try:
                return homengine.has_homomorphism(
                    q, instance, backend=backend, session=session
                )
            except ResourceExhausted as exc:
                return Answer.unknown(exc.reason)
        return homengine.has_homomorphism(
            q, instance, backend=backend, session=session
        )

    def _serial_row(q, chunk):
        if governed:
            return tuple(
                Answer.decode(entry)
                for entry in homengine.evaluate_batch_governed(
                    q, chunk, backend=backend, session=session
                )
            )
        return tuple(
            homengine.evaluate_batch(
                q, chunk, backend=backend, session=session
            )
        )

    pool, chunks = rt.shard_chunks(
        instances,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
    )
    if pool is None:
        for i, instance in enumerate(instances):
            yield ScreenShard(
                i,
                i + 1,
                tuple((_serial_answer(q, instance),) for q in queries),
            )
        return
    query_wires = [to_wire(q) for q in queries]
    starts: list[int] = []
    offset = 0
    for chunk in chunks:
        starts.append(offset)
        offset += len(chunk)
    done_spans: set[tuple[int, int]] = set()
    futures: dict = {}
    failure: str | None = None
    try:
        for chunk, start in zip(chunks, starts):
            future = pool.submit(
                _worker_screen_chunk,
                query_wires,
                [to_wire(s) for s in chunk],
                wire_backend,
                rt.worker_cache,
                wire_cache,
                wire_config,
            )
            futures[future] = (start, start + len(chunk))
        # as_completed's timeout is a whole-iteration budget, so the
        # per-shard allowance is summed over the outstanding shards —
        # coarser than run_chunks' per-future timeout but enough to
        # unstick a stream whose tail is a hung worker.
        stream_timeout = (
            None
            if rt.shard_timeout is None
            else rt.shard_timeout * len(futures)
        )
        for future in as_completed(futures, timeout=stream_timeout):
            start, stop = futures[future]
            answers = future.result(timeout=rt.shard_timeout)
            if not (
                isinstance(answers, list)
                and len(answers) == len(queries)
                and all(len(row) == stop - start for row in answers)
            ):
                raise WorkerFailure("corrupt worker result shape")
            done_spans.add((start, stop))
            if governed:
                answers = [
                    [Answer.decode(entry) for entry in row]
                    for row in answers
                ]
            yield ScreenShard(
                start, stop, tuple(tuple(row) for row in answers)
            )
    except (*_POOL_FAILURES, WorkerFailure) as exc:
        failure = type(exc).__name__
    finally:
        # A consumer that abandons the stream early (breaks out of the
        # loop, closing the generator) must not leave the remaining
        # chunks burning CPU in the session's pool: cancel everything
        # that has not started.  No-op for completed/running futures
        # and for the normal exhausted-stream exit.
        for future in futures:
            future.cancel()
    if failure is not None:
        rt.mark_failed(failure)
        # Serial recovery for every span not already yielded.  Only
        # pool/worker faults land here — an engine exception raised
        # inside a worker propagates out of the result() call above.
        for chunk, start in zip(chunks, starts):
            stop = start + len(chunk)
            if (start, stop) in done_spans:
                continue
            yield ScreenShard(
                start, stop, tuple(_serial_row(q, chunk) for q in queries)
            )
        return
    rt.mark_healthy()


def parallel_ucq_answers(
    disjuncts: Sequence[Structure],
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> list[bool] | None:
    """Certain answers of a Boolean UCQ over a family, sharded.

    ``result[i]`` is true iff *some* disjunct maps into the ``i``-th
    instance.  Shards by instances: each worker rebuilds its chunk once
    and sweeps the whole UCQ against it with per-instance early exit,
    so the per-instance wire/rebuild cost is amortised over all
    disjuncts (the reason this beats one
    :func:`parallel_evaluate_batch` call per disjunct, which would
    re-ship the family every sweep).  Returns ``None`` when the batch
    is below ``min_batch`` or the pool is unavailable — the caller
    should then take its serial path
    (:func:`repro.core.boundedness.ucq_certain_answers` keeps the
    pending-filtered sweep with the shared hom-cache).
    """
    rt = _runtime(session)
    wire_backend, wire_cache, wire_config = _worker_opts(session, backend)
    disjuncts = list(disjuncts)
    instances = list(instances)
    if not disjuncts or not instances:
        return None
    shared: dict = {}

    def make_args(chunk):
        if "disjuncts" not in shared:
            shared["disjuncts"] = [to_wire(d) for d in disjuncts]
        return (
            shared["disjuncts"],
            [to_wire(s) for s in chunk],
            wire_backend,
            rt.worker_cache,
            wire_cache,
            wire_config,
        )

    chunk_results = _sharded_ordered(
        rt,
        instances,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
        _worker_ucq_chunk,
        make_args,
        _validate_row,
    )
    if chunk_results is None:
        return None
    flat = [answer for chunk in chunk_results for answer in chunk]
    if wire_config.governed:
        return [Answer.decode(entry) for entry in flat]
    return flat


def parallel_covers_any(
    target: Structure,
    sources: Iterable[Structure | tuple[Structure, homengine.Seed | None]],
    seeds: Sequence[homengine.Seed | None] | None = None,
    *,
    backend: str | None = None,
    workers: int | None = None,
    min_batch: int | None = None,
    session=None,
) -> bool:
    """:func:`~repro.core.homengine.covers_any`, sharded.

    Accepts the same source/seed conventions as the serial API.  Small
    batches stay serial (lazy consumption, early exit, shared cache);
    large batches ship one chunk of (source, seed) pairs per worker and
    return as soon as any chunk reports a hit, cancelling chunks that
    have not started.
    """
    rt = _runtime(session)
    wire_backend, wire_cache, wire_config = _worker_opts(session, backend)
    pairs = list(homengine._source_seed_pairs(sources, seeds))
    pool, chunks = rt.shard_chunks(
        pairs,
        rt.workers if workers is None else workers,
        rt.min_batch if min_batch is None else min_batch,
    )
    if pool is None:
        return homengine.covers_any(
            target, pairs, backend=backend, session=session
        )
    target_wire = to_wire(target)
    unknown_reason: str | None = None
    try:
        pending = {
            pool.submit(
                _worker_covers_chunk,
                target_wire,
                [
                    (to_wire(s), _freeze_seed(seed))
                    for s, seed in chunk
                ],
                wire_backend,
                rt.worker_cache,
                wire_cache,
                wire_config,
            )
            for chunk in chunks
        }
        # Early exit: return on the first chunk that reports a hit and
        # cancel chunks that have not started (this wait loop is why
        # covers_any does not share _sharded_ordered's collection).
        covered = False
        while pending:
            done, pending = wait(
                pending,
                timeout=rt.shard_timeout,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # Every outstanding shard sat past the shard timeout.
                raise FuturesTimeout("covers_any shard timed out")
            for f in done:
                result = f.result()
                if not _validate_covers(result, None):
                    raise WorkerFailure("corrupt worker result shape")
                if result is True:
                    covered = True
                elif isinstance(result, str):
                    # A governed worker ran out of budget before any
                    # hit; remember why, but keep draining — another
                    # chunk may still report a definite hit.
                    unknown_reason = result
            if covered:
                for f in pending:
                    f.cancel()
                break
    except (*_POOL_FAILURES, WorkerFailure) as exc:
        rt.mark_failed(type(exc).__name__)
        return homengine.covers_any(
            target, pairs, backend=backend, session=session
        )
    rt.mark_healthy()
    if not covered and unknown_reason is not None:
        # No chunk found a hit and at least one gave up: the overall
        # answer is unknown, and the caller's governed surface decides
        # how to report it.
        raise ResourceExhausted.from_reason(unknown_reason)
    return covered
