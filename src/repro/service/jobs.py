"""Async job manager: bounded, supervised execution over tenant sessions.

Jobs are the unit of work the service accepts: ``decide`` /
``evaluate`` / ``probe`` (one structure in, one result out) and
``screen`` (a query pool over an instance family, streamed as
:class:`~repro.core.runtime.ScreenShard` events).  Each job runs on a
bounded thread executor against its tenant's session; asyncio handlers
never block on engine work.

Admission control mirrors the pool's degradation ladder:

* global backlog (queued + running) at ``service_queue_depth`` →
  the *queued-longest* job is shed to a terminal FAILED record to make
  room (load-shedding), or — when everything in the backlog is already
  running — :class:`AdmissionError` (HTTP 429, the client backs off);
* a tenant at its ``service_tenant_jobs`` concurrency cap → the job
  *queues* instead of running, and dispatch resumes the moment one of
  the tenant's jobs settles — throttled, not rejected, exactly how
  ``PoolRuntime`` degrades to serial rather than failing;
* a draining manager (SIGTERM received) admits nothing: 503 with
  ``Retry-After``, running jobs checkpoint and settle, queued jobs
  stay persisted for the next process.

Supervision (PR 10) extends the engine's failure taxonomy up through
the job lifecycle:

* **Leases** — a running job holds a heartbeat-renewed ownership row
  in the store's ``lease:v1`` namespace.  ``recover()`` only adopts a
  "running" record whose lease is absent or expired, so a crashed
  owner and a live sibling manager are distinguishable; a stuck
  executor thread stops beating and is detected by its lease lapsing.
* **Bounded retry** — transient failures (:class:`WorkerFailure`,
  :class:`StoreCorruption` surfacing in best-effort mode) re-enqueue
  the job with exponential backoff + jitter, up to
  ``service_retry_max`` attempts (the counter is persisted on the
  record, so attempts survive restarts); past the cap the job is
  **quarantined** to a terminal ``FAILED(quarantined after N
  attempts)`` instead of re-queueing forever.
* **Cancellation** — :meth:`JobManager.cancel` settles a queued job
  immediately and flags a running one; the flag is polled between
  screen shards and, for probe/decide/evaluate kernels, through the
  :class:`~repro.core.errors.Budget` cancel hook at every
  charge/checkpoint, raising :class:`JobCancelled` into the terminal
  ``CANCELLED`` state.  The same poll doubles as the lease-progress
  beat.

Every state transition persists the job record under the ``job:v1``
namespace of the shared :class:`~repro.core.store.DurableStore`.  A
restarted server replays the namespace: settled jobs are served from
the record, in-flight jobs are re-enqueued under their original ids —
and because the screen runtime checkpoints settled shards under the
same store, the re-run replays finished spans from disk instead of
recomputing them (digest-identical answers, the chaos bench pins
this).  :meth:`JobManager.close` records running jobs as
``INTERRUPTED`` (re-queueable) before tearing down the executor, so a
non-drain shutdown has deterministic restart semantics instead of
silently dropping work.

Tri-state discipline: answers cross the manager only through
:func:`~repro.service.wire.answer_to_json`, so an UNKNOWN produced by
a governed budget arrives at the client as ``{"unknown": reason}``,
never coerced to a boolean.
"""

from __future__ import annotations

import os
import random
import secrets
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

from ..core.config import BACKEND_CHOICES, EngineConfig
from ..core.cq import OneCQ
from ..core.errors import (
    Budget,
    EngineError,
    JobCancelled,
    StoreCorruption,
    UnknownSemiring,
    WorkerFailure,
)
from ..core.runtime import ScreenShard
from ..core.semiring import resolve_semiring
from ..core.store import JOB_NS, DurableStore
from . import wire
from .registry import SessionRegistry

__all__ = ["AdmissionError", "Job", "JobManager", "JOB_KINDS"]

JOB_KINDS = ("decide", "evaluate", "probe", "screen")

_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"
_FAILED = "failed"
_CANCELLED = "cancelled"
#: Recorded (never held in memory across a restart): a running job's
#: status at a non-drain shutdown.  ``recover()`` re-enqueues it like a
#: queued record — the explicit, deterministic alternative to the old
#: "cancel_futures and hope" teardown.
_INTERRUPTED = "interrupted"

_TERMINAL = (_DONE, _FAILED, _CANCELLED)

#: Failures worth a bounded retry: a pool worker died / hung / returned
#: corrupt wire, or the durable tier hiccuped under best-effort
#: semantics.  Everything else (WireError, a hom-engine bug) fails the
#: job on the first attempt — re-running a deterministic error wastes
#: the backlog's time.
_TRANSIENT = (WorkerFailure, StoreCorruption)

#: Ceiling on one retry backoff sleep, whatever the exponent says.
_BACKOFF_CAP_S = 30.0

#: A running job whose last progress beat is older than this many lease
#: TTLs is considered stuck: the heartbeat stops renewing its lease, so
#: the stall becomes observable (and recoverable) through lease expiry.
_STALL_TTLS = 6


class AdmissionError(EngineError):
    """The job was not admitted.  ``status`` is the HTTP code the
    server maps it to: 429 (backlog full, rejected not queued) or 503
    (draining — ``retry_after`` hints when to come back)."""

    def __init__(
        self,
        message: str,
        status: int = 429,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


def _new_job_id() -> str:
    return secrets.token_hex(6)


def validate_payload(kind: str, payload: dict) -> None:
    """Eager request validation: raise WireError on a bad submission
    so the server can 400 instead of enqueueing a doomed job.

    Structures are shape-checked (:func:`wire.check_structure_json`),
    not decoded — the full index build happens exactly once, inside
    :meth:`JobManager._execute` on the worker thread.  The ``backend``
    and ``semiring`` names are resolved here too.
    """
    if kind not in JOB_KINDS:
        raise wire.WireError(
            f"unknown job kind {kind!r}; expected one of {JOB_KINDS}"
        )
    if not isinstance(payload, dict):
        raise wire.WireError("job payload must be a JSON object")
    backend = payload.get("backend")
    if backend is not None and backend not in BACKEND_CHOICES:
        raise wire.WireError(
            f"unknown backend {backend!r}; expected one of {BACKEND_CHOICES}"
        )
    if kind == "screen":
        queries = payload.get("queries")
        instances = payload.get("instances")
        if not isinstance(queries, list) or not queries:
            raise wire.WireError("screen payload needs non-empty 'queries'")
        if not isinstance(instances, list) or not instances:
            raise wire.WireError("screen payload needs non-empty 'instances'")
        for obj in (*queries, *instances):
            wire.check_structure_json(obj)
        return
    query = payload.get("query")
    if query is None:
        raise wire.WireError(f"{kind} payload needs 'query'")
    wire.check_structure_json(query)
    if kind == "evaluate":
        data = payload.get("data")
        if data is None:
            raise wire.WireError("evaluate payload needs 'data'")
        wire.check_structure_json(data)
        semiring = payload.get("semiring", "bool")
        if not isinstance(semiring, str):
            raise wire.WireError("evaluate 'semiring' must be a name")
        try:
            resolve_semiring(semiring)
        except UnknownSemiring as exc:
            raise wire.WireError(str(exc)) from None


class Job:
    """One submitted job: state machine + event buffer + waiters."""

    def __init__(
        self, job_id: str, tenant: str, kind: str, payload: dict
    ) -> None:
        self.id = job_id
        self.tenant = tenant
        self.kind = kind
        self.payload = payload
        self.status = _QUEUED
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.result = None
        self.error: str | None = None
        self.attempts = 0
        self.last_beat = time.time()
        self.progress_done = 0
        self.progress_total = (
            len(payload["instances"]) if kind == "screen" else 1
        )
        self.events: list[dict] = []
        self._cond = threading.Condition()
        self._cancel = threading.Event()

    @property
    def settled(self) -> bool:
        return self.status in _TERMINAL

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def request_cancel(self) -> None:
        """Flag the job for cooperative cancellation (idempotent)."""
        with self._cond:
            self._cancel.set()
            self._cond.notify_all()

    def poll(self) -> bool:
        """One cooperative poll: beat the liveness clock (the lease
        heartbeat only renews jobs that keep beating) and report
        whether cancellation is pending.  This is the ``Budget``
        cancel hook, so kernels poll it at every charge/checkpoint."""
        self.last_beat = time.time()
        return self._cancel.is_set()

    def add_event(self, event: dict, advance: int = 0) -> None:
        with self._cond:
            self.events.append(event)
            self.progress_done += advance
            self.last_beat = time.time()
            self._cond.notify_all()

    def reset_stream(self) -> None:
        """Drop buffered events and progress before a retry run.

        The re-run replays settled spans from the engine's checkpoints
        and re-emits them as fresh events, so clearing keeps live SSE
        watchers' cursors aligned with the new stream: they receive no
        duplicate shard frames and ``progress_done`` can never exceed
        ``progress_total``.
        """
        with self._cond:
            self.events.clear()
            self.progress_done = 0
            self._cond.notify_all()

    def _transition(self, status: str) -> None:
        with self._cond:
            self.status = status
            if status == _RUNNING:
                self.started = time.time()
            elif status in _TERMINAL:
                self.finished = time.time()
            self._cond.notify_all()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job settles; True iff it did in time."""
        with self._cond:
            return self._cond.wait_for(lambda: self.settled, timeout)

    def events_since(
        self, cursor: int, timeout: float | None = None
    ) -> tuple[list[dict], bool]:
        """Events past ``cursor`` (blocking up to ``timeout`` for news)
        and whether the job has settled."""
        with self._cond:
            if timeout:
                self._cond.wait_for(
                    lambda: len(self.events) > cursor or self.settled,
                    timeout,
                )
            return list(self.events[cursor:]), self.settled

    def snapshot(self) -> dict:
        """The JSON job record (also the persisted store row)."""
        with self._cond:
            return {
                "id": self.id,
                "tenant": self.tenant,
                "kind": self.kind,
                "status": self.status,
                "created": self.created,
                "started": self.started,
                "finished": self.finished,
                "attempts": self.attempts,
                "progress": {
                    "done": self.progress_done,
                    "total": self.progress_total,
                },
                "result": self.result,
                "error": self.error,
                "events": len(self.events),
                "payload": self.payload,
            }


@contextmanager
def _job_scope(session, job: Job):
    """Install a cancellation-aware operation budget for one job.

    Merges the session's configured deadline/fuel with the job's
    cooperative cancel flag, so a kernel's ``charge``/``checkpoint``
    calls raise :class:`JobCancelled` mid-probe — and every poll beats
    the job's liveness clock for the lease heartbeat.  The session's
    budget slot is thread-local, so a concurrent same-tenant job on a
    sibling executor thread installs its *own* budget: cancelling this
    job never cancels (or drains the fuel of) another.  The guard below
    only fires for a nested scope on this same thread, which keeps the
    outer budget rather than replacing it mid-operation.
    """
    if session.active_budget is not None:
        yield
        return
    budget = Budget(
        session.config.deadline_ms,
        session.config.hom_fuel,
        cancel=job.poll,
    )
    session.active_budget = budget
    try:
        yield
    finally:
        session.active_budget = None


class JobManager:
    """Bounded executor + admission control + durable job records."""

    def __init__(
        self,
        registry: SessionRegistry,
        store: DurableStore | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else registry.base_config
        self.store = store
        # Lease ownership identity: unique per manager instance, so a
        # restarted process never mistakes a dead sibling's leases (or
        # its own previous life's) for its own.
        self.owner = f"{os.getpid()}-{secrets.token_hex(3)}"
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.service_threads,
            thread_name_prefix="repro-job",
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._queue: deque[str] = deque()
        self._running: set[str] = set()
        self._tenant_running: dict[str, int] = {}
        self._timers: list[threading.Timer] = []
        # "Running" records recovered under a live foreign lease: owned
        # by a sibling (or a freshly dead predecessor whose lease has
        # not lapsed yet).  Served read-only until the heartbeat loop
        # sees the lease expire and adopts them.
        self._foreign: dict[str, Job] = {}
        self._draining = False
        self._closing = False
        self._drain_deadline: float | None = None
        self._fault_ordinal = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.recovered = 0
        self.cancelled = 0
        self.shed = 0
        self.retried = 0
        self.quarantined = 0
        self.lease_skips = 0
        self.adopted = 0
        self._hb_stop = threading.Event()
        self._hb_thread: threading.Thread | None = None
        if self.store is not None and self.store.enabled:
            self._hb_thread = threading.Thread(
                target=self._heartbeat, name="repro-lease", daemon=True
            )
            self._hb_thread.start()

    @property
    def _lease_ttl_s(self) -> float:
        return self.config.service_lease_ttl_ms / 1000.0

    @property
    def draining(self) -> bool:
        return self._draining

    # -- submission ----------------------------------------------------

    def submit(
        self,
        kind: str,
        payload: dict,
        tenant: str = "default",
        job_id: str | None = None,
        attempts: int = 0,
    ) -> Job:
        """Accept a job (or raise): WireError on a bad payload,
        AdmissionError 503 while draining, 429 when the backlog is at
        ``service_queue_depth`` with nothing left to shed.

        ``attempts`` seeds the retry counter — only :meth:`recover`
        passes it, so a poison job's attempt count survives restarts.
        """
        validate_payload(kind, payload)
        job = Job(job_id or _new_job_id(), tenant, kind, payload)
        job.attempts = attempts
        shed_job: Job | None = None
        with self._lock:
            if self._draining:
                remaining = (
                    None
                    if self._drain_deadline is None
                    else max(1.0, self._drain_deadline - time.monotonic())
                )
                self.rejected += 1
                raise AdmissionError(
                    "service draining; not accepting jobs",
                    status=503,
                    retry_after=remaining
                    or self.config.service_drain_ms / 1000.0,
                )
            backlog = len(self._queue) + len(self._running)
            if backlog >= self.config.service_queue_depth:
                if self._queue:
                    # Load-shed the job that has waited longest: its
                    # submitter has had the least service and is the
                    # likeliest to have given up, and freshness beats
                    # fairness once the backlog is saturated.  Settle
                    # it here, inside the lock, mirroring cancel(): a
                    # concurrent cancel cannot slip between the pop and
                    # the transition and have its terminal CANCELLED
                    # overwritten by FAILED.
                    candidate = self._jobs[self._queue.popleft()]
                    if not candidate.settled:
                        candidate.error = "shed: backlog full"
                        candidate._transition(_FAILED)
                        self.shed += 1
                        shed_job = candidate
                else:
                    self.rejected += 1
                    raise AdmissionError(
                        f"job backlog full ({backlog} >= "
                        f"{self.config.service_queue_depth}) and all "
                        "running; retry later"
                    )
            if job.id in self._jobs:
                raise wire.WireError(f"duplicate job id {job.id!r}")
            self._jobs[job.id] = job
            self._queue.append(job.id)
        if shed_job is not None:
            self._persist(shed_job)
        self._persist(job, with_payload=True)
        self._dispatch()
        return job

    def _dispatch(self) -> None:
        """Start every queued job whose tenant has a free slot."""
        started: list[Job] = []
        with self._lock:
            if self._draining:
                return
            cap = self.config.service_tenant_jobs
            skipped: deque[str] = deque()
            while self._queue:
                jid = self._queue.popleft()
                job = self._jobs[jid]
                if self._tenant_running.get(job.tenant, 0) >= cap:
                    skipped.append(jid)
                    continue
                self._tenant_running[job.tenant] = (
                    self._tenant_running.get(job.tenant, 0) + 1
                )
                self._running.add(jid)
                started.append(job)
            self._queue = skipped
        for job in started:
            self._executor.submit(self._run, job)

    # -- cancellation --------------------------------------------------

    def cancel(self, job_id: str) -> Job | None:
        """Request cancellation; returns the job (or None if unknown).

        A queued job settles ``CANCELLED`` immediately; a running one
        is flagged and settles at its next cooperative point (between
        screen shards, or a budget charge/checkpoint inside a kernel).
        Settled jobs are returned untouched — cancel is idempotent and
        never un-settles anything.
        """
        settled_now = False
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            if job.settled:
                return job
            job.request_cancel()
            if job.status == _QUEUED:
                try:
                    self._queue.remove(job_id)
                except ValueError:
                    pass  # parked in a retry-backoff timer; flag covers it
                job.error = "cancelled before start"
                job._transition(_CANCELLED)
                self.cancelled += 1
                settled_now = True
        if settled_now:
            self._persist(job)
            self._dispatch()
        return job

    # -- execution -----------------------------------------------------

    def _run(self, job: Job) -> None:
        if self.store is not None and not self.store.lease_acquire(
            job.id, self.owner, self._lease_ttl_s
        ):
            # Lost the claim: another manager holds a live lease on
            # this job id, so executing here would double-run it.
            # Park it as a foreign placeholder instead — the heartbeat
            # sweep adopts it the moment the owner's lease lapses (or
            # absorbs the owner's terminal record).
            job._transition(_RUNNING)
            with self._lock:
                self._running.discard(job.id)
                left = self._tenant_running.get(job.tenant, 0) - 1
                if left > 0:
                    self._tenant_running[job.tenant] = left
                else:
                    self._tenant_running.pop(job.tenant, None)
                self._foreign[job.id] = job
                self.lease_skips += 1
            self._dispatch()
            return
        job.attempts += 1
        job.last_beat = time.time()
        job._transition(_RUNNING)
        self._persist(job)
        requeue_delay: float | None = None
        try:
            if job.cancel_requested:
                raise JobCancelled("cancelled before start")
            job.result = self._execute(job)
            job._transition(_DONE)
        except JobCancelled as exc:
            job.error = str(exc)
            job._transition(_CANCELLED)
        except _TRANSIENT as exc:
            if job.attempts < self.config.service_retry_max and not (
                self._closing or job.cancel_requested
            ):
                requeue_delay = self._backoff_s(job.attempts)
                job.error = (
                    f"attempt {job.attempts}/"
                    f"{self.config.service_retry_max} failed "
                    f"({type(exc).__name__}: {exc}); retrying"
                )
                # The retry re-emits the settled prefix from its
                # checkpoints; keeping this attempt's events would
                # stream every shard twice and overrun the progress
                # total.
                job.reset_stream()
                job._transition(_QUEUED)
            else:
                job.error = (
                    f"quarantined after {job.attempts} attempts: "
                    f"{type(exc).__name__}: {exc}"
                )
                job._transition(_FAILED)
        except Exception as exc:  # job isolation: one failure, one record
            job.error = f"{type(exc).__name__}: {exc}"
            job._transition(_FAILED)
        finally:
            with self._lock:
                self._running.discard(job.id)
                left = self._tenant_running.get(job.tenant, 0) - 1
                if left > 0:
                    self._tenant_running[job.tenant] = left
                else:
                    self._tenant_running.pop(job.tenant, None)
                if job.status == _DONE:
                    self.completed += 1
                elif job.status == _CANCELLED:
                    self.cancelled += 1
                elif job.status == _FAILED:
                    self.failed += 1
                    if job.error and job.error.startswith("quarantined"):
                        self.quarantined += 1
                elif requeue_delay is not None:
                    self.retried += 1
                # Persisting inside the manager lock serialises the
                # settle record against close()'s INTERRUPTED records:
                # whichever writes second wins deterministically, and a
                # settle always wins because close() skips settled jobs.
                self._persist(job)
            if self.store is not None:
                self.store.lease_release(job.id, self.owner)
            if requeue_delay is not None:
                self._schedule_requeue(job, requeue_delay)
            self._dispatch()

    def _backoff_s(self, attempts: int) -> float:
        """Exponential backoff with jitter: ``base * 2^(k-1)``, capped,
        scaled by a uniform [0.5, 1.0) factor so a burst of failures
        doesn't re-land in lockstep."""
        base = self.config.service_retry_backoff_ms / 1000.0
        delay = min(base * (2 ** (attempts - 1)), _BACKOFF_CAP_S)
        return delay * (0.5 + random.random() / 2.0)

    def _schedule_requeue(self, job: Job, delay: float) -> None:
        def _requeue() -> None:
            with self._lock:
                try:
                    self._timers.remove(timer)
                except ValueError:
                    pass
                if (
                    self._closing
                    or self._draining
                    or job.status != _QUEUED
                    or job.id not in self._jobs
                ):
                    return
                self._queue.append(job.id)
            self._dispatch()

        timer = threading.Timer(delay, _requeue)
        timer.daemon = True
        with self._lock:
            if self._closing:
                return
            self._timers.append(timer)
        timer.start()

    def _maybe_jobfail(self) -> None:
        """Fire the service tier's injected fault, if this execution is
        scheduled for one (``("jobfail", ordinal)`` entries in the
        fault plan; the ordinal counts ``_execute`` calls)."""
        plan = self.config.fault_plan
        if not plan:
            return
        with self._lock:
            ordinal = self._fault_ordinal
            self._fault_ordinal += 1
        for mode, when in plan:
            if mode == "jobfail" and when == ordinal:
                raise WorkerFailure(
                    f"injected job fault (execution ordinal {ordinal})"
                )

    def _execute(self, job: Job):
        self._maybe_jobfail()
        session = self.registry.get(job.tenant)
        payload = job.payload
        if job.kind == "screen":
            queries = [
                wire.structure_from_json(q) for q in payload["queries"]
            ]
            instances = [
                wire.structure_from_json(i) for i in payload["instances"]
            ]
            matrix: list[list] = [
                [None] * len(instances) for _ in queries
            ]
            for shard in session.screen(
                queries,
                instances,
                stream=True,
                backend=payload.get("backend"),
            ):
                # Cooperative point between shards: a cancelled job
                # emits no further shard events (the settled spans are
                # already checkpointed, so nothing is lost).
                if job.poll():
                    raise JobCancelled(
                        f"job {job.id} cancelled between shards"
                    )
                for qi, row in enumerate(shard.answers):
                    matrix[qi][shard.start : shard.stop] = row
                job.add_event(
                    wire.shard_to_json(shard),
                    advance=shard.stop - shard.start,
                )
            return {
                "matrix": [
                    [wire.answer_to_json(a) for a in row] for row in matrix
                ]
            }
        with _job_scope(session, job):
            query = wire.structure_from_json(payload["query"])
            if job.kind == "decide":
                decision = session.decide_boundedness(
                    query, probe_depth=int(payload.get("probe_depth", 3))
                )
                return wire.decision_to_json(decision)
            if job.kind == "probe":
                result = session.probe_boundedness(
                    OneCQ.from_structure(query),
                    int(payload.get("probe_depth", 3)),
                )
                return wire.probe_to_json(result)
            # evaluate
            ev = session.evaluate(
                query,
                wire.structure_from_json(payload["data"]),
                payload.get("semiring", "bool"),
                backend=payload.get("backend"),
            )
            return wire.evaluation_to_json(ev)

    # -- leases --------------------------------------------------------

    def _heartbeat(self) -> None:
        """Renew the leases of running jobs every TTL/3 — but only
        while the job's executor thread keeps beating its liveness
        clock (``Job.poll`` / ``add_event``).  A thread stuck for
        ``_STALL_TTLS`` TTLs stops being renewed, its lease lapses,
        and the stall becomes observable from outside."""
        interval = max(self._lease_ttl_s / 3.0, 0.01)
        stall = self._lease_ttl_s * _STALL_TTLS
        while not self._hb_stop.wait(interval):
            with self._lock:
                running = [
                    self._jobs[jid]
                    for jid in self._running
                    if jid in self._jobs
                ]
            now = time.time()
            for job in running:
                if now - job.last_beat > stall:
                    continue
                self.store.lease_renew(
                    job.id, self.owner, self._lease_ttl_s, now
                )
            self._adopt_orphans()

    def _adopt_orphans(self) -> None:
        """Re-enqueue foreign "running" records whose lease lapsed.

        :meth:`recover` registers a running record under a live foreign
        lease read-only instead of adopting it — the owner might be a
        live sibling.  A crashed owner stops renewing, so the lease
        expires within one TTL; this sweep (each heartbeat tick) then
        takes the job over — or quarantines it if its persisted attempt
        count is already spent.  Takeover is one atomic lease CAS
        (claim-iff-expired), so two sibling managers sweeping the same
        store can never both adopt one job; and an owner that settled
        the job before releasing its lease has its terminal record
        absorbed rather than re-executed."""
        with self._lock:
            pending = list(self._foreign.items())
        for job_id, job in pending:
            if not self.store.lease_acquire(
                job_id, self.owner, self._lease_ttl_s
            ):
                continue  # live lease: genuinely still running elsewhere
            with self._lock:
                if self._closing or self._draining:
                    # Leave the record for the next process.
                    self.store.lease_release(job_id, self.owner)
                    return
                if self._foreign.pop(job_id, None) is None:
                    self.store.lease_release(job_id, self.owner)
                    continue
            record = self.store.job_get(job_id) or {}
            status = record.get("status")
            if status in _TERMINAL:
                # The previous owner finished the job between our last
                # sweep and this claim: adopt its terminal record.
                with job._cond:
                    job.result = record.get("result", job.result)
                    job.error = record.get("error", job.error)
                    job.attempts = int(
                        record.get("attempts", job.attempts) or 0
                    )
                    job.progress_done = record.get("progress", {}).get(
                        "done", job.progress_done
                    )
                job._transition(status)
                self.store.lease_release(job_id, self.owner)
            elif job.attempts >= self.config.service_retry_max:
                job.error = (
                    f"quarantined after {job.attempts} attempts: "
                    "crashed or interrupted in every prior run"
                )
                job._transition(_FAILED)
                with self._lock:
                    self.quarantined += 1
                    self.failed += 1
                    self._persist(job)
                self.store.lease_release(job_id, self.owner)
            else:
                # Keep the claimed lease: _run re-acquires it under the
                # same owner, closing the window where a sibling could
                # grab the job between requeue and execution.
                job._transition(_QUEUED)
                with self._lock:
                    self.adopted += 1
                    self._queue.append(job_id)
                    self._persist(job)
                self._dispatch()

    def lease_of(self, job_id: str) -> dict | None:
        """The persisted lease row of one job (None when the store has
        none — released, expired-and-reaped, or no disk tier)."""
        if self.store is None:
            return None
        return self.store.lease_get(job_id)

    # -- lookup --------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def metrics(self) -> dict:
        with self._lock:
            return {
                "queued": len(self._queue),
                "running": len(self._running),
                "total": len(self._jobs),
                "completed": self.completed,
                "failed": self.failed,
                "rejected": self.rejected,
                "recovered": self.recovered,
                "cancelled": self.cancelled,
                "shed": self.shed,
                "retried": self.retried,
                "quarantined": self.quarantined,
                "lease_skips": self.lease_skips,
                "adopted": self.adopted,
                "draining": self._draining,
                "queue_depth": self.config.service_queue_depth,
                "tenant_jobs": self.config.service_tenant_jobs,
                "threads": self.config.service_threads,
            }

    # -- durability ----------------------------------------------------

    def _persist(self, job: Job, with_payload: bool = False) -> None:
        """Durably commit the job record.

        The (possibly large) request payload is written once, at
        submission, under a ``<id>/payload`` sibling row; later state
        transitions rewrite only the slim record, so a screen job's
        lifecycle does not push its request body through the store's
        WAL three times while the engine is checkpointing shards into
        the same file.
        """
        if self.store is None:
            return
        record = job.snapshot()
        payload = record.pop("payload")
        rows = [(job.id, record)]
        if with_payload:
            rows.append((f"{job.id}/payload", {"payload": payload}))
        self.store.write_rows(JOB_NS, rows)

    def recover(self) -> int:
        """Replay the ``job:v1`` namespace after a restart.

        Settled jobs come back as served-from-record :class:`Job`
        objects (a screen job's final record synthesizes one full-span
        event so late SSE watchers still stream its answers).
        In-flight jobs — queued, running, or interrupted at the crash —
        are re-enqueued under their original ids; the engine's shard
        checkpoints make the re-run a replay, not a recompute.  Two
        exceptions: a "running" record under a live lease may still be
        executing on its (live, or just-died) owner, so it is
        registered read-only and only adopted by the heartbeat's orphan
        sweep once its lease lapses unrenewed; and a record whose
        persisted attempt count already reached ``service_retry_max``
        is quarantined straight to FAILED — that job has crashed the
        service enough times.  Returns the number of jobs re-enqueued.
        """
        if self.store is None:
            return 0
        resumed = 0
        rows = self.store.job_list()
        now = time.time()
        for job_id, record in sorted(
            rows.items(), key=lambda kv: kv[1].get("created", 0.0)
        ):
            if "/" in job_id:
                continue  # a payload sibling row, not a job record
            kind = record.get("kind")
            status = record.get("status")
            payload = record.get("payload")  # pre-split inline layout
            if payload is None:
                payload = rows.get(f"{job_id}/payload", {}).get("payload")
            if kind not in JOB_KINDS or not isinstance(payload, dict):
                continue
            with self._lock:
                known = job_id in self._jobs
            if known:
                continue
            attempts = int(record.get("attempts", 0) or 0)
            if status in _TERMINAL:
                job = Job(job_id, record.get("tenant", "default"), kind, payload)
                job.created = record.get("created", job.created)
                job.started = record.get("started")
                job.finished = record.get("finished")
                job.result = record.get("result")
                job.error = record.get("error")
                job.status = status
                job.attempts = attempts
                job.progress_done = record.get("progress", {}).get(
                    "done", job.progress_total
                )
                if (
                    kind == "screen"
                    and status == _DONE
                    and isinstance(job.result, dict)
                ):
                    matrix = job.result.get("matrix") or []
                    if matrix and matrix[0]:
                        job.events.append(
                            {
                                "start": 0,
                                "stop": len(matrix[0]),
                                "answers": matrix,
                            }
                        )
                with self._lock:
                    self._jobs[job_id] = job
                continue
            # In flight at the crash (queued / running / interrupted).
            claimed = False
            if status == _RUNNING:
                if not self.store.lease_acquire(
                    job_id, self.owner, self._lease_ttl_s, now
                ):
                    # Still running elsewhere: a live (or just-died,
                    # lease not yet lapsed) owner holds it.  Adopting
                    # now could double-execute, so register the record
                    # read-only; the heartbeat's orphan sweep takes it
                    # over the moment the lease expires unrenewed.
                    job = Job(
                        job_id, record.get("tenant", "default"), kind,
                        payload,
                    )
                    job.created = record.get("created", job.created)
                    job.started = record.get("started")
                    job.status = _RUNNING
                    job.attempts = attempts
                    job.progress_done = record.get("progress", {}).get(
                        "done", 0
                    )
                    with self._lock:
                        self._jobs[job_id] = job
                        self._foreign[job_id] = job
                        self.lease_skips += 1
                    continue
                # Orphaned (owner stopped beating) and now claimed in
                # one atomic CAS — a sibling recovering concurrently
                # saw the claim refused and registered it read-only.
                claimed = True
            if attempts >= self.config.service_retry_max:
                job = Job(job_id, record.get("tenant", "default"), kind, payload)
                job.created = record.get("created", job.created)
                job.started = record.get("started")
                job.attempts = attempts
                job.error = (
                    f"quarantined after {attempts} attempts: "
                    "crashed or interrupted in every prior run"
                )
                job._transition(_FAILED)
                with self._lock:
                    self._jobs[job_id] = job
                    self.quarantined += 1
                    self.failed += 1
                self._persist(job)
                if claimed:
                    self.store.lease_release(job_id, self.owner)
                continue
            try:
                # A claimed lease is kept through the requeue: _run
                # re-acquires it under the same owner, so no sibling
                # can slip in between adoption and execution.
                self.submit(
                    kind,
                    payload,
                    tenant=record.get("tenant", "default"),
                    job_id=job_id,
                    attempts=attempts,
                )
                resumed += 1
            except (wire.WireError, AdmissionError):
                if claimed:
                    self.store.lease_release(job_id, self.owner)
                continue
        self.recovered = resumed
        return resumed

    # -- drain / shutdown ----------------------------------------------

    def begin_drain(self) -> None:
        """Stop admission (submits now 503) and dispatch; running jobs
        keep going, queued jobs stay persisted for the next process."""
        with self._lock:
            if self._draining:
                return
            self._draining = True
            self._drain_deadline = (
                time.monotonic() + self.config.service_drain_ms / 1000.0
            )

    def drain(self, deadline_s: float | None = None) -> bool:
        """Graceful drain: stop admission, then wait up to
        ``deadline_s`` (default ``service_drain_ms``) for running jobs
        to checkpoint and settle.  True iff nothing was left running.
        """
        self.begin_drain()
        if deadline_s is None:
            deadline_s = self.config.service_drain_ms / 1000.0
        deadline = time.monotonic() + deadline_s
        while True:
            with self._lock:
                running = [
                    self._jobs[jid]
                    for jid in self._running
                    if jid in self._jobs
                ]
            if not running:
                return True
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            running[0].wait(min(remaining, 0.25))

    def close(self) -> None:
        """Shut down with deterministic restart semantics.

        Pending retry timers are cancelled, the lease heartbeat stops,
        and every job still running gets an explicit ``INTERRUPTED``
        record (re-queueable: :meth:`recover` treats it like a queued
        record) before the executor is torn down — never again the
        silent ``cancel_futures=True`` drop.  Queued jobs are already
        persisted as queued.  Leases are released so the next process
        adopts the interrupted jobs without waiting out a TTL.
        """
        with self._lock:
            self._closing = True
            self._draining = True
            timers = list(self._timers)
            self._timers.clear()
        for timer in timers:
            timer.cancel()
        self._hb_stop.set()
        if self._hb_thread is not None:
            self._hb_thread.join(1.0)
        interrupted: list[str] = []
        with self._lock:
            for jid in list(self._running):
                job = self._jobs.get(jid)
                if job is None or job.settled:
                    continue
                # Record-only: the in-memory job stays RUNNING so a
                # thread that settles during teardown still wins (its
                # locked persist happens-after this write).
                record = job.snapshot()
                record["status"] = _INTERRUPTED
                record.pop("payload", None)
                if self.store is not None:
                    self.store.write_rows(JOB_NS, [(jid, record)])
                interrupted.append(jid)
        if self.store is not None:
            for jid in interrupted:
                self.store.lease_release(jid, self.owner)
        self._executor.shutdown(wait=False, cancel_futures=True)
