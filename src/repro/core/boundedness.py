"""Boundedness probing and UCQ rewritings (Proposition 2).

For a 1-CQ ``q``, Proposition 2 characterises boundedness of ``(Π_q, G)``
as: there is a depth ``d`` such that *every* cactus contains a
homomorphic image of some cactus of depth at most ``d``.  For focused
``q`` the same ``d`` bounds ``(Σ_q, P)``; in general Σ-boundedness
additionally requires the hom to fix the root focus.

Exact boundedness of arbitrary (dag) 1-CQs is 2ExpTime-hard (Theorem 3),
so this module provides a *depth-bounded probe*:

* :func:`probe_boundedness` examines all cactuses up to ``probe_depth``
  and reports the least ``d`` that covers them, together with the
  verdict ``BOUNDED`` (a certificate valid for the probed universe),
  or ``UNBOUNDED_EVIDENCE`` when even the deepest probed cactuses are
  not covered by anything shallower.

The exact decision procedure for the ditree Λ-CQ fragment lives in
:mod:`repro.ditree.lambda_cq`; tests cross-validate the two.

When a probe succeeds, :func:`ucq_rewriting` emits the UCQ
``C_1 ∨ .. ∨ C_m`` of all cactuses of depth <= d (the rewriting used in
the proof of Proposition 2), :func:`ucq_certain_answer` evaluates it by
homomorphism checks, bypassing the datalog engine entirely, and
:func:`ucq_certain_answers` screens a whole *family* of instances in one
pass (the batch traffic shape of
:func:`~repro.core.homengine.evaluate_batch`).

All cactus material flows through the pooled incremental
:class:`~repro.core.cactus.CactusFactory` of the query: the probe's
depth loop, a later rewriting extraction and the Σ-variant all share
the same materialised cactuses.

The batch traffic of this module routes through the shard executor of
:mod:`repro.core.runtime`: large batches (a deep probe's cactus layers,
a big :func:`ucq_certain_answers` instance family) are chunked across
the bounded process pool (``REPRO_HOM_WORKERS``), while small batches
keep the serial fast path with its shared hom-cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .cactus import Cactus, iter_cactuses
from .cq import OneCQ
from .decomp import ProbeCoverage, query_width
from .errors import Answer, ResourceExhausted, governed_scope
from .homengine import covers_any, evaluate_batch, evaluate_batch_governed
from .runtime import parallel_covers_any, parallel_ucq_answers
from .structure import A, Node, Structure, T


class Verdict(enum.Enum):
    """Outcome of a depth-bounded boundedness probe."""

    BOUNDED = "bounded"
    UNBOUNDED_EVIDENCE = "unbounded-evidence"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ProbeResult:
    verdict: Verdict
    depth: int | None  # the covering depth d when BOUNDED
    probe_depth: int
    cactuses_examined: int
    uncovered: tuple[str, ...]  # shapes of cactuses nothing shallow maps into
    reason: str | None = None  # budget reason when INCONCLUSIVE by exhaustion

    @property
    def answer(self) -> Answer:
        """The :class:`~repro.core.errors.Answer`-compatible view of
        the probe verdict (the unified outermost-surface contract):
        TRUE for ``BOUNDED``, FALSE for ``UNBOUNDED_EVIDENCE``, and
        ``UNKNOWN(reason)`` for ``INCONCLUSIVE`` — the budget reason
        when governance tripped, ``"probe-depth"`` when the probed
        universe was simply too shallow to decide."""
        if self.verdict is Verdict.BOUNDED:
            return Answer.TRUE
        if self.verdict is Verdict.UNBOUNDED_EVIDENCE:
            return Answer.FALSE
        return Answer.unknown(self.reason or "probe-depth")

    def describe(self) -> str:
        if self.verdict is Verdict.BOUNDED:
            return (
                f"bounded at depth {self.depth} "
                f"(probed to {self.probe_depth}, "
                f"{self.cactuses_examined} cactuses)"
            )
        tail = f", {self.reason}" if self.reason else ""
        return (
            f"{self.verdict.value} (probed to {self.probe_depth}, "
            f"{self.cactuses_examined} cactuses, "
            f"{len(self.uncovered)} uncovered{tail})"
        )


def _probe_coverage(session, one_cq: OneCQ) -> ProbeCoverage | None:
    """A fresh delta warm-start coverage engine for one probe call, or
    ``None`` when the probe should keep the batch path instead.

    The coverage engine pays off exactly on *chain-shaped* cactus
    universes — span <= 1 queries, one cactus per depth, each extending
    the previous (the E3-style increasing-depth regime measured in
    ``BENCH_decomp.json``): there the per-depth delta is the whole
    workload and warm-starting beats re-solving 2x+.  Span >= 2 probes
    have exponentially bushy layers of *small* cactuses where the
    hom-cached (and, for large layers, pool-sharded) batch path wins on
    constants, so they keep it.  Cactuses also inherit the query's
    decomposition width (copies glue at single nodes), so a width > 2
    query — whose pairs would all take the engine fallback one at a
    time — steps aside as well.  ``EngineConfig.probe_warmstart`` /
    ``REPRO_PROBE_WARMSTART=0`` disables the engine outright.
    """
    if session is None:
        from ..session import default_session

        session = default_session()
    if not session.config.probe_warmstart:
        return None
    if one_cq.span > 1:
        return None
    if query_width(one_cq.query) > ProbeCoverage.MAX_WIDTH:
        return None
    return ProbeCoverage(session)


def _covered_by(
    target: Cactus,
    shallow: list[Cactus],
    require_focus: bool,
    session=None,
    coverage: ProbeCoverage | None = None,
) -> bool:
    """Does some shallow cactus map homomorphically into ``target``?

    With a :class:`~repro.core.decomp.ProbeCoverage` (the default), the
    check runs the delta warm-started decomposition DP: since cactus
    ``C(d)`` extends ``C(d-1)`` by the recorded construction delta, the
    per-bag satisfying sets of the previous depth are reused and only
    bags touched by the delta re-propagate, instead of re-solving every
    coverage check from scratch at each depth.

    Without one (``probe_warmstart=False``), it is a single batch
    :func:`~repro.core.runtime.parallel_covers_any` call: small shallow
    sets take the serial path — the target's indexes are shared across
    the whole batch and every (shallow, deep) pair goes through the
    hom-cache — while the exponentially large layers of a deep
    span->=2 probe shard across the process pool.
    """
    if coverage is not None:
        return coverage.covered_by_any(target, shallow, require_focus)
    return parallel_covers_any(
        target.structure,
        [
            (
                source.structure,
                {source.root_focus: target.root_focus}
                if require_focus
                else None,
            )
            for source in shallow
        ],
        session=session,
    )


def _probe_ckpt(session, one_cq, probe_depth, require_focus, max_cactuses):
    """The probe's checkpoint home ``(store, ns)``, or ``None``.

    The namespace digests everything that pins the probe's answers —
    query fingerprint, depth, Σ-variant flag, cactus cap — so a
    resumed probe finds exactly its own rows."""
    if session is None:
        from ..session import default_session

        session = default_session()
    store = getattr(session, "store", None)
    if (
        store is None
        or not store.enabled
        or not session.config.durable_checkpoints
    ):
        return None
    from .store import op_digest

    ns = "ckpt:" + op_digest(
        "probe",
        one_cq.query.fingerprint,
        probe_depth,
        bool(require_focus),
        max_cactuses,
    )
    return store, ns


def _encode_probe_result(result: ProbeResult) -> tuple:
    return (
        "probe-result",
        result.verdict.value,
        result.depth,
        result.probe_depth,
        result.cactuses_examined,
        tuple(result.uncovered),
        result.reason,
    )


def _decode_probe_result(value) -> "ProbeResult | None":
    """Rebuild a persisted :class:`ProbeResult`; ``None`` (recompute)
    for anything malformed — a stale checkpoint is never trusted."""
    if not (
        isinstance(value, tuple)
        and len(value) == 7
        and value[0] == "probe-result"
    ):
        return None
    try:
        verdict = Verdict(value[1])
    except ValueError:
        return None
    return ProbeResult(
        verdict, value[2], value[3], value[4], tuple(value[5]), value[6]
    )


def probe_boundedness(
    one_cq: OneCQ,
    probe_depth: int,
    require_focus: bool = False,
    max_cactuses: int | None = None,
    session=None,
) -> ProbeResult:
    """Depth-bounded test of Proposition 2's condition (c).

    Finds the least ``d < probe_depth`` such that every probed cactus of
    depth > d contains a homomorphic image of a cactus of depth <= d.
    ``require_focus=True`` checks the Σ-variant (hom fixes root focus).

    A BOUNDED verdict with ``depth=d`` means the UCQ of depth-<= d
    cactuses rewrites the query *on the probed universe*; for genuinely
    bounded queries of the paper's examples, small probe depths are
    conclusive because covering homs iterate (Example 4).  An
    UNBOUNDED_EVIDENCE verdict means the deepest probed cactuses are not
    covered by anything shallower at all.

    Cactus material streams out of the query's pooled incremental
    factory, so repeated probes (and a later rewriting extraction)
    share every materialised cactus.

    On a governed session the whole probe — cactus enumeration and
    every coverage check — shares one budget; when it trips, the probe
    returns ``INCONCLUSIVE`` with ``reason`` set (``"deadline"``,
    ``"fuel"``, ``"cactus-nodes"``) instead of hanging.

    With a durable store attached, the probe checkpoints each depth it
    settles as non-covering and persists its final settled result: a
    process killed (or deadline-tripped) mid-probe resumes past the
    settled depths, and an identical re-probe returns instantly from
    disk.  Budget-tripped INCONCLUSIVE results are never persisted —
    they depend on the budget, not the query.
    """
    ckpt = _probe_ckpt(
        session, one_cq, probe_depth, require_focus, max_cactuses
    )
    settled_depths: set[int] = set()
    if ckpt is not None:
        store, ns = ckpt
        from .store import MISS

        stored = store.get(ns, "result")
        if stored is not MISS:
            prior = _decode_probe_result(stored)
            if prior is not None:
                return prior
        for key, value in store.load_ns(ns).items():
            if (
                isinstance(key, tuple)
                and len(key) == 2
                and key[0] == "depth"
                and isinstance(key[1], int)
                and value is False
            ):
                settled_depths.add(key[1])
    result = _probe_run(
        one_cq, probe_depth, require_focus, max_cactuses, session,
        ckpt, settled_depths,
    )
    if ckpt is not None and result.reason is None:
        store, ns = ckpt
        store.write_rows(ns, [("result", _encode_probe_result(result))])
    return result


def _probe_run(
    one_cq: OneCQ,
    probe_depth: int,
    require_focus: bool,
    max_cactuses: int | None,
    session,
    ckpt,
    settled_depths: set[int],
) -> ProbeResult:
    """The probe body (see :func:`probe_boundedness`); ``ckpt`` and
    ``settled_depths`` carry the checkpoint/resume state."""
    cactuses: list[Cactus] = []
    try:
        with governed_scope(session) as budget:
            for cactus in iter_cactuses(
                one_cq, probe_depth, max_cactuses, session=session
            ):
                cactuses.append(cactus)

            def check(target: Cactus, shallow: list[Cactus]) -> bool:
                # Coverage checks are few but individually expensive,
                # so each one re-reads the clock: a tripped deadline
                # surfaces within ~one check of the cutoff even on the
                # warm-start path, whose DP carries no inner budget.
                if budget is not None:
                    budget.checkpoint()
                    budget.charge()
                return _covered_by(
                    target, shallow, require_focus, session, coverage
                )

            # Shallow-to-deep order maximises the warm-start hit rate: a
            # cactus's construction delta points at its depth-pruned
            # parent, which this order guarantees was checked (and its
            # per-bag state retained) first.
            cactuses.sort(key=lambda c: c.depth)
            by_depth: dict[int, list[Cactus]] = {}
            for cactus in cactuses:
                by_depth.setdefault(cactus.depth, []).append(cactus)
            max_seen = max(by_depth) if by_depth else 0
            coverage = _probe_coverage(session, one_cq)

            for d in range(0, probe_depth):
                if d in settled_depths:
                    # A previous identical probe durably settled this
                    # depth as non-covering; the cactus universe is a
                    # pure function of the probe inputs, so re-checking
                    # would reproduce the same False.
                    continue
                shallow = [c for c in cactuses if c.depth <= d]
                deep = [c for c in cactuses if c.depth > d]
                if not deep:
                    # No budding is possible beyond depth d: 𝔎_q is
                    # finite and the query is trivially bounded (e.g.
                    # span 0).
                    return ProbeResult(
                        Verdict.BOUNDED,
                        max_seen,
                        probe_depth,
                        len(cactuses),
                        (),
                    )
                if all(check(c, shallow) for c in deep):
                    return ProbeResult(
                        Verdict.BOUNDED, d, probe_depth, len(cactuses), ()
                    )
                if ckpt is not None:
                    # This depth is settled non-covering: durably so,
                    # before the (much more expensive) next depth runs.
                    ckpt[0].write_rows(ckpt[1], [(("depth", d), False)])

            # No d works.  Check whether the deepest layer is covered by
            # anything at all shallower; if not, this is evidence of
            # unboundedness.
            deepest = by_depth.get(max_seen, [])
            shallow = [c for c in cactuses if c.depth < max_seen]
            uncovered = tuple(
                c.shape.describe()
                for c in deepest
                if not check(c, shallow)
            )
            if uncovered:
                return ProbeResult(
                    Verdict.UNBOUNDED_EVIDENCE,
                    None,
                    probe_depth,
                    len(cactuses),
                    uncovered,
                )
            return ProbeResult(
                Verdict.INCONCLUSIVE, None, probe_depth, len(cactuses), ()
            )
    except ResourceExhausted as exc:
        return ProbeResult(
            Verdict.INCONCLUSIVE,
            None,
            probe_depth,
            len(cactuses),
            (),
            reason=exc.reason,
        )


def ucq_rewriting(one_cq: OneCQ, depth: int, session=None) -> list[Structure]:
    """The UCQ ``C_1 ∨ .. ∨ C_m`` of all cactuses of depth <= ``depth``.

    Evaluating this UCQ over a data instance computes the certain answer
    to ``(Π_q, G)`` whenever the query is bounded with bound ``depth``.
    """
    return [
        c.structure for c in iter_cactuses(one_cq, depth, session=session)
    ]


def sigma_ucq_rewriting(
    one_cq: OneCQ, depth: int, session=None
) -> list[tuple[Structure, Node]]:
    """The Σ-rewriting: pairs (C°, root focus) plus the implicit ``T(x)``
    disjunct handled by :func:`sigma_ucq_certain_answer`."""
    return [
        (c.sigma_structure(), c.root_focus)
        for c in iter_cactuses(one_cq, depth, session=session)
    ]


def ucq_certain_answer(
    ucq: list[Structure], data: Structure, session=None
) -> bool:
    """Evaluate a Boolean UCQ by one batch of homomorphism checks."""
    return covers_any(data, ucq, session=session)


def ucq_certain_answers(
    ucq: list[Structure], instances: Sequence[Structure], session=None
) -> "list[bool | Answer]":
    """Evaluate a Boolean UCQ over a whole family of data instances.

    The family-probing counterpart of :func:`ucq_certain_answer`.
    Large families of a multi-disjunct UCQ shard across the process
    pool through :func:`~repro.core.runtime.parallel_ucq_answers`:
    each worker rebuilds its instance chunk once and sweeps the whole
    UCQ against it with per-instance early exit, so the wire/rebuild
    cost is amortised over all disjuncts.  Small families — and
    single-disjunct rewritings, where there is nothing to amortise —
    keep the serial path: each disjunct sweeps the still-undecided
    instances in one :func:`~repro.core.homengine.evaluate_batch`
    (sharing its compiled source plan and the hom-cache), and
    instances already answered 'yes' drop out of later sweeps.

    Governed sessions get tri-state entries: 'yes' answers found before
    the budget tripped stay ``True`` (the certain answer is monotone in
    the disjuncts), undecided instances come back as
    ``Answer.unknown(reason)`` — a disjunct the sweep never reached
    might have flipped them.
    """
    if len(ucq) >= 2:
        sharded = parallel_ucq_answers(ucq, instances, session=session)
        if sharded is not None:
            return sharded
    with governed_scope(session) as budget:
        results: "list[bool | Answer]" = [False] * len(instances)
        if budget is None:
            for disjunct in ucq:
                pending = [i for i, done in enumerate(results) if not done]
                if not pending:
                    break
                answers = evaluate_batch(
                    disjunct,
                    [instances[i] for i in pending],
                    session=session,
                )
                for i, answer in zip(pending, answers):
                    if answer:
                        results[i] = True
            return results
        for disjunct in ucq:
            pending = [
                i for i in range(len(instances)) if results[i] is not True
            ]
            if not pending:
                break
            entries = evaluate_batch_governed(
                disjunct,
                [instances[i] for i in pending],
                session=session,
                budget=budget,
            )
            for i, entry in zip(pending, entries):
                if entry is True:
                    results[i] = True
                elif isinstance(entry, str) and results[i] is False:
                    # Never downgrade back to False once unknown: the
                    # unanswered disjunct could have been the 'yes'.
                    results[i] = Answer.unknown(entry)
        return results


def probe_family_boundedness(
    one_cq: OneCQ,
    instances: Sequence[Structure],
    depth: int,
    probe_depth: int | None = None,
    session=None,
) -> list[bool]:
    """Certain answers of ``(Π_q, G)`` over an instance family via the
    depth-``depth`` UCQ rewriting; one factory, one rewriting, one
    batched evaluation for the whole family.

    The rewriting is only a correct evaluation when the query is
    bounded with bound ``depth``, so this first runs
    :func:`probe_boundedness` (to ``probe_depth``, default ``depth +
    1``) and raises :class:`ValueError` unless the probe certifies a
    covering depth ``<= depth`` — never silently returning
    false-negative answers for an unbounded or deeper-bounded query.
    Callers who have certified boundedness by other means (e.g. the
    exact Λ-CQ decider) can call :func:`ucq_certain_answers` on
    :func:`ucq_rewriting` directly.
    """
    probe = probe_boundedness(
        one_cq,
        probe_depth if probe_depth is not None else depth + 1,
        session=session,
    )
    if probe.verdict is not Verdict.BOUNDED or (probe.depth or 0) > depth:
        raise ValueError(
            f"the depth-{depth} rewriting is not a certified evaluation "
            f"of (Π_q, G): probe verdict {probe.describe()!r}"
        )
    return ucq_certain_answers(
        ucq_rewriting(one_cq, depth, session=session), instances, session
    )


def sigma_ucq_certain_answer(
    rewriting: list[tuple[Structure, Node]],
    data: Structure,
    node: Node,
    session=None,
) -> bool:
    """Evaluate the Σ-rewriting at ``node``: ``T(node)`` or some C° maps
    into the data with its root focus on ``node``."""
    if data.has_label(node, T):
        return True
    return covers_any(
        data,
        ((cq, {focus: node}) for cq, focus in rewriting),
        session=session,
    )


def pi_rewriting_from_sigma(
    one_cq: OneCQ, sigma_rewriting: list[tuple[Structure, Node]]
) -> list[Structure]:
    """Proposition 2, (a) => (b): compose a Σ-rewriting into a Π-rewriting.

    If ``Phi(x)`` rewrites ``(Sigma_q, P)``, then
    ``exists x, y_1..y_n, z. F(x) and q' and Phi(y_1) and .. and Phi(y_n)``
    rewrites ``(Pi_q, G)``.  With ``Phi`` a UCQ (``T(x)`` plus the C°
    disjuncts), the composition distributes into one disjunct per choice
    of a ``Phi``-disjunct at every solitary T node: the T-choice keeps
    the original atom, a C°-choice glues a fresh copy of C° at its root
    focus with the ``T`` label dropped and ``A`` added.
    """
    import itertools

    q = one_cq.query
    # Per solitary T node: choice None = keep T(y); choice (cq, focus)
    # = glue that disjunct.
    choices: list[list[tuple[Structure, Node] | None]] = [
        [None] + list(sigma_rewriting) for _ in one_cq.solitary_ts
    ]
    disjuncts: list[Structure] = []
    for combo in itertools.product(*choices):
        result = q
        for index, (y, choice) in enumerate(zip(one_cq.solitary_ts, combo)):
            if choice is None:
                continue
            glued, mapping = choice[0].with_fresh_nodes(f"phi{index}")
            glued = glued.rename({mapping[choice[1]]: y})
            result = result.relabel_node(y, remove=(T,), add=(A,))
            result = result.union(glued)
        disjuncts.append(result)
    return disjuncts
