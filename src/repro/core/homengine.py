"""Pluggable homomorphism engine: backends, hom-cache, and batch APIs.

Architecture
============

Every decision procedure in this library (cactus covering, boundedness
probing, UCQ rewriting, the Λ-CQ decider, core checks, datalog-bypass
evaluation) bottoms out in homomorphism search, so the engine is split
into swappable *backends* behind one call surface:

``naive``
    The original backtracking search over per-node candidate lists with
    a static connectivity-aware order.  Kept verbatim (modulo the
    precomputed per-target-node predicate sets) as the correctness
    oracle for property-based cross-validation.

``bitset``
    Integer-interned search over the target's
    :class:`~repro.core.structure.BitsetIndex`.  Candidate domains are
    Python ints used as bitsets; initial domains are produced by ANDing
    label/pred masks, tightened to arc consistency by an AC-3 pass over
    the source edges, and maintained by forward checking (bitwise AND
    against precomputed adjacency masks) during a backtracking search
    with dynamic most-constrained-variable ordering.

``matrix``
    The same search over the target's dense
    :class:`~repro.core.structure.MatrixIndex`: candidate domains are
    numpy boolean vectors, the AC-3 support computation is one
    boolean-semiring matrix-vector product (``adj[p] @ domain``) per
    revision instead of a per-candidate Python loop, and forward
    checking ANDs precomputed adjacency rows.  Pays off on large,
    edge-rich targets (hundreds of nodes); on small structures the
    ``bitset`` backend wins.  numpy is an *optional* extra: without it
    the ``matrix`` backend transparently falls back to the pure-python
    int-bitset search (identical answers, no hard dependency).

``decomp``
    Semijoin dynamic programming over a tree decomposition of the
    *query* (:mod:`repro.core.decomp`): polynomial-time for
    bounded-width queries, with a compiled, fingerprint-interned
    :class:`~repro.core.decomp.DecompPlan` replayed across whole
    target batches.  Forest-shaped queries (width <= 1 — paths, trees,
    cactuses) run a single directional bitset semijoin pass; wider
    queries run the general per-bag relational DP.  Pure python, no
    optional dependency, and it counts homomorphisms by bag-product
    counting instead of enumeration.

All backends enumerate exactly the same set of homomorphisms.  The
default backend and the hom-cache live on a :class:`HomEngine` owned by
a :class:`~repro.session.Session` and fixed by its frozen
:class:`~repro.core.config.EngineConfig`; every entry point takes an
explicit ``session=`` (falling back to the module-level default
session, which is configured from the ``REPRO_*`` environment via
:meth:`repro.core.config.EngineConfig.from_env`) plus a per-call
``backend=`` override.  ``backend="auto"`` — per call or as
the session default — resolves per call from the *query's* cached
decomposition width (tree-shaped queries route to ``decomp``) and the
target's size and edge density (``matrix`` vs ``bitset``);
see :func:`repro.core.config.choose_auto_backend`, calibrated from the
committed ``BENCH_batch.json`` and ``BENCH_decomp.json`` duels.

Cache
=====

:func:`find_homomorphism` / :func:`has_homomorphism` answers are
LRU-cached keyed on the *content fingerprints* of source and target
(:attr:`~repro.core.structure.Structure.fingerprint`) plus the frozen
seed/restriction/forbid/domain arguments, so repeated checks across
equal structures — ubiquitous in the Proposition 2 probe's depth loop
and the Appendix F cuttability fixpoint — are answered once.
Hom counts (``Session.count_homomorphisms``, the COUNT semiring) share
the same LRU under a distinct key tag, and a counting pass also seeds
the find/has entry for the same arguments with its first witness.
Calls with a ``node_filter`` callable are never cached (the callable is
opaque); prefer the declarative ``node_domains`` / ``forbid``
arguments, which are cacheable and usually faster.  The cache is
per-session: disable or resize it with
``EngineConfig(hom_cache=..., hom_cache_size=...)`` (or
``REPRO_HOM_CACHE`` / ``REPRO_HOM_CACHE_SIZE`` for the default
session).

Verification
============

:func:`is_homomorphism` checks a given map and :func:`is_core` decides
the minimality condition of Section 4; tests use both as oracles.

Batch APIs
==========

:func:`covers_any` (does any of a batch of sources map into one
target?) and :func:`evaluate_batch` (one query over many instances)
expose the batch traffic shape of the consumers, sharing the target's
lazily-built indexes and the cache across the whole batch.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from . import decomp as _decomp
from .config import BACKEND_CHOICES, EngineConfig, choose_auto_backend
from .config import BACKENDS as BACKENDS  # re-export: stable engine API
from .errors import Budget, ResourceExhausted, call_budget
from .semiring import (
    Evaluation,
    Semiring,
    freeze_weights,
    hom_weight,
    resolve_semiring,
)
from .structure import (
    BinaryFact,
    Node,
    Structure,
    UnaryFact,
    _canonical_key,
    numpy_or_none,
)

Seed = Mapping[Node, Node]
NodeDomains = Mapping[Node, frozenset[Node]]


def matrix_backend_available() -> bool:
    """True when numpy is installed, i.e. the ``matrix`` backend runs
    its dense path rather than the pure-python bitset fallback."""
    return numpy_or_none() is not None


# ``auto`` resolution computes the source's decomposition width (cached
# on the structure) to route tree-shaped queries to the ``decomp``
# backend.  Sources larger than this are assumed non-query-shaped and
# skip the width probe: the min-fill fallback on a huge dense source
# would cost more than the routing decision is worth.
_AUTO_WIDTH_SOURCE_LIMIT = 512


# ----------------------------------------------------------------------
# Per-session engine state: default backend + the LRU hom-cache
# ----------------------------------------------------------------------


@dataclass
class CacheInfo:
    hits: int
    misses: int
    size: int
    maxsize: int
    enabled: bool


_MISS = object()


class HomEngine:
    """The mutable hom-search state of one session.

    Owns the session's default backend choice and its LRU hom-cache,
    both fixed by the session's config.  Two sessions never share an
    instance, so differently-configured engines can answer queries side
    by side in one process without contaminating each other's caches.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.default_backend = config.backend
        self.cache_enabled = config.hom_cache
        self.cache_maxsize = config.hom_cache_size
        self._cache: OrderedDict[tuple, tuple | None] = OrderedDict()
        self._hits = 0
        self._misses = 0
        # Optional disk tier under the LRU (repro.core.store): misses
        # fall through to it and promote on hit, puts write through.
        self._store = None

    def attach_store(self, store) -> None:
        """Layer a :class:`~repro.core.store.DurableStore` under the
        in-memory LRU (memory -> disk lookup, write-through puts).
        Cache keys are content-fingerprint tuples, so entries are valid
        across processes and restarts."""
        self._store = store

    # -- backend resolution --------------------------------------------

    def resolve_backend(
        self,
        backend: str | None,
        target: Structure | None = None,
        source: Structure | None = None,
    ) -> str:
        """The concrete backend for one call: per-call override beats
        the session default, and ``auto`` routes on *both* sides — the
        query's cached decomposition width (tree-shaped sources go to
        the poly-time ``decomp`` DP) and the target's node count and
        edge density (``matrix`` vs ``bitset``)."""
        if backend is None:
            backend = self.default_backend
        elif backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown backend {backend!r}; expected {BACKEND_CHOICES}"
            )
        if backend == "auto":
            if target is None:
                return "bitset"
            width = None
            if (
                source is not None
                and len(source.nodes) <= _AUTO_WIDTH_SOURCE_LIMIT
            ):
                width = _decomp.query_width(source)
            return choose_auto_backend(
                len(target.nodes),
                len(target.binary_facts),
                matrix_backend_available(),
                width,
            )
        return backend

    # -- cache ----------------------------------------------------------

    def clear_cache(self) -> None:
        """Drop all *in-memory* cached answers and reset the counters.
        A durable store attached under the LRU is deliberately left
        alone — disk state outlives the session (use
        ``DurableStore.clear`` / ``repro cache clear`` for that)."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters and occupancy of the hom-cache."""
        return CacheInfo(
            self._hits,
            self._misses,
            len(self._cache),
            self.cache_maxsize,
            self.cache_enabled,
        )

    def _cache_get(self, key: tuple):
        try:
            value = self._cache[key]
        except KeyError:
            if self._store is not None:
                from .store import MISS as _STORE_MISS

                value = self._store.get("hom", key)
                if value is not _STORE_MISS:
                    # Disk hit: promote into the LRU without writing
                    # the entry straight back to disk.
                    self._cache_put(key, value, write_through=False)
                    self._hits += 1
                    return value
            self._misses += 1
            return _MISS
        self._cache.move_to_end(key)
        self._hits += 1
        return value

    def _cache_put(self, key: tuple, value, write_through: bool = True):
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_maxsize:
            self._cache.popitem(last=False)
        if write_through and self._store is not None:
            self._store.put("hom", key, value)


def _engine(session) -> HomEngine:
    """The :class:`HomEngine` of ``session`` (default session if None)."""
    if session is not None:
        return session.hom
    from ..session import default_session

    return default_session().hom


def _freeze_nodes(nodes: Iterable[Node] | None) -> tuple | None:
    if nodes is None:
        return None
    return tuple(sorted(nodes, key=_canonical_key))


def _cache_key(
    backend: str,
    source: Structure,
    target: Structure,
    seed: Seed | None,
    restrict_image: frozenset[Node] | None,
    node_domains: NodeDomains | None,
    forbid: frozenset[Node] | None,
) -> tuple:
    frozen_seed = (
        None
        if not seed
        else tuple(sorted(seed.items(), key=lambda kv: _canonical_key(kv[0])))
    )
    frozen_domains = (
        None
        if not node_domains
        else tuple(
            sorted(
                (
                    (node, _freeze_nodes(allowed))
                    for node, allowed in node_domains.items()
                ),
                key=lambda kv: _canonical_key(kv[0]),
            )
        )
    )
    # The backend is part of the key: a cross-validation call with an
    # explicit backend= must never be answered from the other backend's
    # cached result (naive is documented as the correctness oracle).
    return (
        backend,
        source.fingerprint,
        target.fingerprint,
        frozen_seed,
        _freeze_nodes(restrict_image),
        frozen_domains,
        _freeze_nodes(forbid),
    )


# ----------------------------------------------------------------------
# The naive backend (correctness oracle)
# ----------------------------------------------------------------------


def _naive_initial_domains(
    source: Structure,
    target: Structure,
    seed: Seed,
    restrict_image: frozenset[Node] | None,
) -> dict[Node, list[Node]] | None:
    """Label/degree-filtered candidate sets; ``None`` if some domain is
    empty.  The per-candidate predicate sets come from the target's
    lazily-built index, so they are computed once per target structure
    rather than once per (source-node, candidate) pair."""
    domains: dict[Node, list[Node]] = {}
    target_nodes = target.nodes if restrict_image is None else restrict_image
    for node in source.nodes:
        if node in seed:
            image = seed[node]
            if image not in target.nodes:
                return None
            if not source.labels(node) <= target.labels(image):
                return None
            domains[node] = [image]
            continue
        required = source.labels(node)
        out_preds = source.out_pred_set(node)
        in_preds = source.in_pred_set(node)
        candidates = []
        for cand in target_nodes:
            if not required <= target.labels(cand):
                continue
            if not out_preds <= target.out_pred_set(cand):
                continue
            if not in_preds <= target.in_pred_set(cand):
                continue
            candidates.append(cand)
        if not candidates:
            return None
        domains[node] = candidates
    return domains


def _naive_consistent(
    source: Structure,
    target: Structure,
    assignment: dict[Node, Node],
    node: Node,
    image: Node,
) -> bool:
    """Check all source edges between ``node`` and assigned nodes."""
    for fact in source.out_edges(node):
        other = assignment.get(fact.dst)
        if fact.dst == node:
            other = image
        if other is None:
            continue
        if not any(
            e.pred == fact.pred and e.dst == other
            for e in target.out_edges(image)
        ):
            return False
    for fact in source.in_edges(node):
        other = assignment.get(fact.src)
        if fact.src == node:
            other = image
        if other is None:
            continue
        if not any(
            e.pred == fact.pred and e.src == other
            for e in target.in_edges(image)
        ):
            return False
    return True


def _naive_order_nodes(
    source: Structure, domains: dict[Node, list[Node]], seed: Seed
) -> list[Node]:
    """Connectivity-aware static order: seeded nodes first, then BFS by
    ascending domain size, component by component."""
    order: list[Node] = [n for n in source.nodes if n in seed]
    placed = set(order)
    remaining = set(source.nodes) - placed

    def neighbours(node: Node) -> Iterator[Node]:
        yield from source.successors(node)
        yield from source.predecessors(node)

    while remaining:
        frontier = {
            n for n in remaining if any(m in placed for m in neighbours(n))
        }
        if not frontier:
            frontier = remaining
        best = min(frontier, key=lambda n: (len(domains[n]), str(n)))
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


def _iter_naive(
    source: Structure,
    target: Structure,
    seed: Seed,
    restrict_image: frozenset[Node] | None,
    node_filter: Callable[[Node, Node], bool] | None,
    node_domains: NodeDomains | None,
    forbid: frozenset[Node] | None,
    budget: Budget | None = None,
) -> Iterator[dict[Node, Node]]:
    domains = _naive_initial_domains(source, target, seed, restrict_image)
    if domains is None:
        return
    if node_filter is not None or node_domains or forbid:
        for node, cands in domains.items():
            allowed = node_domains.get(node) if node_domains else None
            filtered = [
                v
                for v in cands
                if (forbid is None or v not in forbid)
                and (allowed is None or v in allowed)
                and (node_filter is None or node_filter(node, v))
            ]
            if not filtered:
                return
            domains[node] = filtered
    order = _naive_order_nodes(source, domains, seed)
    assignment: dict[Node, Node] = {}

    def backtrack(index: int) -> Iterator[dict[Node, Node]]:
        if index == len(order):
            yield dict(assignment)
            return
        node = order[index]
        for image in domains[node]:
            if budget is not None:
                budget.charge()
            if _naive_consistent(source, target, assignment, node, image):
                assignment[node] = image
                yield from backtrack(index + 1)
                del assignment[node]

    yield from backtrack(0)


# ----------------------------------------------------------------------
# The bitset backend
# ----------------------------------------------------------------------


class _SourcePlan:
    """Compiled source-side search plan, memoized per structure.

    Everything derivable from the source alone — node interning, label
    and incident-predicate requirements, adjacency lists over source
    indices — is computed once and stashed on the structure, so repeated
    searches from the same source (the dominant traffic shape: one CQ or
    cactus probed against many targets) skip all of it.
    """

    __slots__ = ("nodes", "n", "labels", "out_preds", "in_preds",
                 "out_adj", "in_adj", "edges")

    def __init__(self, source: Structure) -> None:
        self.nodes = source.node_order
        self.n = len(self.nodes)
        index = source.node_index
        self.labels = [tuple(source.labels(x)) for x in self.nodes]
        self.out_preds = [tuple(source.out_pred_set(x)) for x in self.nodes]
        self.in_preds = [tuple(source.in_pred_set(x)) for x in self.nodes]
        self.out_adj: list[list[tuple[str, int]]] = [[] for _ in self.nodes]
        self.in_adj: list[list[tuple[str, int]]] = [[] for _ in self.nodes]
        self.edges: list[tuple[int, str, int]] = []
        for fact in source.binary_facts:
            s, d = index[fact.src], index[fact.dst]
            self.out_adj[s].append((fact.pred, d))
            self.in_adj[d].append((fact.pred, s))
            self.edges.append((s, fact.pred, d))

    @classmethod
    def extended(
        cls,
        base: "_SourcePlan",
        source: Structure,
        touched: frozenset[Node],
        added_binary: tuple,
    ) -> "_SourcePlan":
        """Derive the plan of an ``Structure.extended`` result from its
        base's plan: node ids are a superset (extension appends to the
        interning order), so only the delta's rows are recomputed."""
        plan = cls.__new__(cls)
        plan.nodes = source.node_order
        plan.n = len(plan.nodes)
        index = source.node_index
        pad = plan.n - base.n
        plan.labels = base.labels + [()] * pad
        plan.out_preds = base.out_preds + [()] * pad
        plan.in_preds = base.in_preds + [()] * pad
        for x in touched:
            i = index[x]
            plan.labels[i] = tuple(source.labels(x))
            plan.out_preds[i] = tuple(source.out_pred_set(x))
            plan.in_preds[i] = tuple(source.in_pred_set(x))
        out_adj = base.out_adj + [[] for _ in range(pad)]
        in_adj = base.in_adj + [[] for _ in range(pad)]
        edges = base.edges + []
        fresh_out = set(range(base.n, plan.n))
        fresh_in = set(fresh_out)
        for fact in added_binary:
            s, d = index[fact.src], index[fact.dst]
            if s not in fresh_out:
                out_adj[s] = list(out_adj[s])
                fresh_out.add(s)
            if d not in fresh_in:
                in_adj[d] = list(in_adj[d])
                fresh_in.add(d)
            out_adj[s].append((fact.pred, d))
            in_adj[d].append((fact.pred, s))
            edges.append((s, fact.pred, d))
        plan.out_adj = out_adj
        plan.in_adj = in_adj
        plan.edges = edges
        return plan


def _source_plan(source: Structure) -> _SourcePlan:
    plan = source._engine_plan
    if plan is None:
        hint = source._extend_hint
        if hint is not None:
            base, touched, added_binary = hint
            base_plan = base._engine_plan
            # Reusable whenever the base compiled a plan: the base plan
            # forced the base's order to exist, and order inheritance
            # (eager, or lazily resolved by the node_order touch below)
            # guarantees the id prefix the derivation relies on.
            if base_plan is not None:
                source.node_order  # resolve a pending lazy inheritance
                plan = _SourcePlan.extended(
                    base_plan, source, touched, added_binary
                )
        if plan is None:
            plan = _SourcePlan(source)
        source._engine_plan = plan
        # The hint is consumed either way; dropping it releases the
        # reference chain to the base structure.
        source._extend_hint = None
    return plan


def _iter_bitset(
    source: Structure,
    target: Structure,
    seed: Seed,
    restrict_image: frozenset[Node] | None,
    node_filter: Callable[[Node, Node], bool] | None,
    node_domains: NodeDomains | None,
    forbid: frozenset[Node] | None,
    budget: Budget | None = None,
) -> Iterator[dict[Node, Node]]:
    plan = _source_plan(source)
    n = plan.n
    if n == 0:
        yield {}
        return
    idx = target.bitset_index
    target_names = idx.nodes
    if not target_names:
        return
    full = idx.full_mask
    restrict_mask = (
        full if restrict_image is None else idx.mask_of(restrict_image)
    )
    veto_mask = full
    if forbid:
        veto_mask &= full & ~idx.mask_of(forbid)

    label_nodes = idx.label_nodes
    has_out = idx.has_out
    has_in = idx.has_in
    src_nodes = plan.nodes

    # --- initial domains: chained mask intersections -------------------
    domains: list[int] = [0] * n
    for i in range(n):
        x = src_nodes[i]
        if x in seed:
            image = seed[x]
            t = idx.index.get(image)
            if t is None:
                return
            if not source.labels(x) <= target.labels(image):
                return
            dom = 1 << t
        else:
            dom = restrict_mask
            for label in plan.labels[i]:
                dom &= label_nodes.get(label, 0)
            for p in plan.out_preds[i]:
                dom &= has_out.get(p, 0)
            for p in plan.in_preds[i]:
                dom &= has_in.get(p, 0)
        dom &= veto_mask
        if node_domains is not None and x in node_domains:
            dom &= idx.mask_of(node_domains[x])
        if node_filter is not None and dom:
            filtered = 0
            d = dom
            while d:
                bit = d & -d
                d ^= bit
                if node_filter(x, target_names[bit.bit_length() - 1]):
                    filtered |= bit
            dom = filtered
        if not dom:
            return
        domains[i] = dom

    succ = idx.succ
    pred = idx.pred
    edges = plan.edges

    # --- AC-3 pass over the source edges ------------------------------
    if edges:
        watchers: dict[int, list[int]] = {}
        for ei, (xi, _, yi) in enumerate(edges):
            watchers.setdefault(xi, []).append(ei)
            if yi != xi:
                watchers.setdefault(yi, []).append(ei)
        queue = deque(range(len(edges)))
        queued = set(queue)
        while queue:
            if budget is not None:
                budget.charge()  # one AC-3 edge revision
            ei = queue.popleft()
            queued.discard(ei)
            xi, p, yi = edges[ei]
            smask = succ.get(p)
            if smask is None:
                return  # seeded node with a predicate absent from target
            changed: list[int] = []
            if xi == yi:
                dom = domains[xi]
                new = 0
                d = dom
                while d:
                    bit = d & -d
                    d ^= bit
                    v = bit.bit_length() - 1
                    if (smask[v] >> v) & 1:
                        new |= bit
                if not new:
                    return
                if new != dom:
                    domains[xi] = new
                    changed.append(xi)
            else:
                pmask = pred[p]
                dx, dy = domains[xi], domains[yi]
                newx = 0
                d = dx
                while d:
                    bit = d & -d
                    d ^= bit
                    if smask[bit.bit_length() - 1] & dy:
                        newx |= bit
                if not newx:
                    return
                newy = 0
                d = dy
                while d:
                    bit = d & -d
                    d ^= bit
                    if pmask[bit.bit_length() - 1] & newx:
                        newy |= bit
                if not newy:
                    return
                if newx != dx:
                    domains[xi] = newx
                    changed.append(xi)
                if newy != dy:
                    domains[yi] = newy
                    changed.append(yi)
            # Re-enqueue every edge watching a changed node, including
            # the edge just processed: newx was filtered against the old
            # dy, so a shrink of dy can leave newx with unsupported
            # values that only another revision of this edge removes.
            for z in changed:
                for ej in watchers.get(z, ()):
                    if ej not in queued:
                        queue.append(ej)
                        queued.add(ej)

    # --- backtracking with MRV and forward checking -------------------
    out_adj = plan.out_adj
    in_adj = plan.in_adj
    assignment: list[int] = [-1] * n
    all_mask = (1 << n) - 1

    def backtrack(
        domains: list[int], remaining: int
    ) -> Iterator[dict[Node, Node]]:
        if not remaining:
            yield {
                src_nodes[i]: target_names[assignment[i]] for i in range(n)
            }
            return
        # Most-constrained variable: smallest domain, lowest index tie-break.
        best = -1
        best_count = -1
        m = remaining
        while m:
            bit = m & -m
            m ^= bit
            i = bit.bit_length() - 1
            count = domains[i].bit_count()
            if best < 0 or count < best_count:
                best, best_count = i, count
                if count == 1:
                    break
        xi = best
        rest = remaining & ~(1 << xi)
        dom = domains[xi]
        while dom:
            if budget is not None:
                budget.charge()  # one backtracking candidate
            bit = dom & -dom
            dom ^= bit
            v = bit.bit_length() - 1
            new = domains[:]
            ok = True
            for p, yi in out_adj[xi]:
                if not (rest >> yi) & 1:
                    continue  # assigned (consistent by construction) or xi
                nd = new[yi] & succ[p][v]
                if not nd:
                    ok = False
                    break
                new[yi] = nd
            if ok:
                for p, yi in in_adj[xi]:
                    if not (rest >> yi) & 1:
                        continue
                    nd = new[yi] & pred[p][v]
                    if not nd:
                        ok = False
                        break
                    new[yi] = nd
            if ok:
                assignment[xi] = v
                yield from backtrack(new, rest)
                assignment[xi] = -1

    yield from backtrack(domains, all_mask)


# ----------------------------------------------------------------------
# The matrix backend (boolean matrix semiring, numpy)
# ----------------------------------------------------------------------


def _iter_matrix(
    source: Structure,
    target: Structure,
    seed: Seed,
    restrict_image: frozenset[Node] | None,
    node_filter: Callable[[Node, Node], bool] | None,
    node_domains: NodeDomains | None,
    forbid: frozenset[Node] | None,
    budget: Budget | None = None,
) -> Iterator[dict[Node, Node]]:
    np = numpy_or_none()
    if np is None:
        # Pure-python int-bitset fallback: numpy stays an optional
        # extra, and backend="matrix" keeps yielding identical answers.
        yield from _iter_bitset(
            source, target, seed, restrict_image,
            node_filter, node_domains, forbid, budget,
        )
        return
    plan = _source_plan(source)
    n = plan.n
    if n == 0:
        yield {}
        return
    midx = target.matrix_index
    target_names = midx.nodes
    m = midx.n
    if m == 0:
        return
    restrict_vec = (
        midx.full if restrict_image is None else midx.mask_of(restrict_image)
    )
    veto = ~midx.mask_of(forbid) if forbid else None

    label_nodes = midx.label_nodes
    has_out = midx.has_out
    has_in = midx.has_in
    src_nodes = plan.nodes
    index = midx.index

    # --- initial domains: chained vector intersections -----------------
    # A list of per-variable boolean vectors (not one 2D block): the
    # backtracker saves and restores rows by rebinding list slots, which
    # keeps the displaced row objects intact.
    domains: list = [None] * n
    for i in range(n):
        x = src_nodes[i]
        if x in seed:
            image = seed[x]
            t = index.get(image)
            if t is None:
                return
            if not source.labels(x) <= target.labels(image):
                return
            dom = np.zeros(m, dtype=bool)
            dom[t] = True
        else:
            dom = restrict_vec.copy()
            for label in plan.labels[i]:
                vec = label_nodes.get(label)
                if vec is None:
                    return
                dom &= vec
            for p in plan.out_preds[i]:
                vec = has_out.get(p)
                if vec is None:
                    return
                dom &= vec
            for p in plan.in_preds[i]:
                vec = has_in.get(p)
                if vec is None:
                    return
                dom &= vec
        if veto is not None:
            dom &= veto
        if node_domains is not None and x in node_domains:
            dom &= midx.mask_of(node_domains[x])
        if node_filter is not None:
            for v in np.flatnonzero(dom):
                if not node_filter(x, target_names[v]):
                    dom[v] = False
        if not dom.any():
            return
        domains[i] = dom

    adj = midx.adj
    adj_t = midx.adj_t
    edges = plan.edges

    # --- AC-3 pass: support via boolean-semiring matvec ----------------
    if edges:
        watchers: dict[int, list[int]] = {}
        for ei, (xi, _, yi) in enumerate(edges):
            watchers.setdefault(xi, []).append(ei)
            if yi != xi:
                watchers.setdefault(yi, []).append(ei)
        queue = deque(range(len(edges)))
        queued = set(queue)
        while queue:
            if budget is not None:
                budget.charge()  # one AC-3 edge revision
            ei = queue.popleft()
            queued.discard(ei)
            xi, p, yi = edges[ei]
            mat = adj.get(p)
            if mat is None:
                return  # seeded node with a predicate absent from target
            changed: list[int] = []
            if xi == yi:
                new = domains[xi] & mat.diagonal()
                if not new.any():
                    return
                if (new != domains[xi]).any():
                    domains[xi] = new
                    changed.append(xi)
            else:
                dx, dy = domains[xi], domains[yi]
                # v survives in dx iff some w in dy has an edge v -p-> w:
                # exactly the boolean matrix-semiring product adj[p] @ dy.
                newx = dx & (mat @ dy)
                if not newx.any():
                    return
                newy = dy & (adj_t[p] @ newx)
                if not newy.any():
                    return
                if (newx != dx).any():
                    domains[xi] = newx
                    changed.append(xi)
                if (newy != dy).any():
                    domains[yi] = newy
                    changed.append(yi)
            # Same re-enqueue discipline as the bitset backend: a shrink
            # of dy can leave newx with values only another revision of
            # this very edge removes.
            for z in changed:
                for ej in watchers.get(z, ()):
                    if ej not in queued:
                        queue.append(ej)
                        queued.add(ej)

    # --- backtracking with MRV and forward checking -------------------
    out_adj = plan.out_adj
    in_adj = plan.in_adj
    assignment: list[int] = [-1] * n

    def backtrack(remaining: tuple[int, ...]):
        if not remaining:
            yield {
                src_nodes[i]: target_names[assignment[i]] for i in range(n)
            }
            return
        # Most-constrained variable: smallest domain, lowest index tie-break.
        best = -1
        best_count = -1
        for i in remaining:
            count = int(domains[i].sum())
            if best < 0 or count < best_count:
                best, best_count = i, count
                if count == 1:
                    break
        xi = best
        rest = tuple(i for i in remaining if i != xi)
        rest_set = set(rest)
        for v in np.flatnonzero(domains[xi]):
            if budget is not None:
                budget.charge()  # one backtracking candidate
            v = int(v)
            # Forward checking replaces only the neighbour rows it
            # tightens; the displaced row objects are kept and restored
            # on backtrack (restoring in reverse handles a neighbour
            # reached through several edges), so the whole n x m matrix
            # is never copied per candidate.
            saved: list = []  # (yi, displaced row) in tighten order
            ok = True
            for p, yi in out_adj[xi]:
                if yi not in rest_set:
                    continue  # assigned (consistent by construction) or xi
                row = domains[yi]
                nd = row & adj[p][v]
                if not nd.any():
                    ok = False
                    break
                saved.append((yi, row))
                domains[yi] = nd
            if ok:
                for p, yi in in_adj[xi]:
                    if yi not in rest_set:
                        continue
                    row = domains[yi]
                    nd = row & adj_t[p][v]
                    if not nd.any():
                        ok = False
                        break
                    saved.append((yi, row))
                    domains[yi] = nd
            if ok:
                assignment[xi] = v
                yield from backtrack(rest)
                assignment[xi] = -1
            for yi, row in reversed(saved):
                domains[yi] = row

    yield from backtrack(tuple(range(n)))


_BACKEND_IMPLS = {
    "naive": _iter_naive,
    "bitset": _iter_bitset,
    "matrix": _iter_matrix,
    "decomp": _decomp._iter_decomp,
}


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def iter_homomorphisms(
    source: Structure,
    target: Structure,
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    backend: str | None = None,
    session=None,
    budget: Budget | None = None,
) -> Iterator[dict[Node, Node]]:
    """Yield all homomorphisms from ``source`` to ``target``.

    ``seed`` fixes images for some source nodes.  ``restrict_image``
    limits candidate images of non-seeded nodes.  ``node_domains`` maps
    individual source nodes to their allowed image sets and ``forbid``
    excludes target nodes globally (both are cache-friendly, declarative
    alternatives to ``node_filter``).  ``node_filter(x, v)`` may veto
    mapping source node ``x`` to target node ``v``.  ``backend``
    overrides the session default (``naive``, ``bitset``, ``matrix`` or
    ``auto``); all backends yield exactly the same set of
    homomorphisms.  ``session`` selects the engine state (default
    session when omitted).  ``budget`` is the cooperative resource
    meter the search charges (resolved from the session when omitted:
    the active governed-scope budget, else a transient per-call one;
    ``None`` for ungoverned configs); an exhausted budget raises
    :class:`~repro.core.errors.ResourceExhausted` out of the iteration.
    """
    impl = _BACKEND_IMPLS[
        _engine(session).resolve_backend(backend, target, source)
    ]
    if budget is None:
        budget = call_budget(session)
    yield from impl(
        source,
        target,
        dict(seed or {}),
        restrict_image,
        node_filter,
        node_domains,
        forbid,
        budget,
    )


def find_homomorphism(
    source: Structure,
    target: Structure,
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    backend: str | None = None,
    use_cache: bool | None = None,
    session=None,
    budget: Budget | None = None,
) -> dict[Node, Node] | None:
    """The first homomorphism found, or ``None`` (LRU-cached).

    Answers are cached across structurally-equal source/target pairs
    unless a ``node_filter`` callable is given or ``use_cache=False``.
    Cache hits never touch the ``budget``; a miss charges the search
    to it (resolved from the session when omitted).
    """
    engine = _engine(session)
    cacheable = (
        node_filter is None
        and use_cache is not False
        and engine.cache_enabled
    )
    resolved = engine.resolve_backend(backend, target, source)
    if cacheable:
        key = _cache_key(
            resolved,
            source,
            target,
            seed,
            restrict_image,
            node_domains,
            forbid,
        )
        hit = engine._cache_get(key)
        if hit is not _MISS:
            return None if hit is None else dict(hit)
    hom = next(
        iter_homomorphisms(
            source,
            target,
            seed,
            restrict_image,
            node_filter,
            node_domains=node_domains,
            forbid=forbid,
            backend=resolved,
            session=session,
            budget=budget,
        ),
        None,
    )
    if cacheable:
        engine._cache_put(key, None if hom is None else tuple(hom.items()))
    return hom


def _count_homomorphisms(
    source: Structure,
    target: Structure,
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    backend: str | None = None,
    use_cache: bool | None = None,
    session=None,
    budget: Budget | None = None,
) -> int:
    """The number of homomorphisms from ``source`` to ``target`` —
    the exact (arbitrary-precision python int) COUNT kernel behind
    :func:`semiring_evaluate` and ``Session.count_homomorphisms``.

    Enumeration sizes are LRU-cached alongside the find/has answers
    (under a distinct key tag, so a cached witness never masquerades as
    a count), and a counting pass seeds the :func:`find_homomorphism`
    entry for the same arguments with its first witness — counting then
    asking for a witness costs one search, not two.  ``node_filter``
    callables bypass the cache, as everywhere else.
    """
    engine = _engine(session)
    cacheable = (
        node_filter is None
        and use_cache is not False
        and engine.cache_enabled
    )
    resolved = engine.resolve_backend(backend, target, source)
    if cacheable:
        key = ("count",) + _cache_key(
            resolved, source, target, seed, restrict_image,
            node_domains, forbid,
        )
        hit = engine._cache_get(key)
        if hit is not _MISS:
            return hit
    if resolved == "decomp":
        # Bag-product counting: the DP multiplies per-bag extension
        # counts in one bottom-up pass instead of enumerating the hom
        # set (which the other backends must, and which can be
        # exponentially large even for tree queries).
        if budget is None:
            budget = call_budget(session)
        count, first = _decomp.count_decomp(
            source, target, dict(seed or {}), restrict_image,
            node_filter, node_domains, forbid, budget,
        )
    else:
        first = None
        count = 0
        for hom in iter_homomorphisms(
            source,
            target,
            seed,
            restrict_image,
            node_filter,
            node_domains=node_domains,
            forbid=forbid,
            backend=resolved,
            session=session,
            budget=budget,
        ):
            if first is None:
                first = hom
            count += 1
    if cacheable:
        engine._cache_put(key, count)
        find_key = _cache_key(
            resolved, source, target, seed, restrict_image,
            node_domains, forbid,
        )
        engine._cache_put(
            find_key, None if first is None else tuple(first.items())
        )
    return count


# ----------------------------------------------------------------------
# Semiring-generic evaluation
# ----------------------------------------------------------------------


def _nfold_sum(sr: Semiring, n: int):
    """``n``-fold ``⊕`` of ``one`` by doubling: the semiring image of a
    plain hom count (exact in O(log n) ``plus`` calls)."""
    if n <= 0:
        return sr.zero
    result = None
    term = sr.one
    while n:
        if n & 1:
            result = term if result is None else sr.plus(result, term)
        n >>= 1
        if n:
            term = sr.plus(term, term)
    return result


def _matrix_forest_value(
    source: Structure,
    target: Structure,
    sr: Semiring,
    weights,
    seed: Seed,
    restrict_image,
    node_domains,
    forbid,
    budget,
):
    """Forest-query semiring DP as dense matrix-vector products.

    The semiring generalisation of the ``matrix`` backend's boolean
    matvec: per query variable a length-``n`` value vector over the
    target, per query edge one ``M @ vec`` (plus-times carriers:
    bool/count/prob) or one ``(M + vec).min/max(axis=1)`` tropical
    reduction (minplus/maxplus), bottom-up over the forest.  Domains
    are pre-filtered by the decomp bitset semijoin pass, so the dense
    arithmetic only aggregates values — it never has to search.
    Callers gate on ``numpy``, a forest-shaped plan (width <= 1), a
    dense dtype and ``node_filter is None``.
    """
    np = numpy_or_none()
    plan = _decomp.decomp_plan(source)
    if plan.n == 0:
        return sr.one
    prepared = _decomp._mask_domains(
        plan, target, seed, restrict_image, None, node_domains, forbid
    )
    if prepared is None:
        return sr.zero
    domains, bidx = prepared
    if not _decomp._forest_filter(plan, bidx, domains, budget):
        return sr.zero
    midx = target.matrix_index
    n = midx.n
    additive = sr.name in ("minplus", "maxplus")
    # COUNT rides int64 here (explicit matrix routing only; the default
    # COUNT path is the exact python-int decomp/enumeration kernel).
    dtype = np.int64 if sr.dtype == "int" else np.float64
    names = bidx.nodes
    # bit position (bitset interning order) -> matrix row/column
    pos = [midx.index[name] for name in names]

    def dom_vec(mask: int):
        v = np.zeros(n, dtype=bool)
        while mask:
            b = mask & -mask
            mask ^= b
            v[pos[b.bit_length() - 1]] = True
        return v

    def edge_matrix(p: str, child_is_src: bool):
        """``M[parent, child] = weight of the oriented atom's fact``
        (``zero`` — 0 or ±inf — where no such fact exists)."""
        base = midx.adj_t[p] if child_is_src else midx.adj[p]
        if additive:
            mat = np.where(base, 0.0, sr.zero)
        else:
            mat = base.astype(dtype)
        if weights:
            for fact, val in weights.items():
                if not isinstance(fact, BinaryFact) or fact.pred != p:
                    continue
                i = midx.index.get(fact.src)
                j = midx.index.get(fact.dst)
                if i is None or j is None or not midx.adj[p][i, j]:
                    continue
                if child_is_src:
                    mat[j, i] = val
                else:
                    mat[i, j] = val
        return mat

    def unary_vec(var: int, domvec):
        if additive:
            u = np.where(domvec, 0.0, sr.zero)
        else:
            u = domvec.astype(dtype)
        if weights:
            labels = plan.labels[var]
            loops = plan.self_loops[var]
            for fact, val in weights.items():
                if isinstance(fact, UnaryFact):
                    if fact.label not in labels:
                        continue
                    j = midx.index.get(fact.node)
                elif fact.src == fact.dst and fact.pred in loops:
                    j = midx.index.get(fact.src)
                else:
                    continue
                if j is None or not domvec[j]:
                    continue
                if additive:
                    u[j] += val
                else:
                    u[j] *= val
        return u

    vals: list = [None] * plan.n
    for var in reversed(plan.forest_order):
        domvec = dom_vec(domains[var])
        if budget is not None:
            budget.charge(int(domvec.sum()) or 1)
        u = unary_vec(var, domvec)
        for c in plan.forest_children[var]:
            mat = None
            for p, child_is_src in plan.forest_atoms[c]:
                m = edge_matrix(p, child_is_src)
                if mat is None:
                    mat = m
                elif additive:
                    mat = mat + m
                else:
                    mat = mat * m
            shifted = mat + vals[c][None, :] if additive else mat @ vals[c]
            if additive:
                contrib = (
                    shifted.min(axis=1)
                    if sr.name == "minplus"
                    else shifted.max(axis=1)
                )
                u = u + contrib
            else:
                u = u * shifted
        vals[var] = u
    terms = []
    for var in plan.forest_order:
        if plan.forest_parent[var] < 0:
            v = vals[var]
            if additive:
                terms.append(
                    float(v.min() if sr.name == "minplus" else v.max())
                )
            else:
                terms.append(v.sum())
    if additive:
        return sum(terms)  # tropical ⊗ is +
    result = terms[0]
    for t in terms[1:]:
        result = result * t
    if sr.dtype == "bool":
        return bool(result != 0)
    if sr.dtype == "int":
        return int(result)
    return float(result)


def semiring_evaluate(
    source: Structure,
    target: Structure,
    semiring: str | Semiring = "bool",
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    weights: Mapping | None = None,
    backend: str | None = None,
    use_cache: bool | None = None,
    session=None,
    budget: Budget | None = None,
) -> Evaluation:
    """``⊕_h ⊗_atoms w(h(atom))`` over all homomorphisms, as a typed
    :class:`~repro.core.semiring.Evaluation`.

    The engine-level kernel behind ``Session.evaluate``: resolves the
    semiring (name or instance) and the backend, then routes —

    * unweighted idempotent semirings (``bool``, bare ``minplus``/
      ``maxplus``) ride the cached :func:`find_homomorphism` path and
      carry the witness;
    * unweighted ``count`` (and any non-idempotent carrier) rides the
      exact :func:`_count_homomorphisms` kernel, mapped into the
      carrier by logarithmic ``⊕``-doubling;
    * weighted ``decomp`` runs the bag-value DP
      (:func:`repro.core.decomp.semiring_decomp`);
    * weighted ``matrix`` on a forest-shaped query with a dense dtype
      runs :func:`_matrix_forest_value` (semiring matvecs);
    * everything else — ``naive``/``bitset``, ``why``'s object carrier,
      ``node_filter`` callables — folds the weighted enumeration
      oracle, tracking an arg-best witness for selective semirings.

    Values are LRU-cached under ``("semiring", name, frozen-weights)``
    tagged keys (wire-encoded, so cached ``why`` polynomials stay
    canonical); unhashable weight values simply bypass the cache.
    This is an *inner* surface: a tripped budget raises
    :class:`~repro.core.errors.ResourceExhausted` — ``Session.evaluate``
    is the governed outermost wrapper that converts it to an
    ``Evaluation`` with ``reason`` set.
    """
    sr = resolve_semiring(semiring)
    engine = _engine(session)
    resolved = engine.resolve_backend(backend, target, source)
    weighted = weights is not None or sr.annotate_fact is not None
    if not weighted:
        # Every hom contributes ``one``: the value is determined by
        # existence (idempotent ⊕) or the exact count (general ⊕).
        if sr.is_idempotent:
            hom = find_homomorphism(
                source, target, seed, restrict_image, node_filter,
                node_domains=node_domains, forbid=forbid, backend=resolved,
                use_cache=use_cache, session=session, budget=budget,
            )
            value = sr.one if hom is not None else sr.zero
            return Evaluation(value, sr.name, resolved, witness=hom)
        count = _count_homomorphisms(
            source, target, seed, restrict_image, node_filter,
            node_domains=node_domains, forbid=forbid, backend=resolved,
            use_cache=use_cache, session=session, budget=budget,
        )
        value = count if sr.name == "count" else _nfold_sum(sr, count)
        return Evaluation(value, sr.name, resolved)
    frozen = freeze_weights(weights) if weights is not None else ()
    cacheable = (
        node_filter is None
        and use_cache is not False
        and engine.cache_enabled
        and (weights is None or frozen is not None)
    )
    if cacheable:
        key = ("semiring", sr.name, frozen) + _cache_key(
            resolved, source, target, seed, restrict_image,
            node_domains, forbid,
        )
        hit = engine._cache_get(key)
        if hit is not _MISS:
            return Evaluation(sr.decode(hit), sr.name, resolved)
    if budget is None:
        budget = call_budget(session)
    witness = None
    if resolved == "decomp":
        value = _decomp.semiring_decomp(
            source, target, sr, weights, dict(seed or {}), restrict_image,
            node_filter, node_domains, forbid, budget,
        )
    elif (
        resolved == "matrix"
        and node_filter is None
        and sr.dtype in ("bool", "int", "float")
        and numpy_or_none() is not None
        and _decomp.decomp_plan(source).forest_order is not None
    ):
        value = _matrix_forest_value(
            source, target, sr, weights, dict(seed or {}), restrict_image,
            node_domains, forbid, budget,
        )
    else:
        # Weighted enumeration: the oracle tier every dense path is
        # cross-validated against (and the only route for ``why``'s
        # object carrier or opaque node_filter callables).
        value = sr.zero
        for hom in iter_homomorphisms(
            source, target, seed, restrict_image, node_filter,
            node_domains=node_domains, forbid=forbid, backend=resolved,
            session=session, budget=budget,
        ):
            w = hom_weight(source, hom, sr, weights)
            if w == sr.zero:
                continue
            new = sr.plus(value, w)
            if witness is None or (sr.is_selective and new != value):
                witness = hom
            value = new
    if cacheable:
        engine._cache_put(key, sr.encode(value))
    return Evaluation(value, sr.name, resolved, witness=witness)


def has_homomorphism(
    source: Structure,
    target: Structure,
    seed: Seed | None = None,
    restrict_image: frozenset[Node] | None = None,
    node_filter: Callable[[Node, Node], bool] | None = None,
    *,
    node_domains: NodeDomains | None = None,
    forbid: frozenset[Node] | None = None,
    backend: str | None = None,
    use_cache: bool | None = None,
    session=None,
    budget: Budget | None = None,
) -> bool:
    """Does any homomorphism exist?  Shares the :func:`find_homomorphism`
    cache."""
    return (
        find_homomorphism(
            source,
            target,
            seed,
            restrict_image,
            node_filter,
            node_domains=node_domains,
            forbid=forbid,
            backend=backend,
            use_cache=use_cache,
            session=session,
            budget=budget,
        )
        is not None
    )


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


def is_homomorphism(
    source: Structure, target: Structure, mapping: Mapping[Node, Node]
) -> bool:
    """Verify that ``mapping`` is a homomorphism (total on source nodes)."""
    for node in source.nodes:
        if node not in mapping:
            return False
        if mapping[node] not in target.nodes:
            return False
        if not source.labels(node) <= target.labels(mapping[node]):
            return False
    for fact in source.binary_facts:
        src, dst = mapping[fact.src], mapping[fact.dst]
        if dst not in target.out_by_pred(src).get(fact.pred, frozenset()):
            return False
    return True


def is_core(structure: Structure) -> bool:
    """True iff every endomorphism of ``structure`` is surjective.

    Equivalently, there is no homomorphism into a proper substructure.
    Used for the minimality condition on CQs in Section 4 of the paper.

    A node ``n`` can only be dropped by a retraction if some *other* node
    dominates its label and incident-predicate profile (the image of
    ``n`` must carry all of ``n``'s labels and partake in all of its edge
    predicates), so nodes with a unique profile are skipped without a
    search.  The remaining checks run against ``structure`` itself with
    ``n``'s image forbidden, sharing one set of target indexes across
    all candidate nodes instead of rebuilding a substructure per node.
    """
    nodes = structure.nodes
    profiles = {
        node: (
            structure.labels(node),
            structure.out_pred_set(node),
            structure.in_pred_set(node),
        )
        for node in nodes
    }
    for node in nodes:
        labels, out_preds, in_preds = profiles[node]
        if not any(
            other != node
            and labels <= profiles[other][0]
            and out_preds <= profiles[other][1]
            and in_preds <= profiles[other][2]
            for other in nodes
        ):
            continue  # unique profile: no endomorphism can drop this node
        # A hom into structure \ {node} is exactly a self-hom whose image
        # avoids node (the induced substructure carries the same facts).
        if has_homomorphism(structure, structure, forbid=frozenset({node})):
            return False
    return True


# ----------------------------------------------------------------------
# Batch APIs
# ----------------------------------------------------------------------


def _source_seed_pairs(
    sources: Iterable[Structure | tuple[Structure, Seed | None]],
    seeds: Sequence[Seed | None] | None,
) -> Iterable[tuple[Structure, Seed | None]]:
    """Normalise the batch source/seed conventions to lazy pairs.

    Shared by :func:`covers_any` and the runtime's sharded counterpart,
    so the accepted forms (bare structures, ``(structure, seed)``
    pairs, a parallel ``seeds=`` sequence — never both) cannot drift
    apart.  Mismatched ``seeds`` lengths raise via the strict zip.
    """
    if seeds is not None:
        def paired() -> Iterable:
            for s, seed in zip(sources, seeds, strict=True):
                if isinstance(s, tuple):
                    raise ValueError(
                        "pass seeds either as (structure, seed) pairs or "
                        "as a parallel seeds= sequence, not both"
                    )
                yield s, seed

        return paired()
    return (s if isinstance(s, tuple) else (s, None) for s in sources)


def covers_any(
    target: Structure,
    sources: Iterable[Structure | tuple[Structure, Seed | None]],
    seeds: Sequence[Seed | None] | None = None,
    *,
    backend: str | None = None,
    use_cache: bool | None = None,
    session=None,
    budget: Budget | None = None,
) -> bool:
    """Does any of ``sources`` map homomorphically into ``target``?

    ``sources`` is an iterable of structures or ``(structure, seed)``
    pairs; alternatively pass a parallel ``seeds`` sequence.  The target
    indexes are built once and shared across the batch, sources are
    consumed lazily, and the scan stops at the first success — this is
    the inner loop of the Proposition 2 probe (does any shallow cactus
    cover this deep one?) and of UCQ evaluation.  One budget spans the
    whole scan.
    """
    if budget is None:
        budget = call_budget(session)
    for structure, seed in _source_seed_pairs(sources, seeds):
        if budget is not None:
            budget.checkpoint()
        if has_homomorphism(
            structure,
            target,
            seed=seed,
            backend=backend,
            use_cache=use_cache,
            session=session,
            budget=budget,
        ):
            return True
    return False


def evaluate_batch(
    query: Structure,
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    use_cache: bool | None = None,
    session=None,
    budget: Budget | None = None,
) -> list[bool]:
    """Evaluate one Boolean CQ over many data instances.

    The query-side indexes and domains are shared across the batch and
    each per-instance answer goes through the hom-cache, so repeated
    instances (common in completion lattices and probe universes) are
    answered once.  One budget spans the whole batch; exhaustion raises
    (use :func:`evaluate_batch_governed` to keep partial results).
    """
    if budget is None:
        budget = call_budget(session)
    return [
        has_homomorphism(
            query, data, backend=backend, use_cache=use_cache,
            session=session, budget=budget,
        )
        for data in instances
    ]


def evaluate_batch_governed(
    query: Structure,
    instances: Iterable[Structure],
    *,
    backend: str | None = None,
    use_cache: bool | None = None,
    session=None,
    budget: Budget | None = None,
) -> list[bool | str]:
    """:func:`evaluate_batch` that degrades instead of raising.

    Entries are plain booleans until the budget trips; from that point
    every remaining slot holds the exhaustion reason tag (the wire form
    of ``Answer.unknown`` — see
    :meth:`repro.core.errors.Answer.decode`), so a governed batch
    preserves every answer computed before the budget ran out.  With an
    ungoverned session this is exactly :func:`evaluate_batch`.
    """
    if budget is None:
        budget = call_budget(session)
    out: list[bool | str] = []
    reason: str | None = None
    for data in instances:
        if reason is None:
            try:
                if budget is not None:
                    budget.checkpoint()
                out.append(
                    has_homomorphism(
                        query, data, backend=backend, use_cache=use_cache,
                        session=session, budget=budget,
                    )
                )
                continue
            except ResourceExhausted as exc:
                reason = exc.reason
        out.append(reason)
    return out
