"""Cactuses: the Q-expansions of ``(Π_q, G)`` (Section 2 of the paper).

Starting from ``C_G = {q}``, the (bud) rule replaces a solitary atom
``T(y)`` in a cactus by a fresh copy of ``A(x), q-, T(y_1), .., T(y_n)``
with ``x`` renamed to ``y``.  The resulting set ``𝔎_q`` of cactuses
characterises certain answers (Proposition 1) and boundedness
(Proposition 2).

A cactus is represented by

* its materialised :class:`~repro.core.structure.Structure` (nodes are
  ``(path, variable)`` pairs, where ``path`` is the tuple of bud indices
  from the root to the segment, glued at buds),
* a skeleton: the ditree of segments with bud labels, and
* per-segment variable maps back into the 1-CQ.

Cactus *shapes* — the skeleton trees annotated with which solitary T
indices were budded — enumerate ``𝔎_q`` canonically (one cactus per
shape), so enumeration never produces duplicates.

Construction is *incremental*: a :class:`CactusFactory` (one per 1-CQ,
pooled per session in a :class:`CactusState`) interns one frozen copy
of every segment fact set
and variable map per skeleton path, memoises every cactus it has ever
materialised by shape, and builds a depth-``d`` cactus by extending the
cached depth-``d-1`` prefix with only the new generation of segments —
a copy-on-write :meth:`~repro.core.structure.Structure.extended` delta
(drop the budded ``T`` facts, union in the interned leaf segments) that
also transfers the parent's engine indexes and fingerprint.  Path-based
node naming makes this sound: a segment keeps the same nodes in every
cactus that contains it, so a prefix's structure is literally a
substructure of every extension.  The same delta derives ``C°``
(:meth:`Cactus.sigma_structure`) from the parent's ``C°``, and a
per-session intern table shares one structure object per (query
content, shape) *across* factory instances, so a fresh factory for a
content-equal query reuses every structure — and every built index —
an earlier factory materialised.  The pre-engine from-scratch builder
survives as :func:`build_cactus_from_scratch`, the correctness oracle
cross-validated in the tests and the baseline of
``scripts/bench_cactus.py``.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping

from .config import EngineConfig
from .cq import OneCQ
from .errors import CactusBudgetExceeded, call_budget
from .homengine import covers_any, find_homomorphism
from .structure import (
    A,
    BinaryFact,
    F,
    Node,
    Structure,
    T,
    UnaryFact,
    _canonical_key,
)


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Shape:
    """A cactus shape: which T indices are budded, with child shapes.

    ``children`` maps a budded index ``j`` (position in
    ``one_cq.solitary_ts``) to the shape grown at that bud.

    Hash, depth and bud tuple are computed once at construction: shapes
    are the keys of the factory's cactus cache, so they get hashed (and
    their depths read) far more often than they are built.
    """

    children: tuple[tuple[int, "Shape"], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.children))
        object.__setattr__(
            self, "_budded", tuple(j for j, _ in self.children)
        )
        object.__setattr__(
            self,
            "_depth",
            1 + max(s._depth for _, s in self.children)
            if self.children
            else 0,
        )
        # Lazily-memoised prune by one generation (see parent_shape).
        object.__setattr__(self, "_parent_shape", None)

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def leaf(cls) -> "Shape":
        return cls(())

    @classmethod
    def make(cls, children: Mapping[int, "Shape"]) -> "Shape":
        return cls(tuple(sorted(children.items())))

    @property
    def budded(self) -> tuple[int, ...]:
        return self._budded

    @property
    def depth(self) -> int:
        return self._depth

    def segment_count(self) -> int:
        return 1 + sum(shape.segment_count() for _, shape in self.children)

    def describe(self) -> str:
        if not self.children:
            return "*"
        inner = ", ".join(
            f"{j}:{shape.describe()}" for j, shape in self.children
        )
        return "{" + inner + "}"


def count_shapes(span: int, max_depth: int) -> int:
    """``|{shapes of depth <= max_depth}|`` — the tower-of-exponentials
    recurrence ``g(d) = (1 + g(d-1))**span``, computed without
    enumerating.  Callers use it to refuse workloads that would never
    finish (see :func:`repro.core.dsirup.evaluate_via_cactuses`)."""
    count = 1
    for _ in range(max_depth):
        count = (1 + count) ** span
    return count


def iter_shapes(
    span: int, max_depth: int, budget=None
) -> Iterator[Shape]:
    """All shapes of depth at most ``max_depth`` for a given span.

    The count grows as a tower in ``span`` (see :func:`count_shapes`);
    callers should keep ``max_depth`` small for span >= 2.  The
    recursion *materialises* each subshape universe before yielding
    anything from the level above, so for span >= 2 a deep enumeration
    spends unbounded time with nothing reaching the caller's loop —
    which is why the optional ``budget`` is charged here, per
    constructed shape inside every recursive level, and not only at
    the consuming loop.
    """
    if max_depth < 0:
        return
    if max_depth == 0 or span == 0:
        if budget is not None:
            budget.charge()
        yield Shape.leaf()
        return
    subshapes = list(iter_shapes(span, max_depth - 1, budget))
    indices = list(range(span))
    for r in range(span + 1):
        for budset in itertools.combinations(indices, r):
            for combo in itertools.product(subshapes, repeat=len(budset)):
                if budget is not None:
                    budget.charge()
                yield Shape.make(dict(zip(budset, combo)))


def full_shape(span: int, depth: int) -> Shape:
    """The shape budding every solitary T down to the given depth."""
    if depth == 0 or span == 0:
        return Shape.leaf()
    child = full_shape(span, depth - 1)
    return Shape.make({j: child for j in range(span)})


def chain_shape(indices: list[int]) -> Shape:
    """A single-branch shape budding ``indices[0]``, then ``indices[1]``.."""
    shape = Shape.leaf()
    for j in reversed(indices):
        shape = Shape.make({j: shape})
    return shape


# ----------------------------------------------------------------------
# Cactuses
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SegmentInfo:
    """Bookkeeping for one segment of a cactus."""

    seg_id: int
    parent: int | None
    bud_index: int | None  # index into one_cq.solitary_ts, None for root
    depth: int
    # CQ variable -> cactus node.  Factory-built cactuses share one
    # read-only mapping per skeleton path (a MappingProxyType), so the
    # table cannot be corrupted through one cactus's SegmentInfo.
    var_map: Mapping[Node, Node]
    budded: tuple[int, ...]
    path: tuple[int, ...] = ()  # bud indices from the root to this segment


class Cactus:
    """A materialised cactus ``C ∈ 𝔎_q`` with its skeleton.

    Cactuses coming out of a :class:`CactusFactory` are cached and
    shared between callers; treat them (and their ``segments`` tables)
    as immutable.
    """

    def __init__(
        self,
        one_cq: OneCQ,
        structure: Structure,
        segments,
        shape: Shape,
        sigma_delta: tuple | None = None,
        cover_delta: tuple | None = None,
    ) -> None:
        self.one_cq = one_cq
        self.structure = structure
        self.shape = shape
        self._sigma: Structure | None = None
        # Set by the incremental factory: (parent cactus, add_nodes,
        # add_unary, add_binary, removed_unary) — the same delta that
        # grew this cactus's structure from its depth-pruned parent,
        # letting sigma_structure() derive C° from the parent's C°.
        self._sigma_delta = sigma_delta
        # The same construction delta in durable form, consumed by the
        # boundedness probe's delta warm-start
        # (:class:`repro.core.decomp.ProbeCoverage`); None for depth-0
        # cactuses, intern hits and the from-scratch oracle.  Stored
        # raw as (parent structure, delta sets) and resolved to
        # (parent *fingerprint*, delta sets) on first access: probes
        # need fingerprints anyway, but eager hashing would tax pure
        # construction (the bench_cactus workload), and keying by
        # fingerprint releases the ancestor reference once resolved.
        self._cover_delta_raw = cover_delta
        self._cover_delta: tuple | None = None
        # ``segments`` is either the materialised table or a zero-arg
        # thunk producing it: the skeleton bookkeeping is pure metadata
        # that enumeration-heavy consumers (probes, rewritings) never
        # look at, so the factory defers building it.
        if callable(segments):
            self._segments = None
            self._segments_thunk = segments
        else:
            self._segments = segments
            self._segments_thunk = None

    @property
    def segments(self) -> dict[int, SegmentInfo]:
        if self._segments is None:
            self._segments = self._segments_thunk()
            self._segments_thunk = None
        return self._segments

    @property
    def cover_delta(self) -> tuple | None:
        """``(parent fingerprint, add_nodes, add_unary, add_binary,
        removed_unary)`` — the construction delta of this cactus, or
        ``None`` when it was not built by extension."""
        if self._cover_delta is None and self._cover_delta_raw is not None:
            base, *rest = self._cover_delta_raw
            self._cover_delta = (base.fingerprint, *rest)
            self._cover_delta_raw = None
        return self._cover_delta

    @property
    def depth(self) -> int:
        return self.shape.depth

    @property
    def root_focus(self) -> Node:
        """The unique solitary F node of the cactus (its root-focus r).

        Path naming makes this a constant: the root segment (path
        ``()``) maps the focus variable to ``((), focus)``.
        """
        return ((), self.one_cq.focus)

    def segment_focus(self, seg_id: int) -> Node:
        return self.segments[seg_id].var_map[self.one_cq.focus]

    def segment_nodes(self, seg_id: int) -> frozenset[Node]:
        return frozenset(self.segments[seg_id].var_map.values())

    def sigma_structure(self) -> Structure:
        """``C°``: the cactus with the root F label replaced by A.

        Memoised, and — for factory-built cactuses — derived from the
        *parent* cactus's ``C°`` by replaying the same
        :meth:`~repro.core.structure.Structure.extended` delta that
        grew this cactus from its depth-pruned parent (sound because
        the delta never touches the root focus's F/A labels: budded
        nodes are solitary Ts, never the solitary F).  The sigma family
        therefore shares index work generation to generation exactly
        like the cactus family itself, instead of one relabel per
        cactus.  Cactuses without a recorded delta (depth 0, the
        from-scratch oracle, intern hits) fall back to the relabel.
        """
        if self._sigma is None:
            delta = self._sigma_delta
            if delta is not None:
                base, add_nodes, add_unary, add_binary, removed = delta
                self._sigma = base.sigma_structure().extended(
                    add_nodes=add_nodes,
                    add_unary=add_unary,
                    add_binary=add_binary,
                    remove_unary=removed,
                )
                # Release the parent-chain reference: keeping it would
                # pin every ancestor cactus for this object's lifetime.
                self._sigma_delta = None
            else:
                self._sigma = self.structure.relabel_node(
                    self.root_focus, remove=[F], add=[A]
                )
        return self._sigma

    def skeleton_edges(self) -> list[tuple[int, int, int]]:
        """Skeleton as (parent, child, bud_index) triples."""
        return [
            (info.parent, seg_id, info.bud_index)
            for seg_id, info in self.segments.items()
            if info.parent is not None
        ]

    def leaf_segments(self) -> list[int]:
        parents = {info.parent for info in self.segments.values()}
        return [s for s in self.segments if s not in parents]

    def describe(self) -> str:
        return (
            f"cactus depth={self.depth} segments={len(self.segments)} "
            f"shape={self.shape.describe()}"
        )

    def __repr__(self) -> str:
        return f"Cactus({self.describe()})"


def prune_shape(shape: Shape, limit: int) -> Shape:
    """The shape with every segment deeper than ``limit`` removed.

    Returns ``shape`` itself (no allocation) when nothing is deeper
    than ``limit``, so pruning a depth-``d`` shape by one generation
    only rebuilds the spine above the deepest segments.
    """
    if shape.depth <= limit:
        return shape
    if limit <= 0:
        return Shape.leaf()
    return Shape.make(
        {j: prune_shape(c, limit - 1) for j, c in shape.children}
    )


def parent_shape(shape: Shape) -> Shape:
    """``shape`` with its deepest generation removed, memoised on the
    shape object itself: the incremental builder asks for the same
    parent every time a shape is rebuilt (fresh factories included),
    and the answer is intrinsic to the shape."""
    cached = shape._parent_shape
    if cached is None:
        cached = prune_shape(shape, shape.depth - 1)
        object.__setattr__(shape, "_parent_shape", cached)
    return cached


Path = tuple  # bud-index path from the root to a segment


# ----------------------------------------------------------------------
# Per-session cactus state: factory pool + cross-factory intern table
# ----------------------------------------------------------------------
#
# Cactus structures are fully determined by the 1-CQ's *content* (query
# fingerprint, focus, solitary-T order) and the shape: path-based node
# naming uses only variable names and bud indices.  Distinct factory
# instances for content-equal queries — fresh factories in benchmarks,
# pool-evicted-and-recreated factories, hand-built ones — therefore
# rematerialise byte-identical structures.  Each session's
# :class:`CactusState` holds an LRU interning one Structure per (query
# content, shape), so a second factory reuses the first one's object
# together with every index it has built — plus the pool of factories
# themselves, so cactuses built for a boundedness probe are the same
# objects a later UCQ rewriting returns.


class CactusState:
    """The mutable cactus-construction state of one session."""

    def __init__(self, config: EngineConfig) -> None:
        self.factory_pool_size = config.factory_pool_size
        self.cactus_cache_size = config.cactus_cache_size
        self.intern_size = config.structure_intern_size
        self.max_nodes = config.cactus_max_nodes
        self._factories: OrderedDict[OneCQ, CactusFactory] = OrderedDict()
        self._intern: OrderedDict[tuple, Structure] = OrderedDict()

    def factory(self, one_cq: OneCQ) -> "CactusFactory":
        """The pooled factory of ``one_cq`` (LRU-bounded)."""
        factory = self._factories.get(one_cq)
        if factory is None:
            factory = CactusFactory(one_cq, state=self)
            self._factories[one_cq] = factory
            while len(self._factories) > self.factory_pool_size:
                self._factories.popitem(last=False)
        else:
            self._factories.move_to_end(one_cq)
        return factory

    def interned_structure(
        self, factory_key: tuple, shape: Shape
    ) -> Structure | None:
        cached = self._intern.get((factory_key, shape))
        if cached is not None:
            self._intern.move_to_end((factory_key, shape))
        return cached

    def intern_structure(
        self, factory_key: tuple, shape: Shape, structure: Structure
    ) -> None:
        self._intern[(factory_key, shape)] = structure
        while len(self._intern) > self.intern_size:
            self._intern.popitem(last=False)

    def clear_intern(self) -> None:
        self._intern.clear()

    def clear(self) -> None:
        self._factories.clear()
        self._intern.clear()


def _state(session) -> CactusState:
    """The :class:`CactusState` of ``session`` (default if ``None``)."""
    if session is not None:
        return session.cactus
    from ..session import default_session

    return default_session().cactus


class CactusFactory:
    """Incremental, pooled cactus construction for one 1-CQ.

    The factory interns, per skeleton path:

    * the *leaf segment copy* at that path — the frozen node / unary /
      binary fact sets of ``A(x), q⁻, T(y_1) .. T(y_n)`` renamed into
      path coordinates (glued by naming: the copy's focus IS the
      parent's ``y_j`` node), and
    * the variable map from the 1-CQ into those coordinates,

    and memoises every materialised cactus by shape.  A depth-``d``
    cactus is built from the cached depth-``d-1`` prune of its shape by
    one :meth:`~repro.core.structure.Structure.extended` delta: remove
    the newly-budded ``T`` facts, add the interned fact sets of the new
    leaf segments.  Nothing a prefix materialised is ever recomputed —
    not the facts, not the eager structure indexes, not the fingerprint.
    """

    def __init__(
        self, one_cq: OneCQ, state: CactusState | None = None
    ) -> None:
        self.one_cq = one_cq
        # The owning session's cactus state (intern table + LRU bounds);
        # a factory built bare binds the default session's on first use.
        self._state = state
        # Shape -> Cactus, LRU-bounded (EngineConfig.cactus_cache_size):
        # an open-ended probe of a span >= 2 query would otherwise
        # retain an exponential-in-depth number of materialised
        # cactuses for the life of the pooled factory.  Evicting a
        # prefix only costs a rebuild if it is ever extended again.
        self._cactuses: OrderedDict[Shape, Cactus] = OrderedDict()
        self._leaf_facts: dict[Path, tuple] = {}
        self._var_maps: dict[Path, Mapping[Node, Node]] = {}
        self._segment_copies: dict = {}
        self._intern_key: tuple | None = None

    @property
    def state(self) -> CactusState:
        if self._state is None:
            self._state = _state(None)
        return self._state

    @property
    def intern_key(self) -> tuple:
        """The content key this factory interns structures under: the
        query's fingerprint plus the focus and solitary-T order (two
        OneCQs with this key equal build identical cactus structures)."""
        if self._intern_key is None:
            self._intern_key = (
                self.one_cq.query.fingerprint,
                _canonical_key(self.one_cq.focus),
                tuple(_canonical_key(t) for t in self.one_cq.solitary_ts),
            )
        return self._intern_key

    # -- interned per-path segment material ----------------------------

    def var_map(self, path: Path) -> Mapping[Node, Node]:
        """The shared, read-only variable map of the segment at ``path``."""
        cached = self._var_maps.get(path)
        if cached is None:
            q = self.one_cq.query
            focus = self.one_cq.focus
            if path:
                glue = (path[:-1], self.one_cq.solitary_ts[path[-1]])
                cached = MappingProxyType(
                    {v: glue if v == focus else (path, v) for v in q.nodes}
                )
            else:
                cached = MappingProxyType({v: (path, v) for v in q.nodes})
            self._var_maps[path] = cached
        return cached

    def leaf_facts(self, path: Path) -> tuple:
        """Interned ``(nodes, unary, binary)`` of the leaf segment copy
        at ``path`` (root copy when ``path`` is empty)."""
        cached = self._leaf_facts.get(path)
        if cached is None:
            one_cq = self.one_cq
            q = one_cq.query
            var_map = self.var_map(path)
            unary: set[UnaryFact] = set()
            for fact in q.unary_facts:
                if path and fact.node == one_cq.focus and fact.label == F:
                    continue  # non-root focus: the bud relabels it A
                unary.add(UnaryFact(fact.label, var_map[fact.node]))
            if path:
                unary.add(UnaryFact(A, var_map[one_cq.focus]))
            binary = frozenset(
                fact.rename(var_map) for fact in q.binary_facts
            )
            cached = (
                frozenset(var_map.values()),
                frozenset(unary),
                binary,
            )
            self._leaf_facts[path] = cached
        return cached

    # -- cactus materialisation ----------------------------------------

    def cactus(self, shape: Shape) -> Cactus:
        """The (cached) materialised cactus of ``shape``."""
        cached = self._cactuses.get(shape)
        if cached is not None:
            self._cactuses.move_to_end(shape)
            return cached
        depth = shape.depth
        state = self.state
        sigma_delta: tuple | None = None
        cover_delta: tuple | None = None
        structure = state.interned_structure(self.intern_key, shape)
        if structure is None:
            if depth == 0:
                nodes, unary, binary = self.leaf_facts(())
                structure = Structure(nodes, unary, binary)
            else:
                base = self.cactus(parent_shape(shape))
                ts = self.one_cq.solitary_ts
                add_nodes: set[Node] = set()
                add_unary: set[UnaryFact] = set()
                add_binary: set[BinaryFact] = set()
                removed: list[UnaryFact] = []
                for parent_path, j in self._paths_at_depth(shape, depth):
                    removed.append(UnaryFact(T, (parent_path, ts[j])))
                    nodes, unary, binary = self.leaf_facts(parent_path + (j,))
                    add_nodes |= nodes
                    add_unary |= unary
                    add_binary |= binary
                structure = base.structure.extended(
                    add_nodes=add_nodes,
                    add_unary=add_unary,
                    add_binary=add_binary,
                    remove_unary=removed,
                )
                sigma_delta = (
                    base,
                    frozenset(add_nodes),
                    frozenset(add_unary),
                    frozenset(add_binary),
                    tuple(removed),
                )
                cover_delta = (base.structure,) + sigma_delta[1:]
            state.intern_structure(self.intern_key, shape, structure)
        limit = state.max_nodes
        if limit is not None and len(structure.nodes) > limit:
            # The structure is interned above regardless: building it is
            # sunk cost, and a later session/config with a higher cap
            # can reuse it.  Only materialising a *Cactus* past the cap
            # is refused.
            raise CactusBudgetExceeded(
                f"cactus of shape depth {depth} has "
                f"{len(structure.nodes)} nodes > cactus_max_nodes={limit}"
            )
        cactus = Cactus(
            self.one_cq,
            structure,
            lambda shape=shape: self._segment_table(shape),
            shape,
            sigma_delta=sigma_delta,
            cover_delta=cover_delta,
        )
        self._cactuses[shape] = cactus
        while len(self._cactuses) > state.cactus_cache_size:
            self._cactuses.popitem(last=False)
        return cactus

    @staticmethod
    def _paths_at_depth(
        shape: Shape, depth: int
    ) -> Iterator[tuple[Path, int]]:
        """``(parent_path, bud_index)`` of every segment at ``depth``."""
        stack: list[tuple[Path, Shape]] = [((), shape)]
        while stack:
            path, node = stack.pop()
            for j, child in node.children:
                if len(path) + 1 == depth:
                    yield path, j
                else:
                    stack.append((path + (j,), child))

    def _segment_table(self, shape: Shape) -> dict[int, SegmentInfo]:
        """Skeleton bookkeeping in DFS preorder (root gets id 0)."""
        segments: dict[int, SegmentInfo] = {}
        counter = itertools.count()

        def walk(
            node: Shape, path: Path, parent: int | None, bud: int | None
        ) -> None:
            seg_id = next(counter)
            segments[seg_id] = SegmentInfo(
                seg_id=seg_id,
                parent=parent,
                bud_index=bud,
                depth=len(path),
                var_map=self.var_map(path),
                budded=node.budded,
                path=path,
            )
            for j, child in node.children:
                walk(child, path + (j,), seg_id, j)

        walk(shape, (), None, None)
        return segments

    # -- interned segment copies for the Λ-CQ decider ------------------

    def segment_copy(
        self, budded: frozenset[int], root: bool, tag: object
    ) -> tuple[Structure, Mapping[Node, Node]]:
        """An interned standalone segment copy (see
        :func:`repro.ditree.lambda_cq.segment_structure`): focus
        labelled F (root) or A, ``y_j`` relabelled A for ``j`` in
        ``budded``; nodes are ``(tag, v)`` pairs.  The Appendix F
        fixpoint requests the same handful of copies thousands of
        times; interning them also lets the hom engine reuse one
        compiled plan per copy."""
        key = (frozenset(budded), root, tag)
        cached = self._segment_copies.get(key)
        if cached is None:
            one_cq = self.one_cq
            q = one_cq.query
            mapping = {v: (tag, v) for v in q.nodes}
            unary: set[UnaryFact] = set()
            for fact in q.unary_facts:
                if fact.node == one_cq.focus and fact.label == F and not root:
                    continue
                if fact.label == T and fact.node in one_cq.solitary_ts:
                    if one_cq.solitary_ts.index(fact.node) in budded:
                        continue
                unary.add(UnaryFact(fact.label, mapping[fact.node]))
            if not root:
                unary.add(UnaryFact(A, mapping[one_cq.focus]))
            for j in budded:
                unary.add(UnaryFact(A, mapping[one_cq.solitary_ts[j]]))
            binary = {fact.rename(mapping) for fact in q.binary_facts}
            cached = (
                Structure(set(mapping.values()), unary, binary),
                MappingProxyType(mapping),
            )
            self._segment_copies[key] = cached
        return cached


# Every entry point that takes a bare OneCQ (build_cactus,
# iter_cactuses, the probes and rewritings) shares one pooled factory
# per query *within a session*, so cactuses built for a boundedness
# probe are the same objects a later UCQ rewriting returns.


def cactus_factory(one_cq: OneCQ, session=None) -> CactusFactory:
    """The (default) session's pooled :class:`CactusFactory` of
    ``one_cq`` (LRU, bounded by ``EngineConfig.factory_pool_size``,
    default 32 queries)."""
    return _state(session).factory(one_cq)


def build_cactus(one_cq: OneCQ, shape: Shape, session=None) -> Cactus:
    """Materialise the cactus with the given shape (pooled, incremental).

    Node naming: the segment reached from the root by following bud
    indices ``path`` names its variables ``(path, v)``; a child glues
    its focus onto the parent's budded T node.  Equal shapes return the
    same cached :class:`Cactus` object.
    """
    return cactus_factory(one_cq, session).cactus(shape)


def build_cactus_from_scratch(one_cq: OneCQ, shape: Shape) -> Cactus:
    """The pre-engine builder: rematerialise every segment and rebuild
    the structure without any caching or index transfer.

    Produces node-for-node the same cactus as :func:`build_cactus` —
    the property tests assert equal structures and fingerprints — and
    serves as the baseline that ``scripts/bench_cactus.py`` measures
    the incremental engine against.
    """
    q = one_cq.query
    ts = one_cq.solitary_ts
    counter = itertools.count()
    segments: dict[int, SegmentInfo] = {}
    unary: set[UnaryFact] = set()
    binary: set[BinaryFact] = set()
    nodes: set[Node] = set()

    def add_segment(
        node: Shape, path: Path, parent: int | None, bud: int | None
    ) -> None:
        seg_id = next(counter)
        glue = (
            (path[:-1], ts[path[-1]]) if path else None
        )
        var_map: dict[Node, Node] = {
            v: glue
            if path and v == one_cq.focus
            else (path, v)
            for v in q.nodes
        }
        budded = node.budded
        for fact in q.unary_facts:
            if fact.node == one_cq.focus and fact.label == F and path:
                continue  # non-root focus: label comes from the bud (A)
            if fact.label == T and fact.node in ts:
                if ts.index(fact.node) in budded:
                    continue  # budded: T removed, child glues here
            unary.add(UnaryFact(fact.label, var_map[fact.node]))
        if path:
            unary.add(UnaryFact(A, glue))
        for fact in q.binary_facts:
            binary.add(fact.rename(var_map))
        nodes.update(var_map.values())
        segments[seg_id] = SegmentInfo(
            seg_id=seg_id,
            parent=parent,
            bud_index=bud,
            depth=len(path),
            var_map=var_map,
            budded=budded,
            path=path,
        )
        for j, child in node.children:
            add_segment(child, path + (j,), seg_id, j)

    add_segment(shape, (), None, None)
    structure = Structure(nodes, unary, binary)
    return Cactus(one_cq, structure, segments, shape)


def initial_cactus(one_cq: OneCQ, session=None) -> Cactus:
    """``C_G = {q}``: the cactus with a single (root) segment."""
    return build_cactus(one_cq, Shape.leaf(), session)


def iter_cactuses(
    one_cq: OneCQ,
    max_depth: int,
    max_count: int | None = None,
    factory: CactusFactory | None = None,
    session=None,
) -> Iterator[Cactus]:
    """All cactuses of depth at most ``max_depth`` (canonical, no dupes).

    Streams through the (pooled) incremental factory: enumerating to
    depth ``d`` materialises every depth ``< d`` cactus along the way,
    and a later enumeration — same or greater depth, same query —
    reuses every one of them.  Under a governed session each cactus
    materialised charges the operation budget (one charge plus a
    deadline checkpoint: materialisation is coarse work), so open-ended
    enumerations stop at the deadline instead of filling memory.
    """
    factory = factory or cactus_factory(one_cq, session)
    budget = call_budget(session)
    produced = 0
    for shape in iter_shapes(one_cq.span, max_depth, budget):
        if budget is not None:
            budget.charge()
            budget.checkpoint()
        yield factory.cactus(shape)
        produced += 1
        if max_count is not None and produced >= max_count:
            return


def full_cactus(one_cq: OneCQ, depth: int, session=None) -> Cactus:
    """The cactus budding every solitary T uniformly to ``depth``."""
    return build_cactus(one_cq, full_shape(one_cq.span, depth), session)


# ----------------------------------------------------------------------
# Focusedness (condition (foc))
# ----------------------------------------------------------------------


def find_unfocused_witness(
    one_cq: OneCQ, max_depth: int, session=None
) -> tuple[Cactus, Cactus, dict[Node, Node]] | None:
    """Search for cactuses C, C' and a hom ``h: C -> C'`` with
    ``h(r) != r'``, which refutes (foc).  Returns the witness or ``None``
    if no violation exists up to the probed depth (evidence, not proof,
    of focusedness)."""
    cactuses = list(iter_cactuses(one_cq, max_depth, session=session))
    for source in cactuses:
        for target in cactuses:
            # Ask the engine directly for a hom moving the root focus by
            # excluding the target focus from the root's image domain,
            # instead of enumerating all homs and filtering.
            allowed = target.structure.nodes - {target.root_focus}
            hom = find_homomorphism(
                source.structure,
                target.structure,
                node_domains={source.root_focus: frozenset(allowed)},
                session=session,
            )
            if hom is not None:
                return source, target, hom
    return None


def is_focused_up_to(one_cq: OneCQ, max_depth: int, session=None) -> bool:
    """(foc) restricted to cactuses of depth <= max_depth."""
    return find_unfocused_witness(one_cq, max_depth, session) is None


def structurally_focused(one_cq: OneCQ) -> bool:
    """The sufficient condition used for the Theorem 3 query: the solitary
    F node has a successor while no FT-twin does.  Any hom between
    cactuses must then fix the root focus."""
    q = one_cq.query
    focus_has_successor = bool(q.out_edges(one_cq.focus))
    twins_childless = all(not q.out_edges(v) for v in one_cq.twins)
    return focus_has_successor and twins_childless


# ----------------------------------------------------------------------
# Proposition 1: certain answers via cactuses
# ----------------------------------------------------------------------


def goal_certain_via_cactuses(
    one_cq: OneCQ, data: Structure, max_depth: int, session=None
) -> bool:
    """``G ∈ Π_q(D)`` iff some cactus maps homomorphically into D.

    Sound and complete when the data cannot trigger recursion deeper than
    ``max_depth`` (e.g. |D| bounds the useful depth); used in tests to
    cross-validate the datalog engine.  The cactuses stream lazily into
    one :func:`~repro.core.homengine.covers_any` batch over the data.
    """
    return covers_any(
        data,
        (
            cactus.structure
            for cactus in iter_cactuses(one_cq, max_depth, session=session)
        ),
        session=session,
    )


def sirup_certain_via_cactuses(
    one_cq: OneCQ, data: Structure, node: Node, max_depth: int, session=None
) -> bool:
    """``P(a) ∈ Σ_q(D)`` iff ``T(a) ∈ D`` or some C° maps into D with
    the root focus landing on ``a`` (Proposition 1)."""
    if data.has_label(node, T):
        return True
    return covers_any(
        data,
        (
            (cactus.sigma_structure(), {cactus.root_focus: node})
            for cactus in iter_cactuses(one_cq, max_depth, session=session)
        ),
        session=session,
    )
