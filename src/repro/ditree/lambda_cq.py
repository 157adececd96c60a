"""The exact FO/L decider for Λ-CQs (Theorem 9 / Appendices D-F).

A Λ-CQ is a ditree 1-CQ whose solitary F node is ≺-incomparable with
every solitary T node; ``k`` (the *span*) is the number of solitary T
nodes.  Theorem 9 shows the d-sirup ``(Δ_q, G)`` of a Λ-CQ is either
FO-rewritable or L-hard, and that the dichotomy is decidable in time
``p(|q|) · 2^{p'(k)}`` — fixed-parameter tractable in the span.

The implementation follows Appendix F:

1. *Types.*  The neighbourhood of a segment in a cactus skeleton is
   described by a type ``(P, i, C)``: the parent's bud set ``P``, the
   incoming bud label ``i`` and the segment's own bud set ``C``.  Root
   types have ``P = ∅`` and ``i = None``.  The type digraph ``𝔊`` has an
   edge ``(P, i, C) --j--> (C, j, C')`` for every ``j ∈ C`` and ``C'``.
2. *Black types*: some root segment maps homomorphically into the
   blow-up of the type (an unanchored root-segment embedding lives
   entirely inside one segment).
3. *Blue types*: positions winning for the "embedding" player in the
   two-player game in which the opponent extends the skeleton one
   segment per bud label and the embedding player chooses the branch.
   Blue ⊇ black; any periodic structure containing a blue internal type
   admits an unanchored root-segment homomorphism (cases (h2)/(h3) of
   Claim 9.2).
4. *Cuttable edges*: a depth-indexed fixpoint computing, for every
   𝔊-edge (= bud A-node), whether every uncoloured continuation below it
   is covered by a depth-``d`` focused cactus homomorphism.
5. *Root check*: FO-rewritability holds iff every root type and every
   uncoloured, genuinely-periodic depth-1 extension of it admits an
   anchored covering homomorphism whose budded leaves land on cuttable
   A-nodes.

The decider is exact on the Λ-CQ fragment and cross-validated in the
test suite against the depth-bounded Proposition 2 probe
(:mod:`repro.core.boundedness`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from ..core.cactus import cactus_factory
from ..core.cq import OneCQ
from ..core.homengine import find_homomorphism, has_homomorphism
from ..core.structure import Node, Structure, UnaryFact
from .structure import DitreeCQ

BudSet = frozenset[int]


@dataclass(frozen=True)
class SegType:
    """A segment type ``(P, i, C)``; root types use ``in_label=None``."""

    parent_buds: BudSet
    in_label: int | None
    buds: BudSet

    @property
    def is_root(self) -> bool:
        return self.in_label is None

    @property
    def is_leaf(self) -> bool:
        return not self.buds

    def describe(self) -> str:
        p = "{" + ",".join(map(str, sorted(self.parent_buds))) + "}"
        c = "{" + ",".join(map(str, sorted(self.buds))) + "}"
        i = "r" if self.in_label is None else str(self.in_label)
        return f"({p},{i},{c})"


def _subsets(k: int) -> list[BudSet]:
    items = list(range(k))
    out = []
    for r in range(k + 1):
        for combo in itertools.combinations(items, r):
            out.append(frozenset(combo))
    return out


def all_types(k: int) -> list[SegType]:
    """All root and internal types for span ``k``."""
    types: list[SegType] = []
    for c in _subsets(k):
        types.append(SegType(frozenset(), None, c))
    for p in _subsets(k):
        for i in sorted(p):
            for c in _subsets(k):
                types.append(SegType(p, i, c))
    return types


def successors(t: SegType, j: int, k: int) -> list[SegType]:
    """All 𝔊-successors of ``t`` along bud label ``j ∈ t.buds``."""
    if j not in t.buds:
        raise ValueError(f"label {j} is not budded in {t.describe()}")
    return [SegType(t.buds, j, c) for c in _subsets(k)]


# ----------------------------------------------------------------------
# Segment structures and blow-ups
# ----------------------------------------------------------------------


def segment_structure(
    one_cq: OneCQ, budded: BudSet, root: bool, tag: object, session=None
) -> tuple[Structure, Mapping[Node, Node]]:
    """One segment copy of ``q``: focus labelled F (root) or A
    (non-root); ``y_j`` labelled A for ``j ∈ budded`` and T otherwise.
    Returns the structure and the variable map ``q-var -> node``.

    Copies are interned per ``(budded, root, tag)`` on the query's
    pooled :class:`~repro.core.cactus.CactusFactory`: the Appendix F
    cuttability fixpoint and the root check request the same handful of
    copies over and over, and sharing one frozen :class:`Structure` per
    copy also lets the hom engine keep one compiled search plan per
    copy for the whole decision procedure.  Treat the returned
    structure and mapping as immutable.
    """
    return cactus_factory(one_cq, session).segment_copy(
        frozenset(budded), root, tag
    )


def root_segment(
    one_cq: OneCQ, budded: BudSet, session=None
) -> tuple[Structure, Node]:
    """A root segment with the given bud set; returns (structure, F-node)."""
    s, mapping = segment_structure(
        one_cq, budded, root=True, tag="rs", session=session
    )
    return s, mapping[one_cq.focus]


def glue_segments(
    parts: Mapping[object, tuple[Structure, dict[Node, Node]]],
    glue_edges: list[tuple[object, int, object]],
    one_cq: OneCQ,
) -> tuple[Structure, dict[tuple[object, Node], Node]]:
    """Union of segment copies with child focus glued onto parent bud.

    ``glue_edges`` lists (parent_tag, bud_label, child_tag).  Returns the
    glued structure and a resolver from (tag, q-var) to final node.
    """
    # Union-find over (tag, var) pairs.
    canon: dict[Node, Node] = {}

    def find(x: Node) -> Node:
        while canon.get(x, x) != x:
            x = canon.get(x, x)
        return x

    def union(x: Node, y: Node) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            canon[ry] = rx

    for parent_tag, j, child_tag in glue_edges:
        parent_node = parts[parent_tag][1][one_cq.solitary_ts[j]]
        child_node = parts[child_tag][1][one_cq.focus]
        union(parent_node, child_node)

    rename: dict[Node, Node] = {}
    nodes: set[Node] = set()
    unary: set[UnaryFact] = set()
    binary = set()
    for tag, (structure, _) in parts.items():
        for node in structure.nodes:
            rename[node] = find(node)
            nodes.add(find(node))
        for fact in structure.unary_facts:
            unary.add(UnaryFact(fact.label, find(fact.node)))
        for fact in structure.binary_facts:
            binary.add(
                type(fact)(fact.pred, find(fact.src), find(fact.dst))
            )
    resolver = {
        (tag, var): find(mapping[var])
        for tag, (_, mapping) in parts.items()
        for var in mapping
    }
    return Structure(nodes, unary, binary), resolver


def type_blowup(one_cq: OneCQ, t: SegType, session=None) -> Structure:
    """The blow-up ¯t of a single type: one segment with t's labels."""
    s, _ = segment_structure(
        one_cq, t.buds, root=t.is_root, tag=("b", t), session=session
    )
    return s


# ----------------------------------------------------------------------
# Black and blue types
# ----------------------------------------------------------------------


def compute_black(
    one_cq: OneCQ, types: list[SegType], session=None
) -> set[SegType]:
    """Internal types whose blow-up absorbs some root segment."""
    k = one_cq.span
    black: set[SegType] = set()
    root_segments = [
        root_segment(one_cq, b, session) for b in _subsets(k)
    ]
    for t in types:
        if t.is_root:
            continue
        target = type_blowup(one_cq, t, session)
        for source, _ in root_segments:
            if has_homomorphism(source, target, session=session):
                black.add(t)
                break
    return black


def compute_blue(
    one_cq: OneCQ, types: list[SegType], black: set[SegType]
) -> set[SegType]:
    """Blue = internal types NOT winning for the extending player.

    Least fixpoint of W1 (extender wins): an internal type is in W1 iff
    it is not black and, for every bud label, some successor is in W1
    (leaves: not black suffices).  Blue is the complement within the
    internal types; blue ⊇ black.
    """
    k = one_cq.span
    internal = [t for t in types if not t.is_root]
    w1: set[SegType] = set()
    changed = True
    while changed:
        changed = False
        for t in internal:
            if t in w1 or t in black:
                continue
            if all(
                any(s in w1 for s in successors(t, j, k))
                for j in t.buds
            ):
                w1.add(t)
                changed = True
    return {t for t in internal if t not in w1}


# ----------------------------------------------------------------------
# Cuttable edges
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GEdge:
    """A 𝔊-edge: parent type, bud label, child type."""

    parent: SegType
    label: int
    child: SegType

    def describe(self) -> str:
        return (
            f"{self.parent.describe()} --{self.label}--> "
            f"{self.child.describe()}"
        )


def all_edges(types: list[SegType], k: int) -> list[GEdge]:
    out = []
    for t in types:
        for j in sorted(t.buds):
            for child in successors(t, j, k):
                out.append(GEdge(t, j, child))
    return out


@dataclass
class LambdaAnalysis:
    """All precomputed tables of the Appendix F decision procedure."""

    one_cq: OneCQ
    types: list[SegType]
    black: set[SegType]
    blue: set[SegType]
    cuttable: dict[GEdge, int] = field(default_factory=dict)
    stabilised_at: int = 0

    def coloured(self, t: SegType) -> bool:
        return t in self.blue  # blue ⊇ black

    def edge_cuttable(self, edge: GEdge) -> bool:
        return edge in self.cuttable


def _extension_choices(
    t: SegType, k: int, blue: set[SegType]
) -> Iterator[dict[int, SegType]]:
    """All uncoloured depth-1 extensions of ``t`` (one child per label)."""
    labels = sorted(t.buds)
    options = []
    for j in labels:
        usable = [s for s in successors(t, j, k) if s not in blue]
        options.append(usable)
    if any(not opts for opts in options):
        return  # some label admits only coloured children: vacuous
    for combo in itertools.product(*options):
        yield dict(zip(labels, combo))


def _cut_step_holds(
    analysis: LambdaAnalysis,
    edge: GEdge,
    prev: dict[GEdge, int],
    session=None,
) -> bool:
    """Is ``edge`` cuttable given the previous level's table?

    For every uncoloured extension of the child segment, some segment
    copy ``q°`` (focus relabelled A, bud set B) must map into the
    two-segment-plus-children neighbourhood with its focus on the glue
    A-node of ``edge``, avoiding the parent's own focus, and with every
    budded leaf landing on an A-node already known to be cuttable.
    """
    one_cq = analysis.one_cq
    k = one_cq.span
    u, j0, v = edge.parent, edge.label, edge.child
    if v in analysis.blue:
        return True  # adversary never enters a coloured child

    def universal_cuttable(t: SegType, j: int) -> bool:
        return all(
            GEdge(t, j, w) in prev for w in successors(t, j, k)
        )

    for extension in _extension_choices(v, k, analysis.blue):
        parts = {
            "u": segment_structure(
                one_cq, u.buds, root=u.is_root, tag="u", session=session
            ),
            "v": segment_structure(
                one_cq, v.buds, root=False, tag="v", session=session
            ),
        }
        glue_edges = [("u", j0, "v")]
        for j, child in extension.items():
            parts[("c", j)] = segment_structure(
                one_cq, child.buds, root=False, tag=("c", j), session=session
            )
            glue_edges.append(("v", j, ("c", j)))
        target, resolver = glue_segments(parts, glue_edges, one_cq)
        glue_node = resolver[("v", one_cq.focus)]
        parent_focus = (
            None if u.is_root else resolver[("u", one_cq.focus)]
        )

        # Approved A-nodes for budded leaves of the covering segment.
        approved: set[Node] = set()
        if GEdge(u, j0, v) in prev:
            approved.add(glue_node)
        for j in u.buds:
            if j == j0:
                continue
            if universal_cuttable(u, j):
                approved.add(resolver[("u", one_cq.solitary_ts[j])])
        for j, child in extension.items():
            if GEdge(v, j, child) in prev:
                approved.add(resolver[("v", one_cq.solitary_ts[j])])
            for j2 in child.buds:
                if universal_cuttable(child, j2):
                    approved.add(
                        resolver[(("c", j), one_cq.solitary_ts[j2])]
                    )

        if not _segment_cover_exists(
            one_cq, target, glue_node, approved, forbidden=parent_focus,
            session=session,
        ):
            return False
    return True


def _segment_cover_exists(
    one_cq: OneCQ,
    target: Structure,
    focus_image: Node,
    approved: set[Node],
    forbidden: Node | None,
    root: bool = False,
    session=None,
) -> bool:
    """Does some segment copy (bud set B) map into ``target`` with its
    focus on ``focus_image``, budded leaves on ``approved`` A-nodes and
    no node on ``forbidden``?

    The constraints are passed declaratively (``node_domains`` for the
    budded leaves, ``forbid`` for the parent focus) so the cuttability
    fixpoint's many repeated checks hit the engine's hom-cache instead
    of re-running an uncacheable ``node_filter`` search.
    """
    k = one_cq.span
    approved_frozen = frozenset(approved)
    forbid = None if forbidden is None else frozenset({forbidden})
    for budset in _subsets(k):
        source, mapping = segment_structure(
            one_cq, budset, root=root, tag="cover", session=session
        )
        node_domains = {
            mapping[one_cq.solitary_ts[j]]: approved_frozen for j in budset
        }
        hom = find_homomorphism(
            source,
            target,
            seed={mapping[one_cq.focus]: focus_image},
            node_domains=node_domains,
            forbid=forbid,
            session=session,
        )
        if hom is not None:
            return True
    return False


def compute_cuttable(
    analysis: LambdaAnalysis, max_depth: int = 12, session=None
) -> None:
    """Depth-indexed fixpoint of edge cuttability (Appendix F)."""
    one_cq = analysis.one_cq
    k = one_cq.span
    edges = all_edges(analysis.types, k)

    # Depth 1: a leaf segment (B = ∅) maps into ¯u ∪ ¯v with its focus
    # on the glue node.  This is _cut_step_holds with an empty previous
    # table (no approved A-nodes) restricted to leaf-only covers — the
    # generic step with prev = {} computes exactly that.
    table: dict[GEdge, int] = {}
    depth = 0
    while depth < max_depth:
        depth += 1
        new = {}
        for edge in edges:
            if edge in table:
                new[edge] = table[edge]
                continue
            if _cut_step_holds(analysis, edge, table, session):
                new[edge] = depth
        if len(new) == len(table):
            break
        table = new
    analysis.cuttable = table
    analysis.stabilised_at = depth


# ----------------------------------------------------------------------
# Periodic-continuation feasibility
# ----------------------------------------------------------------------


def compute_completable(
    types: list[SegType], blue: set[SegType], k: int
) -> set[SegType]:
    """Uncoloured internal types every bud label of which admits an
    uncoloured completable child (greatest fixpoint)."""
    current = {t for t in types if not t.is_root and t not in blue}
    changed = True
    while changed:
        changed = False
        for t in list(current):
            ok = all(
                any(s in current for s in successors(t, j, k))
                for j in t.buds
            )
            if not ok:
                current.discard(t)
                changed = True
    return current


def compute_infinite(
    completable: set[SegType], k: int
) -> set[SegType]:
    """Completable types that can start an infinite completable path
    (greatest fixpoint: some successor is again infinite)."""
    current = {t for t in completable if t.buds}
    changed = True
    while changed:
        changed = False
        for t in list(current):
            ok = any(
                s in current
                for j in t.buds
                for s in successors(t, j, k)
                if s in completable
            )
            if not ok:
                current.discard(t)
                changed = True
    return current


# ----------------------------------------------------------------------
# The decision procedure
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LambdaDecision:
    """Outcome of the Theorem 9 dichotomy for one Λ-CQ."""

    fo_rewritable: bool
    reason: str
    stabilised_at: int
    witness: str | None = None  # a bad root extension when L-hard

    def describe(self) -> str:
        label = "FO-rewritable" if self.fo_rewritable else "L-hard"
        return f"{label}: {self.reason}"


def analyse(one_cq: OneCQ, session=None) -> LambdaAnalysis:
    """Precompute types, black/blue sets and the cuttability table.

    ``session`` selects the engine state every hom check and interned
    segment copy goes through (the default session when omitted), so a
    decision run inside an explicit
    :class:`~repro.session.Session` fills that session's caches.
    """
    k = one_cq.span
    types = all_types(k)
    black = compute_black(one_cq, types, session)
    blue = compute_blue(one_cq, types, black)
    analysis = LambdaAnalysis(one_cq, types, black, blue)
    compute_cuttable(analysis, session=session)
    return analysis


def decide_lambda(
    cq: DitreeCQ | OneCQ | Structure,
    session=None,
) -> LambdaDecision:
    """Decide the FO/L dichotomy of Theorem 9 for a Λ-CQ.

    Raises ``ValueError`` if the query is not a Λ-CQ.
    """
    if isinstance(cq, Structure):
        cq = DitreeCQ.from_structure(cq)
    if isinstance(cq, DitreeCQ):
        if not cq.is_lambda_cq():
            raise ValueError("query is not a Λ-CQ (Theorem 9 fragment)")
        one_cq = OneCQ.from_structure(cq.query)
    else:
        one_cq = cq
    k = one_cq.span
    if k == 0:
        return LambdaDecision(
            True, "span 0: no budding, 𝔎_q = {q} is finite", 0
        )

    analysis = analyse(one_cq, session)
    completable = compute_completable(analysis.types, analysis.blue, k)
    infinite = compute_infinite(completable, k)

    for c0 in _subsets(k):
        if not c0:
            continue  # the trivial root never starts a periodic structure
        t0 = SegType(frozenset(), None, c0)
        labels = sorted(c0)
        options = []
        for j in labels:
            usable = [
                s
                for s in successors(t0, j, k)
                if s in completable
            ]
            options.append(usable)
        if any(not opts for opts in options):
            continue  # adversary cannot even complete the first level
        for combo in itertools.product(*options):
            extension = dict(zip(labels, combo))
            if not any(child in infinite for child in extension.values()):
                continue  # no periodic part can grow below this root
            if not _anchored_cover_exists(analysis, t0, extension, session):
                witness = (
                    t0.describe()
                    + " -> "
                    + ", ".join(
                        f"{j}:{c.describe()}"
                        for j, c in sorted(extension.items())
                    )
                )
                return LambdaDecision(
                    False,
                    "an uncoloured periodic root extension admits no "
                    "anchored covering homomorphism (Claim 9.3)",
                    analysis.stabilised_at,
                    witness,
                )
    return LambdaDecision(
        True,
        "every uncoloured periodic root extension is covered by an "
        "anchored depth-bounded homomorphism (Claim 9.2)",
        analysis.stabilised_at,
    )


def _anchored_cover_exists(
    analysis: LambdaAnalysis,
    t0: SegType,
    extension: dict[int, SegType],
    session=None,
) -> bool:
    """Final root check: an anchored root-segment homomorphism whose
    budded leaves land on cuttable A-nodes."""
    one_cq = analysis.one_cq
    k = one_cq.span
    parts = {
        "r": segment_structure(
            one_cq, t0.buds, root=True, tag="r", session=session
        ),
    }
    glue_edges = []
    for j, child in extension.items():
        parts[("c", j)] = segment_structure(
            one_cq, child.buds, root=False, tag=("c", j), session=session
        )
        glue_edges.append(("r", j, ("c", j)))
    target, resolver = glue_segments(parts, glue_edges, one_cq)
    root_focus = resolver[("r", one_cq.focus)]

    approved: set[Node] = set()
    for j, child in extension.items():
        if GEdge(t0, j, child) in analysis.cuttable:
            approved.add(resolver[("r", one_cq.solitary_ts[j])])
        for j2 in child.buds:
            if all(
                GEdge(child, j2, w) in analysis.cuttable
                for w in successors(child, j2, k)
            ):
                approved.add(
                    resolver[(("c", j), one_cq.solitary_ts[j2])]
                )

    return _segment_cover_exists(
        one_cq,
        target,
        root_focus,
        approved,
        forbidden=None,
        root=True,
        session=session,
    )
