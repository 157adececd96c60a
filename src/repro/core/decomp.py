"""Structural hom backend: tree-decomposition DP with compiled plans.

Every hot path of this library — the boundedness probe, UCQ rewriting
evaluation, ``screen_zoo`` — bottoms out in homomorphism checks whose
*sources* are trees or near-trees: cactuses are tree-shaped by
construction and the dominant bench queries are paths and ditrees of
treewidth 1.  The backtracking backends (``naive``/``bitset``/
``matrix``) are worst-case exponential on exactly those inputs; this
module supplies the classic polynomial algorithm instead —
acyclic/bounded-treewidth CQ evaluation by semijoin dynamic programming
(Yannakakis-style) over a tree decomposition of the *query*.

Three layers:

Decomposition
    :func:`tree_decomposition` builds a tree decomposition of a
    structure's primal graph by vertex elimination — always preferring
    degree-``<= 2`` vertices (that pass alone is *exact* for treewidth
    ``<= 2``: simplicial / series-parallel elimination), falling back
    to greedy min-fill with the achieved width reported as an upper
    bound (``exact=False``).  The result is cached on the
    :class:`~repro.core.structure.Structure` like ``matrix_index``.

Compiled plans
    :func:`decomp_plan` compiles a reusable :class:`DecompPlan` — bag
    order, semijoin schedule, per-bag atom constraints and per-variable
    label/predicate masks — cached on the structure *and* interned per
    content fingerprint (bounded LRU), so a plan is built once and
    replayed across thousands of targets in ``evaluate_batch`` /
    ``covers_any``, and a pool worker that receives the same query over
    the wire re-uses the plan it already compiled.

The DP
    For forest-shaped queries (width ``<= 1``, the hot case) the solver
    runs entirely on the target's
    :class:`~repro.core.structure.BitsetIndex`: per-variable candidate
    domains are Python-int bitsets and one *directional* semijoin pass
    over the query's tree edges (leaves up) decides existence — no AC-3
    re-enqueueing, no backtracking, ``O(|q| * |D|)`` bitset operations.
    Wider queries run the general relational DP over the target's
    pred-indexed neighbour sets: per-bag satisfying-tuple sets,
    bottom-up semijoins, top-down witness extraction.  Counting uses
    the standard bag-product weights, so hom counting never
    enumerates the (possibly exponential) hom set.

On top of the DP, :class:`ProbeCoverage` makes the boundedness probe's
``_covered_by`` *incremental*: a cactus ``C(d)`` extends ``C(d-1)`` by a
recorded add-only delta, so the per-bag satisfying sets computed for a
source against ``C(d-1)`` warm-start the check against ``C(d)`` — only
tuples killed by the delta's label removals and tuples touching the new
material are recomputed, and the semijoin sweep re-propagates only bags
whose sets actually changed.

Everything here is pure python: the ``decomp`` backend needs neither
numpy nor any other extra, and is exercised by the no-numpy CI legs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Mapping

from .structure import BinaryFact, Node, Structure, UnaryFact

Seed = Mapping[Node, Node]

__all__ = [
    "DecompPlan",
    "ProbeCoverage",
    "TreeDecomposition",
    "clear_plan_intern",
    "count_decomp",
    "decomp_plan",
    "plan_intern_info",
    "query_width",
    "semiring_decomp",
    "tree_decomposition",
    "validate_decomposition",
]


# ----------------------------------------------------------------------
# Tree decompositions via vertex elimination
# ----------------------------------------------------------------------


class TreeDecomposition:
    """A tree decomposition of a structure's primal graph.

    ``bags[i]`` is a frozenset of node *indices* (positions in the
    structure's :attr:`~repro.core.structure.Structure.node_order`);
    ``parent[i]`` is the index of the parent bag (``-1`` for roots —
    one per connected component).  Bags are produced by vertex
    elimination, so bag ``i`` owns exactly one variable (the one
    eliminated at step ``i``) and its separator with the parent is the
    rest of the bag; children always precede their parent in index
    order, which is the bottom-up schedule of the DP.

    ``width`` is ``max |bag| - 1``; ``exact`` is True when that equals
    the treewidth (always the case for width ``<= 2``, where the
    degree-``<= 2`` elimination is complete).
    """

    __slots__ = ("bags", "parent", "own", "width", "exact")

    def __init__(self, bags, parent, own, width, exact) -> None:
        self.bags: tuple[frozenset[int], ...] = bags
        self.parent: tuple[int, ...] = parent
        self.own: tuple[int, ...] = own  # the vertex eliminated at step i
        self.width: int = width
        self.exact: bool = exact

    def describe(self) -> str:
        kind = "exact" if self.exact else "greedy upper bound"
        return (
            f"tree decomposition: {len(self.bags)} bags, "
            f"width {self.width} ({kind})"
        )


def _fill_count(work: dict[int, set[int]], v: int) -> int:
    """Edges that eliminating ``v`` would add between its neighbours."""
    nbrs = work[v]
    missing = 0
    as_list = list(nbrs)
    for i, a in enumerate(as_list):
        wa = work[a]
        for b in as_list[i + 1:]:
            if b not in wa:
                missing += 1
    return missing


def build_tree_decomposition(structure: Structure) -> TreeDecomposition:
    """Build a decomposition of ``structure``'s primal graph (fresh).

    Use :func:`tree_decomposition` for the structure-cached accessor.
    """
    order = structure.node_order
    index = structure.node_index
    n = len(order)
    work: dict[int, set[int]] = {v: set() for v in range(n)}
    for fact in structure.binary_facts:
        s, d = index[fact.src], index[fact.dst]
        if s != d:
            work[s].add(d)
            work[d].add(s)
    remaining = set(range(n))
    elim: list[tuple[int, frozenset[int]]] = []
    exact = True
    while remaining:
        # Min-degree first: complete (and exact) while degrees stay
        # <= 2 — leaves, series vertices and simplicial degree-2
        # vertices of a series-parallel graph.  Only when every
        # remaining vertex has degree >= 3 (treewidth >= 3 territory)
        # does greedy min-fill take over, and the result degrades to a
        # reported upper bound.
        v = min(remaining, key=lambda u: (len(work[u]), u))
        if len(work[v]) > 2:
            exact = False
            v = min(
                remaining,
                key=lambda u: (_fill_count(work, u), len(work[u]), u),
            )
        nbrs = frozenset(work[v])
        elim.append((v, nbrs))
        as_list = sorted(nbrs)
        for i, a in enumerate(as_list):
            work[a].discard(v)
            for b in as_list[i + 1:]:
                if b not in work[a]:
                    work[a].add(b)
                    work[b].add(a)
        remaining.remove(v)
    width = max((len(nbrs) for _, nbrs in elim), default=0)
    pos = {v: i for i, (v, _) in enumerate(elim)}
    bags = []
    parent = []
    own = []
    for v, nbrs in elim:
        bags.append(frozenset({v} | nbrs))
        own.append(v)
        # Parent: the bag of the earliest-eliminated neighbour.  All
        # neighbours at elimination time are eliminated later, so the
        # parent index is always greater than the child's — ascending
        # bag order is the bottom-up DP schedule.
        parent.append(
            min((pos[u] for u in nbrs), default=-1)
        )
    return TreeDecomposition(
        tuple(bags), tuple(parent), tuple(own), width, exact
    )


def tree_decomposition(structure: Structure) -> TreeDecomposition:
    """The structure's cached tree decomposition (built on first use)."""
    td = structure._tree_decomp
    if td is None:
        td = build_tree_decomposition(structure)
        structure._tree_decomp = td
    return td


def query_width(structure: Structure) -> int:
    """The (cached) decomposition width of a structure's primal graph —
    what ``backend="auto"`` consults to route tree-shaped queries to
    the ``decomp`` backend.  An upper bound above 2, exact below."""
    return tree_decomposition(structure).width


def validate_decomposition(
    structure: Structure, td: TreeDecomposition
) -> list[str]:
    """Sanity-check a decomposition; returns human-readable violations
    (empty list when valid).  Used by the property tests."""
    problems = []
    index = structure.node_index
    n = len(structure.node_order)
    covered_by: dict[int, set[int]] = {v: set() for v in range(n)}
    for i, bag in enumerate(td.bags):
        for v in bag:
            covered_by[v].add(i)
    for fact in structure.binary_facts:
        s, d = index[fact.src], index[fact.dst]
        if not any(s in bag and d in bag for bag in td.bags):
            problems.append(f"edge ({fact.src}, {fact.dst}) covered by no bag")
    for v in range(n):
        bags = covered_by[v]
        if not bags:
            problems.append(f"node {structure.node_order[v]!r} in no bag")
            continue
        # Connectivity: the bags containing v must form a subtree.
        seen = {min(bags)}
        frontier = [min(bags)]
        while frontier:
            b = frontier.pop()
            for other in bags - seen:
                if td.parent[other] == b or td.parent[b] == other:
                    seen.add(other)
                    frontier.append(other)
        if seen != bags:
            problems.append(
                f"bags of node {structure.node_order[v]!r} are disconnected"
            )
    return problems


# ----------------------------------------------------------------------
# Compiled query plans
# ----------------------------------------------------------------------


class DecompPlan:
    """The compiled, reusable decomposition-DP plan of one query.

    Everything derivable from the source alone is computed once: the
    decomposition, per-bag variable tuples (own variable first, then
    the separator with the parent), the atoms each bag checks, the
    per-variable label / incident-predicate requirements, and — for
    forest-shaped queries — the directional semijoin schedule over the
    primal spanning forest that the bitset fast path runs on.
    """

    __slots__ = (
        "nodes", "n", "width", "exact",
        "labels", "out_preds", "in_preds", "self_loops",
        "bag_vars", "bag_parent", "bag_children", "bag_roots",
        "bag_atoms", "sep_pos_in_parent",
        "atoms_by_pred", "label_positions", "bag_label_pos",
        "var_positions", "vars_by_label",
        "unconstrained_vars", "constrained_vars",
        "forest_order", "forest_parent", "forest_children", "forest_atoms",
    )

    def __init__(self, source: Structure) -> None:
        td = tree_decomposition(source)
        self.nodes = source.node_order
        self.n = len(self.nodes)
        self.width = td.width
        self.exact = td.exact
        index = source.node_index
        self.labels = [tuple(source.labels(x)) for x in self.nodes]
        self.out_preds = [tuple(source.out_pred_set(x)) for x in self.nodes]
        self.in_preds = [tuple(source.in_pred_set(x)) for x in self.nodes]
        loops: list[tuple[str, ...]] = [()] * self.n
        proper: list[tuple[int, str, int]] = []
        for fact in source.binary_facts:
            s, d = index[fact.src], index[fact.dst]
            if s == d:
                loops[s] = loops[s] + (fact.pred,)
            else:
                proper.append((s, fact.pred, d))
        self.self_loops = loops

        # -- bag tables (the general relational DP) ---------------------
        # Bag i owns exactly the variable eliminated at step i; the
        # rest of the bag (the elimination neighbours) is the separator
        # with the parent.
        bag_vars: list[tuple[int, ...]] = []
        for i, bag in enumerate(td.bags):
            own = td.own[i]
            bag_vars.append((own,) + tuple(sorted(bag - {own})))
        self.bag_vars = tuple(bag_vars)
        self.bag_parent = td.parent
        children: list[list[int]] = [[] for _ in td.bags]
        for i, p in enumerate(td.parent):
            if p >= 0:
                children[p].append(i)
        self.bag_children = tuple(tuple(c) for c in children)
        self.bag_roots = tuple(
            i for i, p in enumerate(td.parent) if p < 0
        )
        sep_pos: list[tuple[int, ...]] = []
        for i, vars_ in enumerate(bag_vars):
            p = td.parent[i]
            if p < 0:
                sep_pos.append(())
            else:
                pvars = bag_vars[p]
                sep_pos.append(tuple(pvars.index(u) for u in vars_[1:]))
        self.sep_pos_in_parent = tuple(sep_pos)

        # Atom assignment: every proper atom is checked in exactly one
        # bag — the elimination bag of whichever endpoint dies first
        # (that bag contains both endpoints by construction).
        elim_pos = {vars_[0]: i for i, vars_ in enumerate(bag_vars)}
        bag_atoms: list[list[tuple[int, str, int]]] = [[] for _ in bag_vars]
        atoms_by_pred: dict[str, list[tuple[int, int, int]]] = {}
        for s, p, d in proper:
            b = min(elim_pos[s], elim_pos[d])
            vars_ = bag_vars[b]
            xp, yp = vars_.index(s), vars_.index(d)
            bag_atoms[b].append((xp, p, yp))
            atoms_by_pred.setdefault(p, []).append((b, xp, yp))
        self.bag_atoms = tuple(tuple(a) for a in bag_atoms)
        self.atoms_by_pred = {
            p: tuple(entries) for p, entries in atoms_by_pred.items()
        }

        # Label / occurrence indexes for the delta warm-start.
        label_positions: dict[str, list[tuple[int, int]]] = {}
        bag_label_pos: list[tuple[int, ...]] = []
        var_positions: dict[int, list[tuple[int, int]]] = {}
        for b, vars_ in enumerate(bag_vars):
            lab_pos = []
            for pos, v in enumerate(vars_):
                var_positions.setdefault(v, []).append((b, pos))
                if self.labels[v]:
                    lab_pos.append(pos)
                    for lab in self.labels[v]:
                        label_positions.setdefault(lab, []).append((b, pos))
            bag_label_pos.append(tuple(lab_pos))
        self.bag_label_pos = tuple(bag_label_pos)
        self.label_positions = {
            lab: tuple(entries) for lab, entries in label_positions.items()
        }
        self.var_positions = {
            v: tuple(entries) for v, entries in var_positions.items()
        }
        vars_by_label: dict[str, list[int]] = {}
        for i in range(self.n):
            for lab in self.labels[i]:
                vars_by_label.setdefault(lab, []).append(i)
        self.vars_by_label = {
            lab: tuple(vs) for lab, vs in vars_by_label.items()
        }
        # Split for the warm-start's delta update: a variable with no
        # label requirement and no self-loop accepts *every* node, so
        # gained target nodes OR in as one mask instead of a per-node
        # qualification loop.
        self.unconstrained_vars = tuple(
            i for i in range(self.n)
            if not self.labels[i] and not self.self_loops[i]
        )
        self.constrained_vars = tuple(
            i for i in range(self.n)
            if self.labels[i] or self.self_loops[i]
        )

        # -- forest schedule (width <= 1 fast path) ---------------------
        if td.width <= 1:
            adj: dict[int, list[int]] = {i: [] for i in range(self.n)}
            edge_atoms: dict[tuple[int, int], list[tuple[str, bool]]] = {}
            for s, p, d in proper:
                key = (min(s, d), max(s, d))
                if key not in edge_atoms:
                    adj[s].append(d)
                    adj[d].append(s)
                edge_atoms.setdefault(key, [])
            for s, p, d in proper:
                key = (min(s, d), max(s, d))
                # Recorded relative to (child, parent) later; store as
                # (pred, src, dst) and orient when the forest is built.
                edge_atoms[key].append((p, s, d))
            order: list[int] = []
            parent = [-1] * self.n
            seen = [False] * self.n
            for root in range(self.n):
                if seen[root]:
                    continue
                seen[root] = True
                queue = [root]
                while queue:
                    v = queue.pop()
                    order.append(v)
                    for u in adj[v]:
                        if not seen[u]:
                            seen[u] = True
                            parent[u] = v
                            queue.append(u)
            forest_atoms: list[tuple[tuple[str, bool], ...]] = [()] * self.n
            for child in range(self.n):
                par = parent[child]
                if par < 0:
                    continue
                key = (min(child, par), max(child, par))
                forest_atoms[child] = tuple(
                    (p, s == child) for p, s, d in edge_atoms[key]
                )
            fchildren: list[list[int]] = [[] for _ in range(self.n)]
            for child, par in enumerate(parent):
                if par >= 0:
                    fchildren[par].append(child)
            self.forest_order = tuple(order)
            self.forest_parent = tuple(parent)
            self.forest_children = tuple(tuple(c) for c in fchildren)
            self.forest_atoms = tuple(forest_atoms)
        else:
            self.forest_order = None
            self.forest_parent = None
            self.forest_children = None
            self.forest_atoms = None


# Fingerprint-keyed plan intern (per process, bounded LRU): a plan is a
# pure function of the query's *content*, so a content-equal structure
# rebuilt elsewhere — a pool worker rebuilding the query from its wire
# form, a fresh factory materialising an interned cactus — picks up the
# plan compiled for the first instance instead of recompiling.  This is
# how plans "ship" over the wire: the fingerprint travels implicitly in
# the facts, the plan is re-found on the other side.  Like runtime's
# ``_WIRE_CACHE`` (and unlike session-owned engine state), it is
# deliberately process-wide: entries are immutable content-derived
# values, safe to share across sessions and cleared only by benchmarks
# measuring cold compiles (:func:`clear_plan_intern`).
_PLAN_INTERN: OrderedDict[str, DecompPlan] = OrderedDict()
_PLAN_INTERN_SIZE = 512

# Optional disk tier under the intern: a session with a durable store
# registers it here (like the intern itself, process-wide — plans are
# immutable content-derived values, so any attached store is as good as
# any other), and intern misses fall through to disk before compiling.
_PLAN_STORE = None


def set_plan_store(store) -> None:
    """Attach a :class:`~repro.core.store.DurableStore` under the plan
    intern so compiled plans survive restarts and ship to workers."""
    global _PLAN_STORE
    _PLAN_STORE = store


def clear_plan_store(store=None) -> None:
    """Detach the plan store (only if it is ``store``, when given —
    closing one session must not unhook another session's store)."""
    global _PLAN_STORE
    if store is None or _PLAN_STORE is store:
        _PLAN_STORE = None


def _plan_from_store(fp: str, source: Structure) -> "DecompPlan | None":
    if _PLAN_STORE is None:
        return None
    from .store import MISS

    cand = _PLAN_STORE.get("plan", fp)
    if cand is MISS or not isinstance(cand, DecompPlan):
        return None
    # Fingerprints are content hashes; a (vanishingly unlikely)
    # collision or a stale payload must never misplan a query, so the
    # stored plan is sanity-checked against the live structure.
    if list(cand.nodes) != list(source.node_order):
        return None
    return cand


def decomp_plan(source: Structure) -> DecompPlan:
    """The compiled :class:`DecompPlan` of ``source`` (cached on the
    structure, interned per content fingerprint, persisted to the
    durable store when one is attached)."""
    plan = source._decomp_plan
    if plan is None:
        fp = source.fingerprint
        plan = _PLAN_INTERN.get(fp)
        if plan is None:
            plan = _plan_from_store(fp, source)
            if plan is None:
                plan = DecompPlan(source)
                if _PLAN_STORE is not None:
                    _PLAN_STORE.put("plan", fp, plan)
            _PLAN_INTERN[fp] = plan
            while len(_PLAN_INTERN) > _PLAN_INTERN_SIZE:
                _PLAN_INTERN.popitem(last=False)
        else:
            _PLAN_INTERN.move_to_end(fp)
        source._decomp_plan = plan
    return plan


def plan_intern_info() -> tuple[int, int]:
    """(occupancy, capacity) of the fingerprint-keyed plan intern."""
    return len(_PLAN_INTERN), _PLAN_INTERN_SIZE


def clear_plan_intern() -> None:
    """Drop every interned plan (benchmarks measuring cold compiles)."""
    _PLAN_INTERN.clear()


# ----------------------------------------------------------------------
# Forest fast path: int-bitset directional semijoins
# ----------------------------------------------------------------------


def _mask_domains(
    plan: DecompPlan,
    target: Structure,
    seed: dict,
    restrict_image,
    node_filter,
    node_domains,
    forbid,
):
    """Per-variable candidate bitsets (the bitset backend's init, plus
    self-loop filtering); ``None`` when some domain is empty."""
    idx = target.bitset_index
    target_names = idx.nodes
    if not target_names:
        return None
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
    domains: list[int] = [0] * plan.n
    for i in range(plan.n):
        x = plan.nodes[i]
        if x in seed:
            image = seed[x]
            t = idx.index.get(image)
            if t is None:
                return None
            if not frozenset(plan.labels[i]) <= target.labels(image):
                return None
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
        for p in plan.self_loops[i]:
            smask = idx.succ.get(p)
            if smask is None:
                return None
            filtered = 0
            d = dom
            while d:
                bit = d & -d
                d ^= bit
                v = bit.bit_length() - 1
                if (smask[v] >> v) & 1:
                    filtered |= bit
            dom = filtered
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
            return None
        domains[i] = dom
    return domains, idx


def _edge_support(idx, p: str, child_is_src: bool, v: int) -> int:
    """Bitmask of child images compatible with parent image ``v`` under
    one (pred, orientation) constraint of a forest edge."""
    table = idx.pred if child_is_src else idx.succ
    masks = table.get(p)
    if masks is None:
        return 0
    return masks[v]


def _forest_filter(
    plan: DecompPlan, idx, domains: list[int], budget=None
) -> bool:
    """One bottom-up directional semijoin pass (leaves to roots).

    For forest-shaped queries this single pass — one revision per query
    edge, no re-enqueueing — establishes directional arc consistency,
    which is *decisive*: a hom exists iff every domain stays non-empty.
    """
    for child in reversed(plan.forest_order):
        if budget is not None:
            budget.charge()  # one directional edge revision
        par = plan.forest_parent[child]
        if par < 0:
            continue
        cdom = domains[child]
        atoms = plan.forest_atoms[child]
        new = 0
        d = domains[par]
        while d:
            bit = d & -d
            d ^= bit
            v = bit.bit_length() - 1
            # One child image must satisfy *all* atoms of the edge:
            # parallel atoms (R and S between the same pair, or R in
            # both directions) intersect their support masks.
            support = cdom
            for p, child_is_src in atoms:
                support &= _edge_support(idx, p, child_is_src, v)
                if not support:
                    break
            if support:
                new |= bit
        if not new:
            return False
        domains[par] = new
    return True


def _iter_forest(plan: DecompPlan, idx, domains: list[int]):
    """All homomorphisms, top-down over the filtered forest domains."""
    names = idx.nodes
    order = plan.forest_order  # parents before children
    n = plan.n
    assignment = [0] * n
    src_nodes = plan.nodes

    def rec(k: int):
        if k == n:
            yield {src_nodes[i]: names[assignment[i]] for i in range(n)}
            return
        var = order[k]
        par = plan.forest_parent[var]
        cand = domains[var]
        if par >= 0:
            v = assignment[par]
            for p, child_is_src in plan.forest_atoms[var]:
                cand &= _edge_support(idx, p, child_is_src, v)
        d = cand
        while d:
            bit = d & -d
            d ^= bit
            assignment[var] = bit.bit_length() - 1
            yield from rec(k + 1)

    yield from rec(0)


def _count_forest(plan: DecompPlan, idx, domains: list[int]) -> int:
    """Bag-product counting over the filtered forest domains."""
    counts: list[dict[int, int]] = [None] * plan.n  # type: ignore
    for var in reversed(plan.forest_order):
        table: dict[int, int] = {}
        children = plan.forest_children[var]
        d = domains[var]
        while d:
            bit = d & -d
            d ^= bit
            v = bit.bit_length() - 1
            total = 1
            for c in children:
                cand = domains[c]
                for p, child_is_src in plan.forest_atoms[c]:
                    cand &= _edge_support(idx, p, child_is_src, v)
                sub = 0
                cc = counts[c]
                while cand:
                    b2 = cand & -cand
                    cand ^= b2
                    sub += cc.get(b2.bit_length() - 1, 0)
                if not sub:
                    total = 0
                    break
                total *= sub
            if total:
                table[v] = total
        counts[var] = table
    result = 1
    for var in plan.forest_order:
        if plan.forest_parent[var] < 0:
            result *= sum(counts[var].values())
    return result


# ----------------------------------------------------------------------
# General relational DP (width >= 2, and the warm-start substrate)
# ----------------------------------------------------------------------


def _relational_domains(
    plan: DecompPlan,
    target: Structure,
    seed: dict,
    restrict_image,
    node_filter,
    node_domains,
    forbid,
    lenient: bool = False,
):
    """Per-variable candidate sets over the target's nodes.

    Returns ``None`` on an empty domain unless ``lenient`` (the
    warm-start state keeps empty domains around: a later delta may
    repopulate them)."""
    nodes = target.nodes
    doms: list[set] = []
    for i in range(plan.n):
        x = plan.nodes[i]
        if x in seed:
            image = seed[x]
            if image in nodes and frozenset(plan.labels[i]) <= target.labels(
                image
            ):
                dom = {image}
            else:
                dom = set()
        else:
            req = plan.labels[i]
            if req:
                dom = set(target.nodes_with_label(req[0]))
                for lab in req[1:]:
                    dom &= target.nodes_with_label(lab)
            else:
                dom = set(nodes)
            if restrict_image is not None:
                dom &= restrict_image
        if forbid:
            dom -= forbid
        if node_domains is not None and x in node_domains:
            dom &= node_domains[x]
        if node_filter is not None:
            dom = {v for v in dom if node_filter(x, v)}
        for p in plan.self_loops[i]:
            dom = {v for v in dom if v in target.out_by_pred(v).get(p, ())}
        if not dom and not lenient:
            return None
        doms.append(dom)
    return doms


def _bag_order(
    plan: DecompPlan, b: int, doms, pinned_keys: frozenset[int]
) -> tuple[int, ...]:
    """An enumeration order of bag positions: pinned first, then
    positions reachable through atoms from already-ordered ones (so
    each gets neighbour-set candidates), then the rest by domain size."""
    vars_ = plan.bag_vars[b]
    k = len(vars_)
    atoms = plan.bag_atoms[b]
    placed: list[int] = sorted(pinned_keys)
    placed_set = set(placed)
    while len(placed) < k:
        frontier = [
            q
            for q in range(k)
            if q not in placed_set
            and any(
                (xp == q and yp in placed_set)
                or (yp == q and xp in placed_set)
                for xp, _, yp in atoms
            )
        ]
        pool = frontier or [q for q in range(k) if q not in placed_set]
        q = min(pool, key=lambda q: (len(doms[vars_[q]]), q))
        placed.append(q)
        placed_set.add(q)
    return tuple(placed)


def _enum_bag(
    plan: DecompPlan,
    b: int,
    doms,
    target: Structure,
    order: tuple[int, ...],
    pinned: dict[int, Node] | None = None,
) -> Iterator[tuple]:
    """All assignments of bag ``b`` satisfying its atoms and domains,
    optionally with some positions pinned; yields tuples aligned with
    ``plan.bag_vars[b]``."""
    vars_ = plan.bag_vars[b]
    atoms = plan.bag_atoms[b]
    k = len(vars_)
    images: list = [None] * k
    placed = [False] * k

    def rec(i: int):
        if i == k:
            yield tuple(images)
            return
        q = order[i]
        var = vars_[q]
        cand = None
        for xp, p, yp in atoms:
            if yp == q and placed[xp]:
                nb = target.out_by_pred(images[xp]).get(p)
            elif xp == q and placed[yp]:
                nb = target.in_by_pred(images[yp]).get(p)
            else:
                continue
            if not nb:
                return
            cand = set(nb) if cand is None else cand & nb
            if not cand:
                return
        pool = doms[var] if cand is None else cand & doms[var]
        if pinned is not None and q in pinned:
            pin = pinned[q]
            pool = (pin,) if pin in pool else ()
        placed[q] = True
        for img in pool:
            images[q] = img
            yield from rec(i + 1)
        placed[q] = False
        images[q] = None

    yield from rec(0)


def _child_key(plan: DecompPlan, c: int, tup: tuple) -> tuple:
    return tuple(tup[p] for p in plan.sep_pos_in_parent[c])


def _solve_relational(
    plan: DecompPlan,
    target: Structure,
    doms,
    counting: bool = False,
    budget=None,
):
    """Bottom-up semijoin DP; returns ``(index, weights)`` or ``None``.

    ``index[b]`` maps a separator key to the surviving own-variable
    images (enough for witness extraction and full enumeration, since
    tuples sharing a key differ only in the own variable);
    ``weights[b]`` (counting only) maps a key to the number of
    extensions of that key over the bag's subtree.
    """
    nbags = len(plan.bag_vars)
    index: list[dict] = [None] * nbags  # type: ignore
    weights: list[dict] = [None] * nbags if counting else None  # type: ignore
    for b in range(nbags):  # ascending = children before parents
        order = _bag_order(plan, b, doms, frozenset())
        surv: dict[tuple, list] = {}
        wts: dict[tuple, int] = {} if counting else None
        for tup in _enum_bag(plan, b, doms, target, order):
            if budget is not None:
                budget.charge()  # one semijoin tuple consumed
            w = 1
            dead = False
            for c in plan.bag_children[b]:
                key = _child_key(plan, c, tup)
                if key not in index[c]:
                    dead = True
                    break
                if counting:
                    w *= weights[c][key]
            if dead:
                continue
            sep = tup[1:]
            surv.setdefault(sep, []).append(tup[0])
            if counting:
                wts[sep] = wts.get(sep, 0) + w
        if not surv:
            return None
        index[b] = surv
        if counting:
            weights[b] = wts
    return index, weights


def _iter_relational(plan: DecompPlan, index: list[dict]):
    """All homomorphisms, top-down over the filtered bag relations."""
    n = plan.n
    nbags = len(plan.bag_vars)
    assignment: list = [None] * n
    src_nodes = plan.nodes
    order = range(nbags - 1, -1, -1)  # parents before children

    def rec(i: int):
        if i == nbags:
            yield {src_nodes[v]: assignment[v] for v in range(n)}
            return
        b = order[i]
        vars_ = plan.bag_vars[b]
        key = tuple(assignment[u] for u in vars_[1:])
        own = vars_[0]
        for img in index[b].get(key, ()):
            assignment[own] = img
            yield from rec(i + 1)

    yield from rec(0)


# ----------------------------------------------------------------------
# The backend entry points
# ----------------------------------------------------------------------


def _iter_decomp(
    source: Structure,
    target: Structure,
    seed: dict,
    restrict_image,
    node_filter: Callable[[Node, Node], bool] | None,
    node_domains,
    forbid,
    budget=None,
) -> Iterator[dict[Node, Node]]:
    """The ``decomp`` backend: enumerate all homomorphisms via the
    decomposition DP (registered in ``homengine._BACKEND_IMPLS``)."""
    plan = decomp_plan(source)
    if plan.n == 0:
        yield {}
        return
    if plan.forest_order is not None:
        prepared = _mask_domains(
            plan, target, seed, restrict_image, node_filter,
            node_domains, forbid,
        )
        if prepared is None:
            return
        domains, idx = prepared
        if not _forest_filter(plan, idx, domains, budget):
            return
        yield from _iter_forest(plan, idx, domains)
        return
    doms = _relational_domains(
        plan, target, seed, restrict_image, node_filter,
        node_domains, forbid,
    )
    if doms is None:
        return
    solved = _solve_relational(plan, target, doms, budget=budget)
    if solved is None:
        return
    yield from _iter_relational(plan, solved[0])


def count_decomp(
    source: Structure,
    target: Structure,
    seed: dict,
    restrict_image,
    node_filter,
    node_domains,
    forbid,
    budget=None,
) -> tuple[int, dict[Node, Node] | None]:
    """``(count, first_witness)`` via bag-product counting — the DP
    multiplies per-bag extension counts instead of enumerating the hom
    set, so counting costs one bottom-up pass even when the count is
    astronomically large."""
    plan = decomp_plan(source)
    if plan.n == 0:
        return 1, {}
    if plan.forest_order is not None:
        prepared = _mask_domains(
            plan, target, seed, restrict_image, node_filter,
            node_domains, forbid,
        )
        if prepared is None:
            return 0, None
        domains, idx = prepared
        if not _forest_filter(plan, idx, domains, budget):
            return 0, None
        count = _count_forest(plan, idx, domains)
        witness = next(_iter_forest(plan, idx, domains), None)
        return count, witness
    doms = _relational_domains(
        plan, target, seed, restrict_image, node_filter,
        node_domains, forbid,
    )
    if doms is None:
        return 0, None
    solved = _solve_relational(plan, target, doms, counting=True, budget=budget)
    if solved is None:
        return 0, None
    index, weights = solved
    count = 1
    for b in plan.bag_roots:
        count *= sum(weights[b].values())
    witness = next(_iter_relational(plan, index), None)
    return count, witness


# ----------------------------------------------------------------------
# Semiring-generic DP (weighted evaluation over any commutative semiring)
# ----------------------------------------------------------------------
#
# The two counting kernels above are the COUNT specialisation of the
# functions below: bag products/sums written as ``*``/``+`` over python
# ints become ``times``/``plus`` over an arbitrary commutative semiring,
# and each query atom multiplies in the weight of its image fact exactly
# once — unary labels and self-loops at the variable's own bag, proper
# atoms at the bag they are assigned to.  Soundness needs only
# distributivity (which every semiring has), so the arc-consistency
# pre-filters stay: they remove candidates with no completion, i.e.
# terms that would contribute ``zero``.  ``count_decomp`` is kept as
# the integer fast path (no per-tuple weight lookups) and is
# cross-checked against ``semiring_decomp(COUNT)`` in the tests.


def _forest_value(
    plan: DecompPlan, idx, domains: list[int], sr, weights, budget=None
):
    """Bag-value DP over the filtered forest domains: the semiring
    generalisation of :func:`_count_forest`."""
    names = idx.nodes
    weighted = weights is not None or sr.annotate_fact is not None
    zero = sr.zero
    vals: list[dict[int, object]] = [None] * plan.n  # type: ignore
    for var in reversed(plan.forest_order):
        table: dict[int, object] = {}
        children = plan.forest_children[var]
        labels = plan.labels[var]
        loops = plan.self_loops[var]
        d = domains[var]
        while d:
            bit = d & -d
            d ^= bit
            v = bit.bit_length() - 1
            if budget is not None:
                budget.charge()  # one DP cell
            total = sr.one
            if weighted:
                name = names[v]
                for lab in labels:
                    total = sr.times(
                        total, sr.weight_of(UnaryFact(lab, name), weights)
                    )
                for p in loops:
                    total = sr.times(
                        total,
                        sr.weight_of(BinaryFact(p, name, name), weights),
                    )
            dead = False
            for c in children:
                cand = domains[c]
                for p, child_is_src in plan.forest_atoms[c]:
                    cand &= _edge_support(idx, p, child_is_src, v)
                sub = zero
                cc = vals[c]
                while cand:
                    b2 = cand & -cand
                    cand ^= b2
                    w = b2.bit_length() - 1
                    cw = cc.get(w)
                    if cw is None:
                        continue
                    if weighted:
                        ew = sr.one
                        for p, child_is_src in plan.forest_atoms[c]:
                            fact = (
                                BinaryFact(p, names[w], names[v])
                                if child_is_src
                                else BinaryFact(p, names[v], names[w])
                            )
                            ew = sr.times(ew, sr.weight_of(fact, weights))
                        cw = sr.times(ew, cw)
                    sub = sr.plus(sub, cw)
                if sub == zero:
                    dead = True
                    break
                total = sr.times(total, sub)
            if not dead and total != zero:
                table[v] = total
        vals[var] = table
    result = sr.one
    for var in plan.forest_order:
        if plan.forest_parent[var] < 0:
            result = sr.times(result, sr.sum(vals[var].values()))
    return result


def _solve_relational_value(
    plan: DecompPlan, target: Structure, doms, sr, weights, budget=None
):
    """Bottom-up semijoin value DP: the semiring generalisation of
    :func:`_solve_relational`'s counting mode."""
    weighted = weights is not None or sr.annotate_fact is not None
    nbags = len(plan.bag_vars)
    tables: list[dict[tuple, object]] = [None] * nbags  # type: ignore
    for b in range(nbags):  # ascending = children before parents
        order = _bag_order(plan, b, doms, frozenset())
        own = plan.bag_vars[b][0]
        labels = plan.labels[own]
        loops = plan.self_loops[own]
        atoms = plan.bag_atoms[b]
        wts: dict[tuple, object] = {}
        for tup in _enum_bag(plan, b, doms, target, order):
            if budget is not None:
                budget.charge()  # one semijoin tuple consumed
            w = sr.one
            if weighted:
                img = tup[0]
                for lab in labels:
                    w = sr.times(w, sr.weight_of(UnaryFact(lab, img), weights))
                for p in loops:
                    w = sr.times(
                        w, sr.weight_of(BinaryFact(p, img, img), weights)
                    )
                for xp, p, yp in atoms:
                    w = sr.times(
                        w,
                        sr.weight_of(BinaryFact(p, tup[xp], tup[yp]), weights),
                    )
            dead = False
            for c in plan.bag_children[b]:
                cw = tables[c].get(_child_key(plan, c, tup))
                if cw is None:
                    dead = True
                    break
                w = sr.times(w, cw)
            if dead:
                continue
            sep = tup[1:]
            prev = wts.get(sep)
            wts[sep] = w if prev is None else sr.plus(prev, w)
        if not wts:
            return sr.zero
        tables[b] = wts
    result = sr.one
    for b in plan.bag_roots:
        result = sr.times(result, sr.sum(tables[b].values()))
    return result


def semiring_decomp(
    source: Structure,
    target: Structure,
    semiring,
    weights,
    seed: dict,
    restrict_image,
    node_filter,
    node_domains,
    forbid,
    budget=None,
):
    """The value ``⊕_h ⊗_atoms weight(h(atom))`` over all homomorphisms
    ``source -> target``, by one bottom-up DP pass over the compiled
    decomposition plan — the weighted analogue of :func:`count_decomp`,
    generic over any registered commutative semiring."""
    sr = semiring
    plan = decomp_plan(source)
    if plan.n == 0:
        return sr.one
    if plan.forest_order is not None:
        prepared = _mask_domains(
            plan, target, seed, restrict_image, node_filter,
            node_domains, forbid,
        )
        if prepared is None:
            return sr.zero
        domains, idx = prepared
        if not _forest_filter(plan, idx, domains, budget):
            return sr.zero
        return _forest_value(plan, idx, domains, sr, weights, budget)
    doms = _relational_domains(
        plan, target, seed, restrict_image, node_filter,
        node_domains, forbid,
    )
    if doms is None:
        return sr.zero
    return _solve_relational_value(plan, target, doms, sr, weights, budget)


# ----------------------------------------------------------------------
# Delta warm-started coverage (the boundedness probe's inner loop)
# ----------------------------------------------------------------------


class CoverageState:
    """The relational-DP state of one source against one target.

    Holds the raw (pre-semijoin) per-bag satisfying sets, the
    per-position image indexes that make label-removal kills O(killed),
    the per-bag alive separator keys, and the target's edges grouped by
    predicate.  :meth:`extended` derives the state of an
    add-only-extended target by applying the delta instead of
    re-enumerating — the warm start of the boundedness probe.
    """

    __slots__ = ("plan", "doms", "raw", "img_index", "alive", "covered")

    @classmethod
    def cold(
        cls, plan: DecompPlan, target: Structure, seed: Seed | None
    ) -> "CoverageState":
        st = cls.__new__(cls)
        st.plan = plan
        st.doms = _relational_domains(
            plan, target, dict(seed or {}), None, None, None, None,
            lenient=True,
        )
        # Per-predicate edge lists drive only this cold enumeration;
        # warm extensions enumerate anchored at the delta instead, so
        # the grouping is not retained on the state.
        edges: dict[str, list] = {}
        for fact in target.binary_facts:
            edges.setdefault(fact.pred, []).append((fact.src, fact.dst))
        nbags = len(plan.bag_vars)
        st.raw = [set() for _ in range(nbags)]
        st.img_index = [{} for _ in range(nbags)]
        for b in range(nbags):
            atoms = plan.bag_atoms[b]
            if atoms:
                xp, p, yp = atoms[0]
                order = _bag_order(plan, b, st.doms, frozenset({xp, yp}))
                for u, w in edges.get(p, ()):
                    for tup in _enum_bag(
                        plan, b, st.doms, target, order, pinned={xp: u, yp: w}
                    ):
                        st._add_tuple(b, tup)
            else:
                order = _bag_order(plan, b, st.doms, frozenset())
                for tup in _enum_bag(plan, b, st.doms, target, order):
                    st._add_tuple(b, tup)
        st.alive = [set() for _ in range(nbags)]
        st._sweep([True] * nbags)
        return st

    def _add_tuple(self, b: int, tup: tuple) -> bool:
        raw = self.raw[b]
        if tup in raw:
            return False
        raw.add(tup)
        idx = self.img_index[b]
        for pos in self.plan.bag_label_pos[b]:
            idx.setdefault((pos, tup[pos]), set()).add(tup)
        return True

    def _kill_tuple(self, b: int, tup: tuple) -> None:
        self.raw[b].discard(tup)
        idx = self.img_index[b]
        for pos in self.plan.bag_label_pos[b]:
            entry = idx.get((pos, tup[pos]))
            if entry is not None:
                entry.discard(tup)

    def _sweep(self, dirty: list[bool]) -> None:
        """Bottom-up semijoin over the raw sets, recomputing only bags
        whose raw set or some child projection changed."""
        plan = self.plan
        changed = [False] * len(plan.bag_vars)
        for b in range(len(plan.bag_vars)):
            if not dirty[b] and not any(
                changed[c] for c in plan.bag_children[b]
            ):
                continue
            new = set()
            children = plan.bag_children[b]
            alive = self.alive
            for tup in self.raw[b]:
                for c in children:
                    if _child_key(plan, c, tup) not in alive[c]:
                        break
                else:
                    new.add(tup[1:])
            if new != self.alive[b]:
                self.alive[b] = new
                changed[b] = True
        self.covered = all(self.alive[r] for r in plan.bag_roots)

    def copy(self) -> "CoverageState":
        st = CoverageState.__new__(CoverageState)
        st.plan = self.plan
        st.doms = [set(d) for d in self.doms]
        st.raw = [set(r) for r in self.raw]
        st.img_index = [
            {k: set(v) for k, v in idx.items()} for idx in self.img_index
        ]
        st.alive = [set(a) for a in self.alive]
        st.covered = self.covered
        return st

    def extended(
        self,
        target: Structure,
        seed: Seed | None,
        add_nodes,
        add_unary,
        add_binary,
        removed_unary,
    ) -> "CoverageState":
        """The state of ``target`` (= this state's target plus the given
        add-only delta), derived by delta application.

        Soundness: a tuple valid against the extension but not the base
        must touch the delta — some variable image is a new node, a
        node with a changed label, or an endpoint of a new edge; a
        tuple valid against the base dies only through a removed label.
        Kills are O(killed) through the per-position image index, new
        tuples are enumerated anchored at the delta, and the semijoin
        re-propagates only bags whose sets changed.
        """
        st = self.copy()
        plan = st.plan
        seed = dict(seed or {})
        fixed = {plan.nodes.index(x): img for x, img in seed.items()} \
            if seed else {}
        dirty = [False] * len(plan.bag_vars)

        # -- kills: removed labels invalidate tuples and domain entries
        for fact in removed_unary:
            for i in plan.vars_by_label.get(fact.label, ()):
                st.doms[i].discard(fact.node)
            for b, pos in plan.label_positions.get(fact.label, ()):
                victims = st.img_index[b].get((pos, fact.node))
                if victims:
                    for tup in list(victims):
                        st._kill_tuple(b, tup)
                    dirty[b] = True

        # -- domain gains: new nodes and newly-labelled nodes
        cand_nodes = set(add_nodes) | {f.node for f in add_unary}
        for fact in add_binary:
            if fact.src == fact.dst:
                cand_nodes.add(fact.src)  # may enable a self-loop var
        gained: list[tuple[int, Node]] = []
        for v in cand_nodes:
            labs = target.labels(v)
            for i in range(plan.n):
                if v in st.doms[i]:
                    continue
                if i in fixed and v != fixed[i]:
                    continue
                if not frozenset(plan.labels[i]) <= labs:
                    continue
                if any(
                    v not in target.out_by_pred(v).get(p, ())
                    for p in plan.self_loops[i]
                ):
                    continue
                st.doms[i].add(v)
                gained.append((i, v))

        # -- new tuples anchored at the delta
        for fact in add_binary:
            for b, xp, yp in plan.atoms_by_pred.get(fact.pred, ()):
                order = _bag_order(plan, b, st.doms, frozenset({xp, yp}))
                for tup in _enum_bag(
                    plan, b, st.doms, target, order,
                    pinned={xp: fact.src, yp: fact.dst},
                ):
                    if st._add_tuple(b, tup):
                        dirty[b] = True
        for i, v in gained:
            for b, pos in plan.var_positions.get(i, ()):
                order = _bag_order(plan, b, st.doms, frozenset({pos}))
                for tup in _enum_bag(
                    plan, b, st.doms, target, order, pinned={pos: v}
                ):
                    if st._add_tuple(b, tup):
                        dirty[b] = True

        st._sweep(dirty)
        return st


class MaskCoverageState:
    """The bitset-DP state of one forest-shaped source against one
    target of an extension chain.

    The per-variable candidate bitsets (label + self-loop + seed
    constrained — the "bag satisfying sets" of a width-1 plan, whose
    bags are single query edges) are the retained state: extension
    preserves the target's interning order, so every bit position stays
    valid across the chain, and :meth:`extended` edits only the bits
    the delta touches — cleared where a label was removed, set where a
    new or newly-labelled node qualifies — before the (one-pass)
    directional semijoin re-decides coverage.
    """

    __slots__ = ("init_doms", "target_order", "covered")

    @classmethod
    def cold(
        cls, plan: DecompPlan, target: Structure, seed: Seed | None
    ) -> "MaskCoverageState":
        st = cls.__new__(cls)
        st.init_doms = _lenient_mask_domains(plan, target, seed)
        st.target_order = target.node_order
        st._decide(plan, target)
        return st

    def _decide(self, plan: DecompPlan, target: Structure) -> None:
        idx = target.bitset_index
        domains = list(self.init_doms)
        self.covered = _forest_filter(plan, idx, domains) and all(domains)

    def witness(self, plan: DecompPlan, target: Structure):
        """A covering homomorphism (for the hom-cache), or ``None``.

        Re-runs the (cheap) one-pass filter and extracts the first
        assignment top-down; only called on positive answers, which
        short-circuit the probe's source scan."""
        if not self.covered:
            return None
        idx = target.bitset_index
        domains = list(self.init_doms)
        if not _forest_filter(plan, idx, domains):
            return None
        return next(_iter_forest(plan, idx, domains), None)

    def extended(
        self,
        plan: DecompPlan,
        target: Structure,
        seed: Seed | None,
        add_nodes,
        add_unary,
        add_binary,
        removed_unary,
    ) -> "MaskCoverageState | None":
        # The bit reuse is only sound when the child target's interning
        # order extends the parent's (the factory guarantees it for its
        # own chains by forcing the order before extending; anything
        # else falls back to a cold solve).
        n_parent = len(self.target_order)
        if target.node_order[:n_parent] != self.target_order:
            return None
        st = MaskCoverageState.__new__(MaskCoverageState)
        idx = target.bitset_index
        doms = list(self.init_doms)
        fixed = dict(seed or {})
        for fact in removed_unary:
            bit = 1 << idx.index[fact.node]
            for i in plan.vars_by_label.get(fact.label, ()):
                doms[i] &= ~bit
        cand = set(add_nodes) | {f.node for f in add_unary}
        for fact in add_binary:
            if fact.src == fact.dst:
                cand.add(fact.src)  # may enable a self-loop variable
        cand_mask = 0
        index = idx.index
        for v in cand:
            cand_mask |= 1 << index[v]
        fixed_ids = (
            {plan.nodes.index(x) for x in fixed} if fixed else frozenset()
        )
        # Unconstrained variables accept every node: one OR suffices.
        for i in plan.unconstrained_vars:
            if i not in fixed_ids:
                doms[i] |= cand_mask
        if plan.constrained_vars:
            for v in cand:
                t = index[v]
                bit = 1 << t
                labs = target.labels(v)
                for i in plan.constrained_vars:
                    if doms[i] & bit:
                        continue
                    x = plan.nodes[i]
                    if x in fixed and v != fixed[x]:
                        continue
                    if not frozenset(plan.labels[i]) <= labs:
                        continue
                    for p in plan.self_loops[i]:
                        smask = idx.succ.get(p)
                        if smask is None or not (smask[t] >> t) & 1:
                            break
                    else:
                        doms[i] |= bit
        st.init_doms = doms
        st.target_order = target.node_order
        st._decide(plan, target)
        return st


def _lenient_mask_domains(
    plan: DecompPlan, target: Structure, seed: Seed | None
) -> list[int]:
    """Label/self-loop/seed candidate bitsets, *keeping* empty domains
    (a later delta may repopulate them; the semijoin pass decides)."""
    idx = target.bitset_index
    seed = dict(seed or {})
    doms: list[int] = [0] * plan.n
    for i in range(plan.n):
        x = plan.nodes[i]
        if x in seed:
            image = seed[x]
            t = idx.index.get(image)
            if t is None or not frozenset(plan.labels[i]) <= target.labels(
                image
            ):
                continue
            dom = 1 << t
        else:
            dom = idx.full_mask
            for label in plan.labels[i]:
                dom &= idx.label_nodes.get(label, 0)
        for p in plan.self_loops[i]:
            smask = idx.succ.get(p)
            if smask is None:
                dom = 0
                break
            filtered = 0
            d = dom
            while d:
                bit = d & -d
                d ^= bit
                v = bit.bit_length() - 1
                if (smask[v] >> v) & 1:
                    filtered |= bit
            dom = filtered
        doms[i] = dom
    return doms


class ProbeCoverage:
    """Delta warm-started cactus coverage for one boundedness probe.

    One instance lives for the duration of a
    :func:`~repro.core.boundedness.probe_boundedness` call.  Per
    (source, focus-requirement) it keeps a bounded LRU of coverage
    states keyed by target fingerprint; a target carrying a recorded
    construction delta (``Cactus.cover_delta``) whose parent state is
    retained is answered by delta application instead of a from-scratch
    solve.  Forest-shaped sources (the overwhelmingly common case:
    cactuses of tree queries) use the bitset tier
    (:class:`MaskCoverageState`), whose states are a handful of ints —
    its LRU is sized to survive whole span>=2 layers, so parents are
    still retained when their (many) children arrive; width-2 sources
    use the heavier relational tier (:class:`CoverageState`) with a
    small LRU; anything wider falls back to the session's regular
    (cached) hom engine.

    Answers are exchanged with the calling session's hom-cache under
    the ``decomp`` backend key (the coverage predicate *is*
    ``has_homomorphism``): a repeated probe — same session, same query,
    deeper run — is answered from the cache without re-solving, exactly
    like the batch path it replaces.  Negative answers always cache;
    positive ones cache when the tier can extract a witness (the
    find-cache stores witnesses, never bare booleans).
    """

    MAX_MASK_STATES_PER_SOURCE = 128
    MAX_RELATIONAL_STATES_PER_SOURCE = 8
    MAX_WIDTH = 2

    def __init__(self, session=None) -> None:
        self._session = session
        self._chains: dict[tuple, OrderedDict[str, object]] = {}
        self._answers: dict[tuple, bool] = {}
        # Every cactus structure seen by this probe, by fingerprint:
        # the parent of any deeper target passed through here earlier
        # (as a shallower target or a shallow source), so a chain with
        # no retained parent state can *seed* itself — one cold solve
        # of the parent makes the whole sibling layer warm.
        self._structures: dict[str, Structure] = {}
        self.warm_hits = 0
        self.cold_solves = 0

    def covered_by_any(self, target, shallow, require_focus: bool) -> bool:
        """Does some cactus in ``shallow`` map into the cactus
        ``target`` (fixing the root focus when ``require_focus``)?"""
        self._structures.setdefault(
            target.structure.fingerprint, target.structure
        )
        for source in shallow:
            self._structures.setdefault(
                source.structure.fingerprint, source.structure
            )
        return any(
            self._check(source, target, require_focus) for source in shallow
        )

    def _engine_and_key(self, source, target, seed):
        """The session's hom engine plus the find-cache key this pair
        shares with ``has_homomorphism(..., backend="decomp")`` (None
        when the session disabled its cache)."""
        from . import homengine

        engine = homengine._engine(self._session)
        if not engine.cache_enabled:
            return engine, None
        key = homengine._cache_key(
            "decomp", source.structure, target.structure, seed,
            None, None, None,
        )
        return engine, key

    def _check(self, source, target, require_focus: bool) -> bool:
        skey = (source.structure.fingerprint, require_focus)
        tfp = target.structure.fingerprint
        answer = self._answers.get((skey, tfp))
        if answer is not None:
            return answer
        seed = (
            {source.root_focus: target.root_focus} if require_focus else None
        )
        plan = decomp_plan(source.structure)
        if plan.width > self.MAX_WIDTH:
            from . import homengine

            answer = homengine.has_homomorphism(
                source.structure,
                target.structure,
                seed=seed,
                session=self._session,
            )
            self._answers[(skey, tfp)] = answer
            return answer
        from .homengine import _MISS

        engine, cache_key = self._engine_and_key(source, target, seed)
        if cache_key is not None:
            hit = engine._cache_get(cache_key)
            if hit is not _MISS:
                answer = hit is not None
                self._answers[(skey, tfp)] = answer
                return answer
        mask_tier = plan.forest_order is not None
        tier = MaskCoverageState if mask_tier else CoverageState
        chain = self._chains.setdefault(skey, OrderedDict())
        state = None
        delta = getattr(target, "cover_delta", None)
        if delta is not None:
            parent_state = chain.get(delta[0])
            if parent_state is None:
                # Seed the chain: the parent structure passed through
                # this probe earlier, so one cold solve of the parent
                # turns this target — and every sibling extending the
                # same parent — into a warm extension.  (The root focus
                # node is identical all along a cactus chain, so the
                # seed dict transfers unchanged.)
                parent_structure = self._structures.get(delta[0])
                if parent_structure is not None:
                    parent_state = tier.cold(plan, parent_structure, seed)
                    self.cold_solves += 1
                    chain[delta[0]] = parent_state
            else:
                chain.move_to_end(delta[0])
            if parent_state is not None:
                if mask_tier:
                    state = parent_state.extended(
                        plan, target.structure, seed, *delta[1:]
                    )
                else:
                    state = parent_state.extended(
                        target.structure, seed, *delta[1:]
                    )
                if state is not None:
                    self.warm_hits += 1
        if state is None:
            state = tier.cold(plan, target.structure, seed)
            self.cold_solves += 1
        chain[tfp] = state
        limit = (
            self.MAX_MASK_STATES_PER_SOURCE
            if mask_tier
            else self.MAX_RELATIONAL_STATES_PER_SOURCE
        )
        while len(chain) > limit:
            chain.popitem(last=False)
        answer = state.covered
        self._answers[(skey, tfp)] = answer
        if cache_key is not None:
            if not answer:
                engine._cache_put(cache_key, None)
            elif mask_tier:
                witness = state.witness(plan, target.structure)
                if witness is not None:
                    engine._cache_put(cache_key, tuple(witness.items()))
        return answer
