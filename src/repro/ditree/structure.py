"""Structure theory of ditree CQs (Section 4 of the paper).

For a rooted directed tree ``q`` with root ``r``:

* ``x ⪯ y`` iff there is a directed path from x to y (the tree order);
* ``inf(x, y)`` is the ⪯-greatest common ancestor;
* ``δ(x, y)`` is the edge distance along the tree order;
* ``∂(x, y) = δ(inf, x) + δ(inf, y)`` is the (undirected) distance.

A *solitary pair* ``(t, f)`` combines a solitary T node and a solitary F
node.  A ≺-incomparable pair is *symmetric* if stripping the F/T labels
from ``f``/``t`` and cutting the subtrees strictly below them leaves a CQ
with an automorphism swapping ``t`` and ``f``.  A ditree CQ is
*quasi-symmetric* if it has no ≺-comparable solitary pair and every
minimal-distance solitary pair is symmetric.

These notions drive the classifiers of Theorems 7, 9 and 11.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.cq import solitary_f_nodes, solitary_t_nodes, twin_nodes
from ..core.homengine import has_homomorphism, iter_homomorphisms
from ..core.structure import F, Node, Structure, T


class DitreeError(ValueError):
    """Raised when an operation requires a rooted ditree CQ."""


@dataclass(frozen=True)
class DitreeCQ:
    """A ditree CQ with precomputed order/depth tables."""

    query: Structure
    root: Node
    parent: dict[Node, Node]
    depth: dict[Node, int]

    @classmethod
    def from_structure(cls, q: Structure) -> "DitreeCQ":
        if not q.is_ditree():
            raise DitreeError("query is not a rooted directed tree")
        root = q.ditree_root()
        parent: dict[Node, Node] = {}
        depth: dict[Node, int] = {root: 0}
        stack = [root]
        while stack:
            node = stack.pop()
            for child in q.successors(node):
                parent[child] = node
                depth[child] = depth[node] + 1
                stack.append(child)
        return cls(q, root, parent, depth)

    # -- order ---------------------------------------------------------

    def ancestors(self, node: Node) -> list[Node]:
        """Strict ancestors, nearest first."""
        out = []
        while node in self.parent:
            node = self.parent[node]
            out.append(node)
        return out

    def leq(self, x: Node, y: Node) -> bool:
        """``x ⪯ y``: x lies on the path from the root to y."""
        return x == y or x in self.ancestors(y)

    def lt(self, x: Node, y: Node) -> bool:
        return x != y and self.leq(x, y)

    def comparable(self, x: Node, y: Node) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def inf(self, x: Node, y: Node) -> Node:
        """The ⪯-greatest common ancestor ``inf(x, y)``."""
        xs = [x] + self.ancestors(x)
        ys = set([y] + self.ancestors(y))
        for node in xs:
            if node in ys:
                return node
        raise DitreeError("nodes share no ancestor (not a tree?)")

    def delta(self, x: Node, y: Node) -> int:
        """Edge count from x down to y; requires ``x ⪯ y``."""
        if not self.leq(x, y):
            raise DitreeError(f"δ requires {x!r} ⪯ {y!r}")
        return self.depth[y] - self.depth[x]

    def distance(self, x: Node, y: Node) -> int:
        """``∂(x, y)``: undirected tree distance."""
        m = self.inf(x, y)
        return self.delta(m, x) + self.delta(m, y)

    def subtree_nodes(self, node: Node) -> frozenset[Node]:
        """All descendants of ``node`` including itself (``q_x``)."""
        out = {node}
        stack = [node]
        while stack:
            current = stack.pop()
            for child in self.query.successors(current):
                out.add(child)
                stack.append(child)
        return frozenset(out)

    def subtree(self, node: Node) -> Structure:
        return self.query.restrict(self.subtree_nodes(node))

    def subtree_depth(self, node: Node) -> int:
        nodes = self.subtree_nodes(node)
        return max(self.depth[n] for n in nodes) - self.depth[node]

    # -- solitary pairs --------------------------------------------------

    def solitary_pairs(self) -> list[tuple[Node, Node]]:
        """All (t, f) pairs of solitary T and solitary F nodes."""
        ts = sorted(solitary_t_nodes(self.query), key=str)
        fs = sorted(solitary_f_nodes(self.query), key=str)
        return [(t, f) for t in ts for f in fs]

    def comparable_solitary_pairs(self) -> list[tuple[Node, Node]]:
        return [
            (t, f) for t, f in self.solitary_pairs() if self.comparable(t, f)
        ]

    def minimal_distance_pairs(self) -> list[tuple[Node, Node]]:
        pairs = self.solitary_pairs()
        if not pairs:
            return []
        best = min(self.distance(t, f) for t, f in pairs)
        return [
            (t, f) for t, f in pairs if self.distance(t, f) == best
        ]

    def trunk(self, t: Node, f: Node) -> Structure:
        """The CQ used in the symmetry test: strip the F/T labels from
        ``f``/``t`` and cut the branches strictly below them."""
        below = (self.subtree_nodes(t) - {t}) | (self.subtree_nodes(f) - {f})
        trimmed = self.query.without_nodes(below)
        trimmed = trimmed.relabel_node(t, remove=[T])
        trimmed = trimmed.relabel_node(f, remove=[F])
        return trimmed

    def is_symmetric_pair(self, t: Node, f: Node) -> bool:
        """A ≺-incomparable pair is symmetric if the trunk admits an
        automorphism (root-preserving isomorphism) swapping t and f."""
        if self.comparable(t, f):
            return False
        trunk = self.trunk(t, f)
        for hom in iter_homomorphisms(trunk, trunk, seed={t: f, f: t}):
            if len(set(hom.values())) == len(trunk.nodes):
                return True
        return False

    def is_quasi_symmetric(self) -> bool:
        """No ≺-comparable solitary pairs, and every minimal-distance
        solitary pair is symmetric."""
        if self.comparable_solitary_pairs():
            return False
        return all(
            self.is_symmetric_pair(t, f)
            for t, f in self.minimal_distance_pairs()
        )

    # -- Λ-CQs ----------------------------------------------------------

    def is_lambda_cq(self) -> bool:
        """A Λ-CQ: one solitary F, every solitary T ≺-incomparable
        with it (the fragment of Theorem 9)."""
        fs = solitary_f_nodes(self.query)
        if len(fs) != 1:
            return False
        (f,) = fs
        return all(
            not self.comparable(t, f)
            for t in solitary_t_nodes(self.query)
        )

    def span(self) -> int:
        return len(solitary_t_nodes(self.query))

    @property
    def twins(self) -> frozenset[Node]:
        return twin_nodes(self.query)


def is_minimal(q: Structure) -> bool:
    """Minimality of a CQ: no homomorphism into a proper sub-CQ.

    For tree-shaped CQs this is polynomial (we exploit that dropping a
    leaf preserves tree shape); the generic fallback drops any node.
    """
    for node in q.nodes:
        if has_homomorphism(q, q.without_nodes([node])):
            return False
    return True


def minimise(q: Structure) -> Structure:
    """Iteratively remove nodes while a retraction exists (the core)."""
    current = q
    changed = True
    while changed:
        changed = False
        for node in sorted(current.nodes, key=str):
            candidate = current.without_nodes([node])
            if has_homomorphism(current, candidate):
                current = candidate
                changed = True
                break
    return current


def ditree_pairs_summary(cq: DitreeCQ) -> dict[str, object]:
    """A structural report used by the classifiers and the examples."""
    pairs = cq.solitary_pairs()
    return {
        "root": cq.root,
        "solitary_pairs": len(pairs),
        "comparable_pairs": len(cq.comparable_solitary_pairs()),
        "min_distance": (
            min(cq.distance(t, f) for t, f in pairs) if pairs else None
        ),
        "twins": len(cq.twins),
        "quasi_symmetric": cq.is_quasi_symmetric(),
        "lambda_cq": cq.is_lambda_cq(),
        "span": cq.span(),
    }
