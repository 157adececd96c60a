"""The Schema.org / DL-Lite_bool bridge (Section 3.6, Proposition 5).

A d-sirup ``(Δ_q, G)`` uses the covering rule ``T(x) ∨ F(x) <- A(x)``.
Replacing it with the Schema.org-style range constraint

    ``T(y) ∨ F(y) <- R_cov(x, y)``            (rule (9), fresh ``R_cov``)

yields the "ontology-mediated" variant ``(Δ'_q, G)``.  Proposition 5:
the two are FO-rewritable together; moreover (as the proof shows) they
agree on corresponding data instances under the back-and-forth
translations implemented here:

* :func:`data_to_schema_org` — replace every fact ``A(b)`` by
  ``R_cov(aux_b, b)``;
* :func:`data_from_schema_org` — add ``A(b)`` for every ``R_cov(a, b)``;
* :func:`rewrite_ucq_to_schema_org` / :func:`rewrite_ucq_from_schema_org`
  — the rewriting translations used in the proof.

Certain answers for ``(Δ'_q, G)`` are computed by completing the range
of ``R_cov`` in all possible ways (:func:`certain_answer_schema_org`).
The module also pretty-prints the DL-Lite_bool form of the ontology.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ..core.dsirup import complete
from ..core.homengine import has_homomorphism
from ..core.structure import (
    A,
    BinaryFact,
    F,
    Node,
    Structure,
    T,
    UnaryFact,
)

COVER_ROLE = "R_cov"


def data_to_schema_org(data: Structure) -> Structure:
    """Replace every ``A(b)`` by ``R_cov(aux_b, b)`` (proof of Prop. 5)."""
    unary = {f for f in data.unary_facts if f.label != A}
    binary = set(data.binary_facts)
    nodes = set(data.nodes)
    for fact in data.unary_facts:
        if fact.label == A:
            aux = ("aux", fact.node)
            nodes.add(aux)
            binary.add(BinaryFact(COVER_ROLE, aux, fact.node))
    return Structure(nodes, unary, binary)


def data_from_schema_org(data: Structure) -> Structure:
    """Add ``A(b)`` for every ``R_cov(a, b)`` fact."""
    unary = set(data.unary_facts)
    for fact in data.binary_facts:
        if fact.pred == COVER_ROLE:
            unary.add(UnaryFact(A, fact.dst))
    return Structure(data.nodes, unary, data.binary_facts)


def _cover_targets(data: Structure) -> tuple[Node, ...]:
    targets = {
        fact.dst
        for fact in data.binary_facts
        if fact.pred == COVER_ROLE
    }
    return tuple(sorted(targets, key=str))


def iter_schema_org_completions(data: Structure) -> Iterator[Structure]:
    """All completions labelling each ``R_cov``-range element T or F."""
    targets = _cover_targets(data)
    for combo in itertools.product((T, F), repeat=len(targets)):
        yield complete(data, dict(zip(targets, combo)))


def certain_answer_schema_org(q: Structure, data: Structure) -> bool:
    """Certain answer to ``(Δ'_q, G)`` over a Schema.org data instance."""
    return all(
        has_homomorphism(q, model)
        for model in iter_schema_org_completions(data)
    )


def rewrite_ucq_to_schema_org(ucq: list[Structure]) -> list[Structure]:
    """Translate a UCQ-rewriting of ``(Δ_q, G)`` to one of ``(Δ'_q, G)``:
    replace each atom ``A(y)`` by ``∃x R_cov(x, y)``."""
    out = []
    for cq in ucq:
        unary = {f for f in cq.unary_facts if f.label != A}
        binary = set(cq.binary_facts)
        nodes = set(cq.nodes)
        for fact in cq.unary_facts:
            if fact.label == A:
                aux = ("aux", fact.node)
                nodes.add(aux)
                binary.add(BinaryFact(COVER_ROLE, aux, fact.node))
        out.append(Structure(nodes, unary, binary))
    return out


def rewrite_ucq_from_schema_org(ucq: list[Structure]) -> list[Structure]:
    """The converse translation: each ``R_cov(x, y)`` becomes ``A(y)``
    (dropping the auxiliary source variable when it becomes isolated)."""
    out = []
    for cq in ucq:
        unary = set(cq.unary_facts)
        binary = set()
        for fact in cq.binary_facts:
            if fact.pred == COVER_ROLE:
                unary.add(UnaryFact(A, fact.dst))
            else:
                binary.add(fact)
        used = {f.node for f in unary}
        used |= {f.src for f in binary} | {f.dst for f in binary}
        out.append(Structure(used, unary, binary))
    return out


def dl_lite_ontology(q: Structure) -> str:
    """The DL-Lite_bool rendering of Δ'_q (Section 3.6)."""
    lines = [
        f"∃{COVER_ROLE}⁻ ⊑ T ⊔ F",
        "-- goal CQ q:",
    ]
    lines.extend("  " + line for line in q.describe().splitlines())
    return "\n".join(lines)


def schema_org_rules(q: Structure) -> str:
    """The rule rendering (rules (9) and (2)) of Δ'_q."""
    lines = [f"T(y) ∨ F(y) <- {COVER_ROLE}(x, y)"]
    atoms = q.describe().replace("\n", ", ")
    lines.append(f"G <- {atoms}")
    return "\n".join(lines)


def decide_schema_org_fo_rewritability(q: Structure, probe_depth: int = 3):
    """Theorem 6 routing: FO-rewritability of the Schema.org OMQ.

    By Proposition 5, ``(Delta'_q, G)`` is FO-rewritable iff
    ``(Delta_q, G)`` is, so the question routes to the d-sirup deciders
    of :mod:`repro.decide`.  Theorem 6 is the statement that this very
    question is 2ExpTime-hard -- so for non-Lambda queries only probe
    evidence comes back.
    """
    from ..decide import decide_boundedness

    return decide_boundedness(q, probe_depth=probe_depth)
