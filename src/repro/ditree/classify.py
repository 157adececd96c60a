"""Classifiers for ditree d-sirups (Section 4 of the paper).

This module implements the decidable classifications:

* :func:`classify_plain` — data complexity of ``(Δ_q, G)`` for ditree
  CQs, combining the upper bounds quoted from [22] (items (a)-(d) on
  the paper's page 12) with the hardness results of Theorem 7 and the
  trichotomy of Theorem 11;
* :func:`classify_disjoint` — Corollary 8's trichotomy for ``(Δ⁺_q, G)``
  (covering + disjointness): FO / L-hard / NL-hard;
* :func:`theorem7_applies` — the two NL-hardness cases of Theorem 7;
* :func:`theorem11_trichotomy` — the FO/L/NL trichotomy for ditree CQs
  with one solitary F and one solitary T, decided in polynomial time via
  the contact-model homomorphism test from the proof of Theorem 11.

Complexity labels are *data complexity* classes; "hard" means hard for
the class under FO reductions, as in the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..core.cq import solitary_f_nodes, solitary_t_nodes, twin_nodes
from ..core.homengine import has_homomorphism
from ..core.structure import F, Node, Structure, T, UnaryFact
from .structure import DitreeCQ, is_minimal


class Complexity(enum.Enum):
    """Data-complexity classes appearing in the paper's classification."""

    AC0 = "AC0 (FO-rewritable)"
    L = "L-complete"
    NL = "NL-complete"
    P = "P-complete"
    CONP = "coNP-complete"
    L_HARD = "L-hard (in P)"
    NL_HARD = "NL-hard (in P)"
    UNKNOWN = "unclassified"


@dataclass(frozen=True)
class Classification:
    complexity: Complexity
    reasons: tuple[str, ...]

    def describe(self) -> str:
        return f"{self.complexity.value}: " + "; ".join(self.reasons)


def theorem7_applies(cq: DitreeCQ) -> tuple[bool, str]:
    """Does Theorem 7 make ``(Δ_q, G)`` NL-hard?

    Requires a *minimal* ditree CQ with at least one solitary F and one
    solitary T, and either (i) a ≺-comparable solitary pair, or (ii) not
    quasi-symmetric and twin-free.
    """
    if not solitary_f_nodes(cq.query) or not solitary_t_nodes(cq.query):
        return False, "needs a solitary F and a solitary T"
    if cq.comparable_solitary_pairs():
        return True, "case (i): a ≺-comparable solitary pair exists"
    if not cq.twins and not cq.is_quasi_symmetric():
        return True, "case (ii): twin-free and not quasi-symmetric"
    return False, "neither case of Theorem 7 applies"


# ----------------------------------------------------------------------
# Theorem 11: one solitary F, one solitary T
# ----------------------------------------------------------------------


def _contact_chain_model(
    cq: DitreeCQ, t: Node, f: Node, contact_label: str
) -> Structure:
    """The model ``I`` over ``H_(t,f)`` from the proof of Theorem 7 (ii):
    three glued copies ``q_{a-1}, q_a, q_{a+1}`` with both contacts
    labelled ``contact_label`` (T or F).

    Copy ``a`` is glued to copy ``a-1`` at ``t_a = f_{a-1}`` and to copy
    ``a+1`` at ``f_a = t_{a+1}``; the two glue nodes ("contacts") carry
    ``contact_label`` instead of their original T/F labels, and the outer
    T/F endpoints keep their labels.
    """
    # Glue: t of copy 0 = f of copy -1;  f of copy 0 = t of copy +1.
    glue = {(-1, f): ("c", "left"), (0, t): ("c", "left"),
            (0, f): ("c", "right"), (1, t): ("c", "right")}

    def resolve(idx: int, node: Node) -> Node:
        return glue.get((idx, node), (idx, node))

    # Every t/f endpoint of every copy is a contact in D_G (an A-node of
    # the reduction): the outer ones ((-1, t) and (1, f)) are unglued
    # here but still carry the contact label rather than T/F.
    contacts = {("c", "left"), ("c", "right"), (-1, t), (1, f)}
    unary: set[UnaryFact] = set()
    binary = set()
    for idx in (-1, 0, 1):
        for fact in cq.query.unary_facts:
            node = resolve(idx, fact.node)
            if node in contacts and fact.node in (t, f):
                continue  # contacts get their label below
            unary.add(UnaryFact(fact.label, node))
        for fact in cq.query.binary_facts:
            binary.add(
                type(fact)(
                    fact.pred,
                    resolve(idx, fact.src),
                    resolve(idx, fact.dst),
                )
            )
    for node in contacts:
        unary.add(UnaryFact(contact_label, node))
    return Structure((), unary, binary)


def contact_models_admit_q(cq: DitreeCQ) -> tuple[bool, bool]:
    """For the unique solitary pair (t, f): does ``q`` map into the
    contact-chain model with both contacts F, resp. both contacts T?

    This is the polynomial test in the proof of Theorem 11.
    """
    ts = sorted(solitary_t_nodes(cq.query), key=str)
    fs = sorted(solitary_f_nodes(cq.query), key=str)
    if len(ts) != 1 or len(fs) != 1:
        raise ValueError("contact test needs exactly one solitary T and F")
    t, f = ts[0], fs[0]
    model_f = _contact_chain_model(cq, t, f, F)
    model_t = _contact_chain_model(cq, t, f, T)
    return (
        has_homomorphism(cq.query, model_f),
        has_homomorphism(cq.query, model_t),
    )


def theorem11_trichotomy(cq: DitreeCQ) -> Classification:
    """FO / L-complete / NL-complete for one solitary F + one solitary T.

    Follows the proof of Theorem 11: a ≺-comparable pair gives NL
    (items (c) + Theorem 7 (i)); a quasi-symmetric query gives L (item
    (d) + Appendix G); otherwise the contact-model test separates
    FO-rewritable from NL-hard.
    """
    ts = solitary_t_nodes(cq.query)
    fs = solitary_f_nodes(cq.query)
    if len(ts) != 1 or len(fs) != 1:
        raise ValueError(
            "Theorem 11 needs exactly one solitary F and one solitary T"
        )
    (t,), (f,) = sorted(ts, key=str), sorted(fs, key=str)
    if cq.comparable(t, f):
        return Classification(
            Complexity.NL,
            (
                "solitary pair is ≺-comparable: linear-datalog upper bound "
                "(item (c)) and NL-hardness by Theorem 7 (i)",
            ),
        )
    if cq.is_quasi_symmetric():
        return Classification(
            Complexity.L,
            (
                "quasi-symmetric: symmetric-linear-datalog upper bound "
                "(item (d)) and L-hardness by Appendix G",
            ),
        )
    admits_f, admits_t = contact_models_admit_q(cq)
    if admits_f or admits_t:
        return Classification(
            Complexity.AC0,
            (
                "a contact-chain model admits q: depth-<=2 cactuses cover "
                "all larger ones (proof of Theorem 11), so FO-rewritable",
            ),
        )
    return Classification(
        Complexity.NL,
        (
            "neither contact-chain model admits q: NL-hardness by the "
            "proof of Theorem 7 (ii), NL upper bound by item (c)",
        ),
    )


# ----------------------------------------------------------------------
# Corollary 8: Δ⁺ (covering + disjointness) trichotomy
# ----------------------------------------------------------------------


def classify_disjoint(cq: DitreeCQ) -> Classification:
    """Corollary 8: every ditree ``(Δ⁺_q, G)`` is FO-rewritable (twins
    present), L-hard (quasi-symmetric, twin-free), or NL-hard."""
    if twin_nodes(cq.query):
        return Classification(
            Complexity.AC0,
            (
                "q contains an FT-twin, so q never matches a disjoint "
                "model built over consistent data: FO-rewritable",
            ),
        )
    if not solitary_f_nodes(cq.query) or not solitary_t_nodes(cq.query):
        return Classification(
            Complexity.AC0,
            ("q lacks a solitary F or T: no case distinction arises",),
        )
    if cq.is_quasi_symmetric():
        return Classification(
            Complexity.L_HARD,
            ("twin-free and quasi-symmetric: L-hard by [22]/Appendix G",),
        )
    return Classification(
        Complexity.NL_HARD,
        ("twin-free, not quasi-symmetric: NL-hard by Theorem 7",),
    )


# ----------------------------------------------------------------------
# General ditree classification (upper bounds from [22] + hardness)
# ----------------------------------------------------------------------


def classify_plain(cq: DitreeCQ, check_minimality: bool = True) -> Classification:
    """Best-effort data-complexity classification of a ditree ``(Δ_q, G)``.

    Exact for: no solitary F (AC0), one solitary F + one solitary T
    (Theorem 11 trichotomy).  For one solitary F and several solitary Ts
    it reports the datalog upper bound plus any Theorem 7 hardness; the
    FO/L dichotomy inside that fragment is decided by
    :mod:`repro.ditree.lambda_cq` for Λ-CQs.
    """
    reasons: list[str] = []
    if check_minimality and not is_minimal(cq.query):
        reasons.append("warning: q is not minimal; classify its core")
    fs = solitary_f_nodes(cq.query)
    ts = solitary_t_nodes(cq.query)
    if not fs:
        return Classification(
            Complexity.AC0,
            tuple(reasons)
            + ("no solitary F: FO-rewritable by [22] item (a)",),
        )
    if len(fs) == 1 and len(ts) == 1:
        base = theorem11_trichotomy(cq)
        return Classification(base.complexity, tuple(reasons) + base.reasons)
    if len(fs) == 1:
        hard, why = theorem7_applies(cq)
        if hard:
            return Classification(
                Complexity.NL_HARD,
                tuple(reasons)
                + (
                    f"NL-hard by Theorem 7 ({why}); in P by the datalog "
                    "upper bound of [22] item (b)",
                ),
            )
        return Classification(
            Complexity.UNKNOWN,
            tuple(reasons)
            + (
                "one solitary F, several solitary Ts, Theorem 7 silent: "
                "use the Λ-CQ FO/L decider (Theorem 9) if q is a Λ-CQ",
            ),
        )
    hard, why = theorem7_applies(cq)
    if hard:
        return Classification(
            Complexity.NL_HARD,
            tuple(reasons) + (f"NL-hard by Theorem 7 ({why})",),
        )
    return Classification(Complexity.UNKNOWN, tuple(reasons))
