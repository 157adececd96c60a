"""A monadic datalog engine with semi-naive evaluation.

The paper's programs (Section 2) are monadic datalog programs over at most
binary EDB predicates: every rule head is a unary IDB atom or the 0-ary
goal ``G``.  Rule bodies are conjunctions of unary and binary atoms over
variables (no constants, no function symbols), and every head variable
occurs in the body.

We represent a rule body as a :class:`~repro.core.structure.Structure`
whose nodes are the body variables: evaluating the body over a data
instance is exactly enumerating homomorphisms of that structure into the
(current closure of the) instance.  Semi-naive evaluation restricts one
IDB body atom per pass to newly derived facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .homengine import iter_homomorphisms
from .structure import BinaryFact, Node, Structure, UnaryFact

GOAL = "G"


@dataclass(frozen=True)
class Rule:
    """``head_pred(head_var) <- body`` with a unary or 0-ary head.

    ``head_var`` is ``None`` for a 0-ary (goal) head.  The body is a
    structure over the rule's variables; unary facts are body atoms
    ``L(x)`` and binary facts are body atoms ``P(x, y)``.
    """

    head_pred: str
    head_var: Node | None
    body: Structure

    def __post_init__(self) -> None:
        if self.head_var is not None and self.head_var not in self.body.nodes:
            raise ValueError(
                f"head variable {self.head_var!r} does not occur in the body"
            )

    @property
    def body_predicates(self) -> frozenset[str]:
        return self.body.unary_predicates | self.body.binary_predicates

    def describe(self) -> str:
        body_atoms = []
        for fact in sorted(
            self.body.unary_facts, key=lambda f: (f.label, str(f.node))
        ):
            body_atoms.append(f"{fact.label}({fact.node})")
        for fact in sorted(
            self.body.binary_facts,
            key=lambda f: (f.pred, str(f.src), str(f.dst)),
        ):
            body_atoms.append(f"{fact.pred}({fact.src}, {fact.dst})")
        head = (
            self.head_pred
            if self.head_var is None
            else f"{self.head_pred}({self.head_var})"
        )
        return f"{head} <- " + ", ".join(body_atoms)


@dataclass(frozen=True)
class Program:
    """A monadic datalog program: a finite set of rules."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        for rule in self.rules:
            for fact in rule.body.binary_facts:
                if fact.pred in self.idb_predicates:
                    raise ValueError(
                        "IDB predicates must be monadic; "
                        f"{fact.pred!r} occurs in a binary body atom"
                    )

    @property
    def idb_predicates(self) -> frozenset[str]:
        return frozenset(rule.head_pred for rule in self.rules)

    @property
    def edb_predicates(self) -> frozenset[str]:
        idb = self.idb_predicates
        preds: set[str] = set()
        for rule in self.rules:
            preds |= rule.body_predicates
        return frozenset(preds - idb)

    def recursive_rules(self) -> tuple[Rule, ...]:
        idb = self.idb_predicates
        return tuple(
            rule
            for rule in self.rules
            if rule.body.unary_predicates & idb
        )

    def is_sirup(self) -> bool:
        """True iff the program has exactly one recursive rule."""
        return len(self.recursive_rules()) == 1

    def describe(self) -> str:
        return "\n".join(rule.describe() for rule in self.rules)


@dataclass(frozen=True)
class EvaluationResult:
    """Closure of a data instance under a program."""

    facts: frozenset[UnaryFact]
    goals: frozenset[str]
    rounds: int

    def holds(self, pred: str, node: Node | None = None) -> bool:
        if node is None:
            return pred in self.goals
        return UnaryFact(pred, node) in self.facts

    def answers(self, pred: str) -> frozenset[Node]:
        return frozenset(f.node for f in self.facts if f.label == pred)


def _augmented_instance(
    data: Structure, derived: Iterable[UnaryFact]
) -> Structure:
    return Structure(data.nodes, set(data.unary_facts) | set(derived), data.binary_facts)


def _fire_rule(
    rule: Rule,
    instance: Structure,
    required_new: set[UnaryFact] | None,
    session=None,
) -> Iterator[UnaryFact | str]:
    """All head facts derivable by one rule over ``instance``.

    If ``required_new`` is given (semi-naive pass), only homomorphisms
    using at least one fact from it are counted.  We implement the delta
    restriction by checking the match afterwards, which is simple and
    correct; the search itself is already pruned by domains.
    """
    # A body atom over a predicate absent from the instance can never
    # match: skip the search entirely (cheap index lookups, no scan).
    if not rule.body.unary_predicates <= instance.unary_predicates:
        return
    if not rule.body.binary_predicates <= instance.binary_predicates:
        return
    for hom in iter_homomorphisms(rule.body, instance, session=session):
        if required_new is not None:
            used_new = any(
                UnaryFact(f.label, hom[f.node]) in required_new
                for f in rule.body.unary_facts
            )
            if not used_new:
                continue
        if rule.head_var is None:
            yield rule.head_pred
        else:
            yield UnaryFact(rule.head_pred, hom[rule.head_var])


def evaluate(
    program: Program, data: Structure, session=None
) -> EvaluationResult:
    """Semi-naive bottom-up closure of ``data`` under ``program``.

    Returns all derived unary IDB facts and derived 0-ary goals.  The EDB
    part of ``data`` is never modified; IDB facts already present in the
    data (e.g. ``T`` facts feeding ``P(x) <- T(x)``) are allowed.
    """
    idb = program.idb_predicates
    derived: set[UnaryFact] = set()
    goals: set[str] = set()

    # Round 0: fire every rule on the raw data.
    instance = data
    delta: set[UnaryFact] = set()
    for rule in program.rules:
        for fact in _fire_rule(rule, instance, None, session):
            if isinstance(fact, str):
                goals.add(fact)
            elif fact not in data.unary_facts and fact not in derived:
                derived.add(fact)
                delta.add(fact)
    rounds = 1

    recursive = [
        rule for rule in program.rules if rule.body.unary_predicates & idb
    ]
    while delta:
        instance = _augmented_instance(data, derived)
        new_delta: set[UnaryFact] = set()
        for rule in recursive:
            if not (rule.body.unary_predicates & {f.label for f in delta}):
                continue
            for fact in _fire_rule(rule, instance, delta, session):
                if isinstance(fact, str):
                    goals.add(fact)
                elif (
                    fact not in data.unary_facts
                    and fact not in derived
                    and fact not in new_delta
                ):
                    new_delta.add(fact)
        derived |= new_delta
        delta = new_delta
        rounds += 1

    return EvaluationResult(frozenset(derived), frozenset(goals), rounds)


def certain_answers(
    program: Program, data: Structure, pred: str, session=None
) -> frozenset[Node]:
    """Certain answers to the datalog query ``(program, pred)`` over data."""
    result = evaluate(program, data, session)
    answers = set(result.answers(pred))
    # Facts asserted directly in the data also count as derived.
    answers |= {f.node for f in data.unary_facts if f.label == pred}
    return frozenset(answers)


def goal_holds(
    program: Program, data: Structure, goal: str = GOAL, session=None
) -> bool:
    """Does the 0-ary goal hold in the closure?"""
    return goal in evaluate(program, data, session).goals


def evaluate_bounded(
    program: Program, data: Structure, max_rounds: int, session=None
) -> EvaluationResult:
    """Closure truncated after ``max_rounds`` semi-naive passes.

    Used to measure the recursion depth actually needed on a workload
    (the operational face of boundedness).
    """
    idb = program.idb_predicates
    derived: set[UnaryFact] = set()
    goals: set[str] = set()
    instance = data
    delta: set[UnaryFact] = set()
    for rule in program.rules:
        for fact in _fire_rule(rule, instance, None, session):
            if isinstance(fact, str):
                goals.add(fact)
            elif fact not in data.unary_facts and fact not in derived:
                derived.add(fact)
                delta.add(fact)
    rounds = 1
    recursive = [
        rule for rule in program.rules if rule.body.unary_predicates & idb
    ]
    while delta and rounds < max_rounds:
        instance = _augmented_instance(data, derived)
        new_delta: set[UnaryFact] = set()
        for rule in recursive:
            for fact in _fire_rule(rule, instance, delta, session):
                if isinstance(fact, str):
                    goals.add(fact)
                elif (
                    fact not in data.unary_facts
                    and fact not in derived
                    and fact not in new_delta
                ):
                    new_delta.add(fact)
        derived |= new_delta
        delta = new_delta
        rounds += 1
    return EvaluationResult(frozenset(derived), frozenset(goals), rounds)


def make_rule(
    head_pred: str,
    head_var: Node | None,
    unary: Iterable[tuple[str, Node]] = (),
    binary: Iterable[tuple[str, Node, Node]] = (),
) -> Rule:
    """Convenience constructor from atom tuples."""
    body = Structure(
        (),
        (UnaryFact(label, node) for label, node in unary),
        (BinaryFact(pred, src, dst) for pred, src, dst in binary),
    )
    return Rule(head_pred, head_var, body)
