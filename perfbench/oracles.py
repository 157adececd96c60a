"""Independent answers the benchmark checks the program against.

Each ``check_*`` function returns a list of mismatch descriptions; an
empty list means every answer passed.  Oracles run outside every timed
window: after the loop, or between operations with the run's clock
paused.

* decide: the paper's zoo table for q2-q8, and a naive-backend,
  cache-off session for the seeded queries;
* screen and service: a serial, cache-off session on the decomp
  backend (the tree-decomposition DP, a different kernel from the
  default bitset search) over the same inputs.  The naive backend
  would be the more obvious oracle, but its backtracking took up to
  52 s on a single dense 6-instance family, more than a whole run;
* reduction: the reference node-correctness predicate of
  ``repro.atm.encoding`` — some non-Reject gadget fired at the node iff
  the node is not correct.
"""

from __future__ import annotations

from repro import EngineConfig, Session
from repro.atm import encoding
from repro.service import wire

from inputs import ZOO_BOUNDED


def oracle_session(backend: str) -> Session:
    """An oracle engine: one backend, no hom cache, no pool."""
    return Session(EngineConfig(backend=backend, hom_cache=False, workers=0))


def decide_expected(label: str, query, oracle: Session):
    if label in ZOO_BOUNDED:
        return ZOO_BOUNDED[label]
    return oracle.decide_boundedness(query).bounded


def check_decide(answers, expected) -> list:
    """``answers``/``expected``: parallel lists of ``(label, bounded)``."""
    return [
        f"decide #{i} ({label}): got bounded={got!r}, expected {want!r}"
        for i, ((label, got), (_, want)) in enumerate(zip(answers, expected))
        if got != want
    ]


def check_screen(op: int, matrix, expected) -> list:
    if [list(row) for row in matrix] != [list(row) for row in expected]:
        wrong = sum(
            a != b
            for row, erow in zip(matrix, expected)
            for a, b in zip(row, erow)
        )
        return [f"screen op {op}: {wrong} answers differ from the oracle"]
    return []


def check_reduction(op: int, fired: tuple, incorrect: bool, reference_ok: bool) -> list:
    """Claim 4.1/4.2 at one node: a non-Reject gadget fired at the node
    iff the reference predicates call the node incorrect."""
    if incorrect == (not reference_ok):
        return []
    return [
        f"reduction op {op}: gadgets fired {fired!r} but "
        f"is_correct={reference_ok}"
    ]


def reference_correct(spec: dict, machine, params, tree, node) -> bool:
    return encoding.is_correct(params, machine, spec["word"], tree, node)


def service_expected(kind: str, payload: dict, oracle: Session):
    """The oracle's answer to one job, in the shape
    :func:`service_answer` extracts from a job result."""
    if kind == "evaluate":
        ev = oracle.evaluate(
            wire.structure_from_json(payload["query"]),
            wire.structure_from_json(payload["data"]),
            payload["semiring"],
        )
        return ev.value
    if kind == "screen":
        return oracle.screen(
            [wire.structure_from_json(q) for q in payload["queries"]],
            [wire.structure_from_json(d) for d in payload["instances"]],
        )
    return oracle.decide_boundedness(
        wire.structure_from_json(payload["query"])
    ).bounded


def service_answer(kind: str, result: dict):
    """The comparable answer inside a finished job's ``result``."""
    if kind == "evaluate":
        return result["value"]
    if kind == "screen":
        return result["matrix"]
    return result["bounded"]


def check_service(jobs, expected: dict) -> list:
    """``jobs``: ``(client, op, kind, key, answer)``; ``expected``: the
    oracle answer per payload ``key``."""
    out = []
    for client, op, kind, key, answer in jobs:
        want = expected[key]
        if kind == "screen":
            want = [list(row) for row in want]
        if answer != want:
            out.append(
                f"service client {client} op {op} ({kind}): "
                f"got {str(answer)[:80]}, expected {str(want)[:80]}"
            )
    return out
