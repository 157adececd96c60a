"""Seeded input generation for the four workloads.

Every function here is a pure function of the workload seed (and an
operation or round index): the same seed gives byte-identical inputs,
which ``selftest.py`` checks through :func:`digest`.  The program under
test only ever sees the generated structures and payloads.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro import zoo
from repro.atm import machine as atm_machine
from repro.atm.encoding import CHAIN_PREFIX, gamma_depth, gamma_paths
from repro.atm.params import EncodingParams, encode_configuration
from repro.core.cq import is_one_cq
from repro.ditree.structure import DitreeCQ
from repro.service.wire import structure_to_json
from repro.workloads import (
    instance_family,
    iter_lambda_cqs,
    random_ditree_cq,
    random_instance,
)
from repro.workloads.generators import hostile_family

# ----------------------------------------------------------------------
# decide
# ----------------------------------------------------------------------

#: The paper's zoo table: q2-q4 are not FO-rewritable (unbounded),
#: q5-q8 are (bounded).  q1 has two solitary Fs and is no 1-CQ.
ZOO_BOUNDED = {
    "q2": False,
    "q3": False,
    "q4": False,
    "q5": True,
    "q6": True,
    "q7": True,
    "q8": True,
}
DECIDE_SPAN1 = 48  # seeded span-1 Λ-CQs per round
DECIDE_SPAN2 = 2  # fixed span-2 Λ-CQs, the same for every seed and round
DECIDE_SPAN2_COPIES = 6  # times each appears per round
DECIDE_DITREE = 48  # seeded ditree 1-CQs per round, half of them Λ-CQs
DECIDE_SIZE = 7
DECIDE_ROUND = (
    len(ZOO_BOUNDED)
    + DECIDE_SPAN1
    + DECIDE_SPAN2 * DECIDE_SPAN2_COPIES
    + DECIDE_DITREE
)


def ditree_one_cqs(count: int, size: int, seed: int) -> list:
    """``count`` random ditree 1-CQs (one solitary F and one solitary T);
    about half of them are Λ-CQs, the rest route to the probe."""
    out, s = [], seed * 100003
    while len(out) < count:
        q = random_ditree_cq(size, s)
        s += 1
        if q is not None and is_one_cq(q):
            out.append(q)
    return out


def split_ditree_one_cqs(seed: int) -> list:
    """``DECIDE_DITREE`` ditree 1-CQs, exactly half of them Λ-CQs (the
    exact decider) and half not (the probe), so the mix of the two
    routes is the same in every round."""
    want = DECIDE_DITREE // 2
    lam, other = [], []
    for q in ditree_one_cqs(4 * DECIDE_DITREE, DECIDE_SIZE, seed):
        bucket = lam if DitreeCQ.from_structure(q).is_lambda_cq() else other
        if len(bucket) < want:
            bucket.append(q)
    if len(lam) < want or len(other) < want:
        raise RuntimeError(f"too few ditree 1-CQs of one route for seed {seed}")
    return lam + other


def decide_round(seed: int, r: int) -> list:
    """Round ``r`` of the decide mix as ``(label, structure)`` pairs in
    a seeded order: the zoo q2-q8, fresh seeded span-1 Λ-CQs and ditree
    1-CQs, and span-2 Λ-CQs.

    The zoo and the span-2 Λ-CQs (0.2-2.5 s each, the latency tail)
    are the same for every seed and round, so the tail compares like
    with like across runs and round counts; the cheap inputs, which set
    the median, are fresh per seed and round.
    """
    base = seed * 1009 + r
    items = [(name, getattr(zoo, name)()) for name in ZOO_BOUNDED]
    items += [
        ("lambda1", q)
        for q in iter_lambda_cqs(DECIDE_SPAN1, DECIDE_SIZE, base, span=1)
    ]
    for _ in range(DECIDE_SPAN2_COPIES):
        items += [
            ("lambda2", q)
            for q in iter_lambda_cqs(DECIDE_SPAN2, DECIDE_SIZE, 1000, span=2)
        ]
    items += [("ditree", q) for q in split_ditree_one_cqs(base)]
    if len(items) != DECIDE_ROUND:
        raise RuntimeError(f"decide round {r} has {len(items)} inputs")
    random.Random(base).shuffle(items)
    return items


# ----------------------------------------------------------------------
# screen
# ----------------------------------------------------------------------

SCREEN_QUERIES = 80
SCREEN_QUERY_SIZE = 12
SCREEN_FAMILY = 6
#: Family kinds in the order one round visits them.
SCREEN_PATTERN = ("dense", "sparse", "dense")


def screen_queries() -> list:
    """The fixed query pool every screen operation reuses, the same for
    every seed; the instance families carry the seed."""
    out, s = [], 7919
    while len(out) < SCREEN_QUERIES:
        q = random_ditree_cq(SCREEN_QUERY_SIZE, s)
        s += 1
        if q is not None:
            out.append(q)
    return out


def screen_family(seed: int, op: int) -> tuple[str, list]:
    """A fresh instance family for operation ``op``: dense hostile
    multigraphs (n=80, density 8) or sparse random digraphs (n=200,
    600 edges), by the position of ``op`` in its round."""
    kind = SCREEN_PATTERN[op % len(SCREEN_PATTERN)]
    fseed = seed * 1_000_003 + op
    if kind == "dense":
        return kind, hostile_family(SCREEN_FAMILY, 80, fseed, density=8.0)
    return kind, instance_family(SCREEN_FAMILY, 200, 600, fseed)


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------

REDUCTION_CELLS = 2
REDUCTION_WORDS = ("1", "0")
REDUCTION_MACHINES = (
    "toy_accept_machine",
    "toy_reject_machine",
    "toy_alternation_machine",
)
#: Mutation by position in a round of ten; the last op of every round
#: is a deep restart op (mutation "none" or "leaf", seeded).
REDUCTION_PATTERN = (
    "flip", "none", "leaf", "flip", "flip", "leaf", "none", "flip", "flip",
    "restart",
)
REDUCTION_ROUND = len(REDUCTION_PATTERN)
DESIRED_EXTRA = 15  # desired cuts at depth gamma_depth + 15
DEEP_LESS = 4  # ideal cuts at depth 2 * gamma_depth - 4


def reduction_setup(name: str, word: str):
    """(machine, params, computation trees) for one toy machine/word."""
    machine = getattr(atm_machine, name)()
    params = EncodingParams.from_machine(machine, REDUCTION_CELLS)
    comps = list(
        atm_machine.iter_computation_trees(machine, word, REDUCTION_CELLS, 16)
    )[:2]
    if not comps:
        raise RuntimeError(f"{name} has no computation tree on {word!r}")
    return machine, params, comps


def cell_pad_addresses(params: EncodingParams) -> frozenset:
    """In-block padding addresses of the cell blocks: bits that encode
    the same value for every tape symbol.

    Flips of these are excluded from the reduction mix: at the flipped
    main node ``is_correct`` is False while no gadget fires there (the
    Step gadget fires at the parent instead), so the node-level oracle
    would fail on them.  ``selftest.py`` keeps that known discrepancy
    visible.
    """
    symbols = params.machine.alphabet
    blocks = [params.cell_block(s) for s in symbols]
    pads = [
        off
        for off in range(params.n_gamma)
        if len({block[off] for block in blocks}) == 1
    ]
    return frozenset(
        params.cell_offset(i) + off
        for i in range(params.cells)
        for off in pads
    )


def reduction_op(seed: int, op: int) -> dict:
    """The spec of reduction operation ``op``: which machine/word, which
    cut, where the mutation goes and where the verdict is taken.

    Paths are chosen here against the *shape* of the encoding, not the
    built tree: main nodes at depth 0/4/8 sit on ``001b`` chains, and
    restart nodes hang ``001b`` below a leaf of the root configuration
    tree.
    """
    rng = random.Random(seed * 7_368_787 + op)
    name = rng.choice(REDUCTION_MACHINES)
    word = rng.choice(REDUCTION_WORDS)
    machine, params, comps = reduction_setup(name, word)
    gd = gamma_depth(params)
    spec = {"machine": name, "word": word}
    slot = REDUCTION_PATTERN[op % REDUCTION_ROUND]
    if slot == "restart":
        bits = encode_configuration(params, comps[0].config, 0)
        leaf = rng.choice(gamma_paths(params, bits))
        node = leaf + CHAIN_PREFIX + (rng.randrange(2),)
        spec.update(
            kind="restart",
            depth=2 * gd - DEEP_LESS,
            node=node,
            mutation=rng.choice(("none", "leaf")),
            leaf_steps=rng.randrange(1, gd),
            leaf_seed=rng.randrange(1 << 30),
        )
        return spec
    node: tuple = ()
    for _ in range(rng.randrange(3)):
        node = node + CHAIN_PREFIX + (rng.randrange(2),)
    allowed = sorted(set(range(params.seq_len)) - cell_pad_addresses(params))
    spec.update(
        kind="desired",
        depth=gd + DESIRED_EXTRA,
        node=node,
        mutation=slot,
        address=rng.choice(allowed),
        leaf_steps=rng.randrange(1, gd),
        leaf_seed=rng.randrange(1 << 30),
    )
    return spec


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------

SERVICE_CLIENTS = 2
SERVICE_RESUBMIT = 0.25


def _new_service_payload(rng: random.Random) -> tuple[str, dict]:
    roll = rng.random()
    if roll < 0.80:
        n = rng.randrange(100, 301)
        semiring = "bool" if rng.random() < 0.6 else "count"
        q = ditree_one_cqs(1, rng.randrange(5, 8), rng.randrange(1 << 30))[0]
        data = random_instance(n, 2 * n, rng.randrange(1 << 30))
        return "evaluate", {
            "query": structure_to_json(q),
            "data": structure_to_json(data),
            "semiring": semiring,
        }
    if roll < 0.90:
        s = rng.randrange(1 << 30)
        queries = ditree_one_cqs(20, 8, s)
        family = instance_family(6, 60, 150, s)
        return "screen", {
            "queries": [structure_to_json(q) for q in queries],
            "instances": [structure_to_json(d) for d in family],
        }
    s = rng.randrange(1 << 30)
    if rng.random() < 0.5:
        q = next(iter_lambda_cqs(1, DECIDE_SIZE, s, span=1))
    else:
        q = ditree_one_cqs(1, DECIDE_SIZE, s)[0]
    return "decide", {"query": structure_to_json(q)}


class ServicePayloads:
    """The submissions of one service client, generated on demand in a
    seeded sequence.  Entry ``j`` is ``(kind, payload, key)``: ``key``
    is the index of the first submission of that payload, so a
    re-submit of an earlier payload carries the earlier key."""

    def __init__(self, seed: int, client: int) -> None:
        self._rng = random.Random(seed * 15_485_863 + client)
        self._items: list = []

    def __getitem__(self, j: int) -> tuple:
        rng, items = self._rng, self._items
        while len(items) <= j:
            n = len(items)
            if n and rng.random() < SERVICE_RESUBMIT:
                items.append(items[rng.randrange(n)])
            else:
                kind, payload = _new_service_payload(rng)
                items.append((kind, payload, n))
        return items[j]


# ----------------------------------------------------------------------
# Digest (self-tests)
# ----------------------------------------------------------------------


def digest(seed: int) -> str:
    """sha256 over the inputs of every workload for ``seed``."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        h.update(json.dumps(obj, sort_keys=True).encode())

    for label, q in decide_round(seed, 0):
        feed([label, structure_to_json(q)])
    for q in screen_queries():
        feed(structure_to_json(q))
    for op in range(3):
        kind, family = screen_family(seed, op)
        feed([kind, [structure_to_json(d) for d in family]])
    for op in range(REDUCTION_ROUND):
        feed(reduction_op(seed, op))
    for client in range(SERVICE_CLIENTS):
        payloads = ServicePayloads(seed, client)
        feed([payloads[j] for j in range(12)])
    return h.hexdigest()
