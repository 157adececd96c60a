#!/usr/bin/env python
"""Benchmark harness: the matrix backend and the sharded batch runtime.

Two perf surfaces introduced by the matrix-semiring/runtime PR, seeded
into ``BENCH_batch.json`` at the repo root:

* **Backend duel** — ``bitset`` vs ``matrix`` per-check times on large
  random targets (n >= 200, edge-rich), over propagation-heavy queries
  (unlabelled paths and ditrees, where arc consistency dominates and
  the dense boolean-semiring matvec replaces per-candidate Python
  loops).  A mixed labelled query is recorded as extra information but
  not gated: on label-pruned domains the bitset backend's tiny
  constants win, which is exactly why ``bitset`` stays the default.
* **Shard executor** — serial vs sharded batch evaluation on
  ``workloads.instance_family`` screening at 4 workers: the gated
  ``evaluate_batch`` shape is the multi-query screen
  (:func:`repro.core.runtime.parallel_screen`, which amortises the
  per-instance wire/rebuild cost over the query pool — the zoo
  bulk-classification traffic), plus sharded ``covers_any`` and the
  small-batch serial fallback (which must not regress).  The
  single-query ``evaluate_batch`` sharding is recorded as information:
  it is rebuild-bound by design and stays near break-even.

Criteria are *hardware-aware*: the matrix criterion is enforced only
when numpy is installed (without it the backend falls back to bitset
and the duel is vacuous), and the sharding criterion only on machines
with >= 4 CPUs (the workers would otherwise time-slice one core).
Skipped criteria are recorded as skipped, never silently passed.

Usage::

    python scripts/bench_batch.py [--check] [--output PATH] [--rounds N]

``--check`` exits non-zero unless every *enforced* criterion holds:
matrix >= 2x geomean over bitset on the large-target suite, sharded
>= 2x geomean over serial at 4 workers, small-batch fallback within
noise of the serial path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import EngineConfig, Session  # noqa: E402
from repro.core.homengine import (  # noqa: E402
    covers_any,
    evaluate_batch,
    has_homomorphism,
    matrix_backend_available,
)
from repro.core.runtime import (  # noqa: E402
    parallel_covers_any,
    parallel_evaluate_batch,
    parallel_screen,
)
from repro.core.structure import StructureBuilder, path_structure  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    block_dag_instance,
    instance_family,
    random_instance,
)

MIN_MATRIX_GEOMEAN = 2.0
MIN_SHARDED_GEOMEAN = 2.0
SHARD_WORKERS = 4
# The serial-fallback path is the serial path plus one length check;
# anything beyond scheduler noise would be a wiring bug.
MAX_FALLBACK_RATIO = 1.35

TARGET_LABELS = {"T": 1, "F": 1, "": 20, "A": 2, "FT": 0}


def unlabelled_ditree(n: int, seed: int):
    rng = random.Random(seed)
    b = StructureBuilder()
    for i in range(n):
        b.add_node(i)
    for i in range(1, n):
        b.add_edge(rng.randrange(i), i)
    return b.build()


# Propagation-heavy queries: domains start near-full, so AC-3 and
# forward checking dominate — the regime the dense backend targets.
GATED_QUERIES = [
    ("path8", path_structure([""] * 8)),
    ("path12", path_structure([""] * 12)),
    ("tree10", unlabelled_ditree(10, 1)),
    ("tree14", unlabelled_ditree(14, 2)),
]
# Label-pruned mixed query: recorded, not gated (bitset's home turf).
INFO_QUERIES = [
    ("labpath10", path_structure(["T"] + [""] * 8 + ["F"])),
]

LARGE_TARGETS = [
    # (name, n, edges)
    ("n200_e4n", 200, 800),
    ("n300_e4n", 300, 1200),
    ("n300_e8n", 300, 2400),
    ("n500_e6n", 500, 3000),
]


def best_time(fn, rounds: int, target_s: float = 0.1) -> float:
    """Minimum per-call wall time over ``rounds`` measurements."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    iters = max(1, int(target_s / max(once, 1e-9)))
    best = once
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iters):
            fn()
        best = min(best, (time.perf_counter() - start) / iters)
    return best


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def bench_session() -> Session:
    """The session every measurement runs in.

    Measure the engine, not the caches: the hom-cache and the
    worker-side structure cache are off, so repeated rounds are never
    answered from an LRU.  Pool workers build their sessions from the
    config shipped with every task, so they run uncached too.  The pool
    is sized for the sharding duel; serial entry points never use it.
    """
    return Session(
        EngineConfig.from_env().replace(
            hom_cache=False,
            worker_cache_size=0,
            workers=SHARD_WORKERS,
            parallel_min=8,
        )
    )


def bench_backend_duel(session: Session, rounds: int) -> dict:
    checks = {}
    gated_speedups = []
    info_speedups = []
    for tname, n, edges in LARGE_TARGETS:
        target = random_instance(
            n, edges, seed=7, preds=("R",), label_weights=TARGET_LABELS
        )
        for gated, queries in ((True, GATED_QUERIES), (False, INFO_QUERIES)):
            for qname, q in queries:
                times = {}
                for backend in ("bitset", "matrix"):
                    times[backend] = best_time(
                        lambda b=backend: has_homomorphism(
                            q, target, backend=b, use_cache=False,
                            session=session,
                        ),
                        rounds,
                    )
                speedup = times["bitset"] / times["matrix"]
                (gated_speedups if gated else info_speedups).append(speedup)
                checks[f"{tname}/{qname}"] = {
                    "bitset_s": times["bitset"],
                    "matrix_s": times["matrix"],
                    "speedup": speedup,
                    "gated": gated,
                }
                print(
                    f"[bench_batch] {tname}/{qname}: "
                    f"bitset {times['bitset'] * 1e3:.2f}ms, "
                    f"matrix {times['matrix'] * 1e3:.2f}ms "
                    f"({speedup:.2f}x{'' if gated else ', info-only'})"
                )
    return {
        "checks": checks,
        "geomean_speedup_gated": geomean(gated_speedups),
        "min_speedup_gated": min(gated_speedups),
        "geomean_speedup_info": geomean(info_speedups),
    }


def bench_sharding(session: Session, rounds: int) -> dict:
    # The bulk-classification shape: a pool of queries screened over
    # one family of large random instances.  Sharding by instances and
    # answering every query per chunk amortises the per-instance
    # wire/rebuild cost over the query pool, so worker search time
    # dominates and the shards scale.
    family = instance_family(
        32, 400, 1600, seed=13, label_weights=TARGET_LABELS
    )
    screen_queries = [
        path_structure([""] * 8),
        path_structure([""] * 12),
        unlabelled_ditree(10, 5),
        path_structure(["T"] + [""] * 8 + [""]),
    ]
    single_query = path_structure([""] * 12)
    # covers_any: every source is an unlabelled 11-node path, the
    # target's longest walk has 7 edges — each check runs the full AC-3
    # refutation and the scan can never early-exit.
    target = block_dag_instance(400, 8, seed=21)
    sources = [
        path_structure([""] * 11, prefix=f"s{i}") for i in range(96)
    ]

    def serial_batch(q, instances):
        return evaluate_batch(q, instances, session=session)

    serial_screen = best_time(
        lambda: [serial_batch(q, family) for q in screen_queries], rounds
    )
    serial_eval = best_time(
        lambda: serial_batch(single_query, family), rounds
    )
    serial_covers = best_time(
        lambda: covers_any(target, sources, session=session), rounds
    )

    sharded = dict(workers=SHARD_WORKERS, session=session)
    # Warm the pool (fork + import cost is a one-time amortised spawn,
    # not per-batch latency) and verify agreement while at it.
    agreement = parallel_screen(screen_queries, family, **sharded) == [
        serial_batch(q, family) for q in screen_queries
    ]
    agreement = agreement and parallel_evaluate_batch(
        single_query, family, **sharded
    ) == serial_batch(single_query, family)
    info = session.pool_info()
    pool_ok = info.running and not info.broken
    sharded_screen = best_time(
        lambda: parallel_screen(screen_queries, family, **sharded), rounds
    )
    sharded_eval = best_time(
        lambda: parallel_evaluate_batch(single_query, family, **sharded),
        rounds,
    )
    sharded_covers = best_time(
        lambda: parallel_covers_any(target, sources, **sharded), rounds
    )

    # Small-batch fallback: below min_batch the parallel entry points
    # must route straight to the serial path.
    small = family[:6]
    serial_small = best_time(lambda: serial_batch(single_query, small), rounds)
    fallback_small = best_time(
        lambda: parallel_evaluate_batch(
            single_query, small, min_batch=24, session=session
        ),
        rounds,
    )

    screen_speedup = serial_screen / sharded_screen
    eval_speedup = serial_eval / sharded_eval
    covers_speedup = serial_covers / sharded_covers
    print(
        f"[bench_batch] screen {len(screen_queries)}q x {len(family)}i: "
        f"serial {serial_screen * 1e3:.1f}ms, "
        f"sharded {sharded_screen * 1e3:.1f}ms ({screen_speedup:.2f}x)"
    )
    print(
        f"[bench_batch] evaluate_batch 1q x {len(family)}i: "
        f"serial {serial_eval * 1e3:.1f}ms,"
        f" sharded {sharded_eval * 1e3:.1f}ms "
        f"({eval_speedup:.2f}x, info-only: rebuild-bound)"
    )
    print(
        f"[bench_batch] covers_any x{len(sources)}: "
        f"serial {serial_covers * 1e3:.1f}ms, "
        f"sharded {sharded_covers * 1e3:.1f}ms ({covers_speedup:.2f}x)"
    )
    print(
        f"[bench_batch] small-batch fallback: serial "
        f"{serial_small * 1e6:.0f}us, via parallel API "
        f"{fallback_small * 1e6:.0f}us "
        f"({fallback_small / serial_small:.2f}x)"
    )
    return {
        "workers": SHARD_WORKERS,
        "pool_available": pool_ok,
        "parallel_agrees_with_serial": agreement,
        "screen": {
            "queries": len(screen_queries),
            "family": {"count": 32, "n": 400, "edges": 1600},
            "serial_s": serial_screen,
            "sharded_s": sharded_screen,
            "speedup": screen_speedup,
        },
        "evaluate_batch_single_query_info": {
            "family": {"count": 32, "n": 400, "edges": 1600},
            "serial_s": serial_eval,
            "sharded_s": sharded_eval,
            "speedup": eval_speedup,
        },
        "covers_any": {
            "batch": {"count": 96, "target": "block_dag_instance(400, 8)"},
            "serial_s": serial_covers,
            "sharded_s": sharded_covers,
            "speedup": covers_speedup,
        },
        "geomean_speedup": geomean([screen_speedup, covers_speedup]),
        "small_batch": {
            "serial_s": serial_small,
            "fallback_s": fallback_small,
            "ratio": fallback_small / serial_small,
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=REPO_ROOT / "BENCH_batch.json",
        help="where to write the results",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=5,
        help="timing rounds per measurement (minimum is reported)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless every enforced criterion holds",
    )
    args = parser.parse_args()

    cpus = os.cpu_count() or 1
    matrix_ok = matrix_backend_available()

    with bench_session() as session:
        duel = bench_backend_duel(session, args.rounds)
        shard = bench_sharding(session, args.rounds)

    criteria = {
        "matrix_geomean_speedup_ge_2x": {
            "enforced": matrix_ok,
            "skip_reason": None if matrix_ok else "numpy not installed "
            "(matrix backend runs the bitset fallback)",
            "value": duel["geomean_speedup_gated"],
            "pass": duel["geomean_speedup_gated"] >= MIN_MATRIX_GEOMEAN,
        },
        "sharded_geomean_speedup_ge_2x_at_4_workers": {
            "enforced": cpus >= SHARD_WORKERS and shard["pool_available"],
            "skip_reason": None
            if cpus >= SHARD_WORKERS and shard["pool_available"]
            else f"needs >= {SHARD_WORKERS} CPUs and process support "
            f"(have {cpus} CPUs, pool_available="
            f"{shard['pool_available']})",
            "value": shard["geomean_speedup"],
            "pass": shard["geomean_speedup"] >= MIN_SHARDED_GEOMEAN,
        },
        "parallel_agrees_with_serial": {
            "enforced": True,
            "skip_reason": None,
            "value": shard["parallel_agrees_with_serial"],
            "pass": shard["parallel_agrees_with_serial"],
        },
        "small_batch_fallback_no_regression": {
            "enforced": True,
            "skip_reason": None,
            "value": shard["small_batch"]["ratio"],
            "pass": shard["small_batch"]["ratio"] <= MAX_FALLBACK_RATIO,
        },
    }

    report = {
        "description": (
            "Matrix backend vs bitset on large random targets (gated: "
            "propagation-heavy queries; info: label-pruned), and serial "
            "vs sharded batch evaluation at 4 workers on "
            "instance_family screening; hom-cache disabled; times are "
            "best-of-rounds wall clock"
        ),
        "cpu_count": cpus,
        "matrix_backend_available": matrix_ok,
        "rounds": args.rounds,
        "backend_duel": duel,
        "sharding": shard,
        "criteria": criteria,
    }
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[bench_batch] wrote {args.output}")
    print(
        f"  matrix geomean speedup {duel['geomean_speedup_gated']:.2f}x "
        f"gated (min {duel['min_speedup_gated']:.2f}x, "
        f"info {duel['geomean_speedup_info']:.2f}x)"
    )
    print(
        f"  sharded geomean speedup {shard['geomean_speedup']:.2f}x at "
        f"{SHARD_WORKERS} workers ({cpus} CPUs)"
    )
    failures = 0
    for name, crit in criteria.items():
        if not crit["enforced"]:
            print(f"  criterion {name}: SKIPPED ({crit['skip_reason']})")
        elif crit["pass"]:
            print(f"  criterion {name}: PASS")
        else:
            print(f"  criterion {name}: FAIL (value {crit['value']})")
            failures += 1
    if args.check and failures:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
