"""Per-layer metrics of the traced run, derived from span totals, the
benchmark's counters and the program's own counters.

Counts and times are per completed operation of the traced phase
unless the unit says ratio; ``jobs.retried`` and ``jobs.rejected`` are
totals over that phase.  Every metric is printed on every workload, as
0 where its layer does no work.
"""

from __future__ import annotations

#: ``(name, unit)`` in print order; BENCHMARK.json lists the same names.
PER_LAYER = (
    ("cactus.calls", "count"),
    ("cactus.self_ms", "ms"),
    ("probe.calls", "count"),
    ("probe.self_ms", "ms"),
    ("lambda.calls", "count"),
    ("lambda.self_ms", "ms"),
    ("hom.calls", "count"),
    ("hom.self_ms", "ms"),
    ("hom.cache_hit_ratio", "ratio"),
    ("decomp.plan_calls", "count"),
    ("decomp.plan_ms", "ms"),
    ("decomp.plan_intern_hit_ratio", "ratio"),
    ("runtime.calls", "count"),
    ("runtime.self_ms", "ms"),
    ("runtime.pool_failures", "count"),
    ("store.get_ms", "ms"),
    ("store.put_ms", "ms"),
    ("store.write_rows_ms", "ms"),
    ("store.flush_ms", "ms"),
    ("store.writes", "count"),
    ("store.hit_ratio", "ratio"),
    ("http.requests", "count"),
    ("http.overhead_ms", "ms"),
    ("jobs.queue_wait_ms", "ms"),
    ("jobs.run_ms", "ms"),
    ("jobs.retried", "count"),
    ("jobs.rejected", "count"),
    ("wire.decode_ms", "ms"),
    ("tree.build_ms", "ms"),
    ("tree.paths", "count"),
    ("tree.mutate_ms", "ms"),
    ("tree.children_calls", "count"),
    ("tree.read_ratio", "ratio"),
    ("tree.ref_check_ms", "ms"),
    ("tree.wall_share", "ratio"),
    ("formula.fires_calls", "count"),
    ("formula.check_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


def _merge(*snapshots) -> tuple[dict, dict]:
    layers: dict = {}
    counters: dict = {}
    for snap in snapshots:
        if not snap:
            continue
        for layer, rec in snap["layers"].items():
            into = layers.setdefault(layer, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for key, value in rec.items():
                into[key] += value
        for name, by_layer in snap["counters"].items():
            into = counters.setdefault(name, {})
            for layer, n in by_layer.items():
                into[layer] = into.get(layer, 0) + n
    return layers, counters


def per_layer_metrics(client, server, workload: dict, untraced, traced) -> dict:
    """``{name: (value, unit)}`` for every :data:`PER_LAYER` metric.

    ``client``/``server`` are tracer snapshots (the server's is None
    outside the service workload), ``workload`` the workload's own
    counters, ``untraced``/``traced`` the two phases' loop results.
    """
    layers, counters = _merge(client, server)
    ops = max(1, traced.completed)

    def per_op(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0) / ops

    def counted(name: str, exclude=()) -> int:
        return sum(
            n for layer, n in counters.get(name, {}).items() if layer not in exclude
        )

    plan_calls = layers.get("decomp.plan", {}).get("calls", 0)
    compiles = counters.get("decomp.plan_compiles", {}).get("decomp.plan", 0)
    reads = counted("tree.children_calls", exclude=("tree.ref_check",))
    paths = workload.get("tree.paths_total", 0)
    tree_ms = per_op("tree.build", "ms") + per_op("tree.mutate", "ms")
    op_ms = 1e3 * sum(traced.latencies) / ops
    ops_traced = traced.e2e_metrics()["ops_per_s"]
    ops_untraced = untraced.e2e_metrics()["ops_per_s"]
    values = {
        "cactus.calls": per_op("cactus", "calls"),
        "cactus.self_ms": per_op("cactus", "self_ms"),
        "probe.calls": per_op("probe", "calls"),
        "probe.self_ms": per_op("probe", "self_ms"),
        "lambda.calls": per_op("lambda", "calls"),
        "lambda.self_ms": per_op("lambda", "self_ms"),
        "hom.calls": per_op("hom", "calls"),
        "hom.self_ms": per_op("hom", "self_ms"),
        "hom.cache_hit_ratio": workload.get("hom.cache_hit_ratio", 0.0),
        "decomp.plan_calls": per_op("decomp.plan", "calls"),
        "decomp.plan_ms": per_op("decomp.plan", "self_ms"),
        "decomp.plan_intern_hit_ratio": 1 - compiles / plan_calls if plan_calls else 0.0,
        "runtime.calls": per_op("runtime", "calls"),
        "runtime.self_ms": per_op("runtime", "self_ms"),
        "runtime.pool_failures": workload.get("runtime.pool_failures", 0),
        "store.get_ms": per_op("store.get", "ms"),
        "store.put_ms": per_op("store.put", "ms"),
        "store.write_rows_ms": per_op("store.write_rows", "ms"),
        "store.flush_ms": per_op("store.flush", "ms"),
        "store.writes": workload.get("store.writes", 0),
        "store.hit_ratio": workload.get("store.hit_ratio", 0.0),
        "http.requests": counted("http.requests") / ops,
        "http.overhead_ms": workload.get("http.overhead_ms", 0.0),
        "jobs.queue_wait_ms": workload.get("jobs.queue_wait_ms", 0.0),
        "jobs.run_ms": workload.get("jobs.run_ms", 0.0),
        "jobs.retried": workload.get("jobs.retried", 0),
        "jobs.rejected": workload.get("jobs.rejected", 0),
        "wire.decode_ms": per_op("wire.decode", "ms"),
        "tree.build_ms": per_op("tree.build", "ms"),
        "tree.paths": paths / ops,
        "tree.mutate_ms": per_op("tree.mutate", "ms"),
        "tree.children_calls": reads / ops,
        "tree.read_ratio": reads / paths if paths else 0.0,
        "tree.ref_check_ms": per_op("tree.ref_check", "ms"),
        "tree.wall_share": tree_ms / op_ms if op_ms else 0.0,
        "formula.fires_calls": per_op("formula.check", "calls"),
        "formula.check_ms": per_op("formula.check", "ms"),
        "trace.ops_per_s": ops_traced,
        "trace.untraced_ops_per_s": ops_untraced,
        "trace.overhead_ratio": ops_untraced / ops_traced,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}
