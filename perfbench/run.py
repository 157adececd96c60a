"""End-to-end benchmark of the boundedness reproduction.

Usage::

    python3 perfbench/run.py --workload {decide,screen,reduction,service}
        --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload's closed loop, a fixed amount of work
that takes about ``S`` seconds on the reference machine, with no
instrumentation and reports the end-to-end metrics (times scaled to a
reference CPU speed, raw times printed beside them).  ``--trace 1``
runs it twice for ``S/2`` seconds each — untraced, then with spans
around every layer's public functions — and reports the per-layer
metrics plus the tracing overhead.  Every answer is checked against an
oracle; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every answer passed, 1 on a wrong answer and 2 when the
program is not found next to this directory.

See ``README.md`` for the workloads, the metrics and the predicted
layer-to-metric effects.
"""

from __future__ import annotations

import os
import sys

# Set iteration order, and with it the search order of the hom engine,
# follows the string hash seed: under random seeds the same query's
# latency varies by up to 1.9x between processes (q6: 400-745 ms).
# Every run therefore executes, and starts its children, under one
# fixed hash seed.
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable, *sys.argv])

import time  # noqa: E402

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402

import harness  # noqa: E402

#: Set-ups measured per run (this process plus fresh child processes).
SETUP_SAMPLES = 3
WORKLOAD_NAMES = ("decide", "screen", "reduction", "service")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set the workload up, tear it down and print setup_s",
    )
    return parser.parse_args(argv)


def setup_probe(args) -> float:
    """Set-up time of one fresh process, from its first line to ready."""
    proc = subprocess.run(
        [
            sys.executable, __file__,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", "1",
            "--setup-only",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=str(harness.ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_phase(cls, seed: int, seconds: float, traced: bool = False):
    """Set up, run the loop, tear down; returns (workload, result)."""
    wl = cls(seed, traced=traced)
    try:
        wl.setup()
        wl.setup_s = time.perf_counter() - T0
        wl.pool = wl.pool_workers()
        result = harness.closed_loop(wl, seconds)
    finally:
        wl.teardown()
    return wl, result


def report_mismatches(mismatches) -> None:
    for line in mismatches[:20]:
        print(f"WRONG ANSWER: {line}", file=sys.stderr)
    if len(mismatches) > 20:
        print(f"... {len(mismatches) - 20} more", file=sys.stderr)


def untraced(args, cls) -> int:
    wl, result = run_phase(cls, args.seed, args.seconds)
    peak = harness.peak_rss_mb()
    setups = [wl.setup_s] + [
        setup_probe(args) for _ in range(SETUP_SAMPLES - 1)
    ]
    mismatches = wl.check(result)
    e2e = result.e2e_metrics()
    raw = result.e2e_metrics(raw=True)
    values = {
        "setup_s": harness.median(setups),
        "ops_per_s": e2e["ops_per_s"],
        "latency_p50_ms": e2e["latency_p50_ms"],
        "latency_tail_ms": e2e["latency_tail_ms"],
        "peak_rss_mb": peak,
    }
    env = harness.environment(args.seed, wl.pool)
    print(f"workload {args.workload}: {json.dumps(env)}")
    for name, value in values.items():
        unscaled = f"  (raw {raw[name]:.4f})" if name in raw else ""
        print(f"  {name:16s} {value:12.4f} {E2E_UNITS[name]}{unscaled}")
    print(f"  {'failed_ratio':16s} {e2e['failed_ratio']:12.4f} ratio")
    print(
        f"  latency_tail_ms is p{e2e['tail_percentile']:.1f} of "
        f"{len(result.latencies)} operations "
        f"({e2e['tail_samples_beyond']} samples beyond)"
    )
    print(f"  setup samples (s): {[round(s, 4) for s in setups]}")
    print(
        f"  CPU-speed reference: median {harness.median(result.refs) * 1e3:.3f} ms"
        f" (nominal {harness.REF_NOMINAL_S * 1e3:.3f} ms)"
    )
    print(f"  oracle: {len(mismatches)} wrong answers")
    for err in result.errors[:5]:
        print(f"  failed op: {err}", file=sys.stderr)
    report_mismatches(mismatches)
    harness.emit(
        not mismatches,
        result.attempted,
        result.failed,
        {name: (value, E2E_UNITS[name]) for name, value in values.items()},
    )
    return 0 if not mismatches else 1


def traced(args, cls) -> int:
    import layers
    from tracer import Tracer

    half = args.seconds / 2
    wl_a, res_a = run_phase(cls, args.seed, half)
    mismatches = wl_a.check(res_a)
    tracer = Tracer().install()
    try:
        wl_b = cls(args.seed, traced=True)
        try:
            wl_b.setup()
            wl_b.pool = wl_b.pool_workers()
            tracer.reset()
            res_b = harness.closed_loop(wl_b, half)
            client_snapshot = tracer.snapshot()
        finally:
            wl_b.teardown()
    finally:
        tracer.uninstall()
    mismatches += wl_b.check(res_b)
    values = layers.per_layer_metrics(
        client_snapshot,
        getattr(wl_b, "server_snapshot", None),
        wl_b.layer_counters(),
        res_a,
        res_b,
    )
    env = harness.environment(args.seed, wl_b.pool)
    print(f"workload {args.workload} (traced): {json.dumps(env)}")
    for name, (value, unit) in values.items():
        print(f"  {name:30s} {value:14.4f} {unit}")
    print(f"  oracle: {len(mismatches)} wrong answers")
    report_mismatches(mismatches)
    harness.emit(
        not mismatches,
        res_a.attempted + res_b.attempted,
        res_a.failed + res_b.failed,
        values,
    )
    return 0 if not mismatches else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        harness.add_src_path()
    except harness.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl = cls(args.seed)
        try:
            wl.setup()
            setup_s = time.perf_counter() - T0
        finally:
            wl.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.trace:
        return traced(args, cls)
    return untraced(args, cls)


if __name__ == "__main__":
    sys.exit(main())
