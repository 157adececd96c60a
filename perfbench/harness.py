"""Shared plumbing for the end-to-end benchmark: locating the program,
the closed-loop runner, latency statistics, memory and environment
records.

Everything here is stdlib-only so that ``run.py`` can fail fast, with a
non-zero exit and no result line, in a directory that holds the
benchmark but not the program.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Working space for server cache directories; lives inside the
#: checkout and is removed by the workload that made it.
WORK_DIR = ROOT / ".perfbench_work"

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


class ProgramMissing(RuntimeError):
    """The checkout does not contain the program under test."""


def add_src_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """The highest percentile that leaves at least ``beyond`` samples
    above it, by nearest rank.

    For ``n`` samples that is percentile ``100 * (n - beyond) / n``,
    whose nearest-rank value is the ``(beyond + 1)``-th largest sample.
    Returns ``(value, percentile, samples_beyond)``.  With ``beyond`` or
    fewer samples no percentile qualifies; the median is returned with
    the count of samples above it, so the record states what it holds.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        rank = math.ceil(n / 2)
        return ordered[rank - 1], 100.0 * rank / n, n - rank
    rank = n - beyond
    return ordered[rank - 1], 100.0 * rank / n, beyond


def median(samples) -> float:
    return statistics.median(samples)


# ----------------------------------------------------------------------
# Memory and environment
# ----------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited-for
    child (pool workers, server subprocess), in MiB.

    ``RUSAGE_CHILDREN`` reports the largest descendant that has been
    waited for, so call this after every child has exited.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment(seed: int, pool_workers: int | None) -> dict:
    """The record printed next to every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "pool_workers": pool_workers,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------


class OpFailed(Exception):
    """An operation that completed without a usable answer: an HTTP
    error, a job that ended failed/cancelled, or a governed UNKNOWN."""


#: The CPU-speed reference: a fixed pure-Python loop, timed right
#: before every operation.  The host's speed drifts by up to 1.5x over
#: tens of seconds (five screen runs: 2.34-3.36 ops/s raw, 3.69-3.90
#: scaled), so every time the benchmark reports is scaled by
#: REF_NOMINAL_S over the median of the caller's last REF_WINDOW
#: reference times: a time at the reference speed.  Raw times are
#: printed beside them.
REF_LOOPS = 20_000
REF_NOMINAL_S = 0.00125  # the loop's typical time on the 2-CPU Xeon VM
REF_WINDOW = 5


def cpu_reference() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


@dataclass
class LoopResult:
    latencies: list = field(default_factory=list)  # raw seconds
    scaled: list = field(default_factory=list)  # at the reference speed
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    scaled_wall_s: float = 0.0
    refs: list = field(default_factory=list)  # CPU-speed reference times
    answers: list = field(default_factory=list)  # (client, op, answer)
    errors: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def e2e_metrics(self, raw: bool = False) -> dict:
        """Throughput and latency statistics, at the reference CPU
        speed unless ``raw``."""
        if not self.latencies:
            raise RuntimeError(
                f"no operation completed: {'; '.join(self.errors[:3])}"
            )
        lat = self.latencies if raw else self.scaled
        wall = self.wall_s if raw else self.scaled_wall_s
        lat_ms = [x * 1e3 for x in lat]
        tail, pct, beyond = tail_percentile(lat_ms)
        return {
            "ops_per_s": self.completed / wall,
            "latency_p50_ms": median(lat_ms),
            "latency_tail_ms": tail,
            "tail_percentile": pct,
            "tail_samples_beyond": beyond,
            "failed_ratio": self.failed / max(1, self.attempted),
        }


def closed_loop(workload, seconds: float) -> LoopResult:
    """Run ``workload.clients`` closed-loop callers for about ``seconds``.

    Each caller waits for an answer before it asks again.  It runs a
    fixed number of whole rounds (``workload.round_len`` operations),
    ``seconds / workload.round_s`` rounded, where ``round_s`` is the
    round's nominal time on the reference machine: every run does the
    same work wherever it runs, so its mix, the rank its tail
    percentile lands on and its garbage-collection history stay put.
    Time a caller spends in ``workload.prepare`` (input generation), in
    the CPU-speed reference and in ``workload.between`` (oracle work) is
    excluded from the run's wall time.
    """
    result = LoopResult()
    lock = threading.Lock()
    paused = [0.0] * workload.clients
    ends = [0.0] * workload.clients
    busy = [0.0] * workload.clients
    busy_scaled = [0.0] * workload.clients

    ops = workload.round_len * max(1, round(seconds / workload.round_s))

    def caller(client: int) -> None:
        refs: list = []
        for i in range(ops):
            t = time.perf_counter()
            arg = workload.prepare(client, i)
            refs.append(cpu_reference())
            scale = REF_NOMINAL_S / median(refs[-REF_WINDOW:])
            paused[client] += time.perf_counter() - t
            t = time.perf_counter()
            try:
                answer = workload.op(client, i, arg)
                ok = True
            except OpFailed as exc:
                answer, ok = None, False
                with lock:
                    result.errors.append(f"client {client} op {i}: {exc}")
            except Exception as exc:  # noqa: BLE001 - counted, reported
                answer, ok = None, False
                with lock:
                    result.errors.append(
                        f"client {client} op {i}: {type(exc).__name__}: {exc}"
                    )
            dt = time.perf_counter() - t
            busy[client] += dt
            busy_scaled[client] += dt * scale
            with lock:
                result.refs.append(refs[-1])
                result.attempted += 1
                if ok:
                    result.latencies.append(dt)
                    result.scaled.append(dt * scale)
                    result.answers.append((client, i, answer))
                else:
                    result.failed += 1
            t = time.perf_counter()
            workload.between(client, i, arg, answer)
            paused[client] += time.perf_counter() - t
        ends[client] = time.perf_counter()

    start = time.perf_counter()
    threads = [
        threading.Thread(target=caller, args=(c,), name=f"client-{c}")
        for c in range(workload.clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Per caller: its own busy span minus its own paused time, scaled
    # by the caller's time-weighted reference factor; the run's wall
    # time is the longest of these.
    walls = [ends[c] - start - paused[c] for c in range(workload.clients)]
    result.wall_s = max(walls)
    result.scaled_wall_s = max(
        wall * busy_scaled[c] / busy[c] if busy[c] else wall
        for c, wall in enumerate(walls)
    )
    return result


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result object as the last line of standard output."""
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )
