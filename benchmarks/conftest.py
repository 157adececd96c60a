"""Shared fixtures and report helpers for the experiment benchmarks.

Every ``bench_e*.py`` regenerates one table/figure-shaped claim of the
paper (E1-E18; ``make bench`` runs them all).  Each benchmark stores
its reproduced rows in ``benchmark.extra_info`` so the claim's shape is
part of the recorded output, and asserts the qualitative property the
paper reports (who wins, which classification, which equivalence).
"""

import pytest


@pytest.fixture
def record_rows():
    """Attach reproduced table rows to a benchmark result."""

    def attach(benchmark, rows, **extra):
        benchmark.extra_info["rows"] = rows
        for key, value in extra.items():
            benchmark.extra_info[key] = value

    return attach
