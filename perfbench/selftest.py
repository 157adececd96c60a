"""Self-tests of the benchmark's own machinery.

Run with ``python3 perfbench/selftest.py`` (or ``python -m pytest
perfbench/selftest.py``).  They check that the same seed yields
byte-identical inputs, that every oracle rejects a corrupted answer,
and that the tail-percentile helper picks the highest percentile with
at least ten samples beyond it.
"""

from __future__ import annotations

import os
import subprocess
import sys

import harness

harness.add_src_path()

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def _digest_in_fresh_process(seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    code = f"import harness; harness.add_src_path(); import inputs; print(inputs.digest({seed}))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=str(harness.BENCH_DIR),
        env=env,
    )
    return out.stdout.strip()


def test_same_seed_same_inputs():
    first = _digest_in_fresh_process(7, "1")
    assert first == _digest_in_fresh_process(7, "2")
    assert first == inputs.digest(7)
    assert first != inputs.digest(8)


def test_tail_percentile_picks_highest_with_ten_beyond():
    value, pct, beyond = harness.tail_percentile(range(1, 101))
    assert (value, pct, beyond) == (90, 90.0, 10)
    value, pct, beyond = harness.tail_percentile(range(1, 26))
    assert (value, pct, beyond) == (15, 60.0, 10)
    # Fewer than eleven samples: no percentile leaves ten beyond, so
    # the median is reported with the count actually above it.
    value, pct, beyond = harness.tail_percentile([5, 1, 3, 2, 4])
    assert (value, beyond) == (3, 2)


def test_decide_oracle_rejects_corruption():
    assert oracles.decide_expected("q2", None, None) is False
    assert oracles.decide_expected("q8", None, None) is True
    round0 = inputs.decide_round(3, 0)
    label, query = next(item for item in round0 if item[0] == "lambda1")
    want = oracles.decide_expected(label, query, oracles.oracle_session("naive"))
    assert oracles.check_decide([(label, want)], [(label, want)]) == []
    assert oracles.check_decide([(label, not want)], [(label, want)])
    assert oracles.check_decide([("q3", True)], [("q3", False)])


def test_screen_oracle_rejects_corruption():
    queries = inputs.screen_queries()[:10]
    family = inputs.screen_family(3, 1)[1][:2]
    expected = oracles.oracle_session("decomp").screen(queries, family)
    got = [list(row) for row in expected]
    assert oracles.check_screen(0, got, expected) == []
    got[4][1] = not got[4][1]
    assert oracles.check_screen(0, got, expected)


def test_reduction_oracle_rejects_corruption():
    wl = workloads.Reduction(3)
    wl.setup()
    spec = dict(
        inputs.reduction_op(3, 0),
        kind="desired",
        node=(),
        mutation="flip",
        address=0,  # a state bit: the Step gadget catches it
    )
    fired, incorrect = wl.op(0, 0, spec)
    assert incorrect and fired
    wl.between(0, 0, spec, (fired, incorrect))
    assert wl.mismatches == []
    wl.op(0, 1, spec)
    wl.between(0, 1, spec, ((), False))  # corrupted: nothing fired
    assert len(wl.mismatches) == 1


def test_cell_pad_flip_exclusion_still_needed():
    """The reduction mix leaves out flips of cell-block padding bits
    because the node-level oracle fails on them: ``is_correct`` calls
    the flipped main node incorrect while no gadget fires there.  When
    this test fails, that discrepancy is gone and the exclusion in
    ``inputs.reduction_op`` can be dropped."""
    wl = workloads.Reduction(3)
    wl.setup()
    spec = inputs.reduction_op(3, 0)
    _machine, params, _comps, _lib = wl._libs[spec["machine"], spec["word"]]
    pad = min(inputs.cell_pad_addresses(params))
    spec = dict(spec, kind="desired", node=(), mutation="flip", address=pad)
    wl.between(0, 0, spec, wl.op(0, 0, spec))
    assert len(wl.mismatches) == 1


def test_service_oracle_rejects_corruption():
    payloads = inputs.ServicePayloads(3, 0)
    kind, payload, key = next(
        payloads[j] for j in range(50) if payloads[j][0] == "evaluate"
    )
    want = oracles.service_expected(kind, payload, oracles.oracle_session("decomp"))
    jobs = [(0, 0, kind, (0, key), want)]
    assert oracles.check_service(jobs, {(0, key): want}) == []
    bad = not want if isinstance(want, bool) else want + 1
    jobs = [(0, 0, kind, (0, key), bad)]
    assert oracles.check_service(jobs, {(0, key): want})


def main() -> int:
    tests = [
        (name, fn)
        for name, fn in sorted(globals().items())
        if name.startswith("test_") and callable(fn)
    ]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - reported per test
            failed += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
