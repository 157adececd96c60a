"""The four workloads, each a closed loop over the program's public API.

A workload object is driven by :func:`harness.closed_loop`:

* ``setup()`` builds inputs, sessions or the server, and warms up;
* ``prepare(client, i)`` makes operation ``i``'s input (untimed);
* ``op(client, i, arg)`` is the timed operation;
* ``between(client, i, arg, answer)`` runs per-operation oracle work
  with the run's clock paused;
* ``teardown()`` releases processes, ``check(result)`` returns oracle
  mismatches, and ``layer_counters()`` reads the program's own counters
  for the traced run.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

import harness
import inputs
import oracles
from harness import OpFailed

from repro import EngineConfig, Session
from repro.atm import encoding
from repro.atm.reduction import segment_verdict
from repro.circuits import build_library
from repro.core import decomp


class Workload:
    clients = 1
    round_len = 1
    #: Nominal seconds per round and client on the reference machine
    #: (a 2-CPU Xeon VM): a run of S seconds is round(S / round_s) rounds.
    round_s: float

    def __init__(self, seed: int, traced: bool = False) -> None:
        self.seed = seed
        self.traced = traced

    def setup(self) -> None:
        pass

    def prepare(self, client: int, i: int):
        return None

    def between(self, client: int, i: int, arg, answer) -> None:
        pass

    def teardown(self) -> None:
        pass

    def check(self, result) -> list:
        return []

    def pool_workers(self):
        return None

    def layer_counters(self) -> dict:
        return {}


def _hom_cache_ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# decide
# ----------------------------------------------------------------------


class Decide(Workload):
    """One ``Session.decide_boundedness`` per operation on a fresh
    session with a cold plan intern: the work of one ``repro decide``."""

    round_len = inputs.DECIDE_ROUND
    round_s = 9.0

    def setup(self) -> None:
        self._rounds: dict = {}
        self._hom = [0, 0]
        with Session() as s:
            s.decide_boundedness(inputs.decide_round(self.seed, -1)[0][1])
        self.prepare(0, 0)  # round 0's inputs count as set-up

    def prepare(self, client: int, i: int):
        r = i // self.round_len
        if r not in self._rounds:
            self._rounds[r] = inputs.decide_round(self.seed, r)
        decomp.clear_plan_intern()
        return self._rounds[r][i % self.round_len]

    def op(self, client: int, i: int, arg):
        label, query = arg
        with Session() as s:
            decision = s.decide_boundedness(query)
            info = s.hom_cache_info()
        self._hom[0] += info.hits
        self._hom[1] += info.misses
        return label, decision.bounded

    def check(self, result) -> list:
        answers, expected = [], []
        for _client, i, answer in sorted(result.answers, key=lambda a: a[1]):
            label, query = self._rounds[i // self.round_len][i % self.round_len]
            oracle = oracles.oracle_session("naive")
            answers.append(answer)
            expected.append((label, oracles.decide_expected(label, query, oracle)))
        return oracles.check_decide(answers, expected)

    def pool_workers(self):
        return EngineConfig().effective_workers()

    def layer_counters(self) -> dict:
        return {"hom.cache_hit_ratio": _hom_cache_ratio(*self._hom)}


# ----------------------------------------------------------------------
# screen
# ----------------------------------------------------------------------


class Screen(Workload):
    """One ``Session.screen`` of the fixed query pool over a fresh
    instance family per operation, on one default-config session."""

    round_len = len(inputs.SCREEN_PATTERN)
    round_s = 1.0

    def setup(self) -> None:
        self.queries = inputs.screen_queries()
        self.session = Session()
        _kind, family = inputs.screen_family(self.seed, -1)
        self.session.screen(self.queries, family)  # warm-up: plans, imports
        self._base = self.session.metrics()

    def prepare(self, client: int, i: int):
        return inputs.screen_family(self.seed, i)[1]

    def op(self, client: int, i: int, arg):
        return self.session.screen(self.queries, arg)

    def teardown(self) -> None:
        if hasattr(self, "session"):
            self._end = self.session.metrics()
            self.session.close()

    def check(self, result) -> list:
        out = []
        for _client, i, matrix in result.answers:
            family = inputs.screen_family(self.seed, i)[1]
            oracle = oracles.oracle_session("decomp")
            out += oracles.check_screen(i, matrix, oracle.screen(self.queries, family))
        return out

    def pool_workers(self):
        return self.session.pool_info().workers

    def layer_counters(self) -> dict:
        base, end = self._base["hom_cache"], self._end["hom_cache"]
        return {
            "hom.cache_hit_ratio": _hom_cache_ratio(
                end["hits"] - base["hits"], end["misses"] - base["misses"]
            ),
            "runtime.pool_failures": self._end["pool"]["failures"]
            - self._base["pool"]["failures"],
        }


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------


def flip_bit(params, tree, main, address):
    """Reroute the value edge of ``address`` in the configuration tree
    at ``main``: one ``remove_subtree`` plus one ``add_paths``."""
    bits = encoding.read_config_bits(params, tree, main)
    path = []
    for k in range(params.d):
        path.extend(encoding.GAMMA_PREFIX)
        path.append((address >> (params.d - 1 - k)) & 1)
    path.extend(encoding.GAMMA_PREFIX)
    stem = tuple(main) + tuple(path)
    return tree.remove_subtree(stem + (bits[address],)).add_paths(
        [stem + (1 - bits[address],)]
    )


def premature_leaf(tree, node, steps: int, seed: int):
    """Walk ``steps`` seeded edges down from ``node`` and cut every
    child of the node reached, leaving a leaf where the encoding
    expects more."""
    rng = random.Random(seed)
    for _ in range(steps):
        kids = tree.children(node)
        if not kids:
            break
        node = node + (rng.choice(kids),)
    for bit in tree.children(node):
        tree = tree.remove_subtree(node + (bit,))
    return tree


class Reduction(Workload):
    """Build a 01-tree cut, apply one seeded mutation, and take the
    gadget verdict at the mutated main (or restart) node."""

    round_len = inputs.REDUCTION_ROUND
    round_s = 4.0

    def setup(self) -> None:
        self._libs = {}
        for name in inputs.REDUCTION_MACHINES:
            for word in inputs.REDUCTION_WORDS:
                machine, params, comps = inputs.reduction_setup(name, word)
                lib = build_library(params, machine, [word])
                self._libs[name, word] = (machine, params, comps, lib)
        self._trees: dict = {}
        self.paths_total = 0
        self.mismatches: list = []
        # Warm-up: one small desired cut end to end.
        spec = dict(inputs.reduction_op(self.seed, 0), depth=12, mutation="none")
        self.between(0, -1, spec, self.op(0, -1, spec))
        self.paths_total = 0

    def prepare(self, client: int, i: int):
        return inputs.reduction_op(self.seed, i)

    def op(self, client: int, i: int, arg):
        # Layer functions are looked up on their module at call time,
        # so the traced run's spans see these calls.
        machine, params, comps, lib = self._libs[arg["machine"], arg["word"]]
        word, node = arg["word"], tuple(arg["node"])
        if arg["kind"] == "restart":
            tree = encoding.ideal_tree_cut(
                params, machine, word, lambda k: comps[k % len(comps)],
                arg["depth"],
            )
        else:
            tree = encoding.desired_tree_cut(
                params, machine, word, comps[0], arg["depth"]
            )
        self.paths_total += len(tree)
        if arg["mutation"] == "flip":
            tree = flip_bit(params, tree, node, arg["address"])
        elif arg["mutation"] == "leaf":
            tree = premature_leaf(tree, node, arg["leaf_steps"], arg["leaf_seed"])
        verdict = segment_verdict(lib, machine, [word], tree, node)
        self._trees[client] = tree
        return verdict.fired, verdict.incorrect

    def between(self, client: int, i: int, arg, answer) -> None:
        tree = self._trees.pop(client, None)
        if answer is None or tree is None:
            return
        machine, params, _comps, _lib = self._libs[arg["machine"], arg["word"]]
        fired, incorrect = answer
        ok = oracles.reference_correct(arg, machine, params, tree, tuple(arg["node"]))
        self.mismatches += oracles.check_reduction(i, fired, incorrect, ok)

    def check(self, result) -> list:
        return self.mismatches

    def layer_counters(self) -> dict:
        return {"tree.paths_total": self.paths_total}


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------


class Service(Workload):
    """Two closed-loop clients, one tenant each, against a real
    ``repro serve`` subprocess with a fresh cache directory.  Each
    client submits a job and follows its SSE stream to the end before
    it submits the next."""

    clients = inputs.SERVICE_CLIENTS
    round_s = 0.03

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self.payloads = [
            inputs.ServicePayloads(self.seed, c) for c in range(self.clients)
        ]
        self.jobs: list = []  # (client, op, kind, key, answer)
        self.timings: list = []  # (client latency, job record)
        self._lock = threading.Lock()
        self.server_snapshot = None
        self.workdir = harness.WORK_DIR / f"{os.getpid()}-{time.time_ns()}"
        self.workdir.mkdir(parents=True)
        self.trace_path = self.workdir / "server-trace.json"
        self.proc, port = self._boot()
        self.client = ServiceClient("127.0.0.1", port, timeout=120.0)
        self._pool_workers = self.client.config()["effective_workers"]
        # Warm-up on a tenant of its own: one job of each kind.
        warm = inputs.ServicePayloads(self.seed + 1_000_003, 0)
        kinds = set()
        for j in range(64):
            kind, payload, _key = warm[j]
            if kind not in kinds:
                kinds.add(kind)
                self._run_job("warmup", kind, payload)
        self.metrics_before = self.client.metrics()

    def _boot(self):
        cache = str(self.workdir / "cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(harness.SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if self.traced:
            cmd = [
                sys.executable, str(harness.BENCH_DIR / "serve.py"),
                "--trace-out", str(self.trace_path),
                "--cache-dir", cache, "serve", "--port", "0",
            ]
        else:
            cmd = [
                sys.executable, "-m", "repro",
                "--cache-dir", cache, "serve", "--port", "0",
            ]
        proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=str(harness.ROOT),
            env=env,
        )
        line = proc.stdout.readline()
        if "listening" not in line:
            proc.kill()
            proc.wait(30)
            raise RuntimeError(f"server failed to start: {line!r}")
        return proc, int(line.strip().rsplit(":", 1)[1])

    def _run_job(self, tenant: str, kind: str, payload: dict) -> dict:
        record = self.client.submit(kind, payload, tenant=tenant)
        final = None
        for event, data in self.client.watch(record["id"], timeout=120.0):
            if event in ("done", "cancelled"):
                final = data
        if final is None or final.get("status") != "done":
            status = None if final is None else final.get("status")
            error = None if final is None else final.get("error")
            raise OpFailed(f"job {record['id']} ended {status}: {error}")
        return final

    def prepare(self, client: int, i: int):
        return self.payloads[client][i]

    def op(self, client: int, i: int, arg):
        kind, payload, key = arg
        t = time.perf_counter()
        final = self._run_job(f"bench{client}", kind, payload)
        latency = time.perf_counter() - t
        answer = oracles.service_answer(kind, final["result"])
        if kind == "evaluate" and isinstance(final["result"].get("answer"), dict):
            raise OpFailed(f"governed UNKNOWN: {final['result']['answer']}")
        with self._lock:
            self.jobs.append((client, i, kind, (client, key), answer))
            self.timings.append((latency, final))
        return answer

    def teardown(self) -> None:
        try:
            if getattr(self, "client", None) is not None:
                self.metrics_after = self.client.metrics()
        finally:
            self._stop()

    def _stop(self) -> None:
        proc = getattr(self, "proc", None)
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(30)
        if proc is not None and proc.stdout is not None:
            proc.stdout.close()
        workdir = getattr(self, "workdir", None)
        if workdir is None:
            return
        if self.traced and self.trace_path.exists():
            self.server_snapshot = json.loads(self.trace_path.read_text())
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            harness.WORK_DIR.rmdir()
        except OSError:
            pass

    def check(self, result) -> list:
        oracle = oracles.oracle_session("decomp")
        expected = {}
        for client, _op, kind, key, _answer in self.jobs:
            if key not in expected:
                _k, payload, _key = self.payloads[client][key[1]]
                expected[key] = oracles.service_expected(kind, payload, oracle)
        return oracles.check_service(self.jobs, expected)

    def pool_workers(self):
        return self._pool_workers

    def layer_counters(self) -> dict:
        before, after = self.metrics_before, self.metrics_after
        svc0, svc1 = before["service"], after["service"]
        hits = misses = 0
        store = {"hits": 0, "misses": 0, "writes": 0}
        store0 = {"hits": 0, "misses": 0, "writes": 0}
        for name, m in after["registry"]["tenants"].items():
            if not name.startswith("bench"):
                continue
            hits += m["hom_cache"]["hits"]
            misses += m["hom_cache"]["misses"]
            if m["store"]:
                for k in store:
                    store[k] = max(store[k], m["store"][k])
        for name, m in before["registry"]["tenants"].items():
            if m["store"]:
                for k in store0:
                    store0[k] = max(store0[k], m["store"][k])
        d = {k: store[k] - store0[k] for k in store}
        lookups = d["hits"] + d["misses"]
        queue = [r["started"] - r["created"] for _l, r in self.timings]
        run = [r["finished"] - r["started"] for _l, r in self.timings]
        overhead = [
            lat - (r["finished"] - r["created"]) for lat, r in self.timings
        ]
        ops = max(1, len(self.timings))
        return {
            "hom.cache_hit_ratio": _hom_cache_ratio(hits, misses),
            "store.writes": d["writes"] / ops,
            "store.hit_ratio": d["hits"] / lookups if lookups else 0.0,
            "jobs.queue_wait_ms": harness.median(queue) * 1e3 if queue else 0.0,
            "jobs.run_ms": harness.median(run) * 1e3 if run else 0.0,
            "jobs.retried": svc1["retried"] - svc0["retried"],
            "jobs.rejected": svc1["rejected"] - svc0["rejected"],
            "http.overhead_ms": harness.median(overhead) * 1e3 if overhead else 0.0,
        }


WORKLOADS = {
    "decide": Decide,
    "screen": Screen,
    "reduction": Reduction,
    "service": Service,
}
