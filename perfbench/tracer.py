"""Spans around calls into each layer's public functions, recorded from
the benchmark's own files.

:func:`install` replaces a function at its lookup sites — the module
attribute it is defined under plus every ``repro.*`` module that
imported it by name — or a method on its class, with a wrapper that
records one span per outermost call into the layer: ``(id, parent,
layer, start_ns, end_ns)``.  A call into a layer already open on the
same thread belongs to the open span.  A layer's self time is its
spans' duration minus the part covered by their child spans.

Work done inside pool worker processes is invisible here: it shows up
as the waiting time of the parent's ``runtime`` span (its self time).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

#: ``(module, attribute path, layer)`` timed as spans.
SPANS = (
    ("repro.core.cactus", "CactusFactory.cactus", "cactus"),
    ("repro.core.boundedness", "probe_boundedness", "probe"),
    ("repro.ditree.lambda_cq", "decide_lambda", "lambda"),
    ("repro.core.homengine", "find_homomorphism", "hom"),
    ("repro.core.homengine", "has_homomorphism", "hom"),
    ("repro.core.homengine", "covers_any", "hom"),
    ("repro.core.homengine", "semiring_evaluate", "hom"),
    ("repro.core.homengine", "evaluate_batch", "hom"),
    ("repro.core.homengine", "evaluate_batch_governed", "hom"),
    ("repro.core.decomp", "ProbeCoverage.covered_by_any", "hom"),
    ("repro.core.decomp", "decomp_plan", "decomp.plan"),
    ("repro.core.runtime", "parallel_screen", "runtime"),
    ("repro.core.runtime", "parallel_evaluate_batch", "runtime"),
    ("repro.core.runtime", "parallel_semiring_batch", "runtime"),
    ("repro.core.runtime", "parallel_covers_any", "runtime"),
    ("repro.core.runtime", "parallel_ucq_answers", "runtime"),
    ("repro.core.store", "DurableStore.get", "store.get"),
    ("repro.core.store", "DurableStore.put", "store.put"),
    ("repro.core.store", "DurableStore.write_rows", "store.write_rows"),
    ("repro.core.store", "DurableStore.flush", "store.flush"),
    ("repro.service.wire", "structure_from_json", "wire.decode"),
    ("repro.atm.encoding", "ideal_tree_cut", "tree.build"),
    ("repro.atm.encoding", "desired_tree_cut", "tree.build"),
    ("repro.atm.encoding", "ZeroOneTree.remove_subtree", "tree.mutate"),
    ("repro.atm.encoding", "ZeroOneTree.add_paths", "tree.mutate"),
    ("repro.atm.encoding", "is_correct", "tree.ref_check"),
    ("repro.circuits.gather", "fires_at", "formula.check"),
)

#: ``(module, attribute path, counter)`` counted only (hot, cheap calls).
COUNTERS = (
    ("repro.atm.encoding", "ZeroOneTree.children", "tree.children_calls"),
    ("repro.core.decomp", "DecompPlan.__init__", "decomp.plan_compiles"),
    ("repro.service.client", "ServiceClient._request_once", "http.requests"),
    ("repro.service.client", "ServiceClient._watch_once", "http.requests"),
)


class Tracer:
    """In-memory span and counter store shared by every thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patched: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span_wrapper(self, layer: str, fn):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1][0] if stack else 0
            stack.append((span_id, layer))
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span_id, parent, layer, start, end))

        return wrapper

    def count_wrapper(self, name: str, fn):
        """Count calls, keyed by the layer of the innermost open span
        (``""`` outside every span), so reads made by an oracle can be
        told apart from reads made by the operation."""
        counters, lock = self.counters, self._count_lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            key = (name, stack[-1][1] if stack else "")
            with lock:
                counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install_one(self, module_name: str, path: str, make) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            self._patch(cls, attr, make(cls.__dict__[attr]))
            return
        original = getattr(module, path)
        wrapped = make(original)
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def install(self) -> "Tracer":
        import repro.atm  # noqa: F401 - load every lookup site first
        import repro.circuits  # noqa: F401
        import repro.decide  # noqa: F401
        import repro.service.client  # noqa: F401
        import repro.session  # noqa: F401

        for module_name, path, layer in SPANS:
            self._install_one(
                module_name, path, functools.partial(self.span_wrapper, layer)
            )
        for module_name, path, name in COUNTERS:
            self._install_one(
                module_name, path, functools.partial(self.count_wrapper, name)
            )
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    # -- aggregation ---------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def layer_totals(self) -> dict:
        """Per layer: ``{"calls", "ms", "self_ms"}`` over the recorded
        spans, self time being duration minus child-span time."""
        spans = list(self.spans)
        child_ns: dict = defaultdict(int)
        for _sid, parent, _layer, start, end in spans:
            if parent:
                child_ns[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for sid, _parent, layer, start, end in spans:
            rec = out[layer]
            rec["calls"] += 1
            rec["ms"] += (end - start) / 1e6
            rec["self_ms"] += (end - start - child_ns[sid]) / 1e6
        return dict(out)

    def snapshot(self) -> dict:
        """Layer totals, and counters per enclosing layer, as JSON data."""
        counters: dict = defaultdict(dict)
        for (name, layer), n in self.counters.items():
            counters[name][layer] = n
        return {"layers": self.layer_totals(), "counters": dict(counters)}
