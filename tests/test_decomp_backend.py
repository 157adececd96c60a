"""Four-way backend cross-validation: naive / bitset / matrix / decomp.

The ``decomp`` backend (semijoin DP over a tree decomposition of the
query, :mod:`repro.core.decomp`) must enumerate exactly the same
homomorphism sets as the other three backends — across random tree,
cycle and grid queries, random targets, every declarative constraint
(seeds, restrict_image, node_domains, forbid, node_filter), and on
``find``/``has``/``count``/``evaluate_batch``.  The suite also pins the
decomposition builder's width reporting (exact for treewidth <= 2), the
fingerprint plan intern, the probe's delta warm-start (same verdicts as
the batch path), the width-aware ``auto`` routing, and the no-numpy
environment (decomp is pure python).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import structure as structure_mod
from repro.core import decomp
from repro.core.boundedness import probe_boundedness
from repro.core.config import (
    AUTO_DECOMP_MIN_NODES,
    EngineConfig,
    choose_auto_backend,
)
from repro.core.cq import OneCQ
from repro.core.homengine import (
    BACKENDS,
    _count_homomorphisms,
    evaluate_batch,
    find_homomorphism,
    has_homomorphism,
    is_homomorphism,
    iter_homomorphisms,
)
from repro.core.structure import (
    F,
    Structure,
    StructureBuilder,
    T,
    path_structure,
)
from repro.session import Session
from repro.workloads.generators import (
    instance_family,
    random_ditree_cq,
    random_instance,
)
from repro import zoo


def canon(homs):
    """Order-insensitive canonical form of a hom enumeration."""
    return sorted(
        tuple(sorted(h.items(), key=lambda kv: str(kv[0]))) for h in homs
    )


def four_way(q, d, **kwargs):
    """Canonical enumerations of all four backends, as a dict."""
    return {
        backend: canon(iter_homomorphisms(q, d, backend=backend, **kwargs))
        for backend in BACKENDS
    }


def cycle_query(k, preds=("R",), labels=()):
    b = StructureBuilder()
    for i in range(k):
        b.add_node(i, *([labels[i]] if i < len(labels) and labels[i] else []))
    for i in range(k):
        b.add_edge(i, (i + 1) % k, preds[i % len(preds)])
    return b.build()


def grid_query(rows, cols):
    b = StructureBuilder()
    for r in range(rows):
        for c in range(cols):
            b.add_node((r, c))
            if c:
                b.add_edge((r, c - 1), (r, c))
            if r:
                b.add_edge((r - 1, c), (r, c))
    return b.build()


class TestFourWayCrossValidation:
    def test_backends_registered(self):
        assert BACKENDS == ("naive", "bitset", "matrix", "decomp")

    def test_tree_queries_enumerate_identically(self):
        nonempty = 0
        for seed in range(40):
            q = random_ditree_cq(5, seed) or path_structure(["T", "", "F"])
            d = random_instance(9, 16, seed + 40_000, preds=("R", "S"))
            results = four_way(q, d)
            assert (
                results["naive"] == results["bitset"]
                == results["matrix"] == results["decomp"]
            ), f"backend mismatch at seed {seed}"
            nonempty += bool(results["decomp"])
        assert nonempty > 0

    def test_cycle_and_grid_queries(self):
        """Width-2 (cycles, 2xN grids) and width-3 (3x3 grid) queries
        exercise the relational bag DP rather than the forest fast
        path."""
        queries = [
            cycle_query(3),
            cycle_query(4, preds=("R", "S")),
            cycle_query(5, labels=("T", "", "", "F", "")),
            grid_query(2, 3),
            grid_query(3, 3),
        ]
        nonempty = 0
        for qi, q in enumerate(queries):
            for seed in range(8):
                d = random_instance(8, 26, seed + 11 * qi, preds=("R", "S"))
                results = four_way(q, d)
                assert results["naive"] == results["decomp"], (qi, seed)
                assert results["bitset"] == results["decomp"], (qi, seed)
                nonempty += bool(results["decomp"])
        assert nonempty > 0

    def test_seeded_and_restricted_agree(self):
        for seed in range(10):
            q = random_ditree_cq(4, seed) or path_structure(["", ""])
            d = random_instance(7, 12, seed + 500, preds=("R",))
            some_q = next(iter(sorted(q.nodes, key=str)))
            restrict = frozenset(list(sorted(d.nodes, key=str))[:4])
            for image in sorted(d.nodes, key=str):
                results = four_way(
                    q, d, seed={some_q: image}, restrict_image=restrict
                )
                assert results["naive"] == results["decomp"]

    def test_node_domains_forbid_and_filter_agree(self):
        for seed in range(10):
            q = random_instance(4, 5, seed)
            d = random_instance(7, 11, seed + 900)
            nodes_q = sorted(q.nodes, key=str)
            nodes_d = sorted(d.nodes, key=str)
            constraints = {
                "node_domains": {nodes_q[0]: frozenset(nodes_d[::2])},
                "forbid": frozenset(nodes_d[:2]),
            }
            results = four_way(q, d, **constraints)
            assert results["naive"] == results["decomp"]
            filtered = canon(
                iter_homomorphisms(
                    q,
                    d,
                    node_filter=lambda x, v: v == nodes_d[-1],
                    backend="decomp",
                )
            )
            oracle = canon(
                iter_homomorphisms(
                    q,
                    d,
                    node_filter=lambda x, v: v == nodes_d[-1],
                    backend="naive",
                )
            )
            assert filtered == oracle

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_property_find_has_count_batch_agree(self, seed):
        q = random_instance(4, 6, seed)
        d = random_instance(6, 10, seed + 1)
        verdicts = {
            b: has_homomorphism(q, d, backend=b, use_cache=False)
            for b in BACKENDS
        }
        assert len(set(verdicts.values())) == 1
        counts = {
            b: _count_homomorphisms(q, d, backend=b, use_cache=False)
            for b in BACKENDS
        }
        assert len(set(counts.values())) == 1
        witness = find_homomorphism(q, d, backend="decomp", use_cache=False)
        assert (witness is not None) == verdicts["naive"]
        if witness is not None:
            assert is_homomorphism(q, d, witness)

    def test_evaluate_batch_matches_oracle(self):
        q = path_structure(["T", "", "F"])
        family = instance_family(count=12, n=10, edge_count=20, seed=3)
        assert evaluate_batch(
            q, family, backend="decomp", use_cache=False
        ) == evaluate_batch(q, family, backend="naive", use_cache=False)

    def test_count_is_bag_product_not_enumeration(self):
        """A query with an astronomical hom count must still count
        instantly: 12 independent unlabelled nodes into a 30-node
        target has 30^12 homs, far beyond enumerable."""
        b = StructureBuilder()
        for i in range(12):
            b.add_node(i)
        q = b.build()
        d = random_instance(30, 40, seed=5)
        assert (
            _count_homomorphisms(q, d, backend="decomp", use_cache=False)
            == len(d.nodes) ** 12
        )

    def test_self_loops(self):
        b = StructureBuilder()
        b.add_node("x", "T")
        b.add_edge("x", "x", "R")
        q = b.build()
        b2 = StructureBuilder()
        b2.add_node("a", "T")
        b2.add_edge("a", "a", "R")
        b2.add_node("c", "T")
        b2.add_edge("c", "a", "R")
        d = b2.build()
        results = four_way(q, d)
        assert results["naive"] == results["decomp"]
        assert len(results["decomp"]) == 1

    def test_degenerate_structures(self):
        empty = Structure()
        q = path_structure(["T"])
        assert canon(iter_homomorphisms(empty, q, backend="decomp")) == [()]
        assert canon(iter_homomorphisms(q, empty, backend="decomp")) == []
        assert canon(iter_homomorphisms(empty, empty, backend="decomp")) == [
            ()
        ]


class TestDecomposition:
    def test_path_is_width_1_exact(self):
        td = decomp.tree_decomposition(path_structure([""] * 8))
        assert td.width == 1 and td.exact
        assert decomp.validate_decomposition(path_structure([""] * 8), td) \
            == []

    def test_cycle_is_width_2_exact(self):
        q = cycle_query(5)
        td = decomp.tree_decomposition(q)
        assert td.width == 2 and td.exact
        assert decomp.validate_decomposition(q, td) == []

    def test_two_row_grid_is_width_2_exact(self):
        q = grid_query(2, 4)
        td = decomp.tree_decomposition(q)
        assert td.width == 2 and td.exact

    def test_wide_grid_reports_upper_bound(self):
        q = grid_query(3, 3)
        td = decomp.tree_decomposition(q)
        assert td.width >= 3 and not td.exact  # treewidth of 3x3 is 3
        assert decomp.validate_decomposition(q, td) == []

    def test_random_decompositions_are_valid(self):
        for seed in range(25):
            s = random_instance(8, 14, seed, preds=("R", "S"))
            td = decomp.build_tree_decomposition(s)
            assert decomp.validate_decomposition(s, td) == []

    def test_cached_on_structure(self):
        q = path_structure(["T", "F"])
        assert decomp.tree_decomposition(q) is decomp.tree_decomposition(q)
        assert decomp.query_width(q) == 1


class TestPlanIntern:
    def test_plan_cached_on_structure(self):
        q = path_structure(["T", "", "F"])
        assert decomp.decomp_plan(q) is decomp.decomp_plan(q)

    def test_content_equal_structures_share_one_plan(self):
        """The fingerprint intern is how a compiled plan 'ships' over
        the wire: a worker rebuilding the same query re-finds the plan
        instead of recompiling."""
        from repro.core.runtime import from_wire, to_wire

        q = path_structure(["T", "", "F"])
        plan = decomp.decomp_plan(q)
        rebuilt = from_wire(to_wire(q))
        assert rebuilt is not q
        assert decomp.decomp_plan(rebuilt) is plan

    def test_intern_is_bounded(self):
        occupancy, capacity = decomp.plan_intern_info()
        assert occupancy <= capacity


class TestProbeWarmStart:
    def test_same_verdicts_as_batch_path(self):
        for name in ("q2", "q4", "q5", "q7"):
            cq = OneCQ.from_structure(getattr(zoo, name)())
            with Session(
                EngineConfig(probe_warmstart=True, workers=1)
            ) as warm, Session(
                EngineConfig(probe_warmstart=False, workers=1)
            ) as cold:
                for require_focus in (False, True):
                    a = probe_boundedness(
                        cq, 3, require_focus=require_focus, session=warm
                    )
                    b = probe_boundedness(
                        cq, 3, require_focus=require_focus, session=cold
                    )
                    assert (a.verdict, a.depth, a.uncovered) == (
                        b.verdict, b.depth, b.uncovered,
                    ), (name, require_focus)

    def test_warm_starts_actually_engage(self):
        """On a span-1 chain query the depth loop must answer most
        coverage pairs by delta application, not cold solves."""
        from repro.core import boundedness

        b = StructureBuilder()
        b.add_node("f", F)
        b.add_node("m")
        b.add_edge("f", "m")
        b.add_node("t", T)
        b.add_edge("m", "t")
        cq = OneCQ.from_structure(b.build())
        with Session(EngineConfig(probe_warmstart=True, workers=1)) as s:
            coverage = boundedness._probe_coverage(s, cq)
            assert coverage is not None
            cactuses = sorted(
                s.iter_cactuses(cq, 8), key=lambda c: c.depth
            )
            for d in range(8):
                shallow = [c for c in cactuses if c.depth <= d]
                deep = [c for c in cactuses if c.depth > d]
                for c in deep:
                    coverage.covered_by_any(c, shallow, False)
            assert coverage.warm_hits > coverage.cold_solves

    def test_cyclic_query_uses_relational_tier(self):
        """A width-2 query's cactuses route through the relational
        warm tier and still agree with the batch path."""
        b = StructureBuilder()
        b.add_node("f", F)
        for i in range(3):
            b.add_node(f"c{i}")
        b.add_edge("f", "c0")
        b.add_edge("c0", "c1")
        b.add_edge("c1", "c2")
        b.add_edge("c2", "c0")
        b.add_node("t", T)
        b.add_edge("c0", "t")
        cq = OneCQ.from_structure(b.build())
        with Session(
            EngineConfig(probe_warmstart=True, workers=1)
        ) as warm, Session(
            EngineConfig(probe_warmstart=False, workers=1)
        ) as cold:
            a = probe_boundedness(cq, 3, session=warm)
            b_ = probe_boundedness(cq, 3, session=cold)
            assert (a.verdict, a.depth) == (b_.verdict, b_.depth)

    def test_config_knob_disables_warmstart(self):
        from repro.core import boundedness

        cq = OneCQ.from_structure(zoo.q5())
        with Session(EngineConfig(probe_warmstart=False)) as s:
            assert boundedness._probe_coverage(s, cq) is None
        with Session(EngineConfig()) as s:
            assert boundedness._probe_coverage(s, cq) is not None

    def test_wide_queries_keep_the_sharded_path(self):
        """Cactuses inherit the query's width, so a width > 2 query
        would route every coverage pair through the serial engine
        fallback — the probe keeps the sharded batch path instead."""
        from repro.core import boundedness

        wide = grid_query(3, 3).extended(
            add_unary=[
                structure_mod.UnaryFact(F, (0, 0)),
                structure_mod.UnaryFact(T, (2, 2)),
            ]
        )
        cq = OneCQ.from_structure(wide)
        with Session(EngineConfig(probe_warmstart=True)) as s:
            assert boundedness._probe_coverage(s, cq) is None

    def test_parallel_atoms_between_one_pair(self):
        """Regression: two atoms between the same variable pair must
        intersect their support masks — a target offering each atom
        only towards *different* nodes admits no homomorphism."""
        b = StructureBuilder()
        b.add_node("x")
        b.add_node("y")
        b.add_edge("x", "y", "R")
        b.add_edge("x", "y", "S")
        q = b.build()
        b2 = StructureBuilder()
        b2.add_edge("a", "b", "R")
        b2.add_edge("a", "c", "S")
        split = b2.build()
        b3 = StructureBuilder()
        b3.add_edge("a", "b", "R")
        b3.add_edge("a", "b", "S")
        joint = b3.build()
        from repro.core.decomp import MaskCoverageState, decomp_plan

        plan = decomp_plan(q)
        assert MaskCoverageState.cold(plan, split, None).covered is False
        assert MaskCoverageState.cold(plan, joint, None).covered is True
        assert not has_homomorphism(q, split, backend="decomp",
                                    use_cache=False)
        assert has_homomorphism(q, joint, backend="decomp",
                                use_cache=False)

    def test_span2_probes_keep_the_batch_path(self):
        """Bushy span >= 2 probes (exponential layers of small
        cactuses) stay on the hom-cached, shardable batch path where
        the constants favour it; the coverage engine is chain-probe
        machinery."""
        from repro.core import boundedness

        with Session(EngineConfig(probe_warmstart=True)) as s:
            assert boundedness._probe_coverage(
                s, OneCQ.from_structure(zoo.q2())
            ) is None

    def test_span2_layers_stay_warm_when_driven_directly(self):
        """The coverage engine itself keeps bushy layers warm (mask
        LRU sized to layer widths + chain seeding via the structure
        registry), should a chain-shaped universe branch."""
        from repro.core.decomp import ProbeCoverage

        cq = OneCQ.from_structure(zoo.q2())
        with Session(EngineConfig(workers=1)) as s:
            coverage = ProbeCoverage(s)
            cactuses = sorted(
                s.iter_cactuses(cq, 2), key=lambda c: c.depth
            )
            for d in range(2):
                shallow = [c for c in cactuses if c.depth <= d]
                deep = [c for c in cactuses if c.depth > d]
                for c in deep:
                    coverage.covered_by_any(c, shallow, False)
            assert coverage.warm_hits > coverage.cold_solves

    def test_probe_answers_flow_through_session_hom_cache(self):
        """A repeated probe on the same session is answered from the
        hom-cache (the coverage engine reads and writes the find-cache
        under the decomp backend key)."""
        cq = OneCQ.from_structure(zoo.q5())
        with Session(EngineConfig(probe_warmstart=True, workers=1)) as s:
            first = probe_boundedness(cq, 3, session=s)
            hits_before = s.hom_cache_info().hits
            second = probe_boundedness(cq, 3, session=s)
            assert (first.verdict, first.depth) == (
                second.verdict, second.depth,
            )
            assert s.hom_cache_info().hits > hits_before


class TestAutoRouting:
    def test_width_routes_tree_queries_to_decomp(self):
        n = AUTO_DECOMP_MIN_NODES
        assert choose_auto_backend(n, 3 * n, True, query_width=1) == "decomp"
        assert choose_auto_backend(n, 3 * n, False, query_width=0) == "decomp"
        # Dense-and-numpy is the matrix backend's measured home turf:
        # width-1 queries stay off decomp there — but only when the
        # dense path actually exists.
        assert choose_auto_backend(n, 6 * n, True, query_width=1) == "matrix"
        assert choose_auto_backend(n, 6 * n, False, query_width=1) == \
            "decomp"
        # Below the target floor, or for wide queries, the old
        # size/density crossover stands.
        assert choose_auto_backend(n - 1, 3 * n, True, query_width=1) != \
            "decomp"
        assert choose_auto_backend(1000, 8000, True, query_width=2) == \
            "matrix"
        assert choose_auto_backend(1000, 8000, False, query_width=2) == \
            "bitset"
        # No width information: behaviour unchanged.
        assert choose_auto_backend(8, 200, True) == "bitset"

    def test_session_resolves_auto_per_query_shape(self):
        tree_q = path_structure([""] * 6)
        wide_q = grid_query(3, 3)
        big = instance_family(
            count=1, n=AUTO_DECOMP_MIN_NODES + 50, edge_count=450, seed=1
        )[0]
        with Session(EngineConfig(backend="auto")) as s:
            assert s.resolve_backend(None, big, tree_q) == "decomp"
            assert s.resolve_backend(None, big, wide_q) != "decomp"
            small = zoo.q2()
            assert s.resolve_backend(None, small, tree_q) == "bitset"

    def test_auto_answers_match_bitset_on_tree_queries(self):
        q = path_structure([""] * 5)
        family = instance_family(count=4, n=150, edge_count=450, seed=5)
        with Session(EngineConfig(backend="auto")) as auto, Session(
            EngineConfig(backend="bitset")
        ) as bits:
            assert [auto.has_homomorphism(q, d) for d in family] == [
                bits.has_homomorphism(q, d) for d in family
            ]


class TestNumpyFreeEnvironment:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(structure_mod, "_numpy_module", None)
        monkeypatch.setattr(structure_mod, "_numpy_checked", True)

    def test_decomp_is_pure_python(self, no_numpy):
        """The decomp backend (both tiers) never touches numpy."""
        for seed in range(8):
            q = random_ditree_cq(5, seed) or cycle_query(4)
            d = random_instance(8, 14, seed + 77)
            assert canon(
                iter_homomorphisms(q, d, backend="decomp")
            ) == canon(iter_homomorphisms(q, d, backend="naive"))
        q = cycle_query(4)
        d = random_instance(8, 20, seed=2)
        assert canon(iter_homomorphisms(q, d, backend="decomp")) == canon(
            iter_homomorphisms(q, d, backend="naive")
        )

    def test_warm_probe_without_numpy(self, no_numpy):
        cq = OneCQ.from_structure(zoo.q5())
        with Session(
            EngineConfig(probe_warmstart=True, workers=1)
        ) as warm, Session(
            EngineConfig(probe_warmstart=False, workers=1)
        ) as cold:
            a = probe_boundedness(cq, 3, session=warm)
            b = probe_boundedness(cq, 3, session=cold)
            assert (a.verdict, a.depth) == (b.verdict, b.depth)

    def test_auto_routes_to_decomp_without_numpy(self, no_numpy):
        tree_q = path_structure([""] * 6)
        big = instance_family(
            count=1, n=AUTO_DECOMP_MIN_NODES + 50, edge_count=900, seed=1
        )[0]
        with Session(EngineConfig(backend="auto")) as s:
            assert s.resolve_backend(None, big, tree_q) == "decomp"
