"""Three-way backend cross-validation: naive / bitset / matrix.

The ``matrix`` backend (dense boolean-matrix-semiring AC-3 + forward
checking) must enumerate exactly the same homomorphism sets as the
``naive`` oracle and the ``bitset`` default, across random instances
from :mod:`repro.workloads.generators` and under every declarative
constraint (seeds, restrict_image, node_domains, forbid, node_filter).
The suite also pins the numpy-free fallback: with numpy unavailable,
``backend="matrix"`` silently runs the pure-python int-bitset search
and keeps agreeing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import structure as structure_mod
from repro.core.homengine import (
    BACKENDS,
    _count_homomorphisms,
    has_homomorphism,
    is_homomorphism,
    iter_homomorphisms,
    matrix_backend_available,
)
from repro.core.structure import (
    MatrixIndex,
    Structure,
    StructureBuilder,
    path_structure,
)
from repro.workloads.generators import (
    random_ditree_cq,
    random_instance,
    random_lambda_cq,
)


def canon(homs):
    """Order-insensitive canonical form of a hom enumeration."""
    return sorted(
        tuple(sorted(h.items(), key=lambda kv: str(kv[0]))) for h in homs
    )


def three_way(q, d, **kwargs):
    """Canonical enumerations of all three backends, as a dict."""
    return {
        backend: canon(iter_homomorphisms(q, d, backend=backend, **kwargs))
        for backend in BACKENDS
    }


class TestThreeWayCrossValidation:
    def test_backends_registered(self):
        assert BACKENDS == ("naive", "bitset", "matrix", "decomp")

    def test_random_instances_enumerate_identically(self):
        """Identical hom sets on 60 random (query, instance) pairs from
        the workload generators, across all three backends."""
        nonempty = 0
        for seed in range(60):
            q = random_ditree_cq(5, seed) or random_instance(
                4, 5, seed, preds=("R", "S")
            )
            d = random_instance(9, 16, seed + 20_000, preds=("R", "S"))
            results = three_way(q, d)
            assert results["naive"] == results["bitset"] == results["matrix"], (
                f"backend mismatch at seed {seed}"
            )
            nonempty += bool(results["naive"])
        assert nonempty > 0  # the sample is not vacuous

    def test_lambda_cqs_against_larger_targets(self):
        checked = 0
        for seed in range(40):
            q = random_lambda_cq(6, seed)
            if q is None:
                continue
            d = random_instance(30, 80, seed + 7, preds=("R",))
            results = three_way(q, d)
            assert results["naive"] == results["matrix"]
            assert results["bitset"] == results["matrix"]
            checked += 1
        assert checked >= 10

    def test_seeded_and_restricted_agree(self):
        for seed in range(15):
            q = random_instance(4, 6, seed, preds=("R",))
            d = random_instance(7, 12, seed + 500, preds=("R",))
            some_q = next(iter(sorted(q.nodes, key=str)))
            restrict = frozenset(list(sorted(d.nodes, key=str))[:4])
            for image in sorted(d.nodes, key=str):
                results = three_way(
                    q, d, seed={some_q: image}, restrict_image=restrict
                )
                assert results["naive"] == results["bitset"]
                assert results["naive"] == results["matrix"]

    def test_node_domains_forbid_and_filter_agree(self):
        for seed in range(15):
            q = random_instance(4, 5, seed)
            d = random_instance(7, 11, seed + 900)
            nodes_q = sorted(q.nodes, key=str)
            nodes_d = sorted(d.nodes, key=str)
            constraints = {
                "node_domains": {nodes_q[0]: frozenset(nodes_d[::2])},
                "forbid": frozenset(nodes_d[:2]),
            }
            results = three_way(q, d, **constraints)
            assert results["naive"] == results["bitset"]
            assert results["naive"] == results["matrix"]
            filtered = canon(
                iter_homomorphisms(
                    q,
                    d,
                    node_filter=lambda x, v: v == nodes_d[-1],
                    backend="matrix",
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
    @settings(max_examples=60, deadline=None)
    def test_property_existence_and_count_agree(self, seed):
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

    def test_every_matrix_hom_verifies(self):
        for seed in range(20):
            q = random_instance(4, 6, seed)
            d = random_instance(6, 12, seed + 77)
            for hom in iter_homomorphisms(q, d, backend="matrix"):
                assert is_homomorphism(q, d, hom)

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
        results = three_way(q, d)
        assert results["naive"] == results["bitset"] == results["matrix"]
        assert len(results["matrix"]) == 1  # only the true self-loop

    def test_degenerate_structures(self):
        empty = Structure()
        q = path_structure(["T"])
        assert canon(iter_homomorphisms(empty, q, backend="matrix")) == [()]
        assert canon(iter_homomorphisms(q, empty, backend="matrix")) == []
        assert canon(iter_homomorphisms(empty, empty, backend="matrix")) == [
            ()
        ]


class TestMatrixIndex:
    def test_adjacency_and_labels(self):
        b = StructureBuilder()
        b.add_node("x", "T")
        b.add_node("y", "F")
        b.add_edge("x", "y", "R")
        s = b.build()
        if not matrix_backend_available():
            pytest.skip("numpy not installed")
        idx = s.matrix_index
        xi, yi = idx.index["x"], idx.index["y"]
        assert bool(idx.adj["R"][xi, yi]) and not bool(idx.adj["R"][yi, xi])
        assert bool(idx.adj_t["R"][yi, xi])
        assert bool(idx.label_nodes["T"][xi])
        assert bool(idx.has_out["R"][xi]) and not bool(idx.has_out["R"][yi])
        assert bool(idx.has_in["R"][yi])
        assert idx.mask_of(["x", "zzz-not-a-node"]).sum() == 1

    def test_memoised_per_structure(self):
        if not matrix_backend_available():
            pytest.skip("numpy not installed")
        s = random_instance(6, 9, seed=1)
        assert s.matrix_index is s.matrix_index

    def test_extended_structures_rebuild(self):
        if not matrix_backend_available():
            pytest.skip("numpy not installed")
        base = path_structure(["T", "F"])
        _ = base.matrix_index
        ext = base.extended(add_nodes=["z"])
        idx = ext.matrix_index  # rebuilt, not transferred
        assert idx.n == len(ext.nodes)


class TestNumpyFreeFallback:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        """Simulate a numpy-free environment for the duration of a test."""
        monkeypatch.setattr(structure_mod, "_numpy_module", None)
        monkeypatch.setattr(structure_mod, "_numpy_checked", True)

    def test_matrix_backend_falls_back(self, no_numpy):
        assert not matrix_backend_available()
        for seed in range(10):
            q = random_instance(4, 5, seed)
            d = random_instance(7, 11, seed + 333)
            fallback = canon(iter_homomorphisms(q, d, backend="matrix"))
            oracle = canon(iter_homomorphisms(q, d, backend="naive"))
            assert fallback == oracle

    def test_matrix_index_raises_without_numpy(self, no_numpy):
        s = path_structure(["T"])
        with pytest.raises(RuntimeError):
            MatrixIndex(s)
