"""Unit and property tests for the homomorphism engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    StructureBuilder,
    find_homomorphism,
    has_homomorphism,
    is_core,
    is_homomorphism,
    iter_homomorphisms,
    path_structure,
)
from repro.core.structure import R, S, Structure


def build_random_structure(draw_nodes, draw_edges, labels):
    b = StructureBuilder()
    for i, labs in enumerate(labels):
        b.add_node(i, *labs)
    for src, dst in draw_edges:
        b.add_edge(src % max(len(labels), 1), dst % max(len(labels), 1))
    return b.build()


class TestBasics:
    def test_identity_is_homomorphism(self):
        q = path_structure(["T", "", "F"])
        ident = {n: n for n in q.nodes}
        assert is_homomorphism(q, q, ident)

    def test_label_preservation_required(self):
        q = path_structure(["T"])
        d = path_structure(["F"])
        assert not has_homomorphism(q, d)

    def test_extra_labels_on_target_ok(self):
        q = path_structure(["T"])
        d = path_structure([("T", "F")])
        assert has_homomorphism(q, d)

    def test_edge_direction_matters(self):
        q = path_structure(["T", "F"])  # T -> F
        b = StructureBuilder()
        b.add_node("x", "F")
        b.add_node("y", "T")
        b.add_edge("x", "y")  # F -> T
        assert not has_homomorphism(q, b.build())

    def test_edge_predicate_matters(self):
        q = path_structure(["T", "F"], preds=[S])
        d = path_structure(["T", "F"], preds=[R])
        assert not has_homomorphism(q, d)

    def test_path_into_longer_path(self):
        q = path_structure(["", ""])
        d = path_structure(["", "", "", ""])
        homs = list(iter_homomorphisms(q, d))
        assert len(homs) == 3  # three consecutive pairs

    def test_path_collapses_onto_loop(self):
        b = StructureBuilder()
        b.add_edge("x", "x")
        loop = b.build()
        q = path_structure(["", "", "", ""])
        assert has_homomorphism(q, loop)

    def test_no_hom_into_empty(self):
        q = path_structure(["T"])
        assert not has_homomorphism(q, Structure())

    def test_empty_source_has_trivial_hom(self):
        assert find_homomorphism(Structure(), path_structure(["T"])) == {}


class TestSeedsAndFilters:
    def test_seed_forces_image(self):
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", "", ""], prefix="d")
        homs = list(iter_homomorphisms(q, d, seed={"q0": "d1"}))
        assert len(homs) == 1
        assert homs[0] == {"q0": "d1", "q1": "d2"}

    def test_infeasible_seed(self):
        q = path_structure(["", ""], prefix="q")
        d = path_structure(["", ""], prefix="d")
        assert not has_homomorphism(q, d, seed={"q0": "d1"})

    def test_seed_with_wrong_labels_rejected(self):
        q = path_structure(["T", ""], prefix="q")
        d = path_structure(["", "T"], prefix="d")
        assert not has_homomorphism(q, d, seed={"q0": "d0"})

    def test_seed_outside_target_rejected(self):
        q = path_structure(["T"], prefix="q")
        d = path_structure(["T"], prefix="d")
        assert not has_homomorphism(q, d, seed={"q0": "nope"})

    def test_restrict_image(self):
        q = path_structure([""], prefix="q")
        d = path_structure(["", ""], prefix="d")
        homs = list(
            iter_homomorphisms(q, d, restrict_image=frozenset({"d1"}))
        )
        assert [h["q0"] for h in homs] == ["d1"]

    def test_node_filter_vetoes(self):
        q = path_structure([""], prefix="q")
        d = path_structure(["", ""], prefix="d")
        homs = list(
            iter_homomorphisms(
                q, d, node_filter=lambda x, v: v != "d0"
            )
        )
        assert [h["q0"] for h in homs] == ["d1"]

    def test_self_loop_source_consistency(self):
        b = StructureBuilder()
        b.add_edge("x", "x")
        loop = b.build()
        d = path_structure(["", ""])
        assert not has_homomorphism(loop, d)
        assert has_homomorphism(loop, loop)


class TestUtilities:
    def test_is_core_path_with_distinct_labels(self):
        q = path_structure(["T", "F"])
        assert is_core(q)

    def test_is_core_rejects_redundant_disjoint_copy(self):
        p1 = path_structure(["T", "F"], prefix="a")
        p2 = path_structure(["T", "F"], prefix="b")
        union = Structure(
            p1.nodes | p2.nodes,
            p1.unary_facts | p2.unary_facts,
            p1.binary_facts | p2.binary_facts,
        )
        assert not is_core(union)

    def test_retract_to_subset(self):
        # A retraction onto p1: a self-map fixing p1 whose image avoids p2.
        p1 = path_structure(["T", "F"], prefix="a")
        p2 = path_structure(["T", "F"], prefix="b")
        union = p1.union(p2)
        retraction = find_homomorphism(
            union, union, seed={n: n for n in p1.nodes}, forbid=p2.nodes
        )
        assert retraction is not None
        assert retraction["b0"] == "a0"
        assert retraction["a0"] == "a0"

    def test_retract_impossible(self):
        q = path_structure(["T", "F"])
        assert (
            find_homomorphism(
                q, q, seed={"v0": "v0"}, forbid=q.nodes - {"v0"}
            )
            is None
        )


@st.composite
def small_structure(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    label_sets = draw(
        st.lists(
            st.sets(st.sampled_from(["T", "F", "A"]), max_size=2),
            min_size=n,
            max_size=n,
        )
    )
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ),
            max_size=8,
        )
    )
    b = StructureBuilder()
    for i, labs in enumerate(label_sets):
        b.add_node(i, *labs)
    for src, dst in edges:
        b.add_edge(src, dst)
    return b.build()


class TestProperties:
    @given(small_structure())
    @settings(max_examples=60, deadline=None)
    def test_identity_always_hom(self, s):
        assert is_homomorphism(s, s, {n: n for n in s.nodes})

    @given(small_structure(), small_structure())
    @settings(max_examples=40, deadline=None)
    def test_every_found_hom_verifies(self, src, dst):
        count = 0
        for hom in iter_homomorphisms(src, dst):
            assert is_homomorphism(src, dst, hom)
            count += 1
            if count > 20:
                break

    @given(small_structure(), small_structure(), small_structure())
    @settings(max_examples=25, deadline=None)
    def test_homs_compose(self, a, b, c):
        h1 = find_homomorphism(a, b)
        h2 = find_homomorphism(b, c)
        if h1 is not None and h2 is not None:
            assert is_homomorphism(a, c, {x: h2[y] for x, y in h1.items()})

    @given(small_structure())
    @settings(max_examples=40, deadline=None)
    def test_hom_into_disjoint_union_component(self, s):
        copy, _ = s.with_fresh_nodes("u")
        union = s.union(copy)
        assert has_homomorphism(s, union)
