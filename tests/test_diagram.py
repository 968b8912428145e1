import random
from fractions import Fraction

import pytest
from reference import identity, k_close

from treechains.diagram import (
    TreeDiagram,
    check_commutative,
    coincidence_free,
    coincidence_oracle,
    commutativity_violation,
    lift_diagram_3,
    proximity_vertices,
)
from treechains.family import build_family_diagram
from treechains.simplicial import (
    EdgePoint,
    GraphError,
    SimplicialGraph,
    SimplicialMapping,
)
from treechains.verify import random_simplicial_map, random_tree


def path_graph(n):
    coords = {i: (Fraction(i), Fraction(0)) for i in range(n)}
    return SimplicialGraph.build(range(n), [(i, i + 1) for i in range(n - 1)], coords)


def two_level(f_assign, g_assign, src=4, dst=3):
    g1, g0 = path_graph(src), path_graph(dst)
    return TreeDiagram((g0, g1),
                       (SimplicialMapping(g1, g0, g_assign),),
                       (SimplicialMapping(g1, g0, f_assign),))


class TestDiagramShape:
    def test_rejects_mistyped_rows(self):
        g1, g0 = path_graph(3), path_graph(2)
        m = SimplicialMapping(g1, g0, {0: 0, 1: 1, 2: 1})
        with pytest.raises(GraphError):
            TreeDiagram((g0, g1), (m,), ())

    def test_well_formed_flags_nonsurjective_g(self):
        d = two_level({0: 0, 1: 1, 2: 2, 3: 1},
                      {0: 0, 1: 1, 2: 1, 3: 0})
        assert d.well_formed_violation() == ("g-not-surjective", 0)

    def test_commutativity_on_family(self):
        d = build_family_diagram(5)
        assert check_commutative(d)
        assert commutativity_violation(d) is None


class TestCoincidence:
    def test_identity_pair_has_coincidences_everywhere(self):
        g = path_graph(3)
        ident = identity(g)
        assert not coincidence_free(ident, ident)
        oracle = coincidence_oracle(ident, ident)
        assert all(EdgePoint.vertex(v) in oracle for v in g.vertices)
        # an edge where the two agree identically shows as its midpoint
        assert all(EdgePoint(a, b, Fraction(1, 2)) in oracle for a, b in g.sorted_edges())

    def test_midpoint_crossing(self):
        # f runs up while g runs down the same target edge
        g1, g0 = path_graph(2), path_graph(2)
        f = SimplicialMapping(g1, g0, {0: 0, 1: 1})
        g = SimplicialMapping(g1, g0, {0: 1, 1: 0})
        assert coincidence_oracle(f, g) == frozenset([EdgePoint(0, 1, Fraction(1, 2))])
        assert not coincidence_free(f, g)

    def test_edge_criterion_witness(self):
        from treechains.diagram import coincidence_violation
        g1, g0 = path_graph(2), path_graph(2)
        f = SimplicialMapping(g1, g0, {0: 0, 1: 1})
        g = SimplicialMapping(g1, g0, {0: 1, 1: 0})
        assert coincidence_violation(f, g) == ("edge", (0, 1))

    def test_checker_oracle_agreement_random(self):
        rng = random.Random(2024)
        for _ in range(200):
            src = random_tree(rng, rng.randrange(2, 11))
            dst = random_tree(rng, rng.randrange(2, 11))
            f = random_simplicial_map(rng, src, dst)
            g = random_simplicial_map(rng, src, dst)
            assert coincidence_free(f, g) == (not coincidence_oracle(f, g))


class TestProximity:
    def test_close_images_detected(self):
        g1, g0 = path_graph(2), path_graph(4)
        f = SimplicialMapping(g1, g0, {0: 0, 1: 0})
        g = SimplicialMapping(g1, g0, {0: 2, 1: 3})
        assert proximity_vertices(f, g) == frozenset([0])

    def test_no_proximity_implies_no_coincidence(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(400):
            src = random_tree(rng, rng.randrange(2, 9))
            dst = random_tree(rng, rng.randrange(4, 11))
            f = random_simplicial_map(rng, src, dst)
            g = random_simplicial_map(rng, src, dst)
            if not proximity_vertices(f, g):
                checked += 1
                assert not coincidence_oracle(f, g)
        assert checked > 10

    def test_matches_k_close_on_random_pairs(self):
        rng = random.Random(19)
        kinds = set()
        for _ in range(600):
            src = random_tree(rng, rng.randrange(2, 9))
            dst = random_tree(rng, rng.randrange(2, 13))
            f = random_simplicial_map(rng, src, dst)
            g = random_simplicial_map(rng, src, dst)
            expected = {v for v in src.vertices
                        if k_close(dst, f.assignment[v], g.assignment[v], 2)}
            assert proximity_vertices(f, g) == expected
            kinds.add("none" if not expected else "all" if expected == src.vertices else "some")
        assert kinds == {"none", "some", "all"}

    def test_images_at_distance_0_to_3(self):
        g1, g0 = path_graph(4), path_graph(5)
        f = SimplicialMapping(g1, g0, {0: 0, 1: 0, 2: 0, 3: 0})
        g = SimplicialMapping(g1, g0, {0: 0, 1: 1, 2: 2, 3: 3})
        assert proximity_vertices(f, g) == frozenset([0, 1, 2])
        assert proximity_vertices(g, f) == frozenset([0, 1, 2])
        point = SimplicialGraph.build([0], [])  # equal images with no neighbour
        f = SimplicialMapping(g1, point, {v: 0 for v in g1.vertices})
        assert proximity_vertices(f, f) == g1.vertices

    @pytest.mark.parametrize("f_img, g_img", [(9, 9), (9, 0), (0, 9)])
    def test_image_outside_the_target_raises(self, f_img, g_img):
        g1, g0 = path_graph(2), path_graph(3)
        f = SimplicialMapping(g1, g0, {0: f_img, 1: 0})
        g = SimplicialMapping(g1, g0, {0: g_img, 1: 2})
        with pytest.raises(GraphError, match="^unknown vertex 9$"):
            proximity_vertices(f, g)

    def test_two_images_outside_the_target_name_f_first(self):
        g1, g0 = path_graph(2), path_graph(3)
        f = SimplicialMapping(g1, g0, {0: 8, 1: 0})
        g = SimplicialMapping(g1, g0, {0: 9, 1: 2})
        with pytest.raises(GraphError, match="^unknown vertex 8$"):
            proximity_vertices(f, g)


class TestLift:
    def test_lift_requires_coincidence_free_bottom(self):
        g = path_graph(3)
        ident = identity(g)
        d = TreeDiagram((g, g), (ident,), (ident,))
        with pytest.raises(GraphError):
            lift_diagram_3(d)

    def test_family_lift_has_no_proximity_anywhere(self):
        for k in range(2, 6):
            lifted = lift_diagram_3(build_family_diagram(k))
            assert lifted.well_formed_violation() is None
            assert commutativity_violation(lifted) is None
            for n in range(lifted.length):
                assert not proximity_vertices(lifted.f_row[n], lifted.g_row[n])
                assert not coincidence_oracle(lifted.f_row[n], lifted.g_row[n])

    def test_unsubdivided_family_has_proximity(self):
        # before trisection the far endpoints give 2-close image pairs
        d = build_family_diagram(4)
        assert proximity_vertices(d.f_row[0], d.g_row[0])
