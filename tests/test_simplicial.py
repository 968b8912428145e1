import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from reference import (
    coords,
    evaluate_realization,
    from_subdivided,
    k_close,
    point,
    subdivision_vertex,
    to_subdivided,
)

import treechains
import treechains.geometry as geo
from treechains import family
from treechains.covers import EpsilonSchedule
from treechains.family import build_family_diagram, build_tree
from treechains.geometry import point_on_segment, segment_intersection
from treechains.simplicial import (
    EdgePoint,
    GraphError,
    SimplicialGraph,
    SimplicialMapping,
    canonical_edge,
    is_surjection,
    lift_map_3,
    subdivide3,
    validate_simplicial,
    vkey,
)
from treechains.verify import generate_instance


# ints, strs, int pairs and subdivision labels nested on any of them
PAIRS = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
LABELS = st.recursive(
    st.integers(-3, 3) | st.text("ab", max_size=2) | PAIRS,
    lambda kids: st.tuples(st.just("sub"), st.tuples(kids, kids),
                           st.sampled_from(["1/3", "2/3"])),
    max_leaves=6)


@st.composite
def labelled_graphs(draw):
    """(vertices, edges): distinct mixed labels and edges between two of them,
    each given in either orientation, some more than once."""
    vertices = draw(st.lists(LABELS, min_size=2, max_size=12, unique=True))
    ends = st.sampled_from(vertices)
    edges = draw(st.lists(st.tuples(ends, ends).filter(lambda e: e[0] != e[1]), max_size=20))
    return vertices, edges


# the labels of a family tree and others beside them: ints, strs that sort
# before and after "sub", tuples with a str head, and int pairs
TREE_LABELS = (st.integers(-5, 5) | st.sampled_from(["a", "t", "zz"])
               | st.tuples(st.sampled_from(["t", "zz"]), st.integers(0, 3)) | PAIRS)


@st.composite
def mixed_trees(draw):
    """A tree on distinct TREE_LABELS, with or without (unchecked) coordinates."""
    vertices = draw(st.lists(TREE_LABELS, min_size=1, max_size=10, unique=True))
    edges = [(v, vertices[draw(st.integers(0, i - 1))]) for i, v in enumerate(vertices) if i]
    coords = None
    if draw(st.booleans()):
        c = st.fractions(-3, 3, max_denominator=4)
        coords = {v: (draw(c), draw(c)) for v in vertices}
    return SimplicialGraph.build(vertices, edges, coords, check_embedding=False)


def recursive_vkey(v):
    """``vkey`` as first written, each tuple item but an int keyed by
    recursion; a bool has a key class of its own."""
    if isinstance(v, tuple):
        return (2, *[(0, x) if type(x) is int else recursive_vkey(x) for x in v])
    if isinstance(v, bool):
        return (3, v)
    if isinstance(v, int):
        return (0, v)
    return (1, str(v))


def path_graph(n, spacing=1):
    coords = {i: (Fraction(i * spacing), Fraction(0)) for i in range(n)}
    return SimplicialGraph.build(range(n), [(i, i + 1) for i in range(n - 1)], coords)


class TestGraph:
    def test_canonical_edge_orientation(self):
        assert canonical_edge(3, 1) == (1, 3)
        assert canonical_edge((1, 0), (-1, 0)) == ((-1, 0), (1, 0))
        with pytest.raises(ValueError):
            canonical_edge(2, 2)

    def test_vkey_orders_mixed_labels(self):
        labels = [("sub", (0, 1), "1/3"), 5, (1, 2), "x"]
        assert sorted(labels, key=vkey) == [5, "x", (1, 2), ("sub", (0, 1), "1/3")]

    @settings(max_examples=300, deadline=None)
    @given(st.recursive(st.integers() | st.booleans() | st.text(max_size=3) | LABELS
                        | TREE_LABELS,
                        lambda kids: st.lists(kids, max_size=3).map(tuple), max_leaves=10))
    def test_vkey_matches_a_reference_recursion(self, label):
        def reference(v):
            if isinstance(v, tuple):
                return (2, *map(reference, v))
            if isinstance(v, bool):
                return (3, v)
            if isinstance(v, int):
                return (0, v)
            return (1, str(v))

        assert vkey(label) == reference(label) == recursive_vkey(label)
        assert vkey((True, 1, label)) == (2, (3, True), (0, 1), reference(label))
        sub = ("sub", (label, True), "1/3")
        assert vkey(sub) == recursive_vkey(sub)

    def test_sorted_vertices_is_one_cached_tuple(self):
        g = generate_instance(2).diagram.levels[-1]
        first = g.sorted_vertices()
        assert g.sorted_vertices() is first
        assert first == tuple(sorted(g.vertices, key=vkey))

    def test_edge_needs_known_endpoints(self):
        with pytest.raises(GraphError):
            SimplicialGraph.build([0, 1], [(0, 2)])

    def test_degenerate_edge_is_reported_before_an_unknown_endpoint(self):
        with pytest.raises(ValueError, match=r"^degenerate edge \{1\}$"):
            SimplicialGraph.build([0, 1], [(2, 0), (1, 1)])
        with pytest.raises(GraphError,
                           match=r"^edge \(0, 2\) has endpoint outside vertex set$"):
            SimplicialGraph.build([0, 1], [(1, 0), (2, 0)])

    @settings(max_examples=200, deadline=None)
    @given(labelled_graphs())
    def test_build_orders_as_vkey(self, graph):
        vertices, edges = graph
        g = SimplicialGraph.build(vertices, edges)
        assert g.edges == frozenset(canonical_edge(u, v) for u, v in edges)
        assert g.sorted_vertices() == tuple(sorted(vertices, key=vkey))
        by_vkey = sorted(g.edges, key=lambda e: (vkey(e[0]), vkey(e[1])))
        assert g.sorted_edges() == tuple(by_vkey)
        assert all(g.rank[v] == k for k, v in enumerate(g.sorted_vertices()))

    def test_tree_predicate(self):
        g = path_graph(4)
        assert g.is_tree()
        cyc = SimplicialGraph.build(range(3), [(0, 1), (1, 2), (0, 2)])
        assert cyc.is_connected() and not cyc.is_tree()

    def test_embedding_rejects_crossing_edges(self):
        coords = {0: (Fraction(0), Fraction(0)), 1: (Fraction(2), Fraction(2)),
                  2: (Fraction(0), Fraction(2)), 3: (Fraction(2), Fraction(0))}
        with pytest.raises(GraphError):
            SimplicialGraph.build(range(4), [(0, 1), (2, 3)], coords)

    def test_embedding_rejects_vertex_inside_edge(self):
        coords = {0: (Fraction(0), Fraction(0)), 1: (Fraction(2), Fraction(0)),
                  2: (Fraction(1), Fraction(0))}
        with pytest.raises(GraphError):
            SimplicialGraph.build(range(3), [(0, 1)], coords)


def _ref_segment_intersection(a, b, c, d):
    # divide-first Fraction version, kept as the reference for the integer path
    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    ca = (c[0] - a[0], c[1] - a[1])

    def lerp(t):
        return ((1 - t) * a[0] + t * b[0], (1 - t) * a[1] + t * b[1])

    if denom != 0:
        t = (ca[0] * s[1] - ca[1] * s[0]) / denom
        u = (ca[0] * r[1] - ca[1] * r[0]) / denom
        return ("point", lerp(t)) if 0 <= t <= 1 and 0 <= u <= 1 else None
    if r[0] * ca[1] - r[1] * ca[0] != 0:
        return None
    rr = r[0] * r[0] + r[1] * r[1]
    if rr == 0:
        return ("point", a) if point_on_segment(a, c, d) else None
    t0 = (ca[0] * r[0] + ca[1] * r[1]) / rr
    t1 = ((d[0] - a[0]) * r[0] + (d[1] - a[1]) * r[1]) / rr
    lo, hi = max(Fraction(0), min(t0, t1)), min(Fraction(1), max(t0, t1))
    if lo > hi:
        return None
    return ("point", lerp(lo)) if lo == hi else ("overlap",)


def reference_embedding_violation(g):
    """The all-Fraction scan the integer check must reproduce witness for
    witness; witness vertices come in vkey order."""
    pts = {}
    for v in g.sorted_vertices():
        p = point(g, v)
        if p in pts:
            return ("duplicate-coordinate", pts[p], v)
        pts[p] = v
    segs = [(e, point(g, e[0]), point(g, e[1])) for e in g.sorted_edges()]
    for e, a, b in segs:
        for v in g.sorted_vertices():
            if v not in e and point_on_segment(point(g, v), a, b):
                return ("vertex-in-edge", v, e)
    for i, (e1, a1, b1) in enumerate(segs):
        for e2, a2, b2 in segs[i + 1:]:
            hit = _ref_segment_intersection(a1, b1, a2, b2)
            if hit is None:
                continue
            if hit[0] == "overlap" or hit[1] not in {point(g, v) for v in set(e1) & set(e2)}:
                return ("edges-cross", e1, e2)
    return None


# a coarse grid of rationals, so duplicates, collinear overlaps, vertices on
# edges and crossings all turn up often
GRID = sorted({Fraction(p, q) for p in range(-4, 5) for q in (1, 2, 3, 5)})
# far from GRID: an edge out to one of these is long, so the grid's cells are
# wide and one cell holds the boxes of many short edges
FAR = [Fraction(-40), Fraction(121, 3), Fraction(40)]


@st.composite
def embedded_graphs(draw, far=False):
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True))
    coords = {v: (draw(st.sampled_from(GRID)), draw(st.sampled_from(GRID)))
              for v in range(n)}
    if far:
        coords[0] = (draw(st.sampled_from(FAR)), draw(st.sampled_from(GRID + FAR)))
    return SimplicialGraph.build(range(n), edges, coords, check_embedding=False)


# string labels hash differently per process, so iterating a vertex set
# visits c/d and a/c in a different order under each PYTHONHASHSEED
HASHED_LABELS = """
from fractions import Fraction as F
from treechains.simplicial import SimplicialGraph
on = {"a": (F(0), F(0)), "b": (F(3), F(0)), "c": (F(1), F(0)), "d": (F(2), F(0))}
dup = {"a": (F(0), F(0)), "b": (F(1), F(0)), "c": (F(0), F(0)), "d": (F(1), F(0))}
for pts in (on, dup):
    g = SimplicialGraph.build(pts, [("a", "b")], pts, check_embedding=False)
    print(g.embedding_violation())
"""


# True and "True" had one key, so their order followed string hashing:
# True came first under PYTHONHASHSEED=1 and "True" under 7
BOOL_AND_STR = """
from treechains.simplicial import SimplicialGraph
g = SimplicialGraph.build([True, "True", 0], [(True, 0), ("True", 0)])
print(g.sorted_vertices(), g.sorted_edges())
"""


def test_bool_and_str_labels_order_without_string_hashing():
    src = os.path.dirname(os.path.dirname(treechains.__file__))
    outputs = set()
    for seed in (1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        outputs.add(subprocess.run([sys.executable, "-c", BOOL_AND_STR], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert outputs == {"(0, 'True', True) ((0, 'True'), (0, True))\n"}


class TestEmbeddingViolation:
    def test_witness_does_not_depend_on_string_hashing(self):
        src = os.path.dirname(os.path.dirname(treechains.__file__))
        outputs = set()
        for seed in range(1, 6):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            outputs.add(subprocess.run([sys.executable, "-c", HASHED_LABELS], env=env,
                                       capture_output=True, text=True, check=True).stdout)
        assert outputs == {"('vertex-in-edge', 'c', ('a', 'b'))\n"
                           "('duplicate-coordinate', 'a', 'c')\n"}

    @settings(max_examples=600, deadline=None)
    @given(st.one_of(embedded_graphs(), embedded_graphs(far=True)))
    def test_integer_check_matches_fraction_reference(self, g):
        expected = reference_embedding_violation(g)
        event(expected[0] if expected else "planar")
        assert g.embedding_violation() == expected

    def test_one_edge_moves_match_fraction_reference(self):
        tree = build_tree(9, 8)
        vertices = tree.sorted_vertices()
        rng = random.Random(7)
        kinds = set()
        for e in tree.sorted_edges():
            for keep in e:
                # the edge leaves its other end for a random vertex
                target = rng.choice([v for v in vertices if v not in e])
                if tree.has_edge(keep, target):
                    continue
                moved = (tree.edges - {e}) | {canonical_edge(keep, target)}
                g = SimplicialGraph.build(tree.vertices, moved, coords(tree),
                                          check_embedding=False)
                expected = reference_embedding_violation(g)
                kinds.add(expected and expected[0])
                assert g.embedding_violation() == expected, (e, keep, target)
        assert kinds == {None, "vertex-in-edge", "edges-cross"}

    def test_candidate_pairs_stay_near_linear(self, monkeypatch):
        # the deepest tree of the l=8 instance: an all-pairs scan makes
        # 11,556 point_on_segment and 5,778 segment_intersection calls
        tree = generate_instance(8).diagram.levels[-1]
        assert (len(tree.vertices), len(tree.edges)) == (109, 108)
        calls = []
        for name in ("point_on_segment", "segment_intersection"):
            original = getattr(geo, name)
            monkeypatch.setattr(geo, name, lambda *args, _f=original, _n=name:
                                calls.append(_n) or _f(*args))
        assert tree.embedding_violation() is None
        assert len(calls) <= 4 * len(tree.edges)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(GRID), st.sampled_from(GRID)),
                    min_size=4, max_size=4))
    def test_segment_intersection_exact_on_fractions_and_ints(self, pts):
        expected = _ref_segment_intersection(*pts)
        event(expected[0] if expected else "miss")
        assert segment_intersection(*pts) == expected
        # GRID denominators divide 30, so this scaling lands on ints
        scaled = [(int(x * 30), int(y * 30)) for x, y in pts]
        if expected is not None and expected[0] == "point":
            expected = ("point", (expected[1][0] * 30, expected[1][1] * 30))
        assert segment_intersection(*scaled) == expected


class TestKClose:
    def test_path_distances(self):
        g = path_graph(4)
        # path a-b-c-d: the far ends need three steps
        assert not k_close(g, 0, 3, 2)
        assert k_close(g, 0, 3, 3)
        assert k_close(g, 0, 2, 2)
        assert k_close(g, 1, 1, 1)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            k_close(path_graph(2), 0, 1, 0)


class TestMapping:
    def test_validation_and_surjectivity(self):
        g = path_graph(3)
        h = path_graph(2)
        fold = SimplicialMapping(g, h, {0: 0, 1: 1, 2: 0})
        assert validate_simplicial(fold)
        assert is_surjection(fold)
        tear = SimplicialMapping(path_graph(4), h, {0: 0, 1: 1, 2: 0, 3: 1})
        assert validate_simplicial(tear)
        skip = SimplicialMapping(path_graph(3), path_graph(3), {0: 0, 1: 2, 2: 2})
        assert not validate_simplicial(skip)

    def test_realization_functoriality(self):
        rng = random.Random(11)
        g2, g1, g0 = path_graph(5), path_graph(4), path_graph(3)
        f = SimplicialMapping(g2, g1, {0: 0, 1: 1, 2: 2, 3: 3, 4: 2}).require_valid()
        g = SimplicialMapping(g1, g0, {0: 0, 1: 1, 2: 2, 3: 1}).require_valid()
        gf = g.compose(f)
        for _ in range(100):
            a = rng.randrange(4)
            p = EdgePoint(a, a + 1, Fraction(rng.randrange(0, 101), 100))
            assert evaluate_realization(gf, p) == \
                evaluate_realization(g, evaluate_realization(f, p))


class TestEdgePoint:
    def test_canonicalization(self):
        assert EdgePoint(0, 1, Fraction(0)) == EdgePoint.vertex(0)
        assert EdgePoint(0, 1, Fraction(1)) == EdgePoint.vertex(1)
        assert EdgePoint(1, 0, Fraction(1, 4)) == EdgePoint(0, 1, Fraction(3, 4))
        with pytest.raises(ValueError):
            EdgePoint(0, 1, Fraction(3, 2))


class TestSubdivision:
    def test_counts(self):
        g = path_graph(8)
        g3 = subdivide3(g)
        assert len(g3.vertices) == 8 + 2 * 7
        assert len(g3.edges) == 3 * 7
        assert g3.is_tree()

    def test_orientation_independent_labels(self):
        g = path_graph(2)
        assert subdivision_vertex(g, (0, 1), Fraction(1, 3)) == \
            subdivision_vertex(g, (1, 0), Fraction(2, 3))

    def test_subdivision_vertex_needs_a_third(self):
        g = path_graph(2)
        for t in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(-1, 3)):
            with pytest.raises(ValueError, match="1/3 or 2/3"):
                subdivision_vertex(g, (0, 1), t)
        assert subdivision_vertex(g, (0, 1), Fraction(2, 3)) == ("sub", (0, 1), "2/3")
        assert subdivision_vertex(g, (1, 0), Fraction(1, 3)) == ("sub", (0, 1), "2/3")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.fractions(max_denominator=60), min_size=4, max_size=4)
           .filter(lambda c: c[:2] != c[2:]))
    def test_third_points_are_the_affine_combinations(self, c):
        pa, pb = (c[0], c[1]), (c[2], c[3])
        g = SimplicialGraph.build([0, 1], [(0, 1)], {0: pa, 1: pb})
        g3 = subdivide3(g)
        third, two_thirds = Fraction(1, 3), Fraction(2, 3)
        for t, u in ((third, ("sub", (0, 1), "1/3")), (two_thirds, ("sub", (0, 1), "2/3"))):
            expected = tuple((1 - t) * a + t * b for a, b in zip(pa, pb))
            assert point(g3, u) == expected
            assert all(type(x) is Fraction for x in point(g3, u))

    def test_int_frame_is_the_reduced_frame(self):
        eps = EpsilonSchedule.build([Fraction(3, 4), Fraction(2, 3), Fraction(3, 5),
                                     Fraction(11, 20)])
        trees = [t for k in range(2, 10) for t in build_family_diagram(k).levels]
        trees += [t for l in range(1, 7) for t in generate_instance(l).diagram.levels]
        trees += generate_instance(3, eps).diagram.levels
        for tree in trees:
            ref = SimplicialGraph.build(tree.vertices, tree.edges, coords(tree), False)
            assert tree.int_frame == ref.int_frame
            assert all(type(c) is Fraction for v in tree.vertices for c in point(tree, v))
        # trisecting (0,0)-(3,0) puts the new points at 1 and 2: scale 1
        g3 = subdivide3(path_graph(2, spacing=3))
        assert g3.int_frame == (1, {0: (0, 0), 1: (3, 0), ("sub", (0, 1), "1/3"): (1, 0),
                                    ("sub", (0, 1), "2/3"): (2, 0)})

    def test_family_trees_and_their_lift_make_no_fraction(self):
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kw):
            made.append(args)
            return new(cls, *args, **kw)

        family._levels.cache_clear()  # so the trees are built here
        with mock.patch.object(Fraction, "__new__", counting):
            d = build_family_diagram(5)
            levels3 = [subdivide3(g) for g in d.levels]
            for n in range(d.length):
                lift_map_3(d.g_row[n], levels3[n + 1], levels3[n])
            assert made == []
            point(build_tree(5, 0), (0, 5))
            assert made  # the counter sees a Fraction made

    @settings(max_examples=200, deadline=None)
    @given(mixed_trees())
    def test_subdivide3_derives_the_keys_build_computes(self, g):
        event("coords" if coords(g) is not None else "no coords")
        derived = []
        from_keys = SimplicialGraph._from_keys

        def spy(keys, *rest, **kw):
            derived.append(dict(keys))
            return from_keys(keys, *rest, **kw)

        with mock.patch.object(SimplicialGraph, "_from_keys", staticmethod(spy)):
            g3 = subdivide3(g)
            g9 = subdivide3(g3)  # g3's "sub" labels sort among g9's new ones
        for h, keys in ((g3, derived[0]), (g9, derived[1])):
            ref = SimplicialGraph.build(h.vertices, h.edges, coords(h), False)
            assert (h.vertices, h.edges, h.int_frame) == (ref.vertices, ref.edges, ref.int_frame)
            assert list(h.rank.items()) == list(ref.rank.items())
            assert keys.keys() == h.vertices
            assert all(key == vkey(v) for v, key in keys.items())

    def test_subdivision_coordinates_roundtrip(self):
        rng = random.Random(5)
        for _ in range(200):
            a = rng.randrange(5)
            p = EdgePoint(a, a + 1, Fraction(rng.randrange(0, 61), 60))
            assert from_subdivided(to_subdivided(p)) == p

    def test_lift_is_simplicial_and_pointwise_equal(self):
        g = path_graph(5)
        h = path_graph(4)
        f = SimplicialMapping(g, h, {0: 0, 1: 1, 2: 2, 3: 3, 4: 2}).require_valid()
        f3 = lift_map_3(f, subdivide3(g), subdivide3(h))
        assert validate_simplicial(f3)
        rng = random.Random(23)
        for _ in range(300):
            a = rng.randrange(4)
            p = EdgePoint(a, a + 1, Fraction(rng.randrange(0, 301), 300))
            lifted = evaluate_realization(f3, to_subdivided(p))
            assert from_subdivided(lifted) == evaluate_realization(f, p)

    @pytest.mark.parametrize("assignment", [
        {0: 0, 1: 1, 2: 2, 3: 3},                # 4 unmapped
        {0: 0, 1: 1, 2: 2, 3: 3, 4: 9},          # 9 is not a vertex of the target
        {0: 0, 1: 2, 2: 2, 3: 3},                # unmapped, and (0, 1) torn too
        {0: 0, 1: 1, 2: 3, 3: 3, 4: 2},          # (1, 2) sent to the non-edge (1, 3)
        {0: 0, 1: 2, 2: 0, 3: 3, 4: 1},          # (0, 1), (1, 2) and (3, 4) torn
    ])
    def test_lift_raises_what_require_valid_raises(self, assignment):
        g, h = path_graph(5), path_graph(4)
        m = SimplicialMapping(g, h, assignment)
        with pytest.raises(GraphError) as expected:
            m.require_valid()
        with pytest.raises(GraphError) as got:
            lift_map_3(m, subdivide3(g), subdivide3(h))
        assert str(got.value) == str(expected.value)

    def test_subdivided_coords_are_thirds(self):
        g = path_graph(2, spacing=3)
        g3 = subdivide3(g)
        u = subdivision_vertex(g, (0, 1), Fraction(1, 3))
        assert point(g3, u) == (Fraction(1), Fraction(0))
