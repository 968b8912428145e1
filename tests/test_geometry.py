import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from reference import closure, from_pieces, identity, point
from test_simplicial import GRID, _ref_segment_intersection

from treechains.covers import CoverSystem, EpsilonSchedule
from treechains.diagram import TreeDiagram
from treechains.geometry import (
    RealizedSystem,
    _gt_sum_of_roots,
    closure_within,
    compute_rho_and_mesh,
    covers_whole_tree,
    dist2,
    enlarge_taut_family,
    enlargement_disjointness_violation,
    enlargement_nesting_violation,
    family_min_gap_squared,
    meeting_cliques,
    point_segment_dist2,
    realize,
    render_svg,
    segment_dist2,
    segments_meet,
)
from treechains.simplicial import EdgePoint, GraphError, SimplicialGraph
from treechains.verify import generate_instance

F = Fraction


def path_graph(n, spacing=1):
    coords = {i: (F(i * spacing), F(0)) for i in range(n)}
    return SimplicialGraph.build(range(n), [(i, i + 1) for i in range(n - 1)], coords)


def grid_of(intervals):
    """The least E whose grid holds every end of the intervals."""
    return lcm(*(t.denominator for lo, hi, _, _ in intervals for t in (lo, hi)))


def normalize_intervals(intervals):
    """The union of intervals on one edge, as ``from_pieces`` codes it on the
    grid of their ends and ``pieces`` gives it back."""
    region = from_pieces(path_graph(2), {(0, 1): intervals}, grid_of(intervals))
    return region.pieces.get((0, 1), ())


def star_region(tree, v, epsilon, steps):
    """The half-open epsilon-star of a vertex: the initial epsilon fraction of
    every incident edge, measured in edge parameter, on the grid of E =
    ``steps``."""
    raw = {}
    for w in tree.neighbors(v):
        if (v, w) in tree.edges:
            raw.setdefault((v, w), []).append((F(0), epsilon, True, False))
        else:
            raw.setdefault((w, v), []).append((1 - epsilon, F(1), False, True))
    return from_pieces(tree, raw, steps)


def region_union(regions):
    """The union of regions of one tree and one grid, normalized edge by
    edge."""
    raw = {}
    for r in regions:
        assert r.tree == regions[0].tree and r.steps == regions[0].steps
        for e, intervals in r.pieces.items():
            raw.setdefault(e, []).extend(intervals)
    return from_pieces(regions[0].tree, raw, regions[0].steps)


def region_edges(region):
    """The edges a region has pieces on, in the tree's ``sorted_edges()``
    order."""
    return [region.tree.sorted_edges()[k] for k in sorted(region.codes)]


def geometric_pieces(region):
    """The closed carrier segments of a region with exact Fraction endpoints,
    edge by edge in ``sorted_edges()`` order."""
    segs = []
    for a, b in region_edges(region):
        (ax, ay), (bx, by) = point(region.tree, a), point(region.tree, b)
        for lo, hi, _, _ in region.pieces[(a, b)]:
            segs.append(tuple((ax + t * (bx - ax), ay + t * (by - ay)) for t in (lo, hi)))
    return segs


def set_distance_squared(r1, r2):
    """Exact squared distance between the closures of two regions, over every
    pair of their Fraction pieces."""
    return min(segment_dist2(p1, q1, p2, q2)
               for p1, q1 in geometric_pieces(r1) for p2, q2 in geometric_pieces(r2))


def diameter_squared(r):
    """Squared diameter of the closed region, attained at piece endpoints."""
    pts = [p for seg in geometric_pieces(r) for p in seg]
    return max((dist2(p, q) for p in pts for q in pts), default=F(0))


def bbox_gap_squared(r1, r2):
    """Squared gap between the bounding boxes of two closed regions."""
    boxes = []
    for r in (r1, r2):
        pts = [p for seg in geometric_pieces(r) for p in seg]
        boxes.append((min(x for x, _ in pts), max(x for x, _ in pts),
                      min(y for _, y in pts), max(y for _, y in pts)))
    a, b = boxes
    dx = max(0, b[0] - a[1], a[0] - b[1])
    dy = max(0, b[2] - a[3], a[2] - b[3])
    return dx * dx + dy * dy


def spaced_identity_system():
    """Two identical covers of a 3-vertex path with edges of plane length 2.

    The only disjoint pairs sit at plane distance exactly 1, which pins the
    enlargement margin at m = 1/3.
    """
    g = path_graph(3, spacing=2)
    ident = identity(g)
    d = TreeDiagram((g, g), (ident,), (ident,))
    eps = EpsilonSchedule.build([F(3, 4), F(9, 16)])
    return RealizedSystem(CoverSystem(d, eps))


# -- the exact Fraction reference for interval questions --------------------
# Interval ends are ordered by key tuples: (lo, 0) for a closed start and
# (lo, 1) for an open one, (hi, 0) for a closed end and (hi, -1) for an open
# one.  Production decides the same questions on integer codes; these stay
# apart from them, so the two can check each other.


def _startpos(i):
    return (i[0], 0 if i[2] else 1)


def _endpos(i):
    return (i[1], 0 if i[3] else -1)


def normalize_by_keys(intervals):
    """The union as apart, ascending intervals, merged on the key tuples."""
    out = []
    for i in sorted((i for i in intervals if _startpos(i) <= _endpos(i)), key=_startpos):
        if out and _startpos(i) <= (_endpos(out[-1])[0], _endpos(out[-1])[1] + 1):
            if _endpos(i) > _endpos(out[-1]):
                out[-1] = (out[-1][0], i[1], out[-1][2], i[3])
            continue
        out.append(i)
    return tuple(out)


def interval_intersection(i1, i2):
    lo, lc = max((i1[0], not i1[2]), (i2[0], not i2[2]))
    hi, ho = min((i1[1], i1[3]), (i2[1], i2[3]))
    cand = (lo, hi, not lc, bool(ho))
    return cand if _startpos(cand) <= _endpos(cand) else None


def intervals_contain(cover, target):
    """target inside the union of the normalized intervals of cover."""
    cur, tend = _startpos(target), _endpos(target)
    for c in cover:
        if _endpos(c) < cur:
            continue
        if _startpos(c) > cur:
            return False
        cur = (_endpos(c)[0], _endpos(c)[1] + 1)
        if cur > tend:
            return True
    return cur > tend


def region_intersects(r1, r2):
    """Two regions meet: a vertex both hold, or two intervals of one edge."""
    if not r1.vertex_set.isdisjoint(r2.vertex_set):
        return True
    return any(interval_intersection(i, j) is not None
               for e, iv in r1.pieces.items() for i in iv for j in r2.pieces.get(e, ()))


def region_contains_by_keys(outer, inner):
    """inner inside outer, edge by edge, with an end vertex outer holds
    through another edge added as a point."""
    for (a, b), intervals in inner.pieces.items():
        cover = list(outer.pieces.get((a, b), ()))
        if a in outer.vertex_set:
            cover.append((F(0), F(0), True, True))
        if b in outer.vertex_set:
            cover.append((F(1), F(1), True, True))
        cover = normalize_by_keys(cover)
        if not all(intervals_contain(cover, i) for i in intervals):
            return False
    return True


def share_point_by_cliques(regions):
    """Some point lies in every region, as ``triples`` decides it: one clique
    of ``meeting_cliques`` holds them all."""
    everyone = set(range(len(regions)))
    return any(everyone <= set(members) for members in meeting_cliques(regions))


def share_point_pointwise(regions):
    """Some point lies in every region: a vertex, or a point inside an edge
    at an interval end or halfway between two adjacent ends (where the
    regions' common part, a union of intervals with those ends, must have
    one if it is not empty)."""
    tree = regions[0].tree
    if any(all(v in r.vertex_set for r in regions) for v in tree.vertices):
        return True
    for e in tree.edges:
        ends = sorted({F(0), F(1)} | {t for r in regions for i in r.pieces.get(e, ())
                                      for t in i[:2]})
        for t in ends + [(s + u) / 2 for s, u in zip(ends, ends[1:])]:
            if 0 < t < 1 and all(any(_startpos(i) <= (t, 0) <= _endpos(i)
                                     for i in r.pieces.get(e, ())) for r in regions):
                return True
    return False


class TestIntervals:
    def test_normalize_merges_touching_closed(self):
        got = normalize_intervals([(F(0), F(1, 2), True, True),
                                   (F(1, 2), F(1), False, True)])
        assert got == ((F(0), F(1), True, True),)

    def test_normalize_keeps_open_gap(self):
        got = normalize_intervals([(F(0), F(1, 2), True, False),
                                   (F(1, 2), F(1), False, True)])
        assert len(got) == 2

    def test_intersection_flags(self):
        g = path_graph(2)
        a = (F(0), F(1, 2), True, False)
        b = (F(1, 2), F(1), True, True)
        c = (F(1, 4), F(3, 4), False, False)
        ra, rb, rc = (from_pieces(g, {(0, 1): [i]}, 4) for i in (a, b, c))
        assert not share_point_by_cliques([ra, rb])
        assert share_point_by_cliques([ra, rc]) and share_point_by_cliques([rb, rc])
        assert interval_intersection(a, b) is None
        assert interval_intersection(a, c) == (F(1, 4), F(1, 2), False, False)

    def test_containment_needs_seamless_cover(self):
        g = path_graph(2)
        whole = from_pieces(g, {(0, 1): [(F(0), F(1), True, True)]}, 2)
        cover = [(F(0), F(1, 2), True, True), (F(1, 2), F(1), False, True)]
        assert closure_within(from_pieces(g, {(0, 1): cover}, 2), whole)
        holed = [(F(0), F(1, 2), True, False), (F(1, 2), F(1), False, True)]
        assert not closure_within(from_pieces(g, {(0, 1): holed}, 2), whole)


class TestSegments:
    def test_intersection_kinds(self):
        crossing = ((F(0), F(0)), (F(2), F(2)), (F(0), F(2)), (F(2), F(0)))
        overlap = ((F(0), F(0)), (F(2), F(0)), (F(1), F(0)), (F(3), F(0)))
        parallel = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
        assert _ref_segment_intersection(*crossing) == ("point", (F(1), F(1)))
        assert segments_meet(*crossing) is True
        assert _ref_segment_intersection(*overlap) == ("overlap",)
        assert segments_meet(*overlap) is True
        assert _ref_segment_intersection(*parallel) is None
        assert segments_meet(*parallel) is False

    def test_dist_fast_path_matches_generic(self):
        rng = random.Random(31)

        def brute(a, b, c, d):
            if segments_meet(a, b, c, d):
                return F(0)
            return min(point_segment_dist2(a, c, d), point_segment_dist2(b, c, d),
                       point_segment_dist2(c, a, b), point_segment_dist2(d, a, b))

        for _ in range(300):
            def seg():
                x, y = F(rng.randrange(-4, 5)), F(rng.randrange(-4, 5))
                if rng.random() < 0.5:
                    return (x, y), (x, y + F(rng.randrange(1, 4)))
                return (x, y), (x + F(rng.randrange(1, 4)), y)
            (a, b), (c, d) = seg(), seg()
            assert segment_dist2(a, b, c, d) == brute(a, b, c, d)

    def test_diagonal_segments_still_exact(self):
        d = segment_dist2((F(0), F(0)), (F(1), F(1)), (F(2), F(0)), (F(3), F(1)))
        assert d == F(2)  # closest at (1,1) vs (2,0)

    def test_gt_sum_of_roots(self):
        assert _gt_sum_of_roots(F(1), F(1, 16), F(1, 16))
        assert not _gt_sum_of_roots(F(1, 4), F(1, 16), F(1, 16))
        # irrational cross term: 2*sqrt(2/16) vs d = 1
        assert _gt_sum_of_roots(F(1), F(1, 16), F(1, 8))


def _ref_point_segment_dist2(p, a, b):
    # divide-first Fraction version, kept as the reference for the integer path
    dx, dy = b[0] - a[0], b[1] - a[1]
    dd = dx * dx + dy * dy
    t = F(0) if dd == 0 else ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / dd
    t = min(max(t, F(0)), F(1))
    x, y = a[0] + t * dx, a[1] + t * dy
    return (p[0] - x) ** 2 + (p[1] - y) ** 2


def _ref_segment_dist2(a, b, c, d):
    if _ref_segment_intersection(a, b, c, d) is not None:
        return F(0)
    return min(_ref_point_segment_dist2(a, c, d), _ref_point_segment_dist2(b, c, d),
               _ref_point_segment_dist2(c, a, b), _ref_point_segment_dist2(d, a, b))


class TestExactDistances:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(GRID), st.sampled_from(GRID)),
                    min_size=4, max_size=4))
    def test_distances_exact_on_fractions_and_ints(self, pts):
        a, b, c, d = pts
        expected = _ref_segment_dist2(a, b, c, d)
        event("touching" if expected == 0 else "apart")
        assert segment_dist2(a, b, c, d) == expected
        assert point_segment_dist2(a, c, d) == _ref_point_segment_dist2(a, c, d)
        # GRID denominators divide 30, so this scaling lands on ints
        scaled = [(int(x * 30), int(y * 30)) for x, y in pts]
        got = segment_dist2(*scaled)
        assert not isinstance(got, float) and got == expected * 900
        got = point_segment_dist2(*scaled[:3])
        assert not isinstance(got, float)
        assert got == _ref_point_segment_dist2(a, b, c) * 900


class TestRegions:
    def test_star_is_half_open(self):
        g = path_graph(3)
        star = star_region(g, 1, F(3, 4), 4)
        assert star.contains_point(EdgePoint.vertex(1))
        assert star.contains_point(EdgePoint(1, 2, F(1, 2)))
        assert not star.contains_point(EdgePoint(1, 2, F(3, 4)))
        assert not star.contains_point(EdgePoint.vertex(0))
        closed = closure(star)
        assert closed.contains_point(EdgePoint(1, 2, F(3, 4)))

    def test_intersect_via_shared_vertex_only(self):
        g = path_graph(3)
        left = from_pieces(g, {(0, 1): [(F(0), F(1), True, True)]}, 2)
        right = from_pieces(g, {(1, 2): [(F(0), F(1), True, True)]}, 2)
        assert region_intersects(left, right)
        assert share_point_by_cliques([left, right])
        # the one common point is the vertex 1, not the middle of (0, 1)
        vertex = from_pieces(g, {(1, 2): [(F(0), F(0), True, True)]}, 2)
        middle = from_pieces(g, {(0, 1): [(F(1, 2), F(1, 2), True, True)]}, 2)
        assert share_point_by_cliques([left, right, vertex])
        assert not share_point_by_cliques([left, right, middle])

    def test_containment_across_edges(self):
        g = path_graph(3)
        whole = region_union([star_region(g, v, F(3, 4), 4) for v in g.vertices])
        assert covers_whole_tree([whole])
        mid = from_pieces(g, {(0, 1): [(F(1, 2), F(1), False, True)]}, 4)
        assert closure_within(whole, mid)
        small = star_region(g, 1, F(1, 4), 4)
        assert closure_within(whole, small)
        assert not closure_within(small, whole)
        # the end vertex 1 of (0, 1), held only through (1, 2), closes the
        # open interval there: containment holds through the vertex alone
        open_end = {(0, 1): [(F(1, 2), F(1), False, False)]}
        outer = from_pieces(
            g, {**open_end, (1, 2): [(F(0), F(1, 4), True, False)]}, 4)
        inner = from_pieces(g, {(0, 1): [(F(3, 4), F(1), True, True)]}, 4)
        assert closure_within(outer, inner)
        assert not closure_within(from_pieces(g, open_end, 4), inner)

    def test_distance_and_diameter(self):
        g = path_graph(4, spacing=2)
        r1 = from_pieces(g, {(0, 1): [(F(0), F(1, 2), True, True)]}, 2)
        r2 = from_pieces(g, {(2, 3): [(F(1, 2), F(1), True, True)]}, 2)
        assert set_distance_squared(r1, r2) == F(16)
        assert bbox_gap_squared(r1, r2) == F(16)
        assert diameter_squared(region_union([r1, r2])) == F(36)

    def test_one_tree_and_one_grid(self):
        g = path_graph(2)
        with pytest.raises(GraphError, match="off the grid"):
            from_pieces(g, {(0, 1): [(F(0), F(1, 3), True, True)]}, 2)
        half = {(0, 1): [(F(0), F(1, 2), True, True)]}
        coarse, fine = (from_pieces(g, half, steps) for steps in (2, 4))
        for reader in (meeting_cliques, share_point_by_cliques, covers_whole_tree,
                       lambda pair: closure_within(*pair)):
            with pytest.raises(GraphError, match="not on one grid"):
                reader([coarse, fine])
        with pytest.raises(GraphError, match="different trees"):
            closure_within(coarse, from_pieces(path_graph(3), half, 2))
        # a realized system whose regions are not all on one grid
        inst = generate_instance(1)
        realized = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons))
        a = realized.system.covers[0][0]
        region = realized.region(a)
        realized.regions[(a.level, a.vertex)] = from_pieces(
            region.tree, region.pieces, 2 * region.steps)
        with pytest.raises(GraphError, match="not on one grid"):
            realized.scaled_pieces


class TestRealized:
    def test_realized_union_covers_tree(self):
        inst = generate_instance(1)
        system = CoverSystem(inst.diagram, inst.epsilons)
        realized = RealizedSystem(system)
        for n in range(system.l + 1):
            assert covers_whole_tree([realized.region(a) for a in system.covers[n]])

    def test_realize_matches_fiber_stars(self):
        inst = generate_instance(1)
        system = CoverSystem(inst.diagram, inst.epsilons)
        a = system.covers[0][0]
        r = realize(system, a)
        for w in a.fiber:
            assert r.contains_point(EdgePoint.vertex(w))

    def test_rho_is_hand_value(self):
        # nearest disjoint coarse sets: fibers two subdivided edges apart,
        # so the gap is (2 - 2*eps_0)/3 = 1/6
        for l in (1, 2):
            realized = RealizedSystem(
                CoverSystem(generate_instance(l).diagram, EpsilonSchedule.default(l)))
            rho_sq, mesh_sq, _ = compute_rho_and_mesh(realized)
            assert rho_sq == F(1, 36)
            assert mesh_sq == sorted(mesh_sq, reverse=True)

    def test_rho_matches_float_sampling(self):
        import math
        realized = RealizedSystem(
            CoverSystem(generate_instance(2).diagram, EpsilonSchedule.default(2)))
        system = realized.system
        from treechains.covers import sets_intersect
        best = None
        level0 = system.covers[0]
        for i, a in enumerate(level0):
            for b in level0[i + 1:]:
                if sets_intersect(system, a, b):
                    continue
                for p1, q1 in geometric_pieces(closure(realized.region(a))):
                    for p2, q2 in geometric_pieces(closure(realized.region(b))):
                        for s in range(11):
                            for t in range(11):
                                x1 = float(p1[0]) + (float(q1[0]) - float(p1[0])) * s / 10
                                y1 = float(p1[1]) + (float(q1[1]) - float(p1[1])) * s / 10
                                x2 = float(p2[0]) + (float(q2[0]) - float(p2[0])) * t / 10
                                y2 = float(p2[1]) + (float(q2[1]) - float(p2[1])) * t / 10
                                d = (x1 - x2) ** 2 + (y1 - y2) ** 2
                                if best is None or d < best:
                                    best = d
        rho_sq, _, _ = compute_rho_and_mesh(realized)
        # sampling only overestimates
        assert float(rho_sq) <= best + 1e-9
        assert math.isclose(float(rho_sq), best, rel_tol=0.05)


class TestEnlargement:
    def test_hand_margin_one_third(self):
        realized = spaced_identity_system()
        assert family_min_gap_squared(realized) == F(1)
        m_sq, radius_sq = enlarge_taut_family(realized)
        assert m_sq == F(1, 9) and radius_sq == [F(1, 9), F(1, 36)]
        assert enlargement_disjointness_violation(realized, radius_sq) is None
        assert enlargement_nesting_violation(realized, radius_sq) is None

    def test_generated_pipelines(self):
        for l in (1, 2, 3):
            inst = generate_instance(l)
            realized = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons))
            _, radius_sq = enlarge_taut_family(realized)
            assert enlargement_disjointness_violation(realized, radius_sq) is None
            assert enlargement_nesting_violation(realized, radius_sq) is None

    def test_inflated_radius_detected(self):
        realized = spaced_identity_system()
        # margin m = 3, so the level-0 radius alone swallows the unit gap
        radius_sq = [F(9), F(9, 4)]
        assert enlargement_disjointness_violation(realized, radius_sq) is not None


class TestRender:
    def test_svg_deterministic(self, tmp_path):
        inst = generate_instance(1)
        realized = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons))
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        t1 = render_svg(realized, str(p1))
        t2 = render_svg(realized, str(p2))
        assert t1 == t2
        assert p1.read_text() == t1
        assert t1.startswith("<svg ")
        assert '<g id="level-0"' in t1 and 'class="link"' in t1
