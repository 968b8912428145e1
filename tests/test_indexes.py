"""The intersection graph, the geometric pair index and the grid distance
routines against brute-force all-pairs scans of the definitions."""

import dataclasses
import json
import math
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from reference import closure, folded_leaf_instance, from_pieces, point
from test_geometry import (
    _endpos,
    _startpos,
    diameter_squared,
    geometric_pieces,
    grid_of,
    normalize_by_keys,
    normalize_intervals,
    path_graph,
    region_contains_by_keys,
    region_edges,
    region_intersects,
    region_union,
    share_point_by_cliques,
    share_point_pointwise,
    star_region,
)

import treechains.covers as covers
import treechains.geometry as geometry
from treechains.covers import (
    CoverSystem,
    EpsilonSchedule,
    d1_violation,
    d2_violation,
    first_failing_level_pair,
    nerve,
    point_in_cover_set,
    refinement_violation,
    sets_intersect,
)
from treechains.geometry import (
    RealizedSystem,
    SegmentRegion,
    _GapScan,
    _grid_pairs,
    _gt_sum_of_roots,
    _least_gap_squared,
    closure_within,
    compute_rho_and_mesh,
    covers_whole_tree,
    enlarge_taut_family,
    enlargement_disjointness_violation,
    enlargement_nesting_violation,
    family_min_gap_squared,
    later_intersecting,
    meeting_cliques,
    realize,
    rho_squared,
    segment_dist2,
)
from treechains.cli import main
from treechains.serialize import Instance, instance_from_json
from treechains.simplicial import EdgePoint, GraphError, SimplicialGraph, vkey
from treechains.verify import (
    STAGES,
    VerifyContext,
    generate_instance,
    verify_instance,
)

F = Fraction
STAGE = dict(STAGES)
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixtures_past_system_build():
    out = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name)) as fh:
            try:
                inst = instance_from_json(json.load(fh))
            except ValueError:
                continue  # fails at schema
        statuses = {r.name: r.status for r in verify_instance(inst).results}
        if statuses["system-build"] == "PASS":
            out.append((name, inst))
    return out


def _instances():
    cases = [("l=%d" % l, generate_instance(l)) for l in range(1, 7)]
    return cases + [("folded-leaf", folded_leaf_instance())] + _fixtures_past_system_build()


CASES = _instances()
IDS = [name for name, _ in CASES]


@pytest.fixture(scope="module", params=CASES, ids=IDS)
def realized(request):
    inst = request.param[1]
    return RealizedSystem(CoverSystem(inst.diagram, inst.epsilons, inst.phi_tables))


def test_fixtures_reach_system_build():
    assert IDS[7:] == ["inflated_radius.json", "nested_radius.json", "phi_edit_d2.json",
                       "phi_edit_d2prime.json", "phi_equals_g.json"]


def test_scaled_pieces_are_the_closures_pieces(realized):
    scale, by_set, by_edge = realized.scaled_pieces
    pieces = [pc for own in by_set for pc in own]
    assert all(type(c) is int for _, p, q, _ in pieces for c in p + q)
    assert all(pc[0] == i for i, own in enumerate(by_set) for pc in own)
    got = [(i, tuple((F(x, scale), F(y, scale)) for x, y in (p, q)))
           for i, p, q, _ in pieces]
    closures = [closure(realized.region(a)) for a in realized.system.all_sets()]
    assert got == [(i, seg) for i, closed in enumerate(closures)
                   for seg in geometric_pieces(closed)]
    # by_edge holds the very same tuples, grouped by the edge each lies on,
    # in all_sets() order, with the edge's ends in the same units
    on = [e for closed in closures for e in region_edges(closed)
          for _ in closed.pieces[e]]
    tree = realized.system.deepest
    assert [e for e, _, _ in by_edge] == list(tree.sorted_edges())
    for e, points, group in by_edge:
        expected = [pc for pc, edge in zip(pieces, on) if edge == e]
        assert len(group) == len(expected)
        assert all(pc is want for pc, want in zip(group, expected))
        assert tuple((F(x, scale), F(y, scale)) for x, y in points) == \
            (point(tree, e[0]), point(tree, e[1]))


def test_every_region_is_on_the_schedule_grid(realized):
    steps = realized.system.epsilons.steps
    for a in realized.system.all_sets():
        assert realized.region(a).steps == closure(realized.region(a)).steps == steps


def test_realize_matches_the_union_of_stars(realized):
    system = realized.system
    for a in system.all_sets():
        stars = [star_region(system.deepest, w, a.epsilon, system.epsilons.steps)
                 for w in sorted(a.fiber, key=vkey)]
        assert realized.region(a).pieces == region_union(stars).pieces, a.key()


def test_graph_matches_hull_definition(realized):
    system = realized.system
    adj = system.deepest.adjacency
    sets = system.all_sets()
    hulls = [a.fiber.union(*(adj[w] for w in a.fiber)) for a in sets]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert sets_intersect(system, a, b) == (not hulls[j].isdisjoint(a.fiber)), \
                (a.key(), b.key())


def _later(regions):
    """For each listed region, the later ones that meet it, read off one
    sweep."""
    return later_intersecting(meeting_cliques(regions), len(regions))


def test_region_index_matches_all_pairs(realized):
    opened = [realized.region(a) for a in realized.system.all_sets()]
    for regions in (opened, [closure(r) for r in opened]):
        brute = [[j for j in range(i + 1, len(regions))
                  if region_intersects(regions[i], regions[j])]
                 for i in range(len(regions))]
        assert _later(regions) == brute


def test_region_index_finds_a_meeting_at_a_vertex_only():
    g = path_graph(3)
    left = from_pieces(g, {(0, 1): [(F(0), F(1), True, True)]}, 2)
    right = from_pieces(g, {(1, 2): [(F(0), F(1, 2), True, True)]}, 2)
    far = from_pieces(g, {(1, 2): [(F(1, 2), F(1), False, True)]}, 2)
    assert _later([left, right, far]) == [[1], [], []]


# a small tree with a degree-3 vertex: 1 has the neighbours 0, 2 and 3
FORK = SimplicialGraph.build(range(4), [(0, 1), (1, 2), (1, 3)],
                             {0: (F(0), F(0)), 1: (F(1), F(0)), 2: (F(2), F(0)), 3: (F(1), F(1))})
_ends = st.one_of(st.sampled_from([F(0), F(1)]),
                  st.fractions(min_value=0, max_value=1, max_denominator=6))


@st.composite
def edge_cut(draw, flags):
    """The cells of a cut of a whole edge at up to three rational points,
    each with its own end flags."""
    cuts = [F(0)] + sorted(draw(st.lists(_ends, max_size=3))) + [F(1)]
    return [(lo, hi, draw(flags), draw(flags)) for lo, hi in zip(cuts, cuts[1:])]


@st.composite
def fork_intervals(draw):
    """A random interval, a degenerate closed point, or the cells of a cut."""
    kind = draw(st.sampled_from(["random", "point", "cut"]))
    if kind == "point":
        t = draw(_ends)
        return [(t, t, True, True)]
    if kind == "random":
        lo, hi = sorted((draw(_ends), draw(_ends)))
        return [(lo, hi, draw(st.booleans()), draw(st.booleans()))]
    return draw(edge_cut(st.booleans()))


@st.composite
def fork_pieces(draw):
    """The raw pieces of one to five regions on the tree, each edge's
    intervals dealt out to random regions.  Half the draws also cut every
    edge with mostly closed ends, so the union often covers the tree, up to
    a point left out between two open ends."""
    count = draw(st.integers(1, 5))
    whole = draw(st.booleans())
    raw = [{} for _ in range(count)]
    for e in sorted(FORK.edges):
        intervals = draw(st.lists(fork_intervals(), max_size=3))
        if whole:
            intervals.append(draw(edge_cut(st.sampled_from([True] * 4 + [False]))))
        for interval in intervals:
            for piece in interval:
                raw[draw(st.integers(0, count - 1))].setdefault(e, []).append(piece)
    return raw


def _on_one_grid(raw):
    """The regions of one draw of fork_pieces, all coded on the grid of the
    draw's ends."""
    steps = grid_of([i for pieces in raw for intervals in pieces.values() for i in intervals])
    return [from_pieces(FORK, pieces, steps) for pieces in raw]


fork_regions = fork_pieces().map(_on_one_grid)


@settings(max_examples=300, deadline=None)
@given(fork_regions)
def test_later_intersecting_matches_region_intersects(regions):
    brute = [[j for j in range(i + 1, len(regions))
              if region_intersects(regions[i], regions[j])]
             for i in range(len(regions))]
    event("some regions meet" if any(brute) else "no regions meet")
    assert _later(regions) == brute


def test_later_intersecting_meets_at_a_vertex_held_through_two_edges():
    # on the path 0-1-2 the first two regions share the point 1 and nothing
    # else; the third starts just past the second's end
    tree = path_graph(3)
    regions = [from_pieces(tree, pieces, 2) for pieces in (
        {(0, 1): [(F(1, 2), F(1), True, True)]},
        {(1, 2): [(F(0), F(1, 2), True, True)]},
        {(1, 2): [(F(1, 2), F(1), False, True)]})]
    assert [[j for j in range(i + 1, 3) if region_intersects(regions[i], regions[j])]
            for i in range(3)] == [[1], [], []]
    assert _later(regions) == [[1], [], []]


@settings(max_examples=300, deadline=None)
@given(fork_pieces())
def test_normalize_intervals_matches_key_tuples(raw):
    for pieces in raw:
        for intervals in pieces.values():
            assert normalize_intervals(intervals) == normalize_by_keys(intervals)


@settings(max_examples=300, deadline=None)
@given(fork_regions)
def test_closure_within_matches_key_tuples(regions):
    # the closures and the union hold regions, so both answers turn up
    pool = regions + [closure(r) for r in regions] + [region_union(regions)]
    answers = set()
    for outer in pool:
        for inner in pool:
            expected = region_contains_by_keys(outer, closure(inner))
            answers.add(expected)
            assert closure_within(outer, inner) == expected
    event("some closure outside a region" if False in answers else "all nested")


@settings(max_examples=300, deadline=None)
@given(fork_regions)
def test_shared_points_by_cliques_match_pointwise(regions):
    for size in (1, 2, 3):
        for some in combinations(regions, size):
            expected = share_point_pointwise(some)
            if size == 3:
                event("three share a point: %s" % expected)
            assert share_point_by_cliques(some) == expected


def covers_by_union(regions):
    """The reference definition: the union, normalized edge by edge, is the
    whole closed unit interval on every edge of the tree."""
    u = region_union(regions)
    full = (F(0), F(1), True, True)
    return set(u.pieces) == set(u.tree.edges) and all(iv == (full,) for iv in u.pieces.values())


@settings(max_examples=300, deadline=None)
@given(fork_regions)
def test_covers_whole_tree_matches_union(regions):
    expected = covers_by_union(regions)
    event("covers: %s" % expected)
    assert covers_whole_tree(regions) == expected



def test_covers_whole_tree_needs_the_point_between_two_open_ends():
    half = F(1, 2)
    left = from_pieces(FORK, {e: [(F(0), half, True, False)] for e in FORK.edges}, 2)
    for closed, covers in ((False, False), (True, True)):
        right = from_pieces(FORK, {e: [(half, F(1), closed, True)]
                                   for e in FORK.edges}, 2)
        assert covers_whole_tree([left, right]) is covers_by_union([left, right]) is covers

# -- realized regions beside from_pieces regions -----------------------------
# The realized regions of generate_instance(2) are coded on the schedule's
# E = 24; regions made by from_pieces on the same deepest tree, with ends at
# any multiple of 1/24, are coded on that one grid too.

_two = generate_instance(2)
MIXED = RealizedSystem(CoverSystem(_two.diagram, _two.epsilons))
MIXED_EDGES = MIXED.system.deepest.sorted_edges()
MIXED_STEPS = MIXED.system.epsilons.steps
_grid_ends = st.integers(0, MIXED_STEPS).map(lambda k: F(k, MIXED_STEPS))


@st.composite
def drawn_region(draw, edges):
    """A from_pieces region with one to three intervals on the given edges,
    their ends at any multiple of 1/24, not only at 0, eps, 1 - eps and 1."""
    raw = {}
    for _ in range(draw(st.integers(1, 3))):
        lo, hi = sorted((draw(_grid_ends), draw(_grid_ends)))
        raw.setdefault(draw(st.sampled_from(edges)), []).append(
            (lo, hi, draw(st.booleans()), draw(st.booleans())))
    return from_pieces(MIXED.system.deepest, raw, MIXED_STEPS)


@st.composite
def mixed_regions(draw):
    """One to four realized regions or closures, and one to three drawn
    regions on their edges and one more, in a random order."""
    sets = MIXED.system.all_sets()
    picks = draw(st.lists(st.tuples(st.integers(0, len(sets) - 1), st.booleans()),
                          min_size=1, max_size=4))
    pool = [closure(MIXED.region(sets[i])) if closed else MIXED.region(sets[i])
            for i, closed in picks]
    edges = [e for e in MIXED_EDGES if any(e in r.pieces for r in pool)]
    edges.append(draw(st.sampled_from(MIXED_EDGES)))
    pool += draw(st.lists(drawn_region(edges), min_size=1, max_size=3))
    return draw(st.permutations(pool))


@settings(max_examples=200, deadline=None)
@given(mixed_regions())
def test_realized_and_from_pieces_regions_match_key_tuples(regions):
    brute = [[j for j in range(i + 1, len(regions))
              if region_intersects(regions[i], regions[j])]
             for i in range(len(regions))]
    event("some regions meet" if any(brute) else "no regions meet")
    assert _later(regions) == brute
    for outer in regions:
        for inner in regions:
            assert closure_within(outer, inner) == region_contains_by_keys(outer, closure(inner))
    for size in (1, 2, 3):
        for some in combinations(regions, size):
            assert share_point_by_cliques(some) == share_point_pointwise(some)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, MIXED.system.l), st.data())
def test_covers_whole_tree_with_from_pieces_regions(n, data):
    # a whole level covers the tree; dropping sets opens holes, which the
    # drawn regions may or may not fill
    regions = [MIXED.region(a) for a in MIXED.system.covers[n]]
    for _ in range(data.draw(st.integers(0, 2))):
        regions.pop(data.draw(st.integers(0, len(regions) - 1)))
    regions += data.draw(st.lists(drawn_region(MIXED_EDGES), max_size=3))
    expected = covers_by_union(regions)
    event("covers: %s" % expected)
    assert covers_whole_tree(regions) == expected


def contains_by_keys(region, p):
    """p in the region, on the key tuples of its Fraction pieces: a vertex
    through the end of an edge at it, a point of an edge by its parameter."""
    c = p.canonical()
    if c[0] == "vertex":
        spots = [(e, F(e.index(c[1]))) for e in region.tree.edges if c[1] in e]
    else:
        spots = [((c[1], c[2]), c[3])]
    return any(_startpos(i) <= (t, 0) <= _endpos(i)
               for e, t in spots for i in region.pieces.get(e, ()))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_contains_point_off_grid_matches_key_tuples(data):
    # the points oracle_trials draws: t = p/3000 on a deepest edge
    sets = MIXED.system.all_sets()
    a = sets[data.draw(st.integers(0, len(sets) - 1))]
    edge = data.draw(st.sampled_from(MIXED_EDGES))
    t = F(data.draw(st.integers(0, 3000)), 3000)
    flipped = data.draw(st.booleans())
    p = EdgePoint(edge[1], edge[0], 1 - t) if flipped else EdgePoint(*edge, t)
    event("on the grid: %s" % ((t * MIXED_STEPS).denominator == 1))
    for region in (MIXED.region(a), closure(MIXED.region(a)),
                   data.draw(drawn_region([edge] + list(MIXED_EDGES[:3])))):
        assert region.contains_point(p) == contains_by_keys(region, p)
    assert MIXED.region(a).contains_point(p) == point_in_cover_set(MIXED.system, p, a)


# -- codes keyed by edge position --------------------------------------------
# A region keys its codes by the edge's position in the tree's
# sorted_edges(); ``pieces`` gives them back keyed by the edge itself.

region_pools = st.one_of(fork_regions, mixed_regions())


@settings(max_examples=200, deadline=None)
@given(region_pools)
def test_codes_are_keyed_by_edge_position(regions):
    for r in regions:
        edges = r.tree.sorted_edges()
        assert all(type(k) is int and 0 <= k < len(edges) for k in r.codes)
        assert list(r.pieces) == region_edges(r) == [edges[k] for k in sorted(r.codes)]
        assert from_pieces(r.tree, r.pieces, r.steps).codes == r.codes


def _non_edges(tree):
    vs = tree.sorted_vertices()
    return [(u, v) for u in vs for v in vs if u != v and not tree.has_edge(u, v)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([FORK, MIXED.system.deepest]), st.data())
def test_from_pieces_refuses_a_reversed_or_foreign_edge(tree, data):
    a, b = data.draw(st.sampled_from(tree.sorted_edges()))
    foreign = data.draw(st.sampled_from(_non_edges(tree) + [(a, "stray"), ("stray", b)]))
    whole = (F(0), F(1), True, True)
    for edge in ((b, a), foreign):
        with pytest.raises(GraphError, match="unknown edge"):
            from_pieces(tree, {(a, b): [whole], edge: [whole]}, 2)


@settings(max_examples=200, deadline=None)
@given(region_pools, st.data())
def test_contains_point_is_false_on_a_non_edge_pair(regions, data):
    tree = regions[0].tree
    whole = from_pieces(
        tree, {e: [(F(0), F(1), True, True)] for e in tree.edges}, regions[0].steps)
    u, v = data.draw(st.sampled_from(_non_edges(tree)))
    t = F(data.draw(st.integers(1, 11)), 12)
    for r in regions + [whole]:
        assert not r.contains_point(EdgePoint(u, v, t))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, len(MIXED.system.all_sets()) - 1),
       st.one_of(st.integers(), st.text(max_size=3), st.tuples(st.integers(), st.integers())))
def test_realize_refuses_a_fiber_vertex_outside_the_tree(index, stray):
    system = MIXED.system
    a = system.all_sets()[index]
    assume(stray not in system.deepest.vertices)
    with pytest.raises(GraphError, match="unknown vertex"):
        realize(system, dataclasses.replace(a, fiber=a.fiber | {stray}))


def _int_closures(realized, sets):
    """(s2, segments): each listed set's closed pieces as int segments, in
    units of 1/(u E) for the deepest tree's int frame u and the schedule's
    E, from the frame and the closure's codes, whose even ends 2T are the
    points T/E; s2 = (u E)^2."""
    tree = realized.system.deepest
    unit, ipt = tree.int_frame
    steps = realized.system.epsilons.steps
    edges = tree.sorted_edges()
    segments = []
    for a in sets:
        own = []
        for k, coded in closure(realized.region(a)).codes.items():
            (ax, ay), (bx, by) = ipt[edges[k][0]], ipt[edges[k][1]]
            own.extend(tuple((ax * (steps - c // 2) + bx * (c // 2),
                              ay * (steps - c // 2) + by * (c // 2)) for c in ends)
                       for ends in coded)
        segments.append(own)
    return (unit * steps) ** 2, segments


def _int_box(segments):
    xs = [p[0] for seg in segments for p in seg]
    ys = [p[1] for seg in segments for p in seg]
    return (min(xs), max(xs), min(ys), max(ys))


def _int_distance_squared(r1, r2):
    return min(segment_dist2(p1, q1, p2, q2) for p1, q1 in r1 for p2, q2 in r2)


def _ref_min_gap(realized, levels=None):
    # all disjoint pairs, pruned only by the exact bounding-box gap
    system = realized.system
    sets = [a for a in system.all_sets() if levels is None or a.level in levels]
    s2, closures = _int_closures(realized, sets)
    boxes = [_int_box(segments) for segments in closures]
    best = None
    for i, a in enumerate(sets):
        for j, b in enumerate(sets[i + 1:], i + 1):
            if sets_intersect(system, a, b):
                continue
            if best is not None and geometry._box_gap_squared(boxes[i], boxes[j]) >= best:
                continue
            d = _int_distance_squared(closures[i], closures[j])
            if best is None or d < best:
                best = d
    return None if best is None else Fraction(best, s2)


def test_grid_gaps_match_all_pairs(realized):
    assert family_min_gap_squared(realized) == _ref_min_gap(realized)
    rho_sq, mesh_sq, _ = compute_rho_and_mesh(realized)
    assert rho_sq == _ref_min_gap(realized, levels=(0,))
    system = realized.system
    assert mesh_sq == [max(diameter_squared(realized.region(a))
                           for a in system.covers[n]) for n in range(system.l + 1)]


def test_family_gap_lies_below_rho_on_the_folded_leaf():
    # the family's least gap is not rho on every instance that passes: the
    # folded leaf edge lies 1/sqrt(4160) from its neighbour's sets
    ctx = VerifyContext(folded_leaf_instance())
    assert verify_instance(ctx.instance, ctx).passed
    assert family_min_gap_squared(ctx.realized) == F(1, 4160) < rho_squared(ctx.realized)
    assert rho_squared(ctx.realized) == F(1, 36) and ctx.metrics["m_sq"] == F(1, 37440)


def _ref_disjointness_violation(realized, radius_sq):
    system = realized.system
    sets = system.all_sets()
    s2, closures = _int_closures(realized, sets)
    boxes = [_int_box(segments) for segments in closures]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets[i + 1:], i + 1):
            if sets_intersect(system, a, b):
                continue
            ra2, rb2 = radius_sq[a.level], radius_sq[b.level]
            gap = Fraction(geometry._box_gap_squared(boxes[i], boxes[j]), s2)
            if _gt_sum_of_roots(gap, ra2, rb2):
                continue
            d2 = Fraction(_int_distance_squared(closures[i], closures[j]), s2)
            if not _gt_sum_of_roots(d2, ra2, rb2):
                return ((a.level, a.vertex), (b.level, b.vertex), d2)
    return None


@pytest.mark.parametrize("l", [2, 3])
@pytest.mark.parametrize("factor", ["1", "2", "9/4", "3", "40"])
def test_enlargement_witness_matches_all_pairs(l, factor):
    # m_sq = factor * gap^2/9; from 9/4 on, two level-0 radii reach the gap
    inst = generate_instance(l)
    realized = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons))
    _, radius_sq = enlarge_taut_family(realized)
    radius_sq = [r * Fraction(factor) for r in radius_sq]
    expected = _ref_disjointness_violation(realized, radius_sq)
    assert (expected is None) == (Fraction(factor) < Fraction(9, 4))
    assert enlargement_disjointness_violation(realized, radius_sq) == expected


def _carried(inst, radius_sq):
    # m_sq is only reported; the stage reads the radii
    return VerifyContext(Instance(inst.diagram, inst.epsilons, None,
                                  {"m_sq": radius_sq[0], "radius_sq": radius_sq}))


def _counting(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _original=getattr(geometry, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(geometry, name, counting)
    return calls


@pytest.mark.parametrize("l", [2, 3])
def test_enlargement_disjoint_at_the_margin_bound(l):
    # carried radii with 4 max r^2 == gap^2 reach the gap: the stage names
    # the brute-force witness; just below, every pair passes
    inst = generate_instance(l)
    realized = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons))
    gap_sq = family_min_gap_squared(realized)
    witnesses = []
    for radius_sq in ([gap_sq / 4] * (l + 1), [gap_sq / 4 / 4 ** n for n in range(l + 1)]):
        expected = _ref_disjointness_violation(realized, radius_sq)
        assert STAGE["enlargement-disjoint"](_carried(inst, radius_sq)) == expected
        witnesses.append(expected)
    assert witnesses[0] is not None
    below = [(gap_sq / 4 - F(1, 10 ** 12)) / 4 ** n for n in range(l + 1)]
    assert _ref_disjointness_violation(realized, below) is None
    assert STAGE["enlargement-disjoint"](_carried(inst, below)) is None


def test_taut_radii_pass_enlargement_disjoint_on_the_margin(tmp_path, monkeypatch):
    calls = _counting(monkeypatch, ["enlargement_disjointness_violation",
                                    "family_min_gap_squared"])
    assert main(["generate", "--l", "4", "--out", str(tmp_path / "o")]) == 0
    assert calls == {"enlargement_disjointness_violation": 0, "family_min_gap_squared": 1}


def _piece_grid_least_gap(pieces, adjacency):
    # the piece-level scan that the edge-by-edge _GapScan replaced: a grid
    # over all pieces whose reach doubles until the best gap lies within it
    if not pieces:
        return None
    whole = geometry._box([pt for _, p, q, _ in pieces for pt in (p, q)])
    extent = max(whole[1] - whole[0], whole[3] - whole[2])
    reach = max(max(b[1] - b[0], b[3] - b[2]) for _, _, _, b in pieces) or 1
    while True:
        best = None
        for p, q in _grid_pairs(pieces, reach):
            a, b = pieces[p], pieces[q]
            if b[0] in adjacency[a[0]]:
                continue
            if best is not None and geometry._box_gap_squared(a[3], b[3]) >= best:
                continue
            d = segment_dist2(a[1], a[2], b[1], b[2])
            if best is None or d < best:
                best = d
        if (best is not None and best <= reach * reach) or reach >= extent:
            return best
        reach *= 2


def _piece_grid_disjointness_violation(realized, radius_sq):
    # the check's piece-level grid that _GapScan replaced
    system = realized.system
    sets = system.all_sets()
    radius = [radius_sq[a.level] for a in sets]
    scale, by_set, _ = realized.scaled_pieces
    pieces = [pc for own in by_set for pc in own]
    s2 = scale * scale
    bound = math.floor(4 * max(radius) * s2)
    by_set = [[] for _ in sets]
    for piece in pieces:
        by_set[piece[0]].append(piece)
    near = set()
    for p, q in _grid_pairs(pieces, math.isqrt(bound)):
        a, b = pieces[p], pieces[q]
        i, j = a[0], b[0]
        if j in system.adjacency[i] or geometry._box_gap_squared(a[3], b[3]) > bound:
            continue
        near.add((i, j) if i < j else (j, i))
    for i, j in sorted(near):
        d2 = Fraction(min(segment_dist2(p[1], p[2], q[1], q[2])
                          for p in by_set[i] for q in by_set[j]), s2)
        if not _gt_sum_of_roots(d2, radius[i], radius[j]):
            return ((sets[i].level, sets[i].vertex), (sets[j].level, sets[j].vertex), d2)
    return None


@pytest.mark.parametrize("l", [10, 12])
def test_edge_scan_matches_the_piece_grid(l):
    # the all-pairs references above reach l <= 6; the piece grid reaches
    # further, for the margin, rho and the check at four radius factors
    inst = generate_instance(l)
    realized = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons))
    sets, adjacency = realized.system.all_sets(), realized.system.adjacency
    scale, by_set, _ = realized.scaled_pieces
    pieces = [pc for own in by_set for pc in own]
    s2 = scale * scale
    assert family_min_gap_squared(realized) == \
        Fraction(_piece_grid_least_gap(pieces, adjacency), s2)
    level0 = [pc for pc in pieces if sets[pc[0]].level == 0]
    assert compute_rho_and_mesh(realized)[0] == \
        Fraction(_piece_grid_least_gap(level0, adjacency), s2)
    _, radius_sq = enlarge_taut_family(realized)
    witnesses = []
    for factor in ("1", "9/4", "3", "40"):
        radii = [r * Fraction(factor) for r in radius_sq]
        witnesses.append(enlargement_disjointness_violation(realized, radii))
        assert witnesses[-1] == _piece_grid_disjointness_violation(realized, radii)
    assert [w is None for w in witnesses] == [True, False, False, False]


def _ref_nesting_violation(realized, radius_sq):
    # every level pair (j, n) along its composed bond, in that order
    system = realized.system
    for j in range(1, system.l + 1):
        for n in range(j):
            bond = system.bond(n, j)
            for u in system.covers[j]:
                v = system.cover_set(n, bond[u.vertex])
                witness = ((j, u.vertex), (n, v.vertex))
                if not radius_sq[j] < radius_sq[n]:
                    return witness + ("radius",)
                if not region_contains_by_keys(realized.region(v), realized.region(u)):
                    return witness + ("base",)
    return None


@pytest.mark.parametrize("l", [2, 3])
def test_nesting_witness_matches_all_pairs(l):
    inst = generate_instance(l)
    ctx = VerifyContext(inst)
    realized = ctx.realized
    system = realized.system
    _, radius_sq = enlarge_taut_family(realized)
    assert enlargement_nesting_violation(realized, radius_sq) is None
    assert _ref_nesting_violation(realized, radius_sq) is None
    witnesses = []
    # level j's radius raised to level n's, so (j, n) and (j, j - 1) both fail
    for j in range(1, l + 1):
        for n in range(j):
            raised = list(radius_sq)
            raised[j] = radius_sq[n]
            expected = _ref_nesting_violation(realized, raised)
            assert expected[2] == "radius"
            assert enlargement_nesting_violation(realized, raised) == expected
            witnesses.append(expected)
    assert any(u[0] - v[0] > 1 for u, v, _ in witnesses)  # not a consecutive pair
    # a level-1 region shrunk to that of one set nested in it
    bond = system.bond(1, 2)
    for v in system.covers[1]:
        inside = [u for u in system.covers[2] if bond[u.vertex] == v.vertex]
        if len(inside) > 1:
            break
    realized.regions[(1, v.vertex)] = realized.region(inside[0])
    assert _ref_nesting_violation(realized, radius_sq)[2] == "base"
    # strong-refinement, which runs first, already fails on the bond (2, 1)
    report = verify_instance(inst, ctx)
    assert report.first_failure() == "strong-refinement"
    witness = next(r.witness for r in report.results if r.status == "FAIL")
    assert witness[:2] == ("closure", 1) and bond[witness[2]] == v.vertex


def test_nesting_reads_no_region(monkeypatch):
    realized = VerifyContext(generate_instance(3)).realized
    _, radius_sq = enlarge_taut_family(realized)

    def no_containment(*args):
        raise AssertionError("closure_within called")

    monkeypatch.setattr(geometry, "closure_within", no_containment)
    assert enlargement_nesting_violation(realized, radius_sq) is None
    raised = radius_sq[:2] + [radius_sq[0]] + radius_sq[3:]
    assert enlargement_nesting_violation(realized, raised)[2] == "radius"


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_fiber_inclusion_holds_on_every_level_pair(l):
    # strong-refinement scans no fiber: every level-j fiber lies in the fiber
    # of its bond image by construction of the towers
    system = VerifyContext(generate_instance(l)).system
    for j in range(1, l + 1):
        for n in range(j):
            assert refinement_violation(system, j, n) is None


def _first_closure_mismatch(realized):
    """taut's witness by brute force: the first pair, in all_sets() order,
    whose closures meet or not unlike the intersection graph says."""
    system = realized.system
    sets = system.all_sets()
    closures = [closure(realized.region(a)) for a in sets]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets[i + 1:], i + 1):
            ci = sets_intersect(system, a, b)
            gc = region_intersects(closures[i], closures[j])
            if ci != gc:
                return (a.key(), b.key(), ci, gc)
    return None


def test_tampered_closure_fails_taut_like_brute_force(monkeypatch):
    built = []
    original = RealizedSystem.__init__

    def tampered(self, system):
        original(self, system)
        # grow one coarse region over the whole tree; the one stage before
        # taut that reads it, strong-refinement, needs it to hold the
        # closures of level 1 below it, which it still does
        a = system.covers[0][0]
        self.regions[(a.level, a.vertex)] = region_union(
            [self.region(a)] + [self.region(b) for b in system.covers[system.l]])
        built.append(self)

    monkeypatch.setattr(RealizedSystem, "__init__", tampered)
    report = verify_instance(generate_instance(2))
    statuses = {r.name: r.status for r in report.results}
    assert statuses["taut"] == "FAIL" and statuses["D3"] == "PASS"

    witness = next(r.witness for r in report.results if r.name == "taut")
    assert witness == _first_closure_mismatch(built[-1])


def _set_comparison_witness(adjacency, geometric):
    """The first row on which the set of later indices of ``adjacency``
    differs from ``geometric``'s, as (i, j, j in adjacency[i]) for the least
    j of the symmetric difference."""
    for i, (adj, geo_later) in enumerate(zip(adjacency, geometric)):
        diff = {j for j in adj if j > i} ^ set(geo_later)
        if diff:
            j = min(diff)
            return i, j, j in adj
    return None


@pytest.mark.parametrize("drop, add", [(0, None), (-1, None), (None, 0), (None, -1),
                                       (0, -1), (-1, 0)])
def test_tampered_adjacency_row_fails_the_route_like_a_set_comparison(drop, add):
    # drop the first or last later index from a copied row, add the least or
    # the largest later index it lacks, or both
    ctx = VerifyContext(generate_instance(3))
    system = ctx.system
    sets = system.all_sets()
    assert STAGE["taut"](ctx) is None and STAGE["oracle-identity"](ctx) is None
    # both routes agree with the intersection graph, so its rows are the
    # geometric answer
    geometric = [[j for j in adj if j > i] for i, adj in enumerate(system.adjacency)]
    i = next(i for i, later in enumerate(geometric)
             if len(later) >= 2 and len(later) < len(sets) - 1 - i)
    row = list(system.adjacency[i])
    if drop is not None:
        row.remove(geometric[i][drop])
    if add is not None:
        row.append([j for j in range(i + 1, len(sets)) if j not in row][add])
    system.adjacency[i] = tuple(sorted(row))
    found = _set_comparison_witness(system.adjacency, geometric)
    assert found is not None and found[0] == i
    _, j, ci = found
    a, b = sets[i].key(), sets[j].key()
    assert STAGE["taut"](ctx) == (a, b, ci, not ci)
    # oracle-identity reads no pair: taut decides the open regions' pairs too
    assert STAGE["oracle-identity"](ctx) is None


def _schedule_ending_at(l, last):
    values = EpsilonSchedule.default(l).values[:-1] + (last,)
    return EpsilonSchedule(values)  # the dataclass: build rejects a last eps of 1/2


def _both_routes(inst):
    realized = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons))
    sets = realized.system.all_sets()
    opened = [realized.region(a) for a in sets]
    return (_later(opened), _later([closure(r) for r in opened]))


@pytest.mark.parametrize("last", [None, F(1, 2) + F(1, 1000)], ids=["default", "1/2+1/1000"])
@pytest.mark.parametrize("l", range(1, 7))
def test_open_and_closed_routes_agree_above_one_half(l, last):
    eps = None if last is None else _schedule_ending_at(l, last)
    opened, closed = _both_routes(generate_instance(l, eps))
    assert opened == closed


@pytest.mark.parametrize("l", [2, 4])
def test_routes_differ_at_epsilon_one_half(l):
    # at eps_l = 1/2 the stars of the two ends of a deepest edge are (0, E - 1)
    # and (E + 1, 2E): apart, while their closures share the midpoint
    opened, closed = _both_routes(generate_instance(l, _schedule_ending_at(l, F(1, 2))))
    assert opened != closed
    assert all(set(o) <= set(c) for o, c in zip(opened, closed))


@pytest.mark.parametrize("l, eps", [(l, None) for l in range(1, 7)]
                         + [(3, "3/4,2/3,3/5,11/20")]
                         + [(l, "1/2+1/1000") for l in range(1, 7)])
def test_realized_regions_have_one_interval_per_edge(l, eps):
    # scaled_pieces reads each region's codes as its closure's: the two stars
    # on an edge overlap above 1/2, so a realized region holds one interval
    # per edge, and closing it rounds each open end and merges nothing
    if eps is None:
        schedule = None
    elif eps == "1/2+1/1000":
        schedule = _schedule_ending_at(l, F(1, 2) + F(1, 1000))
    else:
        schedule = EpsilonSchedule.build([F(x) for x in eps.split(",")])
    realized = VerifyContext(generate_instance(l, schedule)).realized
    for a in realized.system.all_sets():
        region = realized.region(a)
        assert all(len(coded) == 1 for coded in region.codes.values()), a.key()
        assert closure(region).codes == {
            k: ((s - s % 2, e + e % 2),) for k, ((s, e),) in region.codes.items()}, a.key()


def test_far_edge_on_a_level_0_region_fails_taut_like_brute_force(monkeypatch):
    original = geometry.realize

    def tampered(system, a):
        region = original(system, a)
        if a.index != 0:
            return region
        # the level-0 set also covers the inside of the last deepest edge
        # with no end within one edge of its fiber; RealizedSystem closes it
        tree = system.deepest
        near = set(a.fiber).union(*(tree.neighbors(w) for w in a.fiber))
        k = max(k for k, (u, w) in enumerate(tree.sorted_edges())
                if u not in near and w not in near)
        steps = region.steps
        return SegmentRegion(tree, steps, {**region.codes, k: ((1, 2 * steps - 1),)})

    monkeypatch.setattr(geometry, "realize", tampered)
    ctx = VerifyContext(generate_instance(2))
    report = verify_instance(ctx.instance, ctx)
    assert report.first_failure() == "taut"
    expected = _first_closure_mismatch(ctx.realized)
    assert expected is not None and expected[0] == ctx.system.all_sets()[0].key()
    witness = next(r.witness for r in report.results if r.name == "taut")
    assert witness == expected


@pytest.mark.parametrize("l", [4, 8])
def test_verify_sweeps_the_regions_once(l, monkeypatch):
    calls = _counting(monkeypatch, ["meeting_cliques"])
    assert verify_instance(generate_instance(l)).passed
    assert calls == {"meeting_cliques": 1}


def test_one_verify_sweeps_once_and_triples_walks_no_graph(monkeypatch):
    # one verify sweeps the regions once; taut and triples, run again on
    # its context, read those cliques, and triples no neighbour list or
    # pair lookup of the intersection graph
    calls = _counting(monkeypatch, ["meeting_cliques"])
    ctx = VerifyContext(generate_instance(3))
    assert verify_instance(ctx.instance, ctx).passed
    assert calls == {"meeting_cliques": 1}

    def refuse(*args):
        raise AssertionError("the intersection graph was walked")

    monkeypatch.setattr(CoverSystem, "neighbors", refuse)
    monkeypatch.setattr(covers, "sets_intersect", refuse)
    assert STAGE["taut"](ctx) is None and STAGE["triples"](ctx) is None
    assert calls == {"meeting_cliques": 1}


def test_extra_meeting_pair_fails_nerve():
    # taut compares the intersection graph with the regions, so a tampered
    # graph never reaches nerve in a report; the stage is run on its own.
    # One extra meeting pair of level 1 gives its nerve an edge that T_1
    # lacks, and closes a cycle
    ctx = VerifyContext(generate_instance(2))
    system = ctx.system
    assert STAGE["nerve"](ctx) is None
    sets = system.covers[1]
    a, b = next((a, b) for x, a in enumerate(sets) for b in sets[x + 1:]
                if not sets_intersect(system, a, b))
    for i, j in ((a.index, b.index), (b.index, a.index)):
        system.adjacency[i] = tuple(sorted(system.adjacency[i] + (j,)))
    assert nerve(system, 0).edges == system.diagram.levels[0].edges
    assert not nerve(system, 1).is_tree()
    assert STAGE["nerve"](ctx) == ("not-isomorphic", 1)


def _ref_d2(system):
    # every level pair (j, n) in stage order, every set pair by fiber closeness
    for j in range(system.l):
        for n in range(j + 1):
            for u in system.covers[j + 1]:
                for v in system.covers[n + 1]:
                    if sets_intersect(system, u, v) and not sets_intersect(
                            system, system.apply_phi(u), system.apply_phi(v)):
                        return (j, n, (u.vertex, v.vertex))
    return None


def _ref_d2prime(system):
    # containment as fiber inclusion, over every level pair in stage order
    for j in range(system.l):
        for n in range(j + 1):
            for u in system.covers[j + 1]:
                for v in system.covers[n + 1]:
                    if u.fiber <= v.fiber and not (system.apply_phi(u).fiber
                                                   <= system.apply_phi(v).fiber):
                        return (j, n, (u.vertex, v.vertex))
    return None


def _ref_nerve(system):
    for n in range(system.l + 1):
        sets = system.covers[n]
        edges = {frozenset((a.vertex, b.vertex)) for x, a in enumerate(sets)
                 for b in sets[x + 1:] if sets_intersect(system, a, b)}
        if edges != {frozenset(e) for e in system.diagram.levels[n].edges}:
            return ("not-isomorphic", n)
    return None


def _first_failing_u(system, level):
    # the first U of the level, in index order, with any failing V
    lower = system.all_sets()[system.level_start[1]:system.level_start[level + 1]]
    for u in system.covers[level]:
        img = system.apply_phi(u)
        if any(sets_intersect(system, u, v) and not sets_intersect(
                system, img, system.apply_phi(v)) for v in lower):
            return u.vertex
    return None


def _assert_stages_match_references(ctx, seen):
    for name, ref in (("D2", _ref_d2), ("D2prime", _ref_d2prime), ("nerve", _ref_nerve)):
        expected = ref(ctx.system)
        assert STAGE[name](ctx) == expected, name
        seen.add((name, expected is None))
        if name == "D2" and expected is not None:
            j, _, (u, _) = expected
            # the witness takes the least level(V) first, so its U need not
            # be the first failing U of its level
            seen.add(("D2", "first U" if u == _first_failing_u(ctx.system, j + 1)
                      else "later U"))


@pytest.mark.parametrize("l", [2, 3, 4])
def test_one_pass_stages_match_the_level_pair_scans(l):
    # seeded phi-table edits: one to three entries moved to a neighbour of
    # their image or to any vertex of their level
    rng = random.Random(l)
    inst = generate_instance(l)
    levels = inst.diagram.levels
    seen = set()
    for _ in range(40):
        tables = [dict(inst.diagram.f_row[n].assignment) for n in range(l)]
        for _ in range(rng.randint(1, 3)):
            n = rng.randrange(l)
            v = rng.choice(levels[n + 1].sorted_vertices())
            near = sorted(levels[n].neighbors(tables[n][v]), key=vkey)
            tables[n][v] = rng.choice(near if rng.random() < 0.5
                                      else levels[n].sorted_vertices())
        _assert_stages_match_references(
            VerifyContext(Instance(inst.diagram, inst.epsilons, tables)), seen)
    # one extra meeting pair at a level >= 1, in adjacency, on the f-row
    # carried as tables: the stages scan only carried tables
    f_row = [dict(f.assignment) for f in inst.diagram.f_row]
    ctx = VerifyContext(Instance(inst.diagram, inst.epsilons, f_row))
    system = ctx.system
    adjacency = list(system.adjacency)
    sets = system.all_sets()[system.level_start[1]:]
    for _ in range(40):
        a = rng.choice(sets)
        same = rng.random() < 0.5
        b = rng.choice([b for b in (system.covers[a.level] if same else sets)
                        if not sets_intersect(system, a, b)])
        for i, j in ((a.index, b.index), (b.index, a.index)):
            system.adjacency[i] = tuple(sorted(system.adjacency[i] + (j,)))
        _assert_stages_match_references(ctx, seen)
        system.adjacency[:] = adjacency
    assert {("D2", False), ("D2", True), ("D2", "first U"), ("D2", "later U"),
            ("D2prime", False), ("nerve", False), ("nerve", True)} <= seen
    # one meeting pair of a level taken out: the nerve loses an edge of T_n
    for n in range(l + 1):
        a = rng.choice(system.covers[n])
        b = rng.choice([b for b in system.neighbors(a, n) if b is not a])
        for i, j in ((a.index, b.index), (b.index, a.index)):
            system.adjacency[i] = tuple(k for k in system.adjacency[i] if k != j)
        assert STAGE["nerve"](ctx) == _ref_nerve(system) == ("not-isomorphic", n)
        system.adjacency[:] = adjacency


def test_every_reader_sees_one_adjacency_edit():
    # one symmetric meeting pair added to adjacency alone: two sets of level
    # 1 or more that miss each other and whose phi-images miss each other too
    ctx = VerifyContext(generate_instance(2))
    system = ctx.system
    sets = system.all_sets()[system.level_start[1]:]
    a, b = next((a, b) for x, a in enumerate(sets) for b in sets[x + 1:]
                if not sets_intersect(system, a, b)
                and not sets_intersect(system, system.apply_phi(a), system.apply_phi(b)))
    _, _, by_edge = ctx.realized.scaled_pieces
    pair = [(e, points, [pc for pc in pieces if pc[0] in (a.index, b.index)])
            for e, points, pieces in by_edge]
    assert first_failing_level_pair(system, d2_violation) is None
    assert _least_gap_squared(pair, system.adjacency) is not None
    for i, j in ((a.index, b.index), (b.index, a.index)):
        system.adjacency[i] = tuple(sorted(system.adjacency[i] + (j,)))
    assert sets_intersect(system, a, b) and sets_intersect(system, b, a)
    expected = _ref_d2(system)
    assert expected is not None
    assert first_failing_level_pair(system, d2_violation) == expected
    assert _least_gap_squared(pair, system.adjacency) is None


def _triangle_tampers(system):
    """(b, q) for level-0 sets a, b, c, with b and c meeting a, and q the
    midpoint of a deepest edge from a's fiber to c's."""
    for a in system.covers[0]:
        near = [b for b in system.neighbors(a, 0) if b.vertex != a.vertex]
        for b in near:
            for c in near:
                if c is b:
                    continue
                for u in sorted(a.fiber, key=vkey):
                    for w in sorted(system.deepest.neighbors(u) & c.fiber, key=vkey):
                        yield b, EdgePoint(u, w, F(1, 2))


def test_grown_region_fails_triples_like_brute_force(monkeypatch):
    # Three sets of one level share a point only on a triangle of the
    # intersection graph, and a tree's nerve has none, so the tamper makes
    # one: the region of b grows by q, and b joins every set whose closure
    # holds q in the graph, so taut still agrees.  The first tamper that D1
    # lets through is kept.
    built = []
    original = RealizedSystem.__init__

    def tampered(self, system):
        original(self, system)
        sets = system.all_sets()
        adjacency = list(system.adjacency)
        for b, q in _triangle_tampers(system):
            i = b.index
            rows = [set(row) for row in adjacency]
            for j, d in enumerate(sets):
                if closure(self.region(d)).contains_point(q):
                    rows[i].add(j)
                    rows[j].add(i)
            system.adjacency = [tuple(sorted(row)) for row in rows]
            if d1_violation(system, 0) is None:
                break
        else:
            raise AssertionError("every tamper fails D1")
        _, x, y, t = q.canonical()
        point = from_pieces(system.deepest, {(x, y): [(t, t, True, True)]},
                            system.epsilons.steps)
        self.regions[(0, b.vertex)] = region_union([self.regions[(0, b.vertex)], point])
        built.append(self)

    monkeypatch.setattr(RealizedSystem, "__init__", tampered)
    report = verify_instance(generate_instance(2))
    assert report.first_failure() == "triples"

    realized = built[-1]
    system = realized.system
    expected = None
    for n in range(system.l + 1):
        regions = [realized.region(d) for d in system.covers[n]]
        meet = {(i, j) for i, j in combinations(range(len(regions)), 2)
                if region_intersects(regions[i], regions[j])}
        for i, j, k in combinations(range(len(regions)), 3):
            if {(i, j), (i, k), (j, k)} <= meet and \
                    share_point_pointwise([regions[i], regions[j], regions[k]]):
                expected = (n,) + tuple(system.covers[n][x].vertex for x in (i, j, k))
                break
        if expected:
            break
    assert expected is not None and expected[0] == 0
    witness = next(r.witness for r in report.results if r.name == "triples")
    assert witness == expected


def test_opened_region_fails_oracle_identity_like_brute_force(monkeypatch):
    built = []
    original = RealizedSystem.__init__

    def tampered(self, system):
        original(self, system)
        # open one deepest set's region at its own vertex v; opening a
        # region only removes a point, and its closure is the one built
        a = system.covers[system.l][0]
        v = a.vertex
        region = self.region(a)
        self.regions[(a.level, v)] = from_pieces(region.tree, {
            (p, q): [(lo, hi, lc and p != v, hc and q != v) for lo, hi, lc, hc in iv]
            for (p, q), iv in region.pieces.items()}, region.steps)
        built.append((self, v))

    monkeypatch.setattr(RealizedSystem, "__init__", tampered)
    report = verify_instance(generate_instance(2))
    assert report.first_failure() == "oracle-identity"

    realized, v = built[-1]
    system = realized.system
    expected = None
    for a in system.all_sets():
        tower = system.bond(a.level, system.l)
        wrong = [w for w in system.deepest.vertices
                 if (tower[w] == a.vertex) !=
                 realized.region(a).contains_point(EdgePoint.vertex(w))]
        if wrong:
            expected = ("member", a.key(), min(wrong, key=vkey))
            break
    assert expected == ("member", (system.l, vkey(v)), v)
    witness = next(r.witness for r in report.results if r.name == "oracle-identity")
    assert witness == expected


@pytest.mark.parametrize("l", [4, 8])
def test_enlargement_takes_no_exact_distance(l, monkeypatch):
    # on a generated instance the box-gap bound separates every disjoint
    # pair, so only the two margin scans (the family's and rho's) reach an
    # exact distance
    calls = _counting(monkeypatch, ["_gt_sum_of_roots", "segment_dist2"])
    assert verify_instance(generate_instance(l)).passed
    assert calls["_gt_sum_of_roots"] == 0
    assert calls["segment_dist2"] <= 2


@pytest.mark.parametrize("inst", [inst for _, inst in CASES] + [generate_instance(7),
                                                               generate_instance(8)],
                         ids=IDS + ["l=7", "l=8"])
def test_sets_with_pieces_on_one_edge_meet(inst):
    # geometry._GapScan's precondition, on every realized system built here:
    # it pairs no two pieces on one edge
    system = CoverSystem(inst.diagram, inst.epsilons, inst.phi_tables)
    rows = system.adjacency
    for _, _, pieces in RealizedSystem(system).scaled_pieces[2]:
        on = {pc[0] for pc in pieces}
        assert all(on <= set(rows[i]) for i in on)


def _piece(i, p, q):
    return (i, p, q, (min(p[0], q[0]), max(p[0], q[0]), min(p[1], q[1]), max(p[1], q[1])))


@st.composite
def piece_lists(draw):
    # short int segments of four sets spread over a wider square
    coord, step = st.integers(-40, 40), st.integers(-6, 6)
    return [_piece(draw(st.integers(0, 3)), (x, y), (x + dx, y + dy))
            for x, y, dx, dy in draw(st.lists(st.tuples(coord, coord, step, step),
                                              min_size=1, max_size=12))]


@settings(max_examples=300, deadline=None)
@given(piece_lists(), st.integers(0, 30))
def test_grid_pairs_yield_every_near_pair_once(pieces, reach):
    seen = [tuple(sorted(pair)) for pair in _grid_pairs(pieces, reach)]
    assert len(seen) == len(set(seen))
    for p in range(len(pieces)):
        for q in range(p + 1, len(pieces)):
            a, b = pieces[p][3], pieces[q][3]
            if max(0, b[0] - a[1], a[0] - b[1]) <= reach and \
                    max(0, b[2] - a[3], a[2] - b[3]) <= reach:
                assert (p, q) in seen


# unit steps of a grid: axis steps and diagonals, at most one diagonal per
# unit square, so that two edges meet only at a shared end
_STEPS = ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (1, -1), (-1, -1))
_SETS = 5


@st.composite
def edge_groups(draw):
    """A small planar tree in int coordinates, stretched apart on each axis,
    with random closed pieces of five sets on its edges, as the groups
    (ends, points, pieces) of geometry._GapScan: piece ends at multiples of
    1/4 of an edge, so every point is an int after scaling by 4."""
    spots, edges, diagonals = [(0, 0), (1, 0)], [(0, 1)], set()
    for _ in range(draw(st.integers(0, 7))):
        k = draw(st.integers(0, len(spots) - 1))
        (x, y), (dx, dy) = spots[k], draw(st.sampled_from(_STEPS))
        square = (min(x, x + dx), min(y, y + dy))
        if (x + dx, y + dy) in spots or (dx and dy and square in diagonals):
            continue
        if dx and dy:
            diagonals.add(square)
        spots.append((x + dx, y + dy))
        edges.append((k, len(spots) - 1))
    sx, sy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    points = [(4 * sx * x, 4 * sy * y) for x, y in spots]
    groups = []
    for u, w in edges:
        (ax, ay), (bx, by) = points[u], points[w]
        pieces = []
        for i, s, t in draw(st.lists(st.tuples(st.integers(0, _SETS - 1), st.integers(0, 4),
                                               st.integers(0, 4)), max_size=3)):
            s, t = sorted((s, t))
            pieces.append(_piece(i, ((ax * (4 - s) + bx * s) // 4, (ay * (4 - s) + by * s) // 4),
                                 ((ax * (4 - t) + bx * t) // 4, (ay * (4 - t) + by * t) // 4)))
        groups.append(((u, w), (points[u], points[w]), pieces))
    return groups


@st.composite
def gap_cases(draw):
    """Edge groups and adjacency rows that keep geometry._GapScan's
    precondition: sets with pieces on one edge meet, and every other pair
    meets less some pairs drawn at random.  Rows are ascending and hold the
    set itself."""
    groups = draw(edge_groups())
    shared = {(a[0], b[0]) for _, _, group in groups for a in group for b in group}
    rows = [set(range(_SETS)) for _ in range(_SETS)]
    for i, j in draw(st.lists(st.tuples(st.integers(0, _SETS - 1),
                                        st.integers(0, _SETS - 1)), max_size=20)):
        if i != j and (i, j) not in shared:
            rows[i].discard(j)
            rows[j].discard(i)
    return groups, [tuple(sorted(row)) for row in rows]


def _kind(groups, a, b):
    """Where two pieces on two edges lie: at one vertex, or apart."""
    ends = [g[0] for g in groups for pc in g[2] if pc is a or pc is b]
    return "at a vertex" if set(ends[0]) & set(ends[1]) else "apart"


@settings(max_examples=300, deadline=None)
@given(gap_cases())
def test_least_gap_matches_all_pairs(case):
    groups, adjacency = case
    pieces = [pc for _, _, group in groups for pc in group]
    brute = min((segment_dist2(a[1], a[2], b[1], b[2])
                 for x, a in enumerate(pieces) for b in pieces[x + 1:]
                 if b[0] not in adjacency[a[0]]),
                default=None)
    assert _least_gap_squared(groups, adjacency) == brute


@settings(max_examples=300, deadline=None)
@given(gap_cases(), st.integers(0, 400))
def test_gap_scan_yields_every_pair_within_its_limit(case, limit):
    groups, adjacency = case
    pieces = [pc for _, _, group in groups for pc in group]
    found = [(id(a), id(b)) for _, a, b in _GapScan(groups, adjacency, limit)]
    assert len(set(map(frozenset, found))) == len(found)
    for x, a in enumerate(pieces):
        for b in pieces[x + 1:]:
            if b[0] in adjacency[a[0]]:
                continue
            if segment_dist2(a[1], a[2], b[1], b[2]) <= limit:
                event("within the limit: " + _kind(groups, a, b))
                assert (id(a), id(b)) in found or (id(b), id(a)) in found


@pytest.mark.parametrize("kind, groups, expected", [
    # an acute corner at (0, 0): the nearer end of the piece on (0,0)-(8,8)
    # lies 4 from the x axis, while the piece on the axis stops at x = 6
    ("at a vertex", [((0, 1), ((0, 0), (8, 8)), [_piece(0, (4, 4), (8, 8))]),
                     ((0, 2), ((0, 0), (8, 0)), [_piece(1, (0, 0), (6, 0))])], 16),
    ("apart", [((0, 1), ((0, 0), (4, 0)), [_piece(0, (0, 0), (4, 0))]),
               ((2, 3), ((7, 0), (9, 0)), [_piece(1, (7, 0), (9, 0))])], 9),
])
def test_least_gap_on_each_kind_of_edge_pair(kind, groups, expected):
    adjacency = [(0,), (1,)]  # each set meets only itself
    (_, a, b), = _GapScan(groups, adjacency, expected)
    assert _kind(groups, a, b) == kind
    assert _least_gap_squared(groups, adjacency) == expected


def test_least_gap_widens_past_a_nearer_cell():
    # A = (0,0)-(4,0) and C = (8,0)-(12,0) lie 4 apart, two cells apart on a
    # grid as wide as the longest edge box (4); B = (12,0)-(16,4) meets C at
    # (12,0), and its piece from (15,3) lies sqrt(18) from C.  That pair
    # bounds the least gap by 18, so the edge grid's reach is isqrt(18) = 4
    # and its cells pair A with C
    a, b, c = (_piece(0, (0, 0), (4, 0)), _piece(1, (15, 3), (16, 4)),
               _piece(2, (8, 0), (12, 0)))
    groups = [(("a0", "a1"), ((0, 0), (4, 0)), [a]), (("a1", "c0"), ((4, 0), (8, 0)), []),
              (("c0", "c1"), ((8, 0), (12, 0)), [c]), (("c1", "b1"), ((12, 0), (16, 4)), [b])]
    boxes = [(k, None, None, _piece(0, *points)[3]) for k, (_, points, _) in enumerate(groups)]
    assert (0, 2) not in {tuple(sorted(pair)) for pair in _grid_pairs(boxes, 0)}
    assert _least_gap_squared(groups, [(0,), (1,), (2,)]) == 16


_roots = st.fractions(min_value=0, max_value=20, max_denominator=12)


@settings(max_examples=400, deadline=None)
@given(_roots, _roots, st.one_of(st.just(Fraction(0)),
                                 st.fractions(min_value=-20, max_value=20, max_denominator=12)))
def test_gt_sum_of_roots_matches_fractions(ra, rb, delta):
    # d = r_a + r_b + delta, clamped at 0: delta = 0 draws the ties, and the
    # roots are rational, so every cross term 2 r_a r_b is too
    d = max(Fraction(0), ra + rb + delta)
    assert _gt_sum_of_roots(d * d, ra * ra, rb * rb) == (d > ra + rb)
