"""Exact geometry on planar tree realizations: interval regions on edges,
segment distances, the enlargement of a taut family, and SVG rendering.

All predicates are decided over the rationals; distances are handled as exact
squared values and never rooted inside a comparison.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, inf, isfinite, isqrt, sqrt
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .covers import CoverSet, CoverSystem
from .simplicial import EdgePoint, GraphError, SimplicialGraph

Point = Tuple[Fraction, Fraction]
Interval = Tuple[Fraction, Fraction, bool, bool]  # lo, hi, lo_closed, hi_closed

ZERO = Fraction(0)


# -- exact segment primitives ---------------------------------------------


def _cross(o: Point, a: Point, b: Point) -> Fraction:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _dot(a: Point, b: Point) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def dist2(a: Point, b: Point) -> Fraction:
    d = _sub(a, b)
    return _dot(d, d)


def point_on_segment(p: Point, a: Point, b: Point) -> bool:
    """p on the closed segment [a, b]."""
    if _cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def segments_meet(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Whether the closed segments [a, b] and [c, d] share a point.

    Exact for int and Fraction coordinates alike: the parameters are tested
    as numerators against their common denominator, with no division.
    """
    r = _sub(b, a)
    s = _sub(d, c)
    denom = r[0] * s[1] - r[1] * s[0]
    ca = _sub(c, a)
    if denom != 0:
        tn = ca[0] * s[1] - ca[1] * s[0]
        un = ca[0] * r[1] - ca[1] * r[0]
        if denom < 0:
            denom, tn, un = -denom, -tn, -un
        return 0 <= tn <= denom and 0 <= un <= denom
    if _cross(a, b, c) != 0:
        return False  # parallel, not collinear
    rr = _dot(r, r)
    if rr == 0:
        return point_on_segment(a, c, d)
    n0 = _dot(ca, r)
    n1 = _dot(_sub(d, a), r)
    return max(0, min(n0, n1)) <= min(rr, max(n0, n1))


def point_segment_dist2(p: Point, a: Point, b: Point) -> Fraction:
    """Squared distance from p to the closed segment [a, b].

    Exact for int and Fraction coordinates alike: when the foot of p lies
    strictly inside, at parameter num/dd, the squared distance is
    |p - a|^2 - num^2 / dd, one Fraction and no point built."""
    d = _sub(b, a)
    dd = _dot(d, d)
    num = _dot(_sub(p, a), d)
    if dd == 0 or num <= 0:
        return dist2(p, a)
    if num >= dd:
        return dist2(p, b)
    return Fraction(dist2(p, a) * dd - num * num, dd)


def segment_dist2(a: Point, b: Point, c: Point, d: Point) -> Fraction:
    """Squared distance between the closed segments [a, b] and [c, d],
    exact for int and Fraction coordinates alike: zero when
    ``segments_meet``, else the least of the four point-segment distances."""
    if segments_meet(a, b, c, d):
        return ZERO
    return min(point_segment_dist2(a, c, d), point_segment_dist2(b, c, d),
               point_segment_dist2(c, a, b), point_segment_dist2(d, a, b))


# -- intervals on one integer coding -------------------------------------


def _point_code(t, steps: int) -> int:
    """The code of the edge parameter t on the line of E = ``steps``: 2tE
    on the grid, else 2 floor(tE) + 1, the open gap that holds it."""
    whole, rest = divmod(t.numerator * steps, t.denominator)
    return 2 * whole + (1 if rest else 0)


def _merge(coded: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """The union of coded intervals as its apart, ascending components:
    empty ones dropped, the rest merged while no point lies between them."""
    out: List[Tuple[int, int]] = []
    for start, end in sorted(coded):
        if start > end:
            continue
        if out and start <= out[-1][1] + 1:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def _one_grid(regions: Sequence["SegmentRegion"]) -> int:
    """The one E of the listed regions; GraphError unless they lie on one
    tree and one E, so that their codes compare as they are."""
    grids = {r.steps for r in regions}
    if len(grids) != 1:
        raise GraphError("regions are not on one grid: E in %s" % sorted(grids))
    if any(r.tree != regions[0].tree for r in regions):
        raise GraphError("regions live on different trees")
    return grids.pop()


# -- regions on an embedded tree ------------------------------------------


@dataclass(frozen=True, eq=False)
class SegmentRegion:
    """Finite union of parameterized sub-segments of edges, stored as codes.

    On the discrete line of E = ``steps``, the code 2T is the point T/E of
    an edge and 2T + 1 the open gap after it, so an interval (lo, hi,
    lo_closed, hi_closed) starts at 2 lo E (+1 if open) and ends at 2 hi E
    (-1 if open).  It is empty exactly when start > end, two intervals meet
    exactly when the larger start is at most the smaller end, and they
    leave no point between them exactly when the later start is at most one
    past the earlier end.  ``codes[k]`` holds the region's intervals on the
    edge at position k of the tree's ``sorted_edges()`` as merged, apart,
    ascending (start, end) codes, and every interval question is decided on
    them.  A realized region is coded on the schedule's E.  Regions are
    compared only on one tree and one E (see _one_grid).  ``pieces`` gives
    the same intervals back as Fractions, keyed by edge.
    """

    tree: SimplicialGraph
    steps: int
    codes: Dict[int, Tuple[Tuple[int, int], ...]]

    @property
    def pieces(self) -> Dict[Tuple, Tuple[Interval, ...]]:
        """edge -> the region's intervals there as (lo, hi, lo_closed,
        hi_closed) Fractions, in ``sorted_edges()`` order, derived from the
        codes: a start 2T (+1) is T/E, closed (open), and an end 2H (-1) is
        H/E, closed (open)."""
        steps, edges = self.steps, self.tree.sorted_edges()
        return {edges[k]: tuple((Fraction(s // 2, steps), Fraction((e + 1) // 2, steps),
                                 s % 2 == 0, e % 2 == 0) for s, e in self.codes[k])
                for k in sorted(self.codes)}

    @cached_property
    def vertex_set(self) -> frozenset:
        top, edges = 2 * self.steps, self.tree.sorted_edges()
        out = set()
        for k, coded in self.codes.items():
            if coded[0][0] == 0:
                out.add(edges[k][0])
            if coded[-1][1] == top:
                out.add(edges[k][1])
        return frozenset(out)

    def contains_point(self, p: EdgePoint) -> bool:
        c = p.canonical()
        if c[0] == "vertex":
            return c[1] in self.vertex_set
        _, a, b, t = c
        k = self.tree.edge_rank.get((a, b))
        if k is None:
            return False
        code = _point_code(t, self.steps)
        return any(s <= code <= e for s, e in self.codes.get(k, ()))


def meeting_cliques(regions: Sequence[SegmentRegion]) -> List[List[int]]:
    """Cliques of the listed regions, each the ascending indices of regions
    that share a point.  Every set of regions that shares a point lies in
    one of them (the argument is in ``verify._triples``).

    Regions meet on an edge both have pieces on or at a vertex both
    contain, so each common point lies in a clique, recorded in bulk: a
    vertex's holders (a region holds an edge's start when its first code
    there is 0, its end when its last code is 2E), or one edge's codes (see
    SegmentRegion) open at one point.  Swept by start, the codes open
    before each close and at the end are such cliques; the first holds
    every code at the edge's start and the last every one at its end, so a
    vertex's holders are recorded only when its edge ends are held by
    different regions.  A region's own codes are apart, so no clique holds
    a region twice.
    """
    top = 2 * _one_grid(regions)
    tree = regions[0].tree
    rank = tree.rank
    ends = [rank[v] for e in tree.sorted_edges() for v in e]  # edge k's at 2k, 2k + 1
    by_edge: List[List[Tuple[int, int, int]]] = [[] for _ in range(len(ends) // 2)]
    at_end: List[List[int]] = [[] for _ in ends]  # the regions holding each edge end
    for i, r in enumerate(regions):
        for k, coded in r.codes.items():
            items = by_edge[k]
            for start, end in coded:
                items.append((start, end, i))
            if coded[0][0] == 0:
                at_end[2 * k].append(i)
            if coded[-1][1] == top:
                at_end[2 * k + 1].append(i)
    by_vertex: List[List[List[int]]] = [[] for _ in rank]
    for v, held in zip(ends, at_end):
        by_vertex[v].append(held)
    cliques = [sorted(set().union(*lists)) for lists in by_vertex
               if any(held != lists[0] for held in lists)]
    for items in by_edge:
        items.sort()
        opened: List[Tuple[int, int]] = []  # (end, region) of the open codes
        least = top + 1  # their least end
        for start, end, i in items:
            if least < start:
                cliques.append(sorted(map(itemgetter(1), opened)))
                opened = [o for o in opened if o[0] >= start]
                least = min(opened, default=(top + 1,))[0]
            opened.append((end, i))
            least = min(least, end)
        if opened:
            cliques.append(sorted(map(itemgetter(1), opened)))
    return cliques


def later_intersecting(cliques: Sequence[List[int]], count: int) -> List[List[int]]:
    """For each of ``count`` regions i, the ascending indices j > i of the
    regions that share a clique of ``meeting_cliques`` with it: those that
    meet it."""
    later = [set() for _ in range(count)]
    for members in cliques:
        for x, i in enumerate(members):
            later[i].update(members[x + 1:])
    return [sorted(js) for js in later]


def closure_within(outer: SegmentRegion, inner: SegmentRegion) -> bool:
    """The closure of inner lies in outer: on each edge, on one E (see
    SegmentRegion), every interval of inner, its odd ends rounded outward
    to their point codes, lies in one merged component of outer's
    intervals, with an end vertex that outer holds through another edge
    added as a point.  Adding points only grows components, so an edge
    whose intervals already lie in outer's own is decided without them.
    The rounded intervals need no merge: two that touch share a point code,
    as their ends are even, so they lie in one component of outer or not at
    all."""
    top = 2 * _one_grid((outer, inner))
    edges = outer.tree.sorted_edges()
    for k, coded in inner.codes.items():
        closed = [(s - s % 2, e + e % 2) for s, e in coded]
        cover = outer.codes.get(k, ())
        if not _within(closed, cover):
            ends = [(c, c) for v, c in zip(edges[k], (0, top)) if v in outer.vertex_set]
            if not _within(closed, _merge(list(cover) + ends)):
                return False
    return True


def _within(coded, cover) -> bool:
    """Every coded interval lies in one interval of cover."""
    return all(any(s <= start and end <= e for s, e in cover) for start, end in coded)


def covers_whole_tree(regions: Sequence[SegmentRegion]) -> bool:
    """Every point of every edge of the tree lies in a listed region: on
    each edge the merged codes (see SegmentRegion), on one E, are exactly
    the one interval from 0 to 2E."""
    steps = _one_grid(regions)
    by_edge: List[List[Tuple[int, int]]] = [[] for _ in regions[0].tree.sorted_edges()]
    for r in regions:
        for k, coded in r.codes.items():
            by_edge[k].extend(coded)
    whole = [(0, 2 * steps)]
    return all(_merge(items) == whole for items in by_edge)


def _box(points: Sequence[Point]):
    """Bounding box (x0, x1, y0, y1) of a nonempty point list."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    return (min(xs), max(xs), min(ys), max(ys))


def _box_gap_squared(a, b):
    """Squared gap between two boxes; an int for int boxes."""
    dx = max(0, b[0] - a[1], a[0] - b[1])
    dy = max(0, b[2] - a[3], a[2] - b[3])
    return dx * dx + dy * dy


def _diameter_squared(pts: Sequence[Tuple[int, int]]) -> int:
    best = 0
    for i, (px, py) in enumerate(pts):
        for qx, qy in pts[i + 1:]:
            d = (px - qx) * (px - qx) + (py - qy) * (py - qy)
            if d > best:
                best = d
    return best


# -- realized cover systems -----------------------------------------------


def realize(system: CoverSystem, a: CoverSet) -> SegmentRegion:
    """The realized cover set: the union of the level's half-open
    epsilon-stars at every fiber vertex of the deepest tree.  The star of w
    is the initial epsilon fraction, in edge parameter, of every edge at w;
    on the schedule's E it is coded (0, 2 eps E - 1) on an edge that starts
    at w and (2E - 2 eps E + 1, 2E) on one that ends there.  An edge gets
    at most these two stars, one from each end, and the two are merged
    once per set.  The edges at w are read from the tree's ``incidence``."""
    tree = system.deepest
    if tree.int_frame is None:
        raise GraphError("the deepest tree carries no planar coordinates")
    if not a.fiber:
        raise GraphError("empty union: the set %r has an empty fiber" % ((a.level, a.vertex),))
    steps = system.epsilons.steps
    width = 2 * a.epsilon.numerator * (steps // a.epsilon.denominator)
    head, tail = (0, width - 1), (2 * steps - width + 1, 2 * steps)
    stars, both = ((tail,), (head,)), tuple(_merge([head, tail]))
    incidence = tree.incidence
    codes: Dict[int, Tuple[Tuple[int, int], ...]] = {}
    for w in a.fiber:
        at = incidence.get(w)
        if at is None:
            raise GraphError("unknown vertex %r" % (w,))
        for k, starts in at:
            codes[k] = both if k in codes else stars[starts]
    return SegmentRegion(tree, steps, codes)


class RealizedSystem:
    """Cover system together with the realized region of every cover set.

    A realized region holds one interval per edge: the stars of an edge's
    ends, (0, 2eE - 1) and (2E - 2eE + 1, 2E), overlap as e > 1/2 on the
    grid gives 4eE >= 2E + 2, and ``realize`` merges them.  So closing
    merges nothing: a region's closure has one interval per edge, the
    region's own with each odd end rounded outward, and ``scaled_pieces``
    and ``closure_within`` read it off the codes."""

    def __init__(self, system: CoverSystem):
        self.system = system
        self.regions: Dict[Tuple[int, object], SegmentRegion] = {
            (a.level, a.vertex): realize(system, a) for a in system.all_sets()}

    def region(self, a: CoverSet) -> SegmentRegion:
        return self.regions[(a.level, a.vertex)]

    @cached_property
    def scaled_pieces(self):
        """(scale, by_set, by_edge): every closed piece of every region, the
        pieces of its closure (see the class docstring), as one (set index,
        p, q, box) in int coordinates, built once.
        ``by_set[i]`` lists set i's, its region's edges in ``sorted_edges()``
        order; ``by_edge`` holds one group (edge, points, pieces) per edge of
        the deepest tree in that order, with its ends' int points and the
        same tuples on it, in all_sets() order.

        With the deepest tree's int frame (A, B the int ends of an edge) and
        the regions' codes on one E (see _one_grid), a code's closed ends are
        L = start // 2 and (end + 1) // 2 (see the class docstring), the
        parameter L/E at the point (A (E - L) + B L) / E, so ``scale`` is the
        frame's times E and every coordinate is an int combination.
        """
        tree = self.system.deepest
        unit, ipt = tree.int_frame
        regions = [self.region(a) for a in self.system.all_sets()]
        steps = _one_grid(regions)
        edges = tree.sorted_edges()
        ends = [ipt[a] + ipt[b] for a, b in edges]  # (ax, ay, bx, by) by position
        on: List[List] = [[] for _ in edges]
        by_set: List[List] = [[] for _ in regions]
        for i, region in enumerate(regions):
            codes, own = region.codes, by_set[i]
            for k in sorted(codes):
                ax, ay, bx, by = ends[k]
                for start, end in codes[k]:
                    s, t = start // 2, (end + 1) // 2
                    px, py = ax * (steps - s) + bx * s, ay * (steps - s) + by * s
                    qx, qy = ax * (steps - t) + bx * t, ay * (steps - t) + by * t
                    piece = (i, (px, py), (qx, qy),
                             (min(px, qx), max(px, qx), min(py, qy), max(py, qy)))
                    own.append(piece)
                    on[k].append(piece)
        by_edge = [(e, ((ax * steps, ay * steps), (bx * steps, by * steps)), group)
                   for e, (ax, ay, bx, by), group in zip(edges, ends, on)]
        return unit * steps, by_set, by_edge


def _grid_pairs(pieces, reach: int):
    """Every pair of pieces (by position) whose boxes are at most ``reach``
    apart on both axes, and some farther ones.

    A uniform grid keyed by the low corner of each box, with cells one box
    side plus ``reach`` wide, puts every such pair in the same or adjacent
    cells; each unordered pair of cells is visited once.
    """
    if not pieces:
        return
    size = max(1, reach + max(max(b[1] - b[0], b[3] - b[2]) for _, _, _, b in pieces))
    cells: Dict[Tuple[int, int], List[int]] = {}
    for k, piece in enumerate(pieces):
        box = piece[3]
        cells.setdefault((box[0] // size, box[2] // size), []).append(k)
    for (cx, cy), here in cells.items():
        for x, p in enumerate(here):
            for q in here[x + 1:]:
                yield p, q
        for dx, dy in ((1, -1), (1, 0), (1, 1), (0, 1)):
            there = cells.get((cx + dx, cy + dy))
            if there:
                for p in here:
                    for q in there:
                        yield p, q


# -- distances between disjoint sets, edge by edge ---------------------------


class _GapScan:
    """(squared box gap, a, b) for the pieces a and b of sets i and j that
    may lie at most sqrt(``limit``) apart, when j is not in ``adjacency[i]``.

    A group is (ends, points, pieces): one edge of a tree, the int points of
    its ends and the pieces (set index, p, q, box) on it, in the same int
    units.  Precondition: any two sets with pieces in one group meet.  On a
    realized system it holds: a set has a piece on an edge exactly when its
    fiber holds an end of that edge (``realize``), and two fibers that hold
    ends of one edge hold one vertex or the two ends of one edge, so the
    two sets meet (``CoverSystem.adjacency``).  So no pair lies on one
    edge, and pieces are paired on two edges at one vertex, and on two
    edges that share no vertex and whose boxes are at most sqrt(``limit``)
    apart, found by one grid over the edge boxes.  A piece of set i is
    skipped at once when every set on the other edge h meets it, on[h] <=
    rows[i], the sets with pieces on h against ``adjacency[i]`` as a
    frozenset, built per scan.  At a vertex V, with u and w the other ends
    of the two edges less V, two pieces whose nearer ends lie da and db
    (squared) from V are at least da + db apart if u . w <= 0, else at
    least max(da, db) (u x w)^2 / (|u|^2 |w|^2), squared; there the pieces
    are swept by distance from V, and the sweep stops once that bound
    passes ``limit``.  A pair is left out only when its box gap or that
    bound passes ``limit``.  ``limit`` may shrink while the scan runs; every
    pair at most sqrt(final limit) apart is yielded.
    """

    def __init__(self, groups, adjacency, limit):
        self.groups, self.limit = groups, limit
        self.on = [frozenset(pc[0] for pc in pieces) for _, _, pieces in groups]
        self.rows = {i: frozenset(adjacency[i]) for i in frozenset().union(*self.on)}

    def __iter__(self):
        groups = self.groups
        at: Dict = {}
        for g, (ends, _, pieces) in enumerate(groups):
            if pieces:
                for k in (0, 1):
                    at.setdefault(ends[k], []).append((g, k))
        for sides in at.values():
            for x, (g, k) in enumerate(sides):
                for h, m in sides[x + 1:]:
                    yield from self._at_vertex(g, k, h, m)
        items = [(g, None, None, _box(points))
                 for g, (_, points, pieces) in enumerate(groups) if pieces]
        for x, y in _grid_pairs(items, isqrt(floor(self.limit))):
            (g, _, _, a), (h, _, _, b) = items[x], items[y]
            if set(groups[g][0]).isdisjoint(groups[h][0]) and \
                    _box_gap_squared(a, b) <= self.limit:
                yield from self._pairs(g, h)

    def _free(self, g, h):
        """The pieces of group g of a set that misses some set on group h."""
        on, rows = self.on[h], self.rows
        return [pc for pc in self.groups[g][2] if not on <= rows[pc[0]]]

    def _pairs(self, g, h):
        there = self._free(h, g)
        for a in self._free(g, h):
            row = self.rows[a[0]]
            for b in there:
                if b[0] not in row:
                    gap = _box_gap_squared(a[3], b[3])
                    if gap <= self.limit:
                        yield gap, a, b

    def _at_vertex(self, g, k, h, m):
        here, there = self._free(g, h), self._free(h, g)
        if not (here and there):
            return
        v = self.groups[g][1][k]
        u, w = _sub(self.groups[g][1][1 - k], v), _sub(self.groups[h][1][1 - m], v)
        dot = _dot(u, w)
        cross2 = (u[0] * w[1] - u[1] * w[0]) ** 2
        norms = _dot(u, u) * _dot(w, w)

        def beyond(da, db):
            if dot <= 0:
                return da + db > self.limit
            return max(da, db) * cross2 > self.limit * norms

        there = _by_distance(there, v)
        for da, a in _by_distance(here, v):
            if beyond(da, 0):
                break
            row = self.rows[a[0]]
            for db, b in there:
                if beyond(da, db):
                    break
                if b[0] not in row:
                    gap = _box_gap_squared(a[3], b[3])
                    if gap <= self.limit:
                        yield gap, a, b


def _by_distance(pieces, v):
    """(d, piece) for the pieces of one edge that ends at v, ascending in d,
    the squared distance from v of the piece's nearer end."""
    return sorted(((min(dist2(pc[1], v), dist2(pc[2], v)), pc) for pc in pieces),
                  key=lambda t: t[0])


def _least_gap_squared(groups, adjacency):
    """Least squared distance between two pieces of sets that do not meet,
    exact, in the units of the groups; None if there is no such pair.  The
    groups keep _GapScan's precondition, so the two pieces lie on two
    distinct edges.

    The scan starts from the squared diagonal of all the edge boxes, which
    no pair exceeds, and shrinks to the least squared distance between the
    ends of any pair it yields, which bounds the answer from above.  The
    pairs it yields then get exact distances best first: in order of box
    gap, a lower bound, and only while that gap is below the best so far.
    """
    if not any(pieces for _, _, pieces in groups):
        return None
    whole = _box([pt for _, points, _ in groups for pt in points])
    scan = _GapScan(groups, adjacency, (whole[1] - whole[0]) ** 2 + (whole[3] - whole[2]) ** 2)
    found = []
    for gap, a, b in scan:
        found.append((gap, a, b))
        scan.limit = min(scan.limit, min(dist2(p, q) for p in a[1:3] for q in b[1:3]))
    found.sort(key=lambda c: c[0])
    best = None
    for gap, a, b in found:
        if best is not None and gap >= best:
            break
        d = segment_dist2(a[1], a[2], b[1], b[2])
        if best is None or d < best:
            best = d
    return best


def _min_disjoint_gap_squared(realized: RealizedSystem, groups) -> Optional[Fraction]:
    """Least squared distance between pieces of two disjoint sets in the
    edge groups ``groups`` of ``scaled_pieces``, exact; None if none."""
    scale = realized.scaled_pieces[0]
    best = _least_gap_squared(groups, realized.system.adjacency)
    return None if best is None else Fraction(best) / (scale * scale)


def rho_squared(realized: RealizedSystem) -> Optional[Fraction]:
    """Squared rho, over the disjoint pairs of the coarsest cover; None if
    none.  Level 0 is the leading run of each edge group (all_sets() order)."""
    first = realized.system.level_start[1]
    return _min_disjoint_gap_squared(realized, [
        (e, points, pieces[:bisect_left(pieces, first, key=itemgetter(0))])
        for e, points, pieces in realized.scaled_pieces[2]])


def compute_rho_and_mesh(realized: RealizedSystem):
    """rho (over disjoint pairs of the coarsest cover) and per-level mesh,
    reported as exact squares, plus the decay flags mesh < rho / 2^n.

    The decay condition is informational; the finite construction does not
    promise it.
    """
    system = realized.system
    rho_sq = rho_squared(realized)
    # diameters on the ends of the scaled closed pieces, each point once: a
    # closure has the same diameter
    scale, by_set, _ = realized.scaled_pieces
    diameters = [_diameter_squared(list({pt for pc in pieces for pt in pc[1:3]}))
                 for pieces in by_set]
    starts = system.level_start
    mesh_sq = [Fraction(max(diameters[starts[n]:starts[n + 1]]), scale * scale)
               for n in range(system.l + 1)]
    decay = None
    if rho_sq is not None:
        decay = [mesh_sq[n] * 4 ** n < rho_sq for n in range(system.l + 1)]
    return rho_sq, mesh_sq, decay


# -- enlargement of the taut family ---------------------------------------


def family_min_gap_squared(realized: RealizedSystem) -> Fraction:
    """Squared minimum distance over disjoint pairs of the whole family."""
    best = _min_disjoint_gap_squared(realized, realized.scaled_pieces[2])
    if best is None:
        raise GraphError("the family has no disjoint pair; enlargement margin undefined")
    return best


def enlarge_taut_family(realized: RealizedSystem) -> Tuple[Fraction, List[Fraction]]:
    """(m_sq, radius_sq): every cover set of level n is enlarged to the open
    planar neighborhood of radius r_n = 2^-n * m, where the margin m is one
    third of the least gap between disjoint members; all values squared."""
    m_sq = family_min_gap_squared(realized) / 9
    return m_sq, [m_sq / 4 ** n for n in range(realized.system.l + 1)]


def _gt_sum_of_roots(d2: Fraction, ra2: Fraction, rb2: Fraction) -> bool:
    """Exact test d > r_a + r_b given all three values squared (all >= 0):
    squaring twice, it holds exactly when lhs = d^2 - r_a^2 - r_b^2 > 0 and
    lhs^2 > 4 r_a^2 r_b^2."""
    lhs = d2 - ra2 - rb2
    return lhs > 0 and lhs * lhs > 4 * ra2 * rb2


def enlargement_disjointness_violation(realized: RealizedSystem,
                                       radius_sq: Sequence[Fraction]):
    """Disjoint members must get enlarged sets with disjoint closures:
    d(U, V) > r_U + r_V, compared via exact squares; ``radius_sq[n]`` is the
    squared radius of every set of level n.

    _GapScan yields every piece pair at most sqrt(limit) apart, in scaled
    int coordinates, and limit = (2 max r)^2 >= (r_U + r_V)^2.  So the
    closest piece pair of a failing set pair is yielded, and the least
    ``segment_dist2`` over the yielded pairs is exact for it; any other pair
    gets a minimum over fewer pairs, no smaller, and still passes.  The
    first failing pair in all_sets() order is the witness.

    With the radii of ``enlarge_taut_family`` no pair can fail once taut
    has passed: m_sq is a ninth of the least squared gap over the same
    disjoint pairs, which taut makes positive, and every r_n^2 <= m_sq, so
    d^2 >= 9 m_sq > 4 m_sq >= (r_U + r_V)^2.  Only radii that an instance
    carries itself, as tests/fixtures/inflated_radius.json does, can fail.
    """
    system = realized.system
    sets = system.all_sets()
    radius = [radius_sq[a.level] for a in sets]
    scale, _, by_edge = realized.scaled_pieces
    s2 = scale * scale
    near: Dict = {}
    for _, a, b in _GapScan(by_edge, system.adjacency, 4 * max(radius) * s2):
        pair = (a[0], b[0]) if a[0] < b[0] else (b[0], a[0])
        d = segment_dist2(a[1], a[2], b[1], b[2])
        if pair not in near or d < near[pair]:
            near[pair] = d
    for (i, j), d in sorted(near.items()):
        d2 = Fraction(d, s2)
        if not _gt_sum_of_roots(d2, radius[i], radius[j]):
            a, b = sets[i], sets[j]
            return ((a.level, a.vertex), (b.level, b.vertex), d2)
    return None


def enlargement_nesting_violation(realized: RealizedSystem,
                                  radius_sq: Sequence[Fraction]):
    """A deeper member contained in a shallower one must keep its enlarged
    closure inside the other's enlargement: a strictly smaller radius,
    ``radius_sq[n]`` squared for every set of level n.

    Base containment is implied: region(U) lies in closure(U), which
    strong-refinement, run first, puts inside its bond image's region, and
    containment along the composed bonds is transitive.
    """
    system = realized.system
    for j in range(1, system.l + 1):
        for n in range(j):
            if not radius_sq[j] < radius_sq[n]:
                # one radius per level: the first set of level j is the witness
                w = system.covers[j][0].vertex
                return ((j, w), (n, system.bond(n, j)[w]), "radius")
    return None


# -- rendering -------------------------------------------------------------

_PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f"]


# pixels per unit of the plane
_SVG_SCALE = 60.0


def _fmt(x: float) -> str:
    return ("%.3f" % x).rstrip("0").rstrip(".")


def render_svg(realized: RealizedSystem, path: str,
               radius_sq: Optional[Sequence[Fraction]] = None,
               levels: Optional[Sequence[int]] = None) -> str:
    """Write a deterministic SVG: tree skeleton plus one capsule-stroked layer
    per cover level, stroked twice the level's enlargement radius wide when
    ``radius_sq`` is given.  Returns the SVG text.

    The tree's int frame and the links, its regions' closed pieces in
    ``scaled_pieces``, are drawn at x / scale: an int quotient is the
    correctly rounded float of its rational.  Each distinct piece end and
    each tree vertex is formatted once per call.  GraphError, with no file
    written, when the drawing reaches past float range or two tree vertices
    draw at one pixel text, as coordinates far below a pixel do."""
    system = realized.system
    tree = system.deepest
    if levels is None:
        levels = list(range(system.l + 1))

    unit, ipt = tree.int_frame
    margin = 1.0
    try:  # an int quotient past float range raises, a float sum past it is inf
        xs = [x / unit for x, _ in ipt.values()]
        ys = [y / unit for _, y in ipt.values()]
        width = (max(xs) - min(xs) + 2 * margin) * _SVG_SCALE
        height = (max(ys) - min(ys) + 2 * margin) * _SVG_SCALE
    except OverflowError:
        width = height = inf
    if not (isfinite(width) and isfinite(height)):
        raise GraphError("the tree reaches past float range: no SVG drawn")
    x0, y1 = min(xs) - margin, max(ys) + margin

    def to_px(p, scale):  # p: an int point on that scale
        return ((p[0] / scale - x0) * _SVG_SCALE, (y1 - p[1] / scale) * _SVG_SCALE)

    corners = {}  # tree vertex -> its (x, y) pixel texts
    for v, p in ipt.items():
        px = to_px(p, unit)
        corners[v] = (_fmt(px[0]), _fmt(px[1]))
    if len(set(corners.values())) < len(corners):
        raise GraphError("two tree vertices draw at one pixel: no SVG drawn")

    scale, by_set, _ = realized.scaled_pieces
    texts = {}  # int point of a piece end -> its "x y" pixel text, formatted once

    def at(p):
        text = texts.get(p)
        if text is None:
            px = to_px(p, scale)
            text = texts[p] = "%s %s" % (_fmt(px[0]), _fmt(px[1]))
        return text

    def link(piece):
        return "M %s L %s" % (at(piece[1]), at(piece[2]))

    lines = ['<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
             'viewBox="0 0 %s %s">' % (_fmt(width + 160), _fmt(height),
                                       _fmt(width + 160), _fmt(height))]
    for idx, n in enumerate(levels):
        color = _PALETTE[n % len(_PALETTE)]
        if radius_sq is not None:
            stroke = _fmt(2 * sqrt(float(radius_sq[n])) * _SVG_SCALE)
        else:
            stroke = _fmt(0.16 * _SVG_SCALE / (n + 1))
        lines.append('<g id="level-%d" stroke="%s" stroke-opacity="0.45" '
                     'fill="none" stroke-linecap="round">' % (n, color))
        for a in system.covers[n]:
            lines.append('<path class="link" stroke-width="%s" d="%s"/>'
                         % (stroke, " ".join(map(link, by_set[a.index]))))
        lines.append("</g>")
    lines.append('<g id="skeleton" stroke="#000000" stroke-width="1.5">')
    for a, b in tree.sorted_edges():
        lines.append('<line x1="%s" y1="%s" x2="%s" y2="%s"/>' % (corners[a] + corners[b]))
    lines.append("</g>")
    lines.append('<g id="legend" font-family="sans-serif" font-size="14">')
    for idx, n in enumerate(levels):
        y = 20 + 20 * idx
        color = _PALETTE[n % len(_PALETTE)]
        lines.append('<rect x="%s" y="%s" width="12" height="12" fill="%s"/>'
                     % (_fmt(width + 20), _fmt(y - 10), color))
        lines.append('<text x="%s" y="%s">cover %d (%d links)</text>'
                     % (_fmt(width + 40), _fmt(y), n, len(system.covers[n])))
    lines.append("</g>")
    lines.append("</svg>")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
