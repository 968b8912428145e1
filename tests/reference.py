"""Test-side references: the Fraction faces of the program's int stores,
and the trisection and closeness references, used only by the tests.

The program stores a tree's coordinates once, as its int frame
(``SimplicialGraph.int_frame``), and a region once, as merged int codes on
one grid (``SegmentRegion(tree, steps, codes)``).  ``coords`` and ``point``
read a frame back as Fractions, and ``from_pieces`` codes Fraction
intervals (through ``_code``) into a region, so the tests can state their
cases in rationals and compare them with what the program computes.

``k_close`` is the breadth-first reference for 1- and 2-closeness, which the
program decides from its closed forms instead.

A point of a graph's realization is an ``EdgePoint``: a vertex, or the
point at a rational parameter t on an edge.  The trisection functions map
such points through a map's realization and between a graph and its
trisection g^(3), whose new vertex ("sub", (a, b), "1/3") sits at t = 1/3
on the canonical edge (a, b).  The program itself never builds these
points: it lifts maps label by label (``lift_map_3``), and the tests
compare the two.
"""

from collections import deque
from fractions import Fraction
from typing import Dict, Optional, Tuple

from treechains.geometry import Interval, SegmentRegion, _merge
from treechains.simplicial import (
    EdgePoint,
    GraphError,
    Point,
    SimplicialGraph,
    SimplicialMapping,
    Vertex,
    canonical_edge,
)

THIRD = Fraction(1, 3)
TWO_THIRDS = Fraction(2, 3)


def evaluate_realization(m, p: EdgePoint) -> EdgePoint:
    """Image of p under the piecewise-linear realization of m."""
    fa, fb = m.assignment[p.a], m.assignment[p.b]
    if fa == fb:
        return EdgePoint.vertex(fa)
    return EdgePoint(fa, fb, p.t)


def subdivision_vertex(g, edge, t: Fraction):
    """Label of the point at parameter t (1/3 or 2/3) on an edge of g, in g^(3)."""
    if t != THIRD and t != TWO_THIRDS:
        raise ValueError("t must be 1/3 or 2/3, got %r" % (t,))
    a, b = canonical_edge(*edge)
    if (a, b) != tuple(edge):
        t = 1 - t
    return ("sub", (a, b), "1/3" if t == THIRD else "2/3")


def to_subdivided(p: EdgePoint) -> EdgePoint:
    """The same geometric point, in subdivision coordinates of g^(3)."""
    c = p.canonical()
    if c[0] == "vertex":
        return EdgePoint.vertex(c[1])
    _, a, b, t = c
    ua, ub = ("sub", (a, b), "1/3"), ("sub", (a, b), "2/3")
    if t <= THIRD:
        return EdgePoint(a, ua, 3 * t)
    if t <= TWO_THIRDS:
        return EdgePoint(ua, ub, 3 * (t - THIRD))
    return EdgePoint(ub, b, 3 * (t - TWO_THIRDS))


def _original_position(v):
    # (a, b, t) when v is a subdivision label on edge (a, b), else None
    if isinstance(v, tuple) and len(v) == 3 and v[0] == "sub":
        a, b = v[1]
        return (a, b, THIRD if v[2] == "1/3" else TWO_THIRDS)
    return None


def from_subdivided(p3: EdgePoint) -> EdgePoint:
    """Inverse of :func:`to_subdivided`: a point of g^(3) as a point of g."""
    c = p3.canonical()
    if c[0] == "vertex":
        pos = _original_position(c[1])
        if pos is None:
            return EdgePoint.vertex(c[1])
        return EdgePoint(pos[0], pos[1], pos[2])
    _, x, y, t = c
    px, py = _original_position(x), _original_position(y)
    if px is None and py is None:
        raise GraphError("(%r, %r) is not a subdivision edge" % (x, y))
    if px is None:
        a, b, q = py
        px = (a, b, Fraction(0) if x == a else Fraction(1))
    elif py is None:
        a, b, q = px
        py = (a, b, Fraction(0) if y == a else Fraction(1))
    if px[:2] != py[:2]:
        raise GraphError("(%r, %r) spans two original edges" % (x, y))
    a, b = px[:2]
    return EdgePoint(a, b, (1 - t) * px[2] + t * py[2])


# -- the Fraction face of the int stores ---------------------------------


def coords(g: SimplicialGraph) -> Optional[Dict[Vertex, Point]]:
    """vertex -> its point as Fractions, made afresh from the frame."""
    return None if g.int_frame is None else {v: point(g, v) for v in g.int_frame[1]}


def point(g: SimplicialGraph, v: Vertex) -> Point:
    if g.int_frame is None:
        raise GraphError("graph has no planar coordinates")
    scale, (x, y) = g.int_frame[0], g.int_frame[1][v]
    return Fraction(x, scale), Fraction(y, scale)


def _code(interval: Interval, steps: int) -> Tuple[int, int]:
    """(start, end) of a Fraction interval on the discrete line of E = ``steps``.

    2T is the point T/E and 2T + 1 the open gap after it, so (lo, hi, lc, hc)
    starts at 2 lo E (+1 if open) and ends at 2 hi E (-1 if open).  The
    interval is empty exactly when start > end, two intervals meet exactly
    when the larger start is at most the smaller end, and they leave no
    point between them exactly when the later start is at most one past the
    earlier end.  A region stores its intervals in this form, and every
    interval question is decided on the codes.  GraphError if an end is not
    a multiple of 1/E.
    """
    lo, hi, lc, hc = interval
    if steps % lo.denominator or steps % hi.denominator:
        raise GraphError("interval %s..%s is off the grid of E = %d" % (lo, hi, steps))
    return (2 * lo.numerator * (steps // lo.denominator) + (0 if lc else 1),
            2 * hi.numerator * (steps // hi.denominator) - (0 if hc else 1))


def from_pieces(tree: SimplicialGraph, raw: Dict, steps: int) -> SegmentRegion:
    """The union of the (lo, hi, lo_closed, hi_closed) Fraction intervals
    given edge by edge, coded on the line of E = ``steps``; GraphError
    if an edge is not one of the tree's or an end is not a multiple of
    1/E."""
    rank = tree.edge_rank
    codes = {}
    for edge, intervals in raw.items():
        if edge not in rank:
            raise GraphError("unknown edge %r" % (edge,))
        merged = _merge(_code(i, steps) for i in intervals)
        if merged:
            codes[rank[edge]] = tuple(merged)
    return SegmentRegion(tree, steps, codes)


# -- closeness and maps --------------------------------------------------


def k_close(g: SimplicialGraph, u: Vertex, v: Vertex, k: int) -> bool:
    """True iff there is a walk of length <= k from u to v (repeats allowed)."""
    if k < 1:
        raise ValueError("k must be positive")
    if u not in g.vertices or v not in g.vertices:
        raise GraphError("unknown vertex")
    if u == v:
        return True
    dist = {u: 0}
    queue = deque([u])
    while queue:
        w = queue.popleft()
        d = dist[w]
        if d == k:
            continue
        for x in g.adjacency[w]:
            if x not in dist:
                dist[x] = d + 1
                if x == v:
                    return True
                queue.append(x)
    return False


def identity(g: SimplicialGraph) -> SimplicialMapping:
    return SimplicialMapping(g, g, {v: v for v in g.vertices})
