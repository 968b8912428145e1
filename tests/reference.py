"""Fraction references for the trisection, used only by the tests.

A point of a graph's realization is an ``EdgePoint``: a vertex, or the
point at a rational parameter t on an edge.  These functions map such points
through a map's realization and between a graph and its trisection g^(3),
whose new vertex ("sub", (a, b), "1/3") sits at t = 1/3 on the canonical
edge (a, b).  The program itself never builds these points: it lifts maps
label by label (``lift_map_3``), and the tests compare the two.
"""

from fractions import Fraction

from treechains.simplicial import EdgePoint, GraphError, canonical_edge

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
