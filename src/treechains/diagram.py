"""Two-row commutative diagrams of simplicial maps and their trisection lifts."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Tuple

from .simplicial import (
    EdgePoint,
    GraphError,
    SimplicialGraph,
    SimplicialMapping,
    is_surjection,
    lift_map_3,
    subdivide3,
    validate_simplicial,
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class TreeDiagram:
    """Levels G_0..G_l with two parallel rows of maps G_{n+1} -> G_n.

    Construction is deliberately permissive; checkers below expose every
    condition separately so broken fixtures can be examined.
    """

    levels: Tuple[SimplicialGraph, ...]
    g_row: Tuple[SimplicialMapping, ...]
    f_row: Tuple[SimplicialMapping, ...]

    def __post_init__(self):
        l = len(self.levels) - 1
        if l < 1 or len(self.g_row) != l or len(self.f_row) != l:
            raise GraphError("need l+1 levels and l maps per row")
        for n in range(l):
            for m in (self.g_row[n], self.f_row[n]):
                if m.source != self.levels[n + 1] or m.target != self.levels[n]:
                    raise GraphError("map %d is not typed G_%d -> G_%d" % (n, n + 1, n))

    @property
    def length(self) -> int:
        return len(self.levels) - 1

    def well_formed_violation(self):
        """First failure of simpliciality (both rows) or surjectivity (g-row)."""
        for n in range(self.length):
            for name, m in (("g", self.g_row[n]), ("f", self.f_row[n])):
                if not validate_simplicial(m):
                    return ("not-simplicial", name, n)
            if not is_surjection(self.g_row[n]):
                return ("g-not-surjective", n)
        return None


def commutativity_violation(d: TreeDiagram):
    """Witness (i, v) with f_{i-1}(g_i(v)) != g_{i-1}(f_i(v)), or None."""
    for i in range(1, d.length):
        f_prev, g_prev = d.f_row[i - 1].assignment, d.g_row[i - 1].assignment
        f_i, g_i = d.f_row[i].assignment, d.g_row[i].assignment
        for v in d.levels[i + 1].sorted_vertices():
            if f_prev[g_i[v]] != g_prev[f_i[v]]:
                return (i, v)
    return None


def check_commutative(d: TreeDiagram) -> bool:
    return commutativity_violation(d) is None


def _shared_legs(f: SimplicialMapping, g: SimplicialMapping):
    if f.source != g.source or f.target != g.target:
        raise GraphError("maps do not share source and target")


def coincidence_violation(f: SimplicialMapping, g: SimplicialMapping):
    """Witness against the combinatorial no-coincidence criterion, or None.

    No coincidence points iff f(v) != g(v) at every vertex and no edge has
    {f(u),f(v)} contained in {g(u),g(v)}.
    """
    _shared_legs(f, g)
    fa, ga = f.assignment, g.assignment
    for v in f.source.sorted_vertices():
        if fa[v] == ga[v]:
            return ("vertex", v)
    for u, v in f.source.sorted_edges():
        if {fa[u], fa[v]} <= {ga[u], ga[v]}:
            return ("edge", (u, v))
    return None


def coincidence_free(f: SimplicialMapping, g: SimplicialMapping) -> bool:
    return coincidence_violation(f, g) is None


def coincidence_oracle(f: SimplicialMapping, g: SimplicialMapping) -> FrozenSet[EdgePoint]:
    """Exact coincidence points of |f| and |g|, solved edge by edge.

    On each source edge both realizations are linear into a path of at most
    one target edge, so coincidences are vertex hits, a single interior
    crossing at t = 1/2, or the whole edge.  An edge on which the two
    realizations agree identically contributes its endpoints and midpoint.
    """
    _shared_legs(f, g)
    fm, gm = f.assignment, g.assignment
    points = set()
    for v in f.source.vertices:
        if fm[v] == gm[v]:
            points.add(EdgePoint.vertex(v))
    for a, b in f.source.sorted_edges():
        fa, fb, ga, gb = fm[a], fm[b], gm[a], gm[b]
        if fa != fb and ga != gb and {fa, fb} == {ga, gb}:
            # same target edge: crossing at the midpoint, or identical
            points.add(EdgePoint(a, b, HALF))
        elif fa == fb and ga == gb and fa == ga:
            points.add(EdgePoint(a, b, HALF))
    return frozenset(points)


def proximity_vertices(f: SimplicialMapping, g: SimplicialMapping) -> FrozenSet:
    """Vertices whose images are equal, adjacent or share a neighbour: 2-close in the target."""
    _shared_legs(f, g)
    adj, fm, gm = f.target.adjacency, f.assignment, g.assignment
    out = []
    for v in f.source.vertices:
        a, b = fm[v], gm[v]
        try:
            near, other = adj[a], adj[b]
        except KeyError:
            raise GraphError("unknown vertex %r" % (b if a in adj else a,)) from None
        if a == b or b in near or not near.isdisjoint(other):
            out.append(v)
    return frozenset(out)


def lift_diagram_3(d: TreeDiagram) -> TreeDiagram:
    """Trisect every level and both rows of maps.

    Requires a well-formed commutative diagram whose bottom square is
    coincidence-free; the lift then has no proximity vertices at any level.
    """
    bad = d.well_formed_violation()
    if bad is not None:
        raise GraphError("diagram not well formed: %r" % (bad,))
    bad = commutativity_violation(d)
    if bad is not None:
        raise GraphError("diagram not commutative at %r" % (bad,))
    bad = coincidence_violation(d.f_row[0], d.g_row[0])
    if bad is not None:
        raise GraphError("f_0, g_0 have a coincidence: %r" % (bad,))
    levels3 = tuple(subdivide3(g) for g in d.levels)
    g3 = tuple(lift_map_3(d.g_row[n], levels3[n + 1], levels3[n])
               for n in range(d.length))
    f3 = tuple(lift_map_3(d.f_row[n], levels3[n + 1], levels3[n])
               for n in range(d.length))
    return TreeDiagram(levels3, g3, f3)
