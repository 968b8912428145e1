"""Finite simplicial graphs, simplicial maps, and trisection subdivision.

Vertices are arbitrary hashable labels (tuples in practice).  Planar
coordinates, when present, are exact rationals stored once, as int points
over one scale (``SimplicialGraph.int_frame``), and every predicate in this
module is decided with exact arithmetic on them.  The Fraction view of a
frame and the breadth-first k-closeness reference live with the tests
(``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Dict, Hashable, Iterable, Optional, Tuple

Vertex = Hashable
Point = Tuple[Fraction, Fraction]


def vkey(v):
    """Total order on vertex labels, stable across runs.

    A tuple's key lists its items' keys, so a subdivision label has
    ``vkey(("sub", (a, b), t)) == (2, vkey("sub"), (2, vkey(a), vkey(b)), vkey(t))``;
    ``subdivide3`` derives its new labels' keys by this identity.  A bool
    has a class of its own, tested after the branches the program's labels take.
    """
    if isinstance(v, tuple):
        return (2, *[(0, x) if type(x) is int else (1, x) if type(x) is str else vkey(x)
                     for x in v])
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v)
    if isinstance(v, bool):
        return (3, v)
    return (1, str(v))


def canonical_edge(u: Vertex, v: Vertex) -> Tuple[Vertex, Vertex]:
    if u == v:
        raise ValueError("degenerate edge {%r}" % (u,))
    return (u, v) if vkey(u) < vkey(v) else (v, u)


class GraphError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class SimplicialGraph:
    """A finite 1-dimensional simplicial complex, optionally embedded in the plane.

    ``edges`` holds canonically ordered pairs and ``rank`` each vertex's
    position in ``sorted_vertices()``; both come from ``build``, which orders
    every vertex once, or from ``subdivide3``, which derives its new labels'
    keys from the keys of their edges' ends.  ``int_frame``, the one store
    of the coordinates, is None or (scale, each vertex's int point) with the
    lcm of the coordinates' denominators as scale.  Instances are immutable;
    derived graphs (subdivisions) are new values.  The ``int_frame`` and
    ``rank`` dicts must not be written either: one family tree is shared by
    every diagram and map built on its k.
    """

    vertices: frozenset
    edges: frozenset
    int_frame: Optional[Tuple[int, Dict[Vertex, Tuple[int, int]]]]
    rank: Dict[Vertex, int] = field(repr=False)

    @staticmethod
    def build(vertices: Iterable[Vertex], edges: Iterable[Tuple[Vertex, Vertex]],
              coords: Optional[Dict[Vertex, Point]] = None,
              check_embedding: bool = True) -> "SimplicialGraph":
        vs, frame = frozenset(vertices), None
        if coords is not None:  # int or Fraction pairs, reduced once to the frame
            pts = [(v, *coords[v]) for v in vs]
            scale = lcm(*(c.denominator for _, x, y in pts for c in (x, y)))
            frame = scale, {v: (x.numerator * (scale // x.denominator),
                                y.numerator * (scale // y.denominator)) for v, x, y in pts}
        return SimplicialGraph._from_keys({v: vkey(v) for v in vs}, edges, frame,
                                          check_embedding)

    @staticmethod
    def _from_keys(keys: Dict[Vertex, tuple], edges, frame, check_embedding: bool):
        # keys: each vertex's vkey; frame is kept, not copied
        vs = frozenset(keys)

        def orient(u, v):  # canonical_edge(u, v), on the keys of known vertices
            if u == v or u not in keys or v not in keys:
                return canonical_edge(u, v)
            return (u, v) if keys[u] < keys[v] else (v, u)

        es = frozenset(orient(u, v) for u, v in edges)
        for a, b in es:
            if a not in vs or b not in vs:
                raise GraphError("edge (%r, %r) has endpoint outside vertex set" % (a, b))
        rank = {v: k for k, v in enumerate(sorted(vs, key=keys.__getitem__))}
        g = SimplicialGraph(vs, es, frame, rank)
        if frame is not None and check_embedding:
            bad = g.embedding_violation()
            if bad is not None:
                raise GraphError("inconsistent planar embedding: %r" % (bad,))
        return g

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SimplicialGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    @cached_property
    def adjacency(self) -> Dict[Vertex, frozenset]:
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return {v: frozenset(ns) for v, ns in adj.items()}

    def neighbors(self, v: Vertex) -> frozenset:
        try:
            return self.adjacency[v]
        except KeyError:
            raise GraphError("unknown vertex %r" % (v,))

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def endpoints(self) -> frozenset:
        return frozenset(v for v in self.vertices if self.degree(v) == 1)

    def sorted_vertices(self) -> Tuple[Vertex, ...]:
        return self._sorted_vertices

    @cached_property
    def _sorted_vertices(self) -> Tuple[Vertex, ...]:
        return tuple(self.rank)

    def sorted_edges(self) -> Tuple[Tuple[Vertex, Vertex], ...]:
        return self._sorted_edges

    @cached_property
    def _sorted_edges(self) -> Tuple[Tuple[Vertex, Vertex], ...]:
        rank = self.rank
        return tuple(sorted(self.edges, key=lambda e: (rank[e[0]], rank[e[1]])))

    @cached_property
    def edge_rank(self) -> Dict[Tuple[Vertex, Vertex], int]:
        """edge -> its position in ``sorted_edges()``; regions on this graph
        list their edges in this order."""
        return {e: k for k, e in enumerate(self.sorted_edges())}

    @cached_property
    def incidence(self) -> Dict[Vertex, Tuple[Tuple[int, bool], ...]]:
        """vertex -> (position in ``sorted_edges()``, whether the edge starts
        there) for each edge at it, ascending in position."""
        out = {v: [] for v in self.vertices}
        for k, (a, b) in enumerate(self.sorted_edges()):
            out[a].append((k, True))
            out[b].append((k, False))
        return {v: tuple(at) for v, at in out.items()}

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u != v and ((u, v) in self.edges or (v, u) in self.edges)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        start = next(iter(self.vertices))
        seen = {start}
        stack = [start]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == len(self.vertices) - 1

    def embedding_violation(self):
        """Return a witness if the planar coordinates are not consistent.

        Consistency: an injection on vertices, segments of distinct edges meet
        only in shared endpoint coordinates, and no vertex lies in the
        interior of another edge's segment.

        Every predicate runs on the int frame.  Only a vertex and an edge, or
        two edges, whose bounding boxes touch can meet, so a uniform grid
        (``geometry._grid_pairs`` with reach 0) gives the candidates.  Every
        hit is collected and the least is returned, in the order of a scan
        over ``sorted_edges()``: a ``vertex-in-edge`` hit on the first edge,
        naming its least vertex in ``vkey`` order, before any
        ``edges-cross`` hit, which goes by the edges' positions.  A witness
        never depends on the order of the vertex set, which follows string
        hashing.
        """
        from . import geometry
        ipt = self.int_frame[1]
        if len(set(ipt.values())) < len(ipt):
            pts = {}
            for v in self.sorted_vertices():
                p = ipt[v]
                if p in pts:
                    return ("duplicate-coordinate", pts[p], v)
                pts[p] = v
        edges = list(self.edges)
        n = len(edges)
        items = []
        for e in edges:
            (ax, ay), (bx, by) = a, b = ipt[e[0]], ipt[e[1]]
            items.append((e, a, b, (min(ax, bx), max(ax, bx), min(ay, by), max(ay, by))))
        items += [(v, p, p, (p[0], p[0], p[1], p[1])) for v, p in ipt.items()]
        hits = []  # (order key, witness); keys follow sorted_edges()
        for x, y in geometry._grid_pairs(items, 0):
            if x > y:
                x, y = y, x
            if x >= n:
                continue  # two vertices: distinct after the duplicate scan
            e, a, b, box = items[x]
            f, c, d, other = items[y]
            if not (box[0] <= other[1] and other[0] <= box[1]
                    and box[2] <= other[3] and other[2] <= box[3]):
                continue  # the boxes do not touch
            if y >= n:  # f is a vertex at c
                if f not in e and geometry.point_on_segment(c, a, b):
                    hits.append(((0, self.edge_rank[e], self.rank[f]),
                                 ("vertex-in-edge", f, e)))
                continue
            shared = set(e) & set(f)
            if shared:
                # u and w relative to the shared point: the segments meet
                # elsewhere exactly when they leave it in the same direction
                s = ipt[shared.pop()]
                u = a if b == s else b
                w = c if d == s else d
                u, w = (u[0] - s[0], u[1] - s[1]), (w[0] - s[0], w[1] - s[1])
                crosses = u[0] * w[1] == u[1] * w[0] and u[0] * w[0] + u[1] * w[1] > 0
            else:
                crosses = geometry.segment_intersection(a, b, c, d) is not None
            if crosses:
                e, f = sorted((e, f), key=self.edge_rank.__getitem__)
                hits.append(((1, self.edge_rank[e], self.edge_rank[f]),
                             ("edges-cross", e, f)))
        return min(hits, key=lambda h: h[0])[1] if hits else None


@dataclass(frozen=True)
class SimplicialMapping:
    """Vertex assignment between two graphs.

    Not validated on construction (negative fixtures need invalid maps);
    use :func:`validate_simplicial` / :meth:`require_valid`.
    """

    source: SimplicialGraph
    target: SimplicialGraph
    assignment: Dict[Vertex, Vertex]

    def totality_violation(self):
        for v in self.source.vertices:
            if v not in self.assignment:
                return ("missing", v)
        for v, w in self.assignment.items():
            if w not in self.target.vertices:
                return ("bad-value", v, w)
        return None

    def edge_violation(self):
        for a, b in self.source.sorted_edges():
            fa, fb = self.assignment[a], self.assignment[b]
            if fa != fb and not self.target.has_edge(fa, fb):
                return (a, b)
        return None

    def require_valid(self) -> "SimplicialMapping":
        bad = self.totality_violation()
        if bad is not None:
            raise GraphError("mapping not total: %r" % (bad,))
        bad = self.edge_violation()
        if bad is not None:
            raise GraphError("edge %r not sent to an edge or a vertex" % (bad,))
        return self

    def compose(self, inner: "SimplicialMapping") -> "SimplicialMapping":
        """self o inner."""
        if inner.target is not self.source and inner.target != self.source:
            raise GraphError("maps are not chainable")
        return SimplicialMapping(
            inner.source, self.target,
            {v: self.assignment[w] for v, w in inner.assignment.items()})


def validate_simplicial(m: SimplicialMapping) -> bool:
    return m.totality_violation() is None and m.edge_violation() is None


def is_surjection(m: SimplicialMapping) -> bool:
    return set(m.assignment[v] for v in m.source.vertices) == set(m.target.vertices)


@dataclass(frozen=True)
class EdgePoint:
    """The point (1-t)a + t b of a geometric realization; a == b means the vertex a."""

    a: Vertex
    b: Vertex
    t: Fraction

    def __post_init__(self):
        if not 0 <= self.t <= 1:
            raise ValueError("parameter outside [0,1]")

    def canonical(self):
        if self.a == self.b or self.t == 0:
            return ("vertex", self.a)
        if self.t == 1:
            return ("vertex", self.b)
        if vkey(self.a) < vkey(self.b):
            return ("edge", self.a, self.b, self.t)
        return ("edge", self.b, self.a, 1 - self.t)

    def __eq__(self, other):
        if not isinstance(other, EdgePoint):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self):
        return hash(self.canonical())

    @staticmethod
    def vertex(v: Vertex) -> "EdgePoint":
        return EdgePoint(v, v, Fraction(0))


def _sub_label(a: Vertex, b: Vertex, tag: str) -> Vertex:
    # (a, b) must already be canonical; tag is "1/3" or "2/3", measured from a
    return ("sub", (a, b), tag)


_SUB_KEY, _KEY_1_3, _KEY_2_3 = vkey("sub"), vkey("1/3"), vkey("2/3")


def subdivide3(g: SimplicialGraph) -> SimplicialGraph:
    """Subdivide each edge into three congruent parts.

    Each new label's key is derived from its edge's ends by the identity in
    :func:`vkey`, so only g's own vertices are keyed by ``vkey``.  On g's
    frame (s, P) the subdivision's is (3s, 3P), with 2A + B and A + 2B at
    the thirds of an edge from A to B, divided by the gcd of the scale and
    every coordinate, which leaves the lcm frame ``build`` would compute.
    """
    keys = {v: vkey(v) for v in g.vertices}
    edges = []
    frame = g.int_frame
    if frame is not None:
        old, pts = frame[1], {v: (3 * x, 3 * y) for v, (x, y) in frame[1].items()}
    for a, b in g.sorted_edges():
        ua, ub = _sub_label(a, b, "1/3"), _sub_label(a, b, "2/3")
        ends = (2, keys[a], keys[b])
        keys[ua], keys[ub] = (2, _SUB_KEY, ends, _KEY_1_3), (2, _SUB_KEY, ends, _KEY_2_3)
        edges.extend([(a, ua), (ua, ub), (ub, b)])
        if frame is not None:
            (ax, ay), (bx, by) = old[a], old[b]
            pts[ua] = (2 * ax + bx, 2 * ay + by)
            pts[ub] = (ax + 2 * bx, ay + 2 * by)
    if frame is not None:
        scale = 3 * frame[0]
        d = gcd(scale, *(c for p in pts.values() for c in p))
        if d > 1:
            pts = {v: (x // d, y // d) for v, (x, y) in pts.items()}
        frame = scale // d, pts
    # the embedding stays consistent: the point set is unchanged
    return SimplicialGraph._from_keys(keys, edges, frame, check_embedding=False)


def lift_map_3(m: SimplicialMapping, source3: SimplicialGraph,
               target3: SimplicialGraph) -> SimplicialMapping:
    """The induced map between the trisection subdivisions ``source3`` and
    ``target3`` of m's source and target.

    Each subdivision vertex is sent to the image of its point under the
    realization of m, which is again a vertex of the subdivided target.
    The target holds the edge (fa, fb) or (fb, fa) in canonical order, and
    the point at t on one is the point at 1 - t on the other.  GraphError,
    as from ``m.require_valid()``, unless m is a total simplicial map: the
    edge check is this loop's own, so it names the same first edge.
    """
    bad = m.totality_violation()
    if bad is not None:
        raise GraphError("mapping not total: %r" % (bad,))
    assign = {v: m.assignment[v] for v in m.source.vertices}
    edges = m.target.edges
    for a, b in m.source.sorted_edges():
        fa, fb = m.assignment[a], m.assignment[b]
        ua, ub = _sub_label(a, b, "1/3"), _sub_label(a, b, "2/3")
        if fa == fb:
            assign[ua] = assign[ub] = fa
        elif (fa, fb) in edges:
            assign[ua], assign[ub] = _sub_label(fa, fb, "1/3"), _sub_label(fa, fb, "2/3")
        elif (fb, fa) in edges:
            assign[ua], assign[ub] = _sub_label(fb, fa, "2/3"), _sub_label(fb, fa, "1/3")
        else:
            raise GraphError("edge %r not sent to an edge or a vertex" % ((a, b),))
    return SimplicialMapping(source3, target3, assign)
