"""Star covers of the deepest tree, pattern functions, and the combinatorial
condition checkers (refinement, D1, D2, D2', D3, nerve).

Every cover set is represented by its fiber: the set U_n^v is the preimage of
the epsilon-star of v under the realization of the bonding composition down to
level n, and a vertex w of the deepest tree lies in U_n^v exactly when the
composition sends w to v.  All intersection and containment questions reduce
to 1-closeness of fibers and fiber inclusion; the exact geometric counterpart
lives in :mod:`treechains.geometry`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .diagram import TreeDiagram
from .simplicial import EdgePoint, GraphError, vkey


class ScheduleError(ValueError):
    pass


@dataclass(frozen=True)
class EpsilonSchedule:
    """Strictly decreasing star radii with 1 > eps_0 and eps_l > 1/2."""

    values: Tuple[Fraction, ...]

    @staticmethod
    def build(values: Sequence[Fraction]) -> "EpsilonSchedule":
        vals = tuple(Fraction(v) for v in values)
        if not vals:
            raise ScheduleError("empty schedule")
        if not vals[0] < 1:
            raise ScheduleError("eps_0 must be below 1")
        if not vals[-1] > Fraction(1, 2):
            raise ScheduleError("eps_l must exceed 1/2")
        for a, b in zip(vals, vals[1:]):
            if not a > b:
                raise ScheduleError("schedule must be strictly decreasing")
        return EpsilonSchedule(vals)

    @staticmethod
    def default(l: int) -> "EpsilonSchedule":
        # 1/2 + 1/(2(n+2)): strictly decreasing within (1/2, 3/4]
        return EpsilonSchedule.build(
            [Fraction(1, 2) + Fraction(1, 2 * (n + 2)) for n in range(l + 1)])

    @cached_property
    def steps(self) -> int:
        """E: the lcm of the radii's denominators.  Every end of a realized
        interval is 0, eps_n, 1 - eps_n or 1, so all lie on the grid of
        multiples of 1/E."""
        return lcm(*(v.denominator for v in self.values))

    def check_length(self, l: int) -> None:
        """One star radius per level of a diagram of length l."""
        if len(self.values) != l + 1:
            raise ScheduleError("schedule length %d != l+1 = %d" % (len(self.values), l + 1))

    def __getitem__(self, n):
        return self.values[n]


@dataclass(frozen=True)
class CoverSet:
    """U_n^v, stored as the fiber of v inside the vertex set of the deepest
    tree; ``index`` is its position in ``CoverSystem.all_sets()``."""

    level: int
    vertex: object
    fiber: FrozenSet
    epsilon: Fraction
    index: int

    def key(self):
        return (self.level, vkey(self.vertex))


class CoverSystem:
    """All covers and pattern functions generated by a diagram and a schedule.

    ``phi_tables`` may override the tables read off the f-row (used by
    negative fixtures).
    """

    def __init__(self, diagram: TreeDiagram, epsilons: EpsilonSchedule,
                 phi_tables: Optional[List[Dict]] = None):
        l = diagram.length
        epsilons.check_length(l)
        self.diagram = diagram
        self.epsilons = epsilons
        self.l = l
        self.deepest = diagram.levels[-1]

        # towers[n] is the bond g_nl: vertex of T_l -> vertex of T_n
        self._bonds: Dict[Tuple[int, int], Dict] = {}
        towers = [self.bond(n, l) for n in range(l + 1)]

        # every cover set is built here, once, and numbered in all_sets() order
        self.covers: List[List[CoverSet]] = []
        self._sets: List[CoverSet] = []
        self.level_start = [0]
        for n in range(l + 1):
            fibers: Dict = {v: set() for v in diagram.levels[n].vertices}
            for w, v in towers[n].items():
                fibers[v].add(w)
            sets = [CoverSet(n, v, frozenset(fibers[v]), epsilons[n], len(self._sets) + k)
                    for k, v in enumerate(diagram.levels[n].sorted_vertices())]
            self.covers.append(sets)
            self._sets += sets
            self.level_start.append(len(self._sets))

        if phi_tables is None:
            self.phi = [dict(diagram.f_row[n].assignment) for n in range(l)]
        else:
            if len(phi_tables) != l:
                raise GraphError("need %d pattern tables" % l)
            self.phi = [dict(t) for t in phi_tables]
        for n, table in enumerate(self.phi):
            for v in diagram.levels[n + 1].vertices:
                if table.get(v) not in diagram.levels[n].vertices:
                    raise GraphError("pattern table %d not total at %r" % (n, v))

        # _images[i]: the phi-image of set i, for the sets of levels 1..l
        self._images = [None] * self.level_start[1] + [
            self.cover_set(a.level - 1, self.phi[a.level - 1][a.vertex])
            for a in self._sets[self.level_start[1]:]]

        # the intersection graph, built once on the sets' indices: two sets
        # meet exactly when their fibers hold one deepest vertex or the two
        # ends of one deepest edge
        by_level = list(zip(self.level_start, [t.rank for t in diagram.levels], towers))
        ids = {w: [start + rank[tower[w]] for start, rank, tower in by_level]
               for w in self.deepest.vertices}
        rows = [set() for _ in self._sets]
        close = [(w, w) for w in ids] + [p for e in self.deepest.edges for p in (e, e[::-1])]
        for u, w in close:
            for i in ids[u]:
                rows[i].update(ids[w])
        # adjacency[i]: the indices of the sets meeting set i, i among them,
        # ascending; the one store of the intersection graph
        self.adjacency = [tuple(sorted(m)) for m in rows]

    # -- plumbing ---------------------------------------------------------

    def cover_set(self, n: int, v) -> CoverSet:
        return self.covers[n][self.diagram.levels[n].rank[v]]

    def all_sets(self) -> List[CoverSet]:
        return list(self._sets)

    def bond(self, n: int, j: int) -> Dict:
        """g_{nj} = g_n o ... o g_{j-1} as a vertex dictionary (n <= j), built
        once per pair from g_{n+1,j}; g_{jj} is the identity."""
        if not 0 <= n <= j <= self.l:
            raise GraphError("need 0 <= n <= j <= l")
        out = self._bonds.get((n, j))
        if out is None:
            if n == j:
                out = {v: v for v in self.diagram.levels[j].vertices}
            else:
                g = self.diagram.g_row[n].assignment
                out = {v: g[w] for v, w in self.bond(n + 1, j).items()}
            self._bonds[(n, j)] = out
        return out

    def apply_phi(self, a: CoverSet) -> CoverSet:
        if not 1 <= a.level <= self.l:
            raise GraphError("phi is defined on levels 1..l")
        return self._images[a.index]

    def neighbors(self, a: CoverSet, level: int, since: int = 0) -> List[CoverSet]:
        """The sets of covers[level][since:] that meet a, in that order."""
        adj = self.adjacency[a.index]
        lo = bisect_left(adj, self.level_start[level] + since)
        hi = bisect_left(adj, self.level_start[level + 1], lo)
        return [self._sets[i] for i in adj[lo:hi]]


# -- membership and intersection ------------------------------------------


def point_in_cover_set(system: CoverSystem, p: EdgePoint, a: CoverSet) -> bool:
    """Definitional membership of an arbitrary realization point: push p down
    the g-tower and test against the epsilon-star of a.vertex."""
    tower = system.bond(a.level, system.l)
    q = EdgePoint(tower[p.a], tower[p.b], p.t) if tower[p.a] != tower[p.b] \
        else EdgePoint.vertex(tower[p.a])
    c = q.canonical()
    if c[0] == "vertex":
        return c[1] == a.vertex
    _, u, v, t = c
    if a.vertex == u:
        return t < a.epsilon
    if a.vertex == v:
        return 1 - t < a.epsilon
    return False


def sets_intersect(system: CoverSystem, a: CoverSet, b: CoverSet) -> bool:
    """Nonempty intersection: some pair of fiber vertices is 1-close in the
    deepest tree.  Symmetric; closures intersect exactly when the sets do.
    A binary search for b in the ascending adjacency row of a."""
    row = system.adjacency[a.index]
    k = bisect_left(row, b.index)
    return k < len(row) and row[k] == b.index


def set_contains(system: CoverSystem, outer: CoverSet, inner: CoverSet) -> bool:
    """inner (deeper level) contained in outer; equivalent to the bonding map
    sending inner.vertex to outer.vertex, and to closure containment."""
    if inner.level < outer.level:
        return False
    return system.bond(outer.level, inner.level)[inner.vertex] == outer.vertex


# -- condition checkers: each returns a witness tuple or None --------------


def refinement_violation(system: CoverSystem, j: int, n: int):
    """Strong refinement of level n by level j > n, with the canonical witness
    map; checked by fiber inclusion."""
    if not 0 <= n < j <= system.l:
        raise GraphError("need n < j")
    bond = system.bond(n, j)
    for a in system.covers[j]:
        if not a.fiber <= system.cover_set(n, bond[a.vertex]).fiber:
            return (j, a.vertex)
    return None


def d1_violation(system: CoverSystem, n: int):
    """U in level n meets V in level n+1 but phi_n(V) still meets U."""
    if not 0 <= n <= system.l - 1:
        raise GraphError("need 0 <= n <= l-1")
    for v_set in system.covers[n + 1]:
        img = system.apply_phi(v_set)
        for u_set in system.neighbors(v_set, n):
            if sets_intersect(system, img, u_set):
                return (u_set.vertex, v_set.vertex)
    return None


def d2_violation(system: CoverSystem, j: int, n: int):
    """U in level j+1 meets V in level n+1 but the phi-images are disjoint.

    Open question: the paper's definitions are not in this repository, so
    whether D2 ranges over n <= j, as here, or only over n < j cannot be
    checked against them (arXiv 2107.12427).  The range stays n <= j, which
    makes D3 its j = n slice.
    """
    if not 0 <= n <= j <= system.l - 1:
        raise GraphError("need 0 <= n <= j <= l-1")
    for u_set in system.covers[j + 1]:
        img_u = system.apply_phi(u_set)
        for v_set in system.neighbors(u_set, n + 1):
            if not sets_intersect(system, img_u, system.apply_phi(v_set)):
                return (u_set.vertex, v_set.vertex)
    return None


def d2prime_violation(system: CoverSystem, j: int, n: int):
    """cl(U) inside V but phi_j(U) not inside phi_n(V), for U in level j+1 and
    V in level n+1; containments decided by the canonical fiber witness.
    The one V that can contain U is the set of its bond image.  With phi
    read off the f-row every pair follows from the squares ``commutative``
    checks (``verify._d2prime``), so this can fail only on an instance that
    carries its own ``phi`` tables."""
    if not 0 <= n <= j <= system.l - 1:
        raise GraphError("need 0 <= n <= j <= l-1")
    bond = system.bond(n + 1, j + 1)
    for u_set in system.covers[j + 1]:
        v_set = system.cover_set(n + 1, bond[u_set.vertex])
        if not set_contains(system, system.apply_phi(v_set),
                            system.apply_phi(u_set)):
            return (u_set.vertex, v_set.vertex)
    return None


def first_failing_level_pair(system: CoverSystem, violation):
    """The first level pair (j, n) with n <= j < l, j first, on which
    ``violation(system, j, n)`` names a witness, as (j, n, witness); None if
    there is none."""
    for j in range(system.l):
        for n in range(j + 1):
            bad = violation(system, j, n)
            if bad is not None:
                return (j, n, bad)
    return None


def d3_violation(system: CoverSystem, n: int):
    """U, V in level n+1 meet but their phi-images are disjoint: the j = n
    slice of D2, with the same first witness as a scan of the later
    partners only.  The failing relation is symmetric, so a failing partner
    of the least failing U that came before it would fail with an earlier
    U; every failing partner of the least failing U is later, and both
    scans name the same first pair."""
    return d2_violation(system, n, n)


def nerve(system: CoverSystem, n: int):
    """Nerve of level n as a simplicial graph on the vertices of T_n."""
    from .simplicial import SimplicialGraph
    if not 0 <= n <= system.l:
        raise GraphError("need 0 <= n <= l")
    sets = system.covers[n]
    edges = []
    for i, a in enumerate(sets):
        for b in system.neighbors(a, n, i + 1):
            edges.append((a.vertex, b.vertex))
    return SimplicialGraph.build([a.vertex for a in sets], edges)


def nerve_isomorphic_to(system: CoverSystem, n: int) -> bool:
    """The canonical map U_n^v -> v is an isomorphism onto T_n.  The vertex
    sets agree by construction of ``covers[n]``.  Each meeting pair of
    level n, counted once, must be an edge of T_n in either orientation;
    that plus an equal count makes the edge sets equal, with no graph
    built."""
    if not 0 <= n <= system.l:
        raise GraphError("need 0 <= n <= l")
    t = system.diagram.levels[n]
    count = 0
    for i, a in enumerate(system.covers[n]):
        for b in system.neighbors(a, n, i + 1):
            if not t.has_edge(a.vertex, b.vertex):
                return False
            count += 1
    return count == len(t.edges)
