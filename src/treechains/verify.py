"""End-to-end pipeline: generation, the ordered condition report, and the
randomized cross-validation oracle."""

from __future__ import annotations

import random
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import covers as cv
from . import geometry as geo
from .covers import CoverSystem, EpsilonSchedule
from .diagram import (
    coincidence_free,
    coincidence_oracle,
    commutativity_violation,
    lift_diagram_3,
    proximity_vertices,
)
from .family import build_family_diagram
from .serialize import Instance, fraction_to_json
from .simplicial import (
    EdgePoint,
    SimplicialGraph,
    SimplicialMapping,
    vkey,
)


@dataclass
class ConditionResult:
    name: str
    status: str  # PASS / FAIL / SKIP
    witness: object = None
    seconds: float = 0.0


@dataclass
class VerificationReport:
    results: List[ConditionResult] = field(default_factory=list)
    metrics: Dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.results) and all(r.status != "FAIL" for r in self.results)

    def first_failure(self) -> Optional[str]:
        for r in self.results:
            if r.status == "FAIL":
                return r.name
        return None

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            line = "%-22s %s" % (r.name, r.status)
            if r.status == "FAIL" and r.witness is not None:
                line += "  witness=%s" % _metric_text(r.witness)
            lines.append(line)
        for key in sorted(self.metrics):
            lines.append("# %s = %s" % (key, _metric_text(self.metrics[key])))
        lines.append("overall                %s" % ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _metric_text(value) -> str:
    """Rationals as p/q, also inside lists and tuples; anything else as repr."""
    if isinstance(value, Fraction):
        return fraction_to_json(value)
    if isinstance(value, list):
        return "[%s]" % ", ".join(_metric_text(v) for v in value)
    if isinstance(value, tuple):
        inner = ", ".join(_metric_text(v) for v in value)
        return "(%s,)" % inner if len(value) == 1 else "(%s)" % inner
    return repr(value)


def generate_instance(l: int, epsilons: Optional[EpsilonSchedule] = None) -> Instance:
    """The finite pipeline: family diagram of length l (trees with k = l+1),
    trisected so its rows are proximity-free."""
    if l < 1:
        raise ValueError("l must be at least 1")
    diagram = build_family_diagram(l + 1)
    lifted = lift_diagram_3(diagram)
    eps = epsilons if epsilons is not None else EpsilonSchedule.default(l)
    eps.check_length(l)
    return Instance(lifted, eps)


class VerifyContext:
    """One instance and the structures built from it, each built on first use
    and then shared by every stage, and by ``generate`` for its output.
    ``metrics`` holds what a stage measures for the report (``m_sq``)."""

    def __init__(self, instance: Instance):
        self.instance = instance
        self.diagram = instance.diagram
        self.l = instance.diagram.length
        self.metrics: Dict = {}

    @cached_property
    def system(self) -> CoverSystem:
        inst = self.instance
        return CoverSystem(inst.diagram, inst.epsilons, inst.phi_tables)

    @cached_property
    def realized(self) -> geo.RealizedSystem:
        return geo.RealizedSystem(self.system)

    @cached_property
    def enlargement(self) -> Tuple[Fraction, List[Fraction]]:
        """(m_sq, radius_sq), the margin and one squared radius per level:
        the instance's own when it has them, else the taut family's."""
        own = self.instance.enlargement
        if own is not None:
            return own["m_sq"], own["radius_sq"]
        return geo.enlarge_taut_family(self.realized)


# -- the stages: each takes the context and returns a witness, or None ------


def _well_formed(ctx: VerifyContext):
    return ctx.diagram.well_formed_violation()


def _embedding(ctx: VerifyContext):
    for n, g in enumerate(ctx.diagram.levels):
        if not g.is_tree():
            return (n, "not-a-tree")
        if g.int_frame is not None:
            bad = g.embedding_violation()
            if bad is not None:
                return (n, bad)
    return None


def _commutative(ctx: VerifyContext):
    return commutativity_violation(ctx.diagram)


def _coincidence_free(ctx: VerifyContext):
    d = ctx.diagram
    for n in range(ctx.l):
        free = coincidence_free(d.f_row[n], d.g_row[n])
        oracle = coincidence_oracle(d.f_row[n], d.g_row[n])
        if free != (not oracle):
            return ("checker-oracle-disagree", n)
        if not free:
            points = sorted((p.canonical() for p in oracle), key=_canonical_key)
            return ("coincidence", n, points[:3])
    return None


def _canonical_key(c):
    # ("vertex", v) or ("edge", a, b, t): labels mix ints, strings and tuples
    return (c[0],) + tuple(vkey(v) for v in c[1:3]) + c[3:]


def _proximity_free(ctx: VerifyContext):
    d = ctx.diagram
    for n in range(ctx.l):
        prox = proximity_vertices(d.f_row[n], d.g_row[n])
        if prox:
            return (n, sorted(prox, key=vkey)[0])
    return None


def _system_build(ctx: VerifyContext):
    try:
        ctx.realized  # builds the system first
    except Exception as exc:  # schedule length, bad tables
        return ("build-error", str(exc))
    return None


def _strong_refinement(ctx: VerifyContext):
    """Closure containment along each bond.  Fiber inclusion holds by
    construction: a fiber is a preimage under bond(j, l), and bond(n, l),
    built as g_n o bond(n + 1, l), is bond(n, j) o bond(j, l).  The closure
    check reads each realized region and the closure it derives
    (``SegmentRegion.closure``).  On a realization of the schedule it holds
    too: g_n, linear on edges, maps the closed eps_{n+1}-star of w into the
    open eps_n-star of g_n(w), as eps is strictly decreasing.  The shrunk
    level-1 region of ``test_nesting_witness_matches_all_pairs`` fails it."""
    system, realized = ctx.system, ctx.realized
    for n in range(ctx.l):
        bond = system.bond(n, n + 1)
        for a in system.covers[n + 1]:
            outer = system.cover_set(n, bond[a.vertex])
            if not geo.region_contains(realized.region(outer), realized.region(a).closure()):
                return ("closure", n, a.vertex)
    return None


def _d1(ctx: VerifyContext):
    """Scanned only on carried ``phi`` tables.  With phi read off the f-row
    it holds, by the closed form of the intersection graph: a set V of
    level m and a set U of level n <= m meet exactly when U = g_{n,m}(x)
    for some x in the closed star of V in T_m (the fibers meet in a deepest
    vertex or edge, and a simplicial surjection between trees, which
    ``diagram-well-formed`` and ``embedding`` make every bond, is onto
    edges; ``test_adjacency_is_the_closed_form``).  Let V of level n+1 meet
    U of level n: U = g_n(x), x in the closed star of V, so U is g_n(V) or
    next to it, as g_n is simplicial.  ``proximity-free`` puts f_n(V) at
    distance >= 3 from g_n(V), so U is at distance >= 2 from phi_n(V) =
    f_n(V), and two sets of one level meet only when their vertices are
    equal or adjacent."""
    if ctx.instance.phi_tables is None:
        return None
    for n in range(ctx.l):
        bad = cv.d1_violation(ctx.system, n)
        if bad is not None:
            return (n, bad)
    return None


def _d2(ctx: VerifyContext):
    """Scanned only on carried ``phi`` tables.  With phi read off the f-row
    it holds: let U of level j+1 meet V of level n+1, n <= j.  By the
    closed form (``_d1``), V = g_{n+1,j+1}(x) with x in the closed star of
    U.  Pasting the squares ``commutative`` checks (``_d2prime``) gives
    phi_n(V) = g_{n,j}(f_j(x)); f_j is simplicial, so f_j(x) is in the
    closed star of f_j(U) = phi_j(U), and by the closed form phi_j(U)
    meets phi_n(V)."""
    if ctx.instance.phi_tables is None:
        return None
    return cv.first_failing_level_pair(ctx.system, cv.d2_violation)


def _d2prime(ctx: VerifyContext):
    """Scanned only on carried ``phi`` tables.  ``d2prime_violation``
    decides C(j, n): g_{n,j} phi_j = phi_n g_{n+1,j+1} on T_{j+1}.  C(j, j)
    holds (the bond is the identity), and C(j, n) for n < j follows from
    the consecutive squares by pasting: g_{n,j} phi_j = g_{n,j-1} g_{j-1}
    phi_j = g_{n,j-1} phi_{j-1} g_j = phi_n g_{n+1,j+1}.  With phi read
    off the f-row the consecutive square C(j, j - 1) is f_{j-1} g_j =
    g_{j-1} f_j, which ``commutative`` checks, so every pair holds."""
    if ctx.instance.phi_tables is None:
        return None
    return cv.first_failing_level_pair(ctx.system, cv.d2prime_violation)


def _d3(ctx: VerifyContext):
    """Decided by D2: ``d3_violation(n)`` is ``d2_violation(n, n)``, a pair
    that D2 has decided before this stage runs, by its scan on carried
    ``phi`` tables and by its proof otherwise (a failing D2 skips it)."""
    return None


def _taut(ctx: VerifyContext):
    """The intersection graph against the geometric route over the regions:
    the first pair, in all_sets() order, on which they disagree, as (key a,
    key b, combinatorial answer, geometric answer).

    Tautness asks that disjoint members have disjoint closures, and the
    open regions meet exactly where their closures do: on an edge (u, w)
    sets holding u and w have codes (0, 2eE - 1) and (2E - 2e'E + 1, 2E),
    which overlap as e, e' > 1/2 on the grid give 2eE + 2e'E >= 2E + 2;
    sets holding one end both hold it; a region and its closure hold the
    same vertices, the fiber, as e < 1.  At e = 1/2 they differ
    (``test_routes_differ_at_epsilon_one_half``)."""
    system, realized = ctx.system, ctx.realized
    sets = system.all_sets()
    found = geo.later_intersecting([realized.region(a) for a in sets])
    for i, (adj, geo_later) in enumerate(zip(system.adjacency, found)):
        later = adj[bisect_right(adj, i):]
        if later != tuple(geo_later):
            j = min(set(later).symmetric_difference(geo_later))
            ci = j in later
            return (sets[i].key(), sets[j].key(), ci, not ci)
    return None


def _triples(ctx: VerifyContext):
    """No point lies in three sets of one level.  Three sets share a point
    only if they meet pairwise, so only the triangles of the intersection
    graph are tested.

    Implied by the stages before it: a level's sets are unions of eps-stars
    at the vertices of disjoint fibers, and with eps_0 < 1 the star of a
    deepest vertex holds that vertex and points of its own edges only.  So
    a vertex lies in one set of a level and a point inside an edge in at
    most the two sets holding its ends.
    """
    system, realized = ctx.system, ctx.realized
    for n in range(ctx.l + 1):
        for i, a in enumerate(system.covers[n]):
            near = system.neighbors(a, n, i + 1)
            for x, b in enumerate(near):
                for c in near[x + 1:]:
                    if cv.sets_intersect(system, b, c) and geo.regions_share_point(
                            [realized.region(s) for s in (a, b, c)]):
                        return (n, a.vertex, b.vertex, c.vertex)
    return None


def _nerve(ctx: VerifyContext):
    """The nerve of each level has T_n's vertices and edges.  It is then a
    tree with no test of its own: ``embedding`` found every T_n a tree.
    The built graph passes: the fibers of one level are disjoint, so two of
    its sets meet only across a deepest edge, which bond(n, l) sends to an
    edge of T_n, and a simplicial surjection between trees is onto edges.
    ``test_extra_meeting_pair_fails_nerve`` fails it on a tampered graph."""
    for n in range(ctx.l + 1):
        if not cv.nerve_isomorphic_to(ctx.system, n):
            return ("not-isomorphic", n)
    return None


def _oracle_identity(ctx: VerifyContext):
    """Membership against the fibers, and cover.  ``taut`` has decided the
    open regions' pairs: its sweep reads them."""
    system, realized = ctx.system, ctx.realized
    for a in system.all_sets():
        wrong = a.fiber ^ realized.region(a).vertex_set
        if wrong:
            return ("member", a.key(), min(wrong, key=vkey))
    for n in range(ctx.l + 1):
        if not geo.covers_whole_tree([realized.region(a) for a in system.covers[n]]):
            return ("not-a-cover", n)
    return None


def _enlargement_disjoint(ctx: VerifyContext):
    """The instance's own radii, or the taut family's.  The taut family's
    cannot fail here (see enlargement_disjointness_violation: d^2 >= 9 m_sq
    > 4 m_sq >= (r_U + r_V)^2 for disjoint U, V), so only carried radii are
    scanned."""
    own = ctx.instance.enlargement
    if own is not None and len(own["radius_sq"]) != ctx.l + 1:
        return ("bad-radii-length", len(own["radius_sq"]))
    m_sq, radius_sq = ctx.enlargement
    ctx.metrics["m_sq"] = m_sq
    if own is None:
        return None
    return geo.enlargement_disjointness_violation(ctx.realized, radius_sq)


def _enlargement_nested(ctx: VerifyContext):
    return geo.enlargement_nesting_violation(ctx.realized, ctx.enlargement[1])


# verification stages, in evaluation order; a failing stage skips the rest
STAGES = (
    ("diagram-well-formed", _well_formed),
    ("embedding", _embedding),
    ("commutative", _commutative),
    ("coincidence-free", _coincidence_free),
    ("proximity-free", _proximity_free),
    ("system-build", _system_build),
    ("strong-refinement", _strong_refinement),
    ("D1", _d1),
    ("D2", _d2),
    ("D2prime", _d2prime),
    ("D3", _d3),
    ("taut", _taut),
    ("triples", _triples),
    ("nerve", _nerve),
    ("oracle-identity", _oracle_identity),
    ("enlargement-disjoint", _enlargement_disjoint),
    ("enlargement-nested", _enlargement_nested),
)

# "schema" is decided by the loader: an Instance has passed it
CONDITIONS = ("schema",) + tuple(name for name, _ in STAGES)


def verify_instance(instance: Instance,
                    ctx: Optional[VerifyContext] = None) -> VerificationReport:
    """Evaluate every condition on combinatorial data and the exact geometric
    oracle; any disagreement between the two routes is itself a failure.
    A given ``ctx`` (of this instance) keeps what the stages build."""
    if ctx is None:
        ctx = VerifyContext(instance)
    report = VerificationReport(metrics=ctx.metrics)
    report.results.append(ConditionResult("schema", "PASS"))
    failed = False
    for name, check in STAGES:
        if failed:
            report.results.append(ConditionResult(name, "SKIP"))
            continue
        t0 = time.perf_counter()
        witness = check(ctx)
        dt = time.perf_counter() - t0
        failed = witness is not None
        report.results.append(ConditionResult(name, "FAIL" if failed else "PASS",
                                              witness, dt))
    if not failed:
        rho_sq, mesh_sq, decay = geo.compute_rho_and_mesh(ctx.realized)
        report.metrics["rho_sq"] = rho_sq
        report.metrics["mesh_sq"] = mesh_sq
        report.metrics["mesh_below_rho_decay"] = decay
    return report


# -- randomized cross-validation ------------------------------------------


def random_tree(rng: random.Random, n_vertices: int) -> SimplicialGraph:
    edges = [(rng.randrange(i), i) for i in range(1, n_vertices)]
    return SimplicialGraph.build(range(n_vertices), edges)


def random_simplicial_map(rng: random.Random, source: SimplicialGraph,
                          target: SimplicialGraph) -> SimplicialMapping:
    """BFS assignment: each child lands on the parent's image or one of its
    neighbors, so the edge condition holds by construction."""
    order = source.sorted_vertices()
    root = order[0]
    assign = {root: rng.choice(target.sorted_vertices())}
    stack = [root]
    seen = {root}
    while stack:
        v = stack.pop()
        for w in sorted(source.neighbors(v), key=vkey):
            if w in seen:
                continue
            seen.add(w)
            choices = [assign[v]] + sorted(target.neighbors(assign[v]), key=vkey)
            assign[w] = rng.choice(choices)
            stack.append(w)
    return SimplicialMapping(source, target, assign)


def oracle_trials(ctx: VerifyContext, trials: int, seed: int) -> dict:
    """Randomized agreement report: membership identity on the realized system
    of ``ctx`` and checker-vs-oracle identity on random map pairs."""
    rng = random.Random(seed)
    system, realized = ctx.system, ctx.realized
    edges = system.deepest.sorted_edges()
    sets = system.all_sets()
    member_agree = 0
    for _ in range(trials):
        a, b = edges[rng.randrange(len(edges))]
        t = Fraction(rng.randrange(0, 3000 + 1), 3000)
        p = EdgePoint(a, b, t)
        target = sets[rng.randrange(len(sets))]
        lhs = cv.point_in_cover_set(system, p, target)
        rhs = realized.region(target).contains_point(p)
        if lhs == rhs:
            member_agree += 1
    map_agree = 0
    map_trials = 200
    for _ in range(map_trials):
        src = random_tree(rng, rng.randrange(2, 11))
        dst = random_tree(rng, rng.randrange(2, 11))
        f = random_simplicial_map(rng, src, dst)
        g = random_simplicial_map(rng, src, dst)
        if coincidence_free(f, g) == (not coincidence_oracle(f, g)):
            map_agree += 1
    return {
        "trials": trials,
        "membership_agree": member_agree,
        "map_trials": map_trials,
        "map_agree": map_agree,
        "pass": member_agree == trials and map_agree == map_trials,
    }
