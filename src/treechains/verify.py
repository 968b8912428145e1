"""End-to-end pipeline: generation, the ordered condition report, and the
randomized cross-validation oracle."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

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

# verification stages, in evaluation order; a failing stage skips the rest
CONDITIONS = (
    "schema",
    "diagram-well-formed",
    "embedding",
    "commutative",
    "coincidence-free",
    "proximity-free",
    "system-build",
    "strong-refinement",
    "D1",
    "D2",
    "D2prime",
    "D3",
    "taut",
    "triples",
    "nerve",
    "oracle-identity",
    "enlargement-disjoint",
    "enlargement-nested",
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


def default_schedule(l: int) -> EpsilonSchedule:
    return EpsilonSchedule.default(l)


def generate_instance(l: int, epsilons: Optional[EpsilonSchedule] = None) -> Instance:
    """The finite pipeline: family diagram of length l (trees with k = l+1),
    trisected so its rows are proximity-free."""
    if l < 1:
        raise ValueError("l must be at least 1")
    diagram = build_family_diagram(l + 1)
    lifted = lift_diagram_3(diagram)
    eps = epsilons if epsilons is not None else default_schedule(l)
    return Instance(lifted, eps)


class _Runner:
    def __init__(self, report: VerificationReport):
        self.report = report
        self.failed = False

    def run(self, name, fn):
        """fn returns a witness (fail) or None (pass)."""
        if self.failed:
            self.report.results.append(ConditionResult(name, "SKIP"))
            return None
        t0 = time.perf_counter()
        witness = fn()
        dt = time.perf_counter() - t0
        if witness is None:
            self.report.results.append(ConditionResult(name, "PASS", None, dt))
        else:
            self.report.results.append(ConditionResult(name, "FAIL", witness, dt))
            self.failed = True
        return witness


def verify_instance(instance: Instance, check_enlargement: bool = True) -> VerificationReport:
    """Evaluate every condition on combinatorial data and the exact geometric
    oracle; any disagreement between the two routes is itself a failure."""
    report = VerificationReport()
    runner = _Runner(report)
    d = instance.diagram
    l = d.length

    report.results.append(ConditionResult("schema", "PASS"))

    runner.run("diagram-well-formed", d.well_formed_violation)

    def embedding_check():
        for n, g in enumerate(d.levels):
            if not g.is_tree():
                return (n, "not-a-tree")
            if g.coords is not None:
                bad = g.embedding_violation()
                if bad is not None:
                    return (n, bad)
        return None

    runner.run("embedding", embedding_check)
    runner.run("commutative", lambda: commutativity_violation(d))

    def coincidence_check():
        for n in range(l):
            free = coincidence_free(d.f_row[n], d.g_row[n])
            oracle = coincidence_oracle(d.f_row[n], d.g_row[n])
            if free != (not oracle):
                return ("checker-oracle-disagree", n)
            if not free:
                return ("coincidence", n, sorted(p.canonical() for p in oracle)[:3])
        return None

    runner.run("coincidence-free", coincidence_check)

    def proximity_check():
        for n in range(l):
            prox = proximity_vertices(d.f_row[n], d.g_row[n])
            if prox:
                return (n, sorted(prox, key=vkey)[0])
        return None

    runner.run("proximity-free", proximity_check)

    state: Dict = {}

    def build_system():
        try:
            state["system"] = CoverSystem(d, instance.epsilons, instance.phi_tables)
            state["realized"] = geo.RealizedSystem(state["system"])
        except Exception as exc:  # schedule length, bad tables
            return ("build-error", str(exc))
        return None

    runner.run("system-build", build_system)

    def refinement_check():
        system, realized = state["system"], state["realized"]
        for j in range(1, l + 1):
            for n in range(j):
                bad = cv.refinement_violation(system, j, n)
                if bad is not None:
                    return ("fiber", j, n, bad)
        for n in range(l):
            bond = system.bond(n, n + 1)
            for a in system.covers[n + 1]:
                outer = system.cover_set(n, bond[a.vertex])
                if not geo.region_contains(realized.region(outer),
                                           realized.closure(a)):
                    return ("closure", n, a.vertex)
        return None

    runner.run("strong-refinement", refinement_check)

    def d1_check():
        for n in range(l):
            bad = cv.d1_violation(state["system"], n)
            if bad is not None:
                return (n, bad)
        return None

    runner.run("D1", d1_check)

    def d2_check():
        for j in range(l):
            for n in range(j + 1):
                bad = cv.d2_violation(state["system"], j, n)
                if bad is not None:
                    return (j, n, bad)
        return None

    runner.run("D2", d2_check)

    def d2prime_check():
        for j in range(l):
            for n in range(j + 1):
                bad = cv.d2prime_violation(state["system"], j, n)
                if bad is not None:
                    return (j, n, bad)
        return None

    runner.run("D2prime", d2prime_check)

    def d3_check():
        for n in range(l):
            bad = cv.d3_violation(state["system"], n)
            if bad is not None:
                return (n, bad)
        return None

    runner.run("D3", d3_check)

    def route_mismatch(closed):
        """First pair, in all_sets() order, on which the intersection graph
        and the geometric route over the open (or closed) regions disagree,
        as (a, b, combinatorial answer); None if they agree everywhere."""
        system, realized = state["system"], state["realized"]
        sets = system.all_sets()
        pick = realized.closure if closed else realized.region
        found = geo.later_intersecting([pick(a) for a in sets])
        for i, (adj, geo_later) in enumerate(zip(system.adjacency, found)):
            later = {j for j in adj if j > i}
            diff = later.symmetric_difference(geo_later)
            if diff:
                j = min(diff)
                return sets[i], sets[j], j in later
        return None

    def taut_check():
        bad = route_mismatch(closed=True)
        if bad is not None:
            a, b, ci = bad
            return (a.key(), b.key(), ci, not ci)
        return None

    runner.run("taut", taut_check)

    def triples_check():
        system, realized = state["system"], state["realized"]
        for n in range(l + 1):
            for i, a in enumerate(system.covers[n]):
                near = system.neighbors(a, n, i + 1)
                for x, b in enumerate(near):
                    for c in near[x + 1:]:
                        if not cv.sets_intersect(system, b, c):
                            continue
                        ab = geo.region_intersection(realized.region(a),
                                                     realized.region(b))
                        both = geo.region_intersection(ab, realized.region(c))
                        if not both.is_empty():
                            return (n, a.vertex, b.vertex, c.vertex)
        return None

    runner.run("triples", triples_check)

    def nerve_check():
        system = state["system"]
        for n in range(l + 1):
            if not cv.nerve_isomorphic_to(system, n):
                return ("not-isomorphic", n)
            if not cv.nerve(system, n).is_tree():
                return ("not-a-tree", n)
        return None

    runner.run("nerve", nerve_check)

    def oracle_check():
        system, realized = state["system"], state["realized"]
        bad = route_mismatch(closed=False)
        if bad is not None:
            a, b, ci = bad
            return ("open", a.key(), b.key(), ci, not ci)
        for a in system.all_sets():
            ra = realized.region(a)
            if a.fiber == ra.vertex_set:
                continue  # the fiber is the tower preimage, so no vertex differs
            for w in system.deepest.vertices:
                if cv.contains_member(system, w, a) != \
                        ra.contains_point(EdgePoint.vertex(w)):
                    return ("member", a.key(), w)
        for n in range(l + 1):
            if not geo.covers_whole_tree([realized.region(a) for a in system.covers[n]]):
                return ("not-a-cover", n)
        return None

    runner.run("oracle-identity", oracle_check)

    if check_enlargement:
        def enlarge_disjoint():
            realized = state["realized"]
            if instance.enlargement is not None:
                m_sq = instance.enlargement["m_sq"]
                radii = instance.enlargement["radius_sq"]
                if len(radii) != l + 1:
                    return ("bad-radii-length", len(radii))
                enlarged = [geo.EnlargedSet(a.level, a.vertex,
                                            realized.region(a), radii[a.level])
                            for a in state["system"].all_sets()]
            else:
                m_sq = geo.family_min_gap_squared(realized)
                m_sq = m_sq / 9
                enlarged = geo.enlarge_taut_family(realized, m_sq)
            state["enlarged"] = enlarged
            report.metrics["m_sq"] = m_sq
            return geo.enlargement_disjointness_violation(realized, enlarged)

        runner.run("enlargement-disjoint", enlarge_disjoint)
        runner.run("enlargement-nested",
                   lambda: geo.enlargement_nesting_violation(
                       state["realized"], state["enlarged"]))

    if "realized" in state and not runner.failed:
        rho_sq, mesh_sq, decay = geo.compute_rho_and_mesh(state["realized"])
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


def oracle_trials(instance: Instance, trials: int, seed: int) -> dict:
    """Randomized agreement report: membership identity on the realized system
    and checker-vs-oracle identity on random map pairs."""
    rng = random.Random(seed)
    system = CoverSystem(instance.diagram, instance.epsilons, instance.phi_tables)
    realized = geo.RealizedSystem(system)
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
