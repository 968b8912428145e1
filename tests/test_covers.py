import random
from fractions import Fraction

import pytest
from reference import k_close

from treechains.covers import (
    CoverSet,
    CoverSystem,
    EpsilonSchedule,
    ScheduleError,
    d1_violation,
    d2_violation,
    d2prime_violation,
    d3_violation,
    first_failing_level_pair,
    nerve,
    nerve_isomorphic_to,
    point_in_cover_set,
    refinement_violation,
    set_contains,
    sets_intersect,
)
from treechains.serialize import Instance
from treechains.simplicial import EdgePoint, GraphError, vkey
from treechains.verify import VerifyContext, generate_instance, verify_instance


def make_system(l):
    inst = generate_instance(l)
    return CoverSystem(inst.diagram, inst.epsilons)


class TestSchedule:
    def test_default_values(self):
        sched = EpsilonSchedule.default(2)
        assert sched.values == (Fraction(3, 4), Fraction(2, 3), Fraction(5, 8))

    def test_rejects_bad_schedules(self):
        with pytest.raises(ScheduleError):
            EpsilonSchedule.build([])
        with pytest.raises(ScheduleError):
            EpsilonSchedule.build([Fraction(1)])
        with pytest.raises(ScheduleError):
            EpsilonSchedule.build([Fraction(3, 4), Fraction(1, 2)])
        with pytest.raises(ScheduleError):
            EpsilonSchedule.build([Fraction(3, 4), Fraction(3, 4)])

    def test_length_must_match_diagram(self):
        inst = generate_instance(2)
        with pytest.raises(ScheduleError):
            CoverSystem(inst.diagram, EpsilonSchedule.default(1))


class TestSystem:
    def test_fibers_partition_deepest_tree(self):
        system = make_system(2)
        for n in range(system.l + 1):
            union = set()
            for a in system.covers[n]:
                assert union.isdisjoint(a.fiber)
                union |= a.fiber
            assert union == set(system.deepest.vertices)

    def test_deepest_fibers_are_singletons(self):
        system = make_system(2)
        assert all(a.fiber == frozenset([a.vertex]) for a in system.covers[-1])

    def test_phi_defaults_to_f_row(self):
        system = make_system(2)
        for n in range(system.l):
            assert system.phi[n] == system.diagram.f_row[n].assignment

    def test_phi_override_must_be_total(self):
        inst = generate_instance(1)
        with pytest.raises(GraphError):
            CoverSystem(inst.diagram, inst.epsilons, [{}])

    def test_build_rejects_proximity_diagram(self):
        from treechains.family import build_family_diagram
        d = build_family_diagram(3)  # unsubdivided: has proximity vertices
        report = verify_instance(Instance(d, EpsilonSchedule.default(d.length)))
        assert report.first_failure() == "proximity-free"


class TestIntersection:
    def test_matches_one_closeness_on_deepest_level(self):
        system = make_system(1)
        sets = system.covers[-1]
        for i, a in enumerate(sets):
            for b in sets[i + 1:]:
                expected = k_close(system.deepest, a.vertex, b.vertex, 1)
                assert sets_intersect(system, a, b) == expected

    def test_distant_stars_disjoint(self):
        system = make_system(1)
        sets = system.covers[-1]
        far = [(a, b) for a in sets for b in sets
               if not k_close(system.deepest, a.vertex, b.vertex, 1)]
        assert far
        a, b = far[0]
        assert not sets_intersect(system, a, b)

    def test_membership_is_tower_fiber(self):
        system = make_system(2)
        for a in system.all_sets():
            tower = system.bond(a.level, system.l)
            assert a.fiber == {w for w in system.deepest.vertices if tower[w] == a.vertex}

    def test_point_membership_half_open(self):
        system = make_system(1)
        a_edge, b_edge = system.deepest.sorted_edges()[0]
        a = system.cover_set(system.l, a_edge)
        eps = a.epsilon
        inside = EdgePoint(a_edge, b_edge, eps - Fraction(1, 100))
        boundary = EdgePoint(a_edge, b_edge, eps)
        assert point_in_cover_set(system, inside, a)
        assert not point_in_cover_set(system, boundary, a)


def test_each_cover_set_is_built_once(monkeypatch):
    built = []
    original = CoverSet.__init__

    def counted(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(CoverSet, "__init__", counted)
    ctx = VerifyContext(generate_instance(4))
    assert verify_instance(ctx.instance, ctx=ctx).passed
    system = ctx.system
    sets = system.all_sets()
    assert len(built) == len(sets) and all(b is a for b, a in zip(built, sets))
    for i, a in enumerate(sets):
        assert a.index == i
        assert system.cover_set(a.level, a.vertex) is a
        if a.level >= 1:
            image = system.phi[a.level - 1][a.vertex]
            assert system.apply_phi(a) is system.cover_set(a.level - 1, image)


class TestConditions:
    def test_strong_refinement_with_witness(self):
        system = make_system(3)
        for j in range(1, system.l + 1):
            for n in range(j):
                assert refinement_violation(system, j, n) is None
                for w, v in system.bond(n, j).items():
                    assert system.cover_set(j, w).fiber <= system.cover_set(n, v).fiber
        with pytest.raises(GraphError):
            refinement_violation(system, 1, 1)

    def test_containment_canonical_witness(self):
        system = make_system(2)
        inner = system.covers[2][0]
        outer = system.cover_set(0, system.bond(0, 2)[inner.vertex])
        assert set_contains(system, outer, inner)
        other = next(a for a in system.covers[0] if a.vertex != outer.vertex)
        assert not set_contains(system, other, inner)
        assert not set_contains(system, inner, outer)

    def test_pattern_conditions_hold_on_generated(self):
        # the scans that verify's D1, D2 and D2prime skip on these instances
        for l in range(1, 7):
            system = make_system(l)
            for j in range(l):
                assert d1_violation(system, j) is None
                assert d3_violation(system, j) is None
                for n in range(j + 1):
                    assert d2_violation(system, j, n) is None
                    assert d2prime_violation(system, j, n) is None

    def test_d3_is_the_j_equals_n_slice_of_d2(self):
        # d3_violation as a scan of its own, over the later partners only
        def later_partners_scan(system, n):
            for i, u_set in enumerate(system.covers[n + 1]):
                img_u = system.apply_phi(u_set)
                for v_set in system.neighbors(u_set, n + 1, i):
                    if not sets_intersect(system, img_u, system.apply_phi(v_set)):
                        return (u_set.vertex, v_set.vertex)
            return None

        # 750 phi tables, each with one to three entries moved to a
        # neighbour of their image
        rng = random.Random(7)
        answers = []
        for l in (2, 3):
            inst = generate_instance(l)
            levels = inst.diagram.levels
            for _ in range(375):
                tables = [dict(inst.diagram.f_row[n].assignment) for n in range(l)]
                for _ in range(rng.randint(1, 3)):
                    n = rng.randrange(l)
                    v = rng.choice(levels[n + 1].sorted_vertices())
                    tables[n][v] = rng.choice(sorted(levels[n].neighbors(tables[n][v]), key=vkey))
                system = CoverSystem(inst.diagram, inst.epsilons, tables)
                d2 = first_failing_level_pair(system, d2_violation)
                for n in range(l):
                    expected = later_partners_scan(system, n)
                    answers.append(expected is None)
                    assert d3_violation(system, n) == expected
                    # the D3 stage is read off D2: a failing slice fails D2
                    # on a pair (j, n') no later than (n, n)
                    if expected is not None:
                        assert d2 is not None and d2[:2] <= (n, n)
        assert True in answers and False in answers

    def test_adjacency_is_the_closed_form(self):
        # the lemma behind verify's D1 and D2 proofs: V of level m and U of
        # level n <= m meet exactly when U = g_{n,m}(x) for some x in the
        # closed star of V in T_m, with g_{n,m} composed here from the
        # g-row's assignments
        for l in range(1, 7):
            inst = generate_instance(l)
            system = CoverSystem(inst.diagram, inst.epsilons)
            levels, g_row = inst.diagram.levels, inst.diagram.g_row
            rows = [set() for _ in system.all_sets()]
            for m in range(l + 1):
                g_nm = {v: v for v in levels[m].vertices}
                for n in range(m, -1, -1):
                    if n < m:
                        g_nm = {v: g_row[n].assignment[w] for v, w in g_nm.items()}
                    for v in levels[m].vertices:
                        i = system.cover_set(m, v).index
                        for x in levels[m].neighbors(v) | {v}:
                            k = system.cover_set(n, g_nm[x]).index
                            rows[i].add(k)
                            rows[k].add(i)
            assert system.adjacency == [tuple(sorted(row)) for row in rows]

    def test_d1_checks_its_level(self):
        system = make_system(2)
        assert d1_violation(system, 1) is None
        for n in (-2, -1, 2, 3):
            with pytest.raises(GraphError):
                d1_violation(system, n)
        # the nerve checks read level n too: 0 <= n <= l
        assert nerve_isomorphic_to(system, 2) and nerve(system, 2).edges
        for n in (-2, -1, 3, 4):
            for check in (nerve, nerve_isomorphic_to):
                with pytest.raises(GraphError):
                    check(system, n)

    def test_d1_fails_with_refinement_witness_as_pattern(self):
        inst = generate_instance(1)
        system = CoverSystem(inst.diagram, inst.epsilons,
                             [dict(inst.diagram.g_row[0].assignment)])
        assert d1_violation(system, 0) is not None


class TestNerve:
    def test_isomorphic_at_every_level(self):
        system = make_system(2)
        for n in range(system.l + 1):
            assert nerve_isomorphic_to(system, n)
            g = nerve(system, n)
            assert g.is_tree()
            assert g == system.diagram.levels[n]
