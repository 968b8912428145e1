"""Acceptance suite: one test, hence one pass/fail line, per criterion."""

import json
import os
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from reference import evaluate_realization, from_subdivided, to_subdivided
from test_geometry import region_intersects

from treechains.covers import CoverSystem, ScheduleError
from treechains.diagram import (
    check_commutative,
    coincidence_oracle,
    lift_diagram_3,
    proximity_vertices,
)
from treechains.example1 import check_example1
from treechains.family import build_family_diagram, build_tree, map_sigma, map_tau
from treechains.geometry import (
    RealizedSystem,
    enlarge_taut_family,
    enlargement_disjointness_violation,
    enlargement_nesting_violation,
    family_min_gap_squared,
)
from treechains.serialize import FormatError, instance_from_json
from treechains.simplicial import EdgePoint
from treechains.verify import (
    CONDITIONS,
    VerifyContext,
    generate_instance,
    oracle_trials,
    verify_instance,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def test_criterion_1_family_combinatorics():
    t0 = time.monotonic()
    assert [len(build_tree(4, n).vertices) for n in range(4)] == [8, 11, 14, 17]
    for n in range(4):
        t = build_tree(4, n)
        degs = Counter(t.degree(v) for v in t.vertices)
        if n == 3:
            assert degs[4] == 1 and degs[3] == 0
        else:
            assert degs[3] == 2 and degs[4] == 0
    for k in range(2, 10):
        for n in range(k):
            t = build_tree(k, n)
            assert len(t.vertices) == 3 * n + k + 4
            assert t.is_tree()
    assert time.monotonic() - t0 < 1.0


def test_criterion_2_bonding_map_coincidences():
    t0 = time.monotonic()
    for k in range(2, 10):
        d = build_family_diagram(k)
        assert check_commutative(d)
        for n in range(d.length):
            assert not coincidence_oracle(d.g_row[n], d.f_row[n])
            pts = coincidence_oracle(map_sigma(k, n), map_tau(k, n))
            ends = {EdgePoint.vertex(v) for v in d.levels[n + 1].endpoints()}
            assert len(pts) == 4 and pts == frozenset(ends)
    assert time.monotonic() - t0 < 5.0


def test_criterion_3_trisection_removes_proximity():
    t0 = time.monotonic()
    rng = random.Random(97)
    for k in range(2, 10):
        d = build_family_diagram(k)
        lifted = lift_diagram_3(d)
        for n in range(lifted.length):
            assert not proximity_vertices(lifted.f_row[n], lifted.g_row[n])
        for n in range(d.length):
            edges = d.levels[n + 1].sorted_edges()
            for f, f3 in ((d.f_row[n], lifted.f_row[n]),
                          (d.g_row[n], lifted.g_row[n])):
                for _ in range(500):
                    a, b = edges[rng.randrange(len(edges))]
                    p = EdgePoint(a, b, Fraction(rng.randrange(0, 601), 600))
                    lifted_image = evaluate_realization(f3, to_subdivided(p))
                    assert from_subdivided(lifted_image) == evaluate_realization(f, p)
    assert time.monotonic() - t0 < 10.0


def test_criterion_4_end_to_end_pipeline():
    t0 = time.monotonic()
    for l in range(1, 9):
        report = verify_instance(generate_instance(l))
        assert report.passed, (l, report.first_failure())
        statuses = {r.name: r.status for r in report.results}
        for cond in ("strong-refinement", "D1", "D2", "D2prime", "D3",
                     "taut", "triples", "nerve"):
            assert statuses[cond] == "PASS"
    assert time.monotonic() - t0 < 60.0


def test_criterion_4_verify_l12_within_budget():
    # 1339 cover sets; all-pairs scans of them took about 30 s here
    inst = generate_instance(12)
    t0 = time.monotonic()
    report = verify_instance(inst)
    assert report.passed, report.first_failure()
    assert time.monotonic() - t0 < 30.0


def test_criterion_5_oracle_identity():
    from treechains.covers import sets_intersect
    inst = generate_instance(3)
    system = CoverSystem(inst.diagram, inst.epsilons)
    realized = RealizedSystem(system)
    sets = system.all_sets()
    closures = [realized.region(a).closure() for a in sets]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets[i + 1:], i + 1):
            combinatorial = sets_intersect(system, a, b)
            assert region_intersects(realized.region(a),
                                     realized.region(b)) == combinatorial
            assert region_intersects(closures[i], closures[j]) == combinatorial
    report = oracle_trials(VerifyContext(inst), trials=10000, seed=12)
    assert report["membership_agree"] == 10000
    assert report["map_agree"] == report["map_trials"]


def test_criterion_6_enlargement():
    for l in range(1, 6):
        inst = generate_instance(l)
        realized = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons))
        _, radius_sq = enlarge_taut_family(realized)
        assert enlargement_disjointness_violation(realized, radius_sq) is None
        assert enlargement_nesting_violation(realized, radius_sq) is None
    # hand case: a least gap of one forces the margin m = 1/3
    from test_geometry import spaced_identity_system
    realized = spaced_identity_system()
    assert family_min_gap_squared(realized) == 1
    assert enlarge_taut_family(realized) == (Fraction(1, 9), [Fraction(1, 9), Fraction(1, 36)])


def test_criterion_7_example1_table():
    report = check_example1()
    assert report["total"]
    assert report["image_within_bounds"]
    assert report["block_sizes"] == [32, 5, 45, 1, 14, 5, 29]
    assert report["block_sum"] == 131
    assert report["pass"]


def test_criterion_8_negative_fixtures():
    from test_fixtures import CASES
    for name, condition in CASES:
        with open(os.path.join(FIXTURES, name)) as fh:
            payload = json.load(fh)
        if condition == "schema":
            with pytest.raises((FormatError, ScheduleError)):
                instance_from_json(payload)
            continue
        report = verify_instance(instance_from_json(payload))
        statuses = {r.name: r.status for r in report.results}
        assert statuses[condition] == "FAIL", name
        for earlier in CONDITIONS[:CONDITIONS.index(condition)]:
            assert statuses[earlier] == "PASS", (name, earlier)
