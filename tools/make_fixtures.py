"""Regenerate the checked-in negative fixtures under tests/fixtures.

Each fixture is a minimal mutation of a generated instance, picked so the
verification report fails at one specific condition and passes every earlier
one.  Run from the repository root:

    python3 tools/make_fixtures.py
"""

import copy
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from treechains.diagram import (  # noqa: E402
    TreeDiagram,
    coincidence_free,
    commutativity_violation,
    proximity_vertices,
)
from treechains.serialize import dump_json, instance_from_json  # noqa: E402
from treechains.simplicial import SimplicialMapping, vkey  # noqa: E402
from treechains.verify import (  # noqa: E402
    VerifyContext,
    generate_instance,
    verify_instance,
)

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "fixtures")


def expect(name, payload, condition):
    try:
        inst = instance_from_json(json.loads(json.dumps(payload)))
    except Exception:
        first = "schema"
    else:
        first = verify_instance(inst).first_failure()
    if first != condition:
        raise SystemExit("%s: fails at %r, wanted %r" % (name, first, condition))
    dump_json(payload, os.path.join(OUT, name))
    print("%-28s fails at %s" % (name, condition))


def mutate(diagram, row, n, v, w):
    """The diagram with entry v of map n of the "f" or "g" row set to w."""
    rows = {"f": list(diagram.f_row), "g": list(diagram.g_row)}
    assignment = dict(rows[row][n].assignment)
    assignment[v] = w
    rows[row][n] = SimplicialMapping(diagram.levels[n + 1], diagram.levels[n], assignment)
    return TreeDiagram(diagram.levels, tuple(rows["g"]), tuple(rows["f"]))


def broken_commutativity():
    inst = generate_instance(2)
    d = inst.diagram
    for v in d.levels[2].sorted_vertices():
        for w in d.levels[1].sorted_vertices():
            if w == d.f_row[1].assignment[v]:
                continue
            cand = mutate(d, "f", 1, v, w)
            if cand.well_formed_violation() is not None:
                continue
            if commutativity_violation(cand) is None:
                continue
            inst.diagram = cand
            expect("broken_commutativity.json", inst.to_json(), "commutative")
            return
    raise SystemExit("no commutativity mutation found")


def g_not_simplicial():
    # the first g entry moved to a vertex that leaves one of its edges
    # spanning a non-edge
    inst = generate_instance(1)
    d = inst.diagram
    for v in d.levels[1].sorted_vertices():
        for w in d.levels[0].sorted_vertices():
            cand = mutate(d, "g", 0, v, w)
            if cand.g_row[0].edge_violation() is not None:
                inst.diagram = cand
                expect("g_not_simplicial.json", inst.to_json(), "diagram-well-formed")
                return
    raise SystemExit("no non-simplicial g entry found")


def f_equals_g():
    # f = g coincides everywhere, and with l=1 there is no square to break
    inst = generate_instance(1)
    d = inst.diagram
    inst.diagram = TreeDiagram(d.levels, d.g_row, d.g_row)
    expect("coincidence_free.json", inst.to_json(), "coincidence-free")


def phi_equals_g():
    inst = generate_instance(1)
    inst.phi_tables = [dict(inst.diagram.g_row[0].assignment)]
    expect("phi_equals_g.json", inst.to_json(), "D1")


def phi_edit(name, condition):
    # the first single phi-table entry, moved to a neighbour of its image,
    # whose instance fails first at condition
    inst = generate_instance(2)
    d = inst.diagram
    tables = [dict(f.assignment) for f in d.f_row]
    for n, table in enumerate(tables):
        for v in d.levels[n + 1].sorted_vertices():
            for w in sorted(d.levels[n].neighbors(table[v]), key=vkey):
                inst.phi_tables = [dict(t) for t in tables]
                inst.phi_tables[n][v] = w
                if verify_instance(inst).first_failure() == condition:
                    expect(name, inst.to_json(), condition)
                    return
    raise SystemExit("no phi edit fails at %s" % condition)


def eps_nondecreasing():
    payload = generate_instance(1).to_json()
    payload["epsilon"] = ["3/4", "3/4"]
    expect("eps_nondecreasing.json", payload, "schema")


def eps_short():
    # the loader does not check the schedule's length, so one radius short
    # of l + 1 passes every diagram check and fails when the system is built
    payload = generate_instance(2).to_json()
    payload["epsilon"] = payload["epsilon"][:-1]
    expect("eps_short.json", payload, "system-build")


def proximity_edit():
    inst = generate_instance(1)
    d = inst.diagram
    for v in d.levels[1].sorted_vertices():
        for w in sorted(d.levels[0].vertices, key=vkey):
            if w == d.f_row[0].assignment[v]:
                continue
            cand = mutate(d, "f", 0, v, w)
            if cand.well_formed_violation() is not None:
                continue
            if not coincidence_free(cand.f_row[0], cand.g_row[0]):
                continue
            if not proximity_vertices(cand.f_row[0], cand.g_row[0]):
                continue
            inst.diagram = cand
            expect("proximity_edit.json", inst.to_json(), "proximity-free")
            return
    raise SystemExit("no proximity mutation found")


def non_planar():
    # swapping two deepest-tree points makes the edges into them cross, while
    # every combinatorial condition still holds
    payload = generate_instance(2).to_json()
    coords = payload["diagram"]["levels"][-1]["coords"]
    left, right = (next(e for e in coords if e[0] == v) for v in ([-1, 2], [1, 2]))
    left[1], right[1] = right[1], left[1]
    expect("non_planar.json", payload, "embedding")


def inflated_radius():
    inst = generate_instance(1)
    # a level-0 radius of 3 swallows every gap in a tree of unit edges
    from fractions import Fraction
    inst.enlargement = {"m_sq": Fraction(9),
                        "radius_sq": [Fraction(9), Fraction(9, 4)]}
    expect("inflated_radius.json", inst.to_json(), "enlargement-disjoint")


def nested_radius():
    inst = generate_instance(2)
    # equal radii on levels 1 and 2 keep every disjoint pair apart, but no
    # level-2 set has a strictly smaller radius than the set it nests in
    m_sq = VerifyContext(inst).enlargement[0]
    inst.enlargement = {"m_sq": m_sq, "radius_sq": [m_sq, m_sq / 4, m_sq / 4]}
    expect("nested_radius.json", inst.to_json(), "enlargement-nested")


def main():
    os.makedirs(OUT, exist_ok=True)
    g_not_simplicial()
    broken_commutativity()
    f_equals_g()
    phi_equals_g()
    phi_edit("phi_edit_d2.json", "D2")
    phi_edit("phi_edit_d2prime.json", "D2prime")
    eps_nondecreasing()
    eps_short()
    proximity_edit()
    inflated_radius()
    non_planar()
    nested_radius()


if __name__ == "__main__":
    main()
