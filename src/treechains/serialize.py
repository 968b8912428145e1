"""JSON serialization for graphs, diagrams, cover systems, and instances.

Vertices serialize as [side, level] integer pairs or ["sub", [u, v], "1/3"]
tags for subdivision vertices; rationals as "p/q" strings.  Round-tripping an
instance file is the identity on its canonical form.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional

from .covers import CoverSystem, EpsilonSchedule
from .diagram import TreeDiagram
from .simplicial import SimplicialGraph, SimplicialMapping, vkey

SCHEMA_VERSION = 1


class FormatError(ValueError):
    pass


def fraction_to_json(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _is_int(x) -> bool:
    """A JSON integer; true and false are not, though Python's bool is an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def fraction_from_json(s) -> Fraction:
    if _is_int(s):
        return Fraction(s)
    if isinstance(s, str) and "/" in s:
        num, den = s.split("/", 1)
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError):
            pass
    raise FormatError("not a rational: %r" % (s,))


def _field(obj, key: str, kind: type):
    """obj[key], checked to be present and of the given JSON type."""
    if not isinstance(obj, dict):
        raise FormatError("expected an object with %r, got a %s" % (key, type(obj).__name__))
    if key not in obj:
        raise FormatError("missing field %r" % (key,))
    if not isinstance(obj[key], kind):
        raise FormatError("field %r must be a %s" % (key, kind.__name__))
    return obj[key]


def _pair(obj) -> list:
    if not isinstance(obj, list) or len(obj) != 2:
        raise FormatError("expected a pair, got %r" % (obj,))
    return obj


def vertex_to_json(v):
    if isinstance(v, tuple):
        if len(v) == 3 and v[0] == "sub":
            (a, b), t = v[1], v[2]
            return ["sub", [vertex_to_json(a), vertex_to_json(b)], t]
        if len(v) == 2 and isinstance(v[0], int) and isinstance(v[1], int):
            return [v[0], v[1]]
        raise FormatError("unsupported vertex label %r" % (v,))
    if isinstance(v, (int, str)):
        return v
    raise FormatError("unsupported vertex label %r" % (v,))


def vertex_from_json(obj):
    if isinstance(obj, list):
        if len(obj) == 3 and obj[0] == "sub":
            a, b = _pair(obj[1])
            if obj[2] not in ("1/3", "2/3"):
                raise FormatError("bad subdivision tag %r" % (obj[2],))
            return ("sub", (vertex_from_json(a), vertex_from_json(b)), obj[2])
        if len(obj) == 2 and all(map(_is_int, obj)):
            return (obj[0], obj[1])
        raise FormatError("unsupported vertex encoding %r" % (obj,))
    if _is_int(obj) or isinstance(obj, str):
        return obj
    raise FormatError("unsupported vertex encoding %r" % (obj,))


def graph_to_json(g: SimplicialGraph) -> dict:
    out = {
        "vertices": [vertex_to_json(v) for v in g.sorted_vertices()],
        "edges": [[vertex_to_json(a), vertex_to_json(b)] for a, b in g.sorted_edges()],
    }
    if g.coords is not None:
        out["coords"] = [
            [vertex_to_json(v), [fraction_to_json(g.coords[v][0]),
                                 fraction_to_json(g.coords[v][1])]]
            for v in g.sorted_vertices()]
    return out


def graph_from_json(obj: dict) -> SimplicialGraph:
    vertices = [vertex_from_json(v) for v in _field(obj, "vertices", list)]
    edges = [(vertex_from_json(a), vertex_from_json(b))
             for a, b in map(_pair, _field(obj, "edges", list))]
    coords = None
    if "coords" in obj:
        coords = {}
        for v, xy in map(_pair, _field(obj, "coords", list)):
            x, y = _pair(xy)
            coords[vertex_from_json(v)] = (fraction_from_json(x), fraction_from_json(y))
        if set(coords) != set(vertices):
            raise FormatError("coordinates do not match the vertices")
    # a bad embedding fails the `embedding` stage, it is not a load error
    return SimplicialGraph.build(vertices, edges, coords, False)


def assignment_to_json(assignment: Dict) -> list:
    return [[vertex_to_json(v), vertex_to_json(w)]
            for v, w in sorted(assignment.items(), key=lambda kv: vkey(kv[0]))]


def assignment_from_json(obj: list) -> Dict:
    if not isinstance(obj, list):
        raise FormatError("an assignment must be a list of pairs")
    return {vertex_from_json(v): vertex_from_json(w) for v, w in map(_pair, obj)}


def diagram_to_json(d: TreeDiagram) -> dict:
    return {
        "levels": [graph_to_json(g) for g in d.levels],
        "g_row": [assignment_to_json(m.assignment) for m in d.g_row],
        "f_row": [assignment_to_json(m.assignment) for m in d.f_row],
    }


def diagram_from_json(obj: dict) -> TreeDiagram:
    levels = [graph_from_json(g) for g in _field(obj, "levels", list)]
    if len(_field(obj, "g_row", list)) != len(levels) - 1 or \
            len(_field(obj, "f_row", list)) != len(levels) - 1:
        raise FormatError("row length does not match level count")
    g_row = tuple(SimplicialMapping(levels[n + 1], levels[n],
                                    assignment_from_json(obj["g_row"][n]))
                  for n in range(len(levels) - 1))
    f_row = tuple(SimplicialMapping(levels[n + 1], levels[n],
                                    assignment_from_json(obj["f_row"][n]))
                  for n in range(len(levels) - 1))
    return TreeDiagram(tuple(levels), g_row, f_row)


def instance_to_json(diagram: TreeDiagram, epsilons: EpsilonSchedule,
                     phi_tables: Optional[List[Dict]] = None,
                     enlargement: Optional[dict] = None) -> dict:
    out = {
        "schema": SCHEMA_VERSION,
        "epsilon": [fraction_to_json(e) for e in epsilons.values],
        "diagram": diagram_to_json(diagram),
    }
    if phi_tables is not None:
        out["phi"] = [assignment_to_json(t) for t in phi_tables]
    if enlargement is not None:
        out["enlargement"] = enlargement_to_json(enlargement["m_sq"],
                                                 enlargement["radius_sq"])
    return out


def enlargement_to_json(m_sq: Fraction, radius_sq: List[Fraction]) -> dict:
    return {"m_sq": fraction_to_json(m_sq),
            "radius_sq": [fraction_to_json(r) for r in radius_sq]}


class Instance:
    """Parsed instance bundle: diagram + schedule + optional overrides."""

    def __init__(self, diagram: TreeDiagram, epsilons: EpsilonSchedule,
                 phi_tables: Optional[List[Dict]] = None,
                 enlargement: Optional[dict] = None):
        self.diagram = diagram
        self.epsilons = epsilons
        self.phi_tables = phi_tables
        self.enlargement = enlargement

    def to_json(self) -> dict:
        return instance_to_json(self.diagram, self.epsilons,
                                self.phi_tables, self.enlargement)


def instance_from_json(obj: dict) -> Instance:
    if not isinstance(obj, dict):
        raise FormatError("an instance must be a JSON object")
    if not _is_int(obj.get("schema")) or obj["schema"] != SCHEMA_VERSION:
        raise FormatError("unsupported schema %r" % (obj.get("schema"),))
    epsilons = EpsilonSchedule.build(
        [fraction_from_json(e) for e in _field(obj, "epsilon", list)])
    diagram = diagram_from_json(_field(obj, "diagram", dict))
    phi = None
    if "phi" in obj:
        phi = [assignment_from_json(t) for t in _field(obj, "phi", list)]
    enlargement = None
    if "enlargement" in obj:
        enl = _field(obj, "enlargement", dict)
        enlargement = {
            "m_sq": fraction_from_json(enl.get("m_sq")),
            "radius_sq": [fraction_from_json(r) for r in _field(enl, "radius_sq", list)],
        }
        if min(enlargement["radius_sq"] + [enlargement["m_sq"]]) < 0:
            raise FormatError("enlargement squares must not be negative")
    return Instance(diagram, epsilons, phi, enlargement)


def load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_json(json.load(fh))


# the JSON text of each scalar, by exact type: a bool is not written as an int
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                bool: lambda b: "true" if b else "false"}


def write_json(obj, fh) -> None:
    """Write obj to fh as json.dump(obj, fh, indent=1, sort_keys=True) would,
    without the stdlib's pure-Python indented encoder.  Only dicts with str
    keys, lists, str, int and bool are JSON here; anything else raises
    TypeError.  Pieces go straight to fh, so no document is ever held whole."""
    write = fh.write
    breaks = ["\n"]  # breaks[d]: a newline and the indent of depth d

    def emit(o, depth, lead):  # lead, then o, whose items sit at depth + 1
        text = _SCALAR_TEXT.get(type(o))
        if text is not None:
            write(lead + text(o))
            return
        kind = type(o)
        if kind is not list and kind is not dict:
            raise TypeError("cannot write a %s as JSON" % kind.__name__)
        if not o:
            write(lead + ("[]" if kind is list else "{}"))
            return
        if len(breaks) == depth + 1:
            breaks.append(breaks[-1] + " ")
        inner, sep = breaks[depth + 1], "," + breaks[depth + 1]
        if kind is list:
            texts = [_SCALAR_TEXT.get(type(x)) for x in o]
            if None not in texts:
                write(lead + "[" + inner + sep.join([t(x) for t, x in zip(texts, o)])
                      + breaks[depth] + "]")
                return
            first = lead + "[" + inner
            for x in o:
                emit(x, depth + 1, first)
                first = sep
            write(breaks[depth] + "]")
        else:  # encode_basestring_ascii raises TypeError on a key that is no str
            first = lead + "{" + inner
            for key in sorted(o):
                emit(o[key], depth + 1, first + encode_basestring_ascii(key) + ": ")
                first = sep
            write(breaks[depth] + "}")

    emit(obj, 0, "")


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(obj, fh)
        fh.write("\n")


def system_to_json(system: CoverSystem) -> dict:
    """Fibers and pattern tables of a built system (derived data).

    Output files label covers 1..l+1; in-memory levels are 0-based.
    """
    return {
        "schema": SCHEMA_VERSION,
        "epsilon": [fraction_to_json(e) for e in system.epsilons.values],
        "levels": [
            {
                "level": n + 1,
                "sets": [
                    {"vertex": vertex_to_json(a.vertex),
                     "fiber": [vertex_to_json(w) for w in sorted(a.fiber, key=vkey)]}
                    for a in system.covers[n]
                ],
            }
            for n in range(system.l + 1)
        ],
        "phi": [assignment_to_json(t) for t in system.phi],
    }


def regions_to_json(realized) -> dict:
    """Interval dump of every realized cover set; levels labeled 1-based."""
    out = {"schema": SCHEMA_VERSION, "sets": []}
    for a in realized.system.all_sets():
        r = realized.region(a)
        pieces = r.pieces
        out["sets"].append({
            "level": a.level + 1,
            "vertex": vertex_to_json(a.vertex),
            "pieces": [
                [[vertex_to_json(e[0]), vertex_to_json(e[1])],
                 [[fraction_to_json(lo), fraction_to_json(hi), lc, hc]
                  for lo, hi, lc, hc in pieces[e]]]
                for e in r.sorted_edges()
            ],
        })
    return out
