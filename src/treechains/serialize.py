"""JSON serialization for graphs, diagrams, cover systems, and instances.

Vertices serialize as [side, level] integer pairs or ["sub", [u, v], "1/3"]
tags for subdivision vertices; rationals as "p/q" strings.  Round-tripping an
instance file is the identity on its canonical form.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from typing import Dict, List, Optional

from .covers import CoverSystem, EpsilonSchedule
from .diagram import TreeDiagram
from .simplicial import _KEY_1_3, _KEY_2_3, _SUB_KEY, SimplicialGraph, SimplicialMapping, vkey

SCHEMA_VERSION = 1


class FormatError(ValueError):
    pass


def fraction_to_json(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")


def _is_int(x) -> bool:
    """A JSON integer; true and false are not, though Python's bool is an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def fraction_from_json(s) -> Fraction:
    """A JSON integer, or the text "p/q" in ASCII digits with an optional
    minus on p and q >= 1; anything else, such as a space, a sign on q, a
    plus or an underscore that int() would take, is not a rational."""
    if _is_int(s):
        return Fraction(s)
    if isinstance(s, str) and _RATIONAL.fullmatch(s):
        num, den = s.split("/")
        den = int(den)
        if den:
            return Fraction(int(num), den)
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


class LabelTable(dict):
    """label -> (vkey, JSON form, guard) for one document: each label is
    ordered and converted once.  A document shares the JSON lists of its
    labels, so none of them may be changed in place.  A label is written
    only when ``vertex_from_json`` reads it back: a bool is not an int, even
    where == (True == 1) finds an entry, and a tag is "1/3" or "2/3".  The
    guard is the entry's label if it holds an int 0 or 1, else None."""

    def __missing__(self, v):
        if (isinstance(v, tuple) and len(v) == 3 and v[0] == "sub"
                and isinstance(v[1], tuple) and len(v[1]) == 2 and v[2] in ("1/3", "2/3")):
            (a, b), t = v[1], v[2]
            js = ["sub", [self.json(a), self.json(b)], t]
            (ka, _, ga), (kb, _, gb) = self[a], self[b]  # vkey(v) by the identity in vkey
            key = (2, _SUB_KEY, (2, ka, kb), _KEY_1_3 if t == "1/3" else _KEY_2_3)
            risky = ga is not None or gb is not None
        elif isinstance(v, tuple) and len(v) == 2 and type(v[0]) is int and type(v[1]) is int:
            key, js, risky = vkey(v), [v[0], v[1]], v[0] in (0, 1) or v[1] in (0, 1)
        elif _is_int(v) or isinstance(v, str):
            key, js, risky = vkey(v), v, v in (0, 1)
        else:
            raise FormatError("unsupported vertex label %r" % (v,))
        self[v] = (key, js, v if risky else None)
        return self[v]

    def json(self, v):
        _, js, label = self[v]
        if label is v or label is None or _no_bool(v):
            return js
        raise FormatError("unsupported vertex label %r" % (v,))


def _no_bool(v) -> bool:
    """For v equal to a valid label: whether it holds no bool (True == 1)."""
    if type(v) is not tuple:
        return type(v) is not bool
    if len(v) == 2:
        return type(v[0]) is int is type(v[1])
    return _no_bool(v[1][0]) and _no_bool(v[1][1])


def vertex_from_json(obj):
    if isinstance(obj, list):
        if len(obj) == 2 and type(obj[0]) is int and type(obj[1]) is int:
            return (obj[0], obj[1])  # [side, level]; true and false fail the type test
        if len(obj) == 3 and obj[0] == "sub":
            a, b = _pair(obj[1])
            if obj[2] not in ("1/3", "2/3"):
                raise FormatError("bad subdivision tag %r" % (obj[2],))
            return ("sub", (vertex_from_json(a), vertex_from_json(b)), obj[2])
    elif _is_int(obj) or isinstance(obj, str):
        return obj
    raise FormatError("unsupported vertex encoding %r" % (obj,))


def graph_to_json(g: SimplicialGraph, labels: LabelTable) -> dict:
    vs, rank = g.sorted_vertices(), g.rank
    js = list(map(labels.json, vs))  # a vertex's JSON at its rank
    out = {"vertices": js, "edges": [[js[rank[a]], js[rank[b]]] for a, b in g.sorted_edges()]}
    if g.int_frame is not None:
        scale, pts = g.int_frame
        text = {c: _ratio(c, scale) for c in set(chain.from_iterable(pts.values()))}
        out["coords"] = [[j, [text[x], text[y]]]
                         for j, (x, y) in zip(js, map(pts.__getitem__, vs))]
    return out


def _no_repeats(keys, what: str) -> None:
    """FormatError naming the first key listed twice in keys."""
    seen = set()
    for k in keys:
        if k in seen:
            raise FormatError("%s: %r is listed twice" % (what, k))
        seen.add(k)


def graph_from_json(obj: dict) -> SimplicialGraph:
    vertices = [vertex_from_json(v) for v in _field(obj, "vertices", list)]
    _no_repeats(vertices, "vertices")
    edges = [(vertex_from_json(a), vertex_from_json(b))
             for a, b in map(_pair, _field(obj, "edges", list))]
    coords = None
    if "coords" in obj:
        coords = {}
        for v, xy in map(_pair, _field(obj, "coords", list)):
            x, y = _pair(xy)
            coords[vertex_from_json(v)] = (fraction_from_json(x), fraction_from_json(y))
        if len(coords) < len(obj["coords"]):  # a vertex given two points
            _no_repeats((vertex_from_json(v) for v, _ in obj["coords"]), "coords")
        if set(coords) != set(vertices):
            raise FormatError("coordinates do not match the vertices")
    # a bad embedding fails the `embedding` stage, it is not a load error
    g = SimplicialGraph.build(vertices, edges, coords, False)
    if len(g.edges) < len(edges):  # an edge listed twice, in either orientation
        _no_repeats((e if e in g.edges else e[::-1] for e in edges), "edges")
    return g


def assignment_to_json(assignment: Dict, labels: LabelTable) -> list:
    js = labels.json  # entries in the vkey order of their keys
    rows = [(labels[v][0], [js(v), js(w)]) for v, w in assignment.items()]
    return [row for _, row in sorted(rows, key=itemgetter(0))]


def assignment_from_json(obj: list) -> Dict:
    if not isinstance(obj, list):
        raise FormatError("an assignment must be a list of pairs")
    out = {vertex_from_json(v): vertex_from_json(w) for v, w in map(_pair, obj)}
    if len(out) < len(obj):  # a vertex given two images
        _no_repeats((vertex_from_json(v) for v, _ in obj), "assignment")
    return out


def diagram_to_json(d: TreeDiagram, labels: LabelTable) -> dict:
    return {
        "levels": [graph_to_json(g, labels) for g in d.levels],
        "g_row": [assignment_to_json(m.assignment, labels) for m in d.g_row],
        "f_row": [assignment_to_json(m.assignment, labels) for m in d.f_row],
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
    labels = LabelTable()
    out = {
        "schema": SCHEMA_VERSION,
        "epsilon": [fraction_to_json(e) for e in epsilons.values],
        "diagram": diagram_to_json(diagram, labels),
    }
    if phi_tables is not None:
        out["phi"] = [assignment_to_json(t, labels) for t in phi_tables]
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
        try:
            return instance_from_json(json.load(fh))
        except RecursionError:  # from json.load or the recursive vertex_from_json
            raise FormatError("nesting too deep to read") from None


# the JSON text of each scalar, by exact type: a bool is not written as an int
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                bool: lambda b: "true" if b else "false"}


def write_json(obj, fh) -> None:
    """Write obj to fh as json.dump(obj, fh, indent=1, sort_keys=True) would,
    without the stdlib's pure-Python indented encoder.  Only dicts with str
    keys, lists, str, int and bool are JSON here; anything else raises
    TypeError.  Pieces go straight to fh, so no document is ever held whole.
    A list met again is written from its text at depth 0, rendered once, with
    each newline indented to where it sits (encoded strings hold none)."""
    breaks = ["\n"]  # breaks[d]: a newline and the indent of depth d
    seen = {}  # id of a list met before -> its text at depth 0, once met again;
    # obj keeps every list alive, so no two share an id

    def emit(o, depth, lead, write):  # lead, then o, whose items sit at depth + 1
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
        if kind is list:
            key = id(o)
            if key in seen:
                text = seen[key]
                if text is None:  # met a second time: render it once, at depth 0
                    del seen[key]
                    parts = []
                    emit(o, 0, "", parts.append)
                    text = seen[key] = "".join(parts)
                write(lead + text.replace("\n", breaks[depth]))
                return
            seen[key] = None
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
                emit(x, depth + 1, first, write)
                first = sep
            write(breaks[depth] + "]")
        else:  # encode_basestring_ascii raises TypeError on a key that is no str
            first = lead + "{" + inner
            for key in sorted(o):
                emit(o[key], depth + 1, first + encode_basestring_ascii(key) + ": ", write)
                first = sep
            write(breaks[depth] + "}")

    emit(obj, 0, "", fh.write)


def dump_json(obj: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_json(obj, fh)
        fh.write("\n")


def system_to_json(system: CoverSystem) -> dict:
    """Fibers and pattern tables of a built system (derived data).

    Output files label covers 1..l+1; in-memory levels are 0-based.
    """
    labels = LabelTable()
    js = labels.json
    rank = system.deepest.rank  # fibers lie in the deepest tree, where rank is vkey order
    return {
        "schema": SCHEMA_VERSION,
        "epsilon": [fraction_to_json(e) for e in system.epsilons.values],
        "levels": [
            {
                "level": n + 1,
                "sets": [{"vertex": js(a.vertex),
                          "fiber": list(map(js, sorted(a.fiber, key=rank.__getitem__)))}
                         for a in system.covers[n]],
            }
            for n in range(system.l + 1)
        ],
        "phi": [assignment_to_json(t, labels) for t in system.phi],
    }


def _ratio(p: int, q: int) -> str:  # p/q, q > 0, as fraction_to_json writes it
    g = gcd(p, q)
    return "%d/%d" % (p // g, q // g)


def regions_to_json(realized) -> dict:
    """Interval dump of every realized cover set; levels labeled 1-based.
    Each end is read from the codes as SegmentRegion.pieces reads it.

    Every realized region lies on ``system.deepest``, so an edge position
    names its edge: the payload holds one ``[a, b]`` list per edge and one
    interval list per distinct (E, codes) run, each shared by every piece
    that has it, as ``LabelTable`` shares labels; none may be changed in
    place.  ``write_json`` renders each shared list once."""
    system = realized.system
    js = LabelTable().json
    pairs = [[js(a), js(b)] for a, b in system.deepest.sorted_edges()]
    runs = {}  # (E, codes) -> its interval list
    out = {"schema": SCHEMA_VERSION, "sets": []}
    for a in system.all_sets():
        r = realized.region(a)
        steps, pieces = r.steps, []
        for k, coded in sorted(r.codes.items()):
            key = (steps, coded)
            if key not in runs:
                runs[key] = [[_ratio(s // 2, steps), _ratio((t + 1) // 2, steps),
                              s % 2 == 0, t % 2 == 0] for s, t in coded]
            pieces.append([pairs[k], runs[key]])
        out["sets"].append({"level": a.level + 1, "vertex": js(a.vertex), "pieces": pieces})
    return out
