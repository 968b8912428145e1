"""Spans around calls into treechains' public functions, recorded from outside
the package.

``Tracer.install`` swaps every function named in ``TARGETS`` for a wrapper that
records one span per call, in every ``treechains`` module that binds it, and
``Tracer.uninstall`` puts the originals back.  Nothing under ``src/`` knows it
is being traced.  Only coarse entry points are wrapped: the per-pair
predicates (``sets_intersect``, ``region_intersects``, ...) run hundreds of
thousands of times per operation and stay unwrapped, so their cost shows as
the self time of the stage or function that calls them.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span or -1, and ``op`` the operation it belongs to.  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> public functions and methods wrapped, one span each call
TARGETS = {
    "family": ("build_family_diagram", "build_tree", "map_s", "map_sigma",
               "map_tau", "map_omega"),
    "simplicial": ("SimplicialGraph.build", "SimplicialGraph.embedding_violation",
                   "subdivide3", "lift_map_3"),
    "diagram": ("TreeDiagram.well_formed_violation", "commutativity_violation",
                "coincidence_free", "coincidence_oracle", "proximity_vertices",
                "lift_diagram_3"),
    "covers": ("CoverSystem.__init__", "refinement_violation", "d1_violation",
               "d2_violation", "d2prime_violation", "d3_violation", "nerve",
               "nerve_isomorphic_to"),
    "geometry": ("RealizedSystem.__init__", "family_min_gap_squared",
                 "enlarge_taut_family", "enlargement_disjointness_violation",
                 "enlargement_nesting_violation", "compute_rho_and_mesh",
                 "covers_whole_tree", "render_svg"),
    "serialize": ("load_instance", "dump_json", "instance_to_json",
                  "system_to_json", "regions_to_json"),
    "verify": ("generate_instance", "verify_instance"),
    "cli": ("main",),
}

# spans whose object is kept for the work counts: the constructed instance
# for a constructor, the return value otherwise
CAPTURED = ("covers.CoverSystem", "geometry.RealizedSystem", "verify.verify_instance")

ROOT = "op"


def span_name(module: str, target: str) -> str:
    return "%s.%s" % (module, target[:-len(".__init__")]
                      if target.endswith(".__init__") else target)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "treechains" or name.startswith("treechains.")]


class Tracer:
    def __init__(self):
        self.spans = []
        self.captured = {}
        self._stack = []
        self._op = None
        self._undo = []

    # -- recording ----------------------------------------------------------

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, self._op])

    def leave(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self.captured = {name: [] for name in CAPTURED}
        self.enter(ROOT)

    def end_op(self) -> None:
        self.leave()
        self._op = None

    def _wrap(self, name: str, fn, keep: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave()
            if keep == "self":
                tracer.captured[name].append(args[0])
            elif keep == "result":
                tracer.captured[name].append(result)
            return result

        return traced

    # -- installing the wrappers ---------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        for module, targets in TARGETS.items():
            mod = by_name["treechains." + module]
            for target in targets:
                name = span_name(module, target)
                keep = None
                if name in CAPTURED:
                    keep = "self" if target.endswith(".__init__") else "result"
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._wrap(name, raw.__func__, keep))
                    else:
                        new = self._wrap(name, raw, keep)
                    setattr(cls, attr, new)
                    self._undo.append((cls, attr, raw))
                    continue
                original = getattr(mod, target)
                wrapper = self._wrap(name, original, keep)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading the spans back ----------------------------------------------

    def op_spans(self, op_id):
        """The spans of one operation, parents remapped to this list."""
        index = {}
        out = []
        for i, s in enumerate(self.spans):
            if s[4] == op_id:
                index[i] = len(out)
                out.append(s)
        return [(name, start, end, index.get(parent, -1))
                for name, start, end, parent, _ in out]


def self_times(spans):
    """Duration minus the part covered by child spans, per span."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost_total(spans, names) -> float:
    """Total duration of the spans named in ``names`` that lie inside no other
    span named there, so nested calls are not counted twice."""
    names = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def count(spans, name) -> int:
    return sum(1 for s in spans if s[0] == name)
