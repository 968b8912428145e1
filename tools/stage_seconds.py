"""Median in-process seconds of each layer of generate + verify, one JSON
object per l.  Run from the repository root:

    python3 tools/stage_seconds.py L [L ...]

For each l it runs REPEATS rounds.  A round builds every layer of
``generate_instance`` and of verify on its own, each on the layers before
it.  The keys:

- ``family``: ``build_family_diagram(l + 1)``, the family diagram, built
  afresh: the trees of the last k are cached, so the cache is cleared first;
- ``subdivide``: ``subdivide3`` of every level of that diagram, the
  trisected trees alone;
- ``lift``: ``lift_diagram_3``, its trisection lift (the checks, the
  trisected trees and both rows of lifted maps);
- ``family_sweep``: one op of perfbench's ``family-k9`` workload, for
  k = 2..l+1: ``build_family_diagram(k)``, ``check_commutative``,
  ``lift_diagram_3``, ``coincidence_free`` and ``coincidence_oracle`` on
  (f, g) and on (``map_sigma``, ``map_tau``), and ``proximity_vertices`` on
  the lifted rows, starting from an empty tree cache;
- ``system``: the ``CoverSystem``;
- ``pattern_scans``: the D1, D2 and D2prime stages on a ``VerifyContext``
  whose instance carries the f-row as its ``phi`` tables, its
  ``CoverSystem`` built before the timing: the scans those stages skip on
  a generated instance, where they hold by proof (``stage.D1``,
  ``stage.D2`` and ``stage.D2prime`` read about 0 there);
- ``realization``: the ``RealizedSystem``, one region per set;
- ``route_sweep``: ``meeting_cliques`` over the regions, the one sweep
  that ``taut`` (the geometric route) and ``triples`` read
  (``oracle-identity`` reads no pair, see its docstring);
- ``scaled_pieces``: the one build of the regions' closed integer pieces,
  per set and per deepest edge;
- ``margin_scan``: ``family_min_gap_squared``, the least gap over all
  disjoint pairs;
- ``rho_scan``: ``rho_squared``, the same scan over level 0 alone;
- ``rho_mesh``: ``compute_rho_and_mesh``, rho again plus every diameter;
- ``disjoint_check``: ``enlargement_disjointness_violation`` on the taut
  radii;
- ``json_objects``: the four JSON payloads of ``generate`` (instance,
  system, regions, enlargement), built as Python objects;
- ``json_write``: ``dump_json`` of those four payloads into a temporary
  directory, the encoding and the file writes;
- ``svg``: ``render_svg`` of the realized system into the same directory,
  with the taut radii, as ``cmd_generate`` calls it (the pieces it draws
  are already built, see ``scaled_pieces``);
- ``json_load``: ``load_instance`` of the written instance.json, that is
  ``json.load`` plus ``instance_from_json``: verify's read path;
- ``stage.<name>``: the seconds the report of ``verify_instance`` records
  for each stage, on a fresh instance.  Lazy builds are charged to the
  stage that first asks for them (``system-build`` builds the system and
  its realization, ``enlargement-disjoint`` the pieces and the margin
  scan).

Every value is the median over the rounds, in seconds to 6 decimals.
Beside them, ``peak_rss_mb`` is ``ru_maxrss`` after that l's rounds, in
MB: the process's high-water mark so far, not that l's own peak.  So a
per-l peak needs one l per invocation.  ``tracked_objects`` counts what
the garbage collector tracks: the growth of ``len(gc.get_objects())``,
each count taken after ``gc.collect()`` (repeated until the count holds),
over building the ``CoverSystem`` and the ``RealizedSystem`` of
``generate_instance(l)``, before the rounds.  It is a count, not a timing,
and reads the same on every run.  The collector's own work over that l's
rounds, taken through ``gc.callbacks``, is ``gc_collections``, the
collections of generations 0, 1 and 2, and ``gc_s``, their total seconds
(sums over all REPEATS rounds, not medians).  A collection's pause lands in
whichever key was allocating when it triggered, so the two say how much of
the rounds' seconds were the collector's.

Only the public API is used, from the ``src`` the script sits beside, and
one private name: ``family._levels.cache_clear``, before each ``family``
build and each ``family_sweep``.
"""

import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from treechains import family  # noqa: E402
from treechains.covers import CoverSystem, EpsilonSchedule  # noqa: E402
from treechains.diagram import (  # noqa: E402
    check_commutative,
    coincidence_free,
    coincidence_oracle,
    lift_diagram_3,
    proximity_vertices,
)
from treechains.geometry import (  # noqa: E402
    RealizedSystem,
    compute_rho_and_mesh,
    enlarge_taut_family,
    enlargement_disjointness_violation,
    family_min_gap_squared,
    meeting_cliques,
    render_svg,
    rho_squared,
)
from treechains.serialize import (  # noqa: E402
    Instance,
    dump_json,
    enlargement_to_json,
    load_instance,
    regions_to_json,
    system_to_json,
)
from treechains.simplicial import subdivide3  # noqa: E402
from treechains.verify import (  # noqa: E402
    STAGES,
    VerifyContext,
    generate_instance,
    verify_instance,
)

REPEATS = 5


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def family_sweep(l: int) -> None:
    for k in range(2, l + 2):
        d = family.build_family_diagram(k)
        check_commutative(d)
        lifted = lift_diagram_3(d)
        for n in range(d.length):
            for f, g in ((d.f_row[n], d.g_row[n]),
                         (family.map_sigma(k, n), family.map_tau(k, n))):
                coincidence_free(f, g)
                coincidence_oracle(f, g)
        for n in range(lifted.length):
            proximity_vertices(lifted.f_row[n], lifted.g_row[n])


def pattern_scans(diagram, epsilons) -> float:
    """Seconds of the D1, D2 and D2prime stages on the f-row carried as
    ``phi`` tables; the system is built before the timing."""
    ctx = VerifyContext(Instance(diagram, epsilons, [dict(f.assignment) for f in diagram.f_row]))
    ctx.system  # built here, outside the timing
    stages = dict(STAGES)
    witnesses, seconds = _timed(lambda: [stages[name](ctx) for name in ("D1", "D2", "D2prime")])
    if witnesses != [None] * 3:
        raise SystemExit("pattern scans failed: %r" % (witnesses,))
    return seconds


def one_round(l: int) -> dict:
    out = {}
    family._levels.cache_clear()  # the last round's generate_instance cached the trees
    diagram, out["family"] = _timed(lambda: family.build_family_diagram(l + 1))
    _, out["subdivide"] = _timed(lambda: [subdivide3(g) for g in diagram.levels])
    lifted, out["lift"] = _timed(lambda: lift_diagram_3(diagram))
    family._levels.cache_clear()  # at l = 1 the sweep's one k is l + 1
    _, out["family_sweep"] = _timed(lambda: family_sweep(l))
    inst = Instance(lifted, EpsilonSchedule.default(l))  # as generate_instance(l)
    system, out["system"] = _timed(
        lambda: CoverSystem(inst.diagram, inst.epsilons, inst.phi_tables))
    out["pattern_scans"] = pattern_scans(lifted, inst.epsilons)
    realized, out["realization"] = _timed(lambda: RealizedSystem(system))
    sets = system.all_sets()
    _, out["route_sweep"] = _timed(
        lambda: meeting_cliques([realized.region(a) for a in sets]))
    _, out["scaled_pieces"] = _timed(lambda: realized.scaled_pieces)
    _, out["margin_scan"] = _timed(lambda: family_min_gap_squared(realized))
    _, out["rho_scan"] = _timed(lambda: rho_squared(realized))
    _, out["rho_mesh"] = _timed(lambda: compute_rho_and_mesh(realized))
    m_sq, radius_sq = enlarge_taut_family(realized)
    _, out["disjoint_check"] = _timed(
        lambda: enlargement_disjointness_violation(realized, radius_sq))
    payloads, out["json_objects"] = _timed(lambda: {  # as cli.cmd_generate writes them
        "instance.json": inst.to_json(),
        "system.json": system_to_json(system),
        "regions.json": regions_to_json(realized),
        "enlargement.json": {"schema": 1, **enlargement_to_json(m_sq, radius_sq)},
    })
    with tempfile.TemporaryDirectory() as tmp:
        _, out["json_write"] = _timed(lambda: [dump_json(obj, os.path.join(tmp, name))
                                               for name, obj in payloads.items()])
        _, out["svg"] = _timed(
            lambda: render_svg(realized, os.path.join(tmp, "covers.svg"), radius_sq))
        _, out["json_load"] = _timed(lambda: load_instance(os.path.join(tmp, "instance.json")))
    report = verify_instance(generate_instance(l))
    if not report.passed:
        raise SystemExit("verify failed at l=%d: %s" % (l, report.first_failure()))
    for r in report.results:
        out["stage." + r.name] = r.seconds
    return out


def _tracked() -> int:
    """``len(gc.get_objects())`` once a ``gc.collect()`` no longer changes
    it: a collection stops tracking a tuple whose items are all untracked,
    one level of nesting per pass."""
    count = None
    while True:
        gc.collect()
        now = len(gc.get_objects())
        if now == count:
            return now
        count = now


def tracked_objects(l: int) -> int:
    """The growth of the objects the collector tracks over building the
    cover system and its realization."""
    inst = generate_instance(l)
    before = _tracked()
    built = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons, inst.phi_tables))  # noqa: F841
    return _tracked() - before  # built is still held here


class Collections:
    """A ``gc.callbacks`` entry: the collections of each generation and their
    seconds, while it is installed."""

    def __init__(self):
        self.counts = [0, 0, 0]
        self.seconds = 0.0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            self.counts[info["generation"]] += 1


def stage_seconds(l: int) -> dict:
    tracked = tracked_objects(l)
    collections = Collections()
    gc.callbacks.append(collections)
    try:
        rounds = [one_round(l) for _ in range(REPEATS)]
    finally:
        gc.callbacks.remove(collections)
    medians = {key: round(statistics.median(r[key] for r in rounds), 6) for key in rounds[0]}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
    return {"l": l, "repeats": REPEATS, "median_s": medians, "peak_rss_mb": round(peak, 1),
            "tracked_objects": tracked, "gc_collections": collections.counts,
            "gc_s": round(collections.seconds, 6)}


def main(argv) -> int:
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    for text in argv:
        print(json.dumps(stage_seconds(int(text)), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
