"""Benchmark of the treechains command line: wall time of ``generate`` and
``verify`` and of the family sweep, and with ``--trace 1`` the same
operations split by module.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-l8 --seed 1 --seconds 60 --trace 0

The package is imported from ``./src`` of that checkout, never from an
installed copy; without it the benchmark exits with code 2.  The load is a
closed loop: one client in this one process runs one operation at a time and
starts the next only when the previous one has ended.  Inputs depend only on
the workload's l and k, so ``--seed`` is accepted and recorded but selects
nothing.

End-to-end times are given at a fixed machine speed: a reference block of
pure-Python work that does not use treechains is timed during and after every
untraced op and after every set-up, and each time is scaled by the reference's
nominal duration over its measured one (see ``reference``).  The raw wall
times are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it are
the readable report.  perfbench/README.md describes the workloads, the
metrics and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# set-up repeats per run; set-up time is the median over them
SETUP_REPEATS = 15

# nominal duration of one reference() call, and the op time between two calls
REF_SECONDS = 0.05
SAMPLE_EVERY_S = 0.7

# end-to-end metrics with --trace 0, as (name, unit)
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics with --trace 1: the ones both benchmark workloads exercise
PER_LAYER = (
    ("family.self_s", "s"),
    ("family.build_family_diagram_s", "s"),
    ("family.build_tree_once_s", "s"),
    ("family.useful_build_share", "ratio"),
    ("simplicial.self_s", "s"),
    ("simplicial.embedding_violation_s", "s"),
    ("simplicial.embedding_violation_calls", "count"),
    ("simplicial.deepest_vertices", "count"),
    ("simplicial.deepest_edges", "count"),
    ("diagram.self_s", "s"),
    ("diagram.lift_diagram_3_s", "s"),
    ("diagram.commutativity_violation_s", "s"),
    ("diagram.coincidence_free_s", "s"),
    ("diagram.coincidence_oracle_s", "s"),
    ("diagram.proximity_vertices_s", "s"),
    ("cli.other_s", "s"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
)

LAYERS = tuple(tracing.TARGETS)


class BenchError(Exception):
    """The benchmark cannot run here (no package to import)."""


def import_package():
    """Import treechains afresh from ./src; returns its modules by short name.

    Earlier imports are dropped first, so each call pays the whole import.
    """
    init = SRC / "treechains" / "__init__.py"
    if not init.is_file():
        raise BenchError("no package at %s" % init.parent)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "treechains" or n.startswith("treechains.")]:
        del sys.modules[name]
    pkg = importlib.import_module("treechains")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise BenchError("treechains imported from %s, not from ./src" % pkg.__file__)
    return {name: importlib.import_module("treechains." + name) for name in LAYERS}


def call_cli(cli, argv):
    """``treechains <argv>`` in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def report_errors(label, rc, text, conditions):
    """Every stage and the overall verdict must read PASS, with exit code 0."""
    status = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1] in ("PASS", "FAIL", "SKIP"):
            status[parts[0]] = parts[1]
    first_bad = next((c for c in conditions if status.get(c) != "PASS"), None)
    errors = []
    if first_bad is not None:
        errors.append("%s: first stage not PASS is %s (%s)"
                      % (label, first_bad, status.get(first_bad, "missing")))
    if status.get("overall") != "PASS":
        errors.append("%s: overall %s" % (label, status.get("overall", "missing")))
    if rc != 0:
        errors.append("%s: exit code %r" % (label, rc))
    return errors


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -- workloads ---------------------------------------------------------------
#
# A workload prepares its input in ``prepare`` (timed as set-up), runs one
# operation in ``run_op`` and checks that operation's outputs in ``check``,
# which returns a list of errors and the work counts the op produced.


class Pipeline:
    """One op: ``treechains generate --l L --out DIR``, then
    ``treechains verify DIR/instance.json``."""

    OUTPUTS = ("instance.json", "system.json", "regions.json",
               "enlargement.json", "covers.svg")

    def __init__(self, l, expected=None):
        self.l = l
        self.expected = expected or {}
        self.family_ks = (l + 1,)
        self.digests = None

    def prepare(self, mods, work):
        self.mods, self.work = mods, work

    def run_op(self, i):
        cli = self.mods["cli"]
        out = self.work / ("op%d" % i)
        t0 = time.perf_counter()
        gen = call_cli(cli, ["generate", "--l", str(self.l), "--out", str(out)])
        t1 = time.perf_counter()
        ver = call_cli(cli, ["verify", str(out / "instance.json")])
        t2 = time.perf_counter()
        return {"out": out, "generate": gen, "verify": ver,
                "times": {"generate_s": t1 - t0, "verify_s": t2 - t1}}

    def check(self, result):
        conditions = self.mods["verify"].CONDITIONS
        errors = report_errors("generate", *result["generate"], conditions)
        errors += report_errors("verify", *result["verify"], conditions)
        out = result["out"]
        missing = [n for n in self.OUTPUTS if not (out / n).is_file()]
        counts = {}
        if missing:
            errors.append("generate wrote no %s" % ", ".join(missing))
        else:
            digests = {n: digest(out / n) for n in self.OUTPUTS}
            if self.digests is None:
                self.digests = digests
            changed = [n for n in self.OUTPUTS if digests[n] != self.digests[n]]
            if changed:
                errors.append("outputs differ from the first op: %s" % ", ".join(changed))
            counts = {
                "serialize.bytes_written": sum((out / n).stat().st_size
                                               for n in self.OUTPUTS if n.endswith(".json")),
                "serialize.bytes_read": (out / "instance.json").stat().st_size,
                "geometry.svg_bytes": (out / "covers.svg").stat().st_size,
            }
        shutil.rmtree(out, ignore_errors=True)
        return errors, counts


class VerifyOnly:
    """One op: ``treechains verify instance.json``.  Set-up writes the l=L
    instance once, or uses a given instance file."""

    def __init__(self, l=None, expected=None, path=None):
        self.l = l
        self.expected = expected or {}
        self.family_ks = ()
        self.given = path

    def prepare(self, mods, work):
        self.mods = mods
        if self.given is not None:
            self.path = Path(self.given)
            return
        self.path = work / "instance.json"
        instance = mods["verify"].generate_instance(self.l)
        mods["serialize"].dump_json(instance.to_json(), str(self.path))

    def run_op(self, i):
        t0 = time.perf_counter()
        ver = call_cli(self.mods["cli"], ["verify", str(self.path)])
        return {"verify": ver, "times": {"verify_s": time.perf_counter() - t0}}

    def check(self, result):
        errors = report_errors("verify", *result["verify"], self.mods["verify"].CONDITIONS)
        return errors, {"serialize.bytes_read": self.path.stat().st_size}


class FamilySweep:
    """One op: for k = 2..K build the family diagram and check it commutes,
    lift it, run the coincidence checker and oracle on (f, g) and on
    (map_sigma, map_tau), and look for proximity vertices on the lifted rows."""

    def __init__(self, kmax, expected=None):
        self.expected = expected or {}
        self.family_ks = tuple(range(2, kmax + 1))

    def prepare(self, mods, work):
        self.mods = mods

    def run_op(self, i):
        fam, dg = self.mods["family"], self.mods["diagram"]
        t0 = time.perf_counter()
        rows = []
        for k in self.family_ks:
            d = fam.build_family_diagram(k)
            commutes = dg.check_commutative(d)
            lifted = dg.lift_diagram_3(d)
            pairs = []
            for n in range(d.length):
                f, g = d.f_row[n], d.g_row[n]
                s, t = fam.map_sigma(k, n), fam.map_tau(k, n)
                pairs.append((dg.coincidence_free(f, g), dg.coincidence_oracle(f, g),
                              dg.coincidence_free(s, t), dg.coincidence_oracle(s, t)))
            prox = [dg.proximity_vertices(lifted.f_row[n], lifted.g_row[n])
                    for n in range(lifted.length)]
            rows.append((k, d, lifted, commutes, pairs, prox))
        return {"rows": rows, "times": {"family_s": time.perf_counter() - t0}}

    def check(self, result):
        EdgePoint = self.mods["simplicial"].EdgePoint
        errors = []
        for k, d, lifted, commutes, pairs, prox in result["rows"]:
            if not commutes:
                errors.append("k=%d: diagram does not commute" % k)
            for n, (free, points, st_free, st_points) in enumerate(pairs):
                if not free or points:
                    errors.append("k=%d n=%d: f, g not coincidence-free" % (k, n))
                ends = frozenset(EdgePoint.vertex(v) for v in d.levels[n + 1].endpoints())
                if st_free or len(st_points) != 4 or st_points != ends:
                    errors.append("k=%d n=%d: sigma, tau do not meet exactly at the "
                                  "4 endpoints" % (k, n))
            if any(prox):
                errors.append("k=%d: lifted rows have proximity vertices" % k)
        deepest = result["rows"][-1][2].levels[-1]
        return errors, {"simplicial.deepest_vertices": len(deepest.vertices),
                        "simplicial.deepest_edges": len(deepest.edges)}


# pinned work counts: the same on every run of a correct program
WORKLOADS = {
    "pipeline-l8": lambda: Pipeline(8, expected={
        "covers.sets": 657, "covers.pairs": 215496, "covers.pairs_intersecting": 8604,
        "geometry.region_pieces": 1728, "simplicial.deepest_vertices": 109,
        "simplicial.deepest_edges": 108, "serialize.bytes_written": 1592614,
        "serialize.bytes_read": 596541, "geometry.svg_bytes": 74446}),
    "verify-l12": lambda: VerifyOnly(12, expected={
        "covers.sets": 1339, "covers.pairs": 895791, "covers.pairs_intersecting": 25740,
        "geometry.region_pieces": 3588, "simplicial.deepest_vertices": 157,
        "simplicial.deepest_edges": 156, "serialize.bytes_read": 1236389}),
    "family-k9": lambda: FamilySweep(9, expected={
        "simplicial.deepest_vertices": 109, "simplicial.deepest_edges": 108}),
}


# -- machine-speed reference -------------------------------------------------
#
# The shared 2-vCPU VM this benchmark was written on changes speed by 20-35%
# over minutes, so raw wall times of the same code spread past any bound from
# one run to the next.  A fixed block of work that does not use treechains is
# timed during each op and after it, and every end-to-end time is scaled by
# REF_SECONDS over the reference time measured with it; perfbench/README.md
# gives the spreads this removes.  The reference mixes what the program spends
# its time on: building a dict of a few MB, lookups spread over it, Fraction
# arithmetic and set building.


def reference():
    rng = random.Random(7)
    table = {(i, i * 7 % 1009): (Fraction(i, 7 + i % 5), (i, -i)) for i in range(12000)}
    keys = list(table)
    rng.shuffle(keys)
    acc = Fraction(0)
    seen = set()
    for key in keys:
        value, pair = table[key]
        acc += value
        seen.add(pair)
    return acc, len(seen)


class SpeedSampler:
    """Times reference() every SAMPLE_EVERY_S seconds while an op runs.

    The calls run in this process's main thread, from a SIGALRM handler, so
    no thread or process is started.  The timer is armed again after each
    call, so the op always runs SAMPLE_EVERY_S between two calls; their times
    are in ``samples`` and are taken out of the op's wall time.
    """

    def __init__(self):
        self.samples = []
        self.active = False

    def _sample(self, signum, frame):
        if not self.active:  # pending when the op ended: must not re-arm
            return
        t0 = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - t0)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


# -- statistics ----------------------------------------------------------------


def high_percentile(values):
    """(percentile, value) of the highest percentile with at least ten samples
    above it, or None when there are ten samples or fewer."""
    if len(values) <= 10:
        return None
    xs = sorted(values)
    i = len(xs) - 11
    return (100.0 * (i + 1) / len(xs), xs[i])


def timing_line(name, unit, values):
    hi = high_percentile(values)
    hi_text = "p%.0f=%.4f" % hi if hi else "p_hi=n/a (n<=10)"
    return "%-40s %-6s median=%.4f %s n=%d" % (name, unit, statistics.median(values),
                                               hi_text, len(values))


# -- per-layer accounting ------------------------------------------------------

WRITE_SPANS = ("serialize.dump_json", "serialize.instance_to_json",
               "serialize.system_to_json", "serialize.regions_to_json")


def op_layers(tracer, op_id, conditions):
    """Per-layer metrics of one traced op; a metric appears only when its
    layer did that work in the op."""
    spans = tracer.op_spans(op_id)
    own = tracing.self_times(spans)
    wall = spans[0][2] - spans[0][1]
    names = {s[0] for s in spans}
    out = {}
    for layer in LAYERS:
        share = sum(t for s, t in zip(spans, own) if s[0].startswith(layer + "."))
        if any(n.startswith(layer + ".") for n in names):
            out[layer + ".self_s"] = share

    def total(metric, *span_names):
        if names.intersection(span_names):
            out[metric] = tracing.outermost_total(spans, span_names)

    total("family.build_family_diagram_s", "family.build_family_diagram")
    total("simplicial.embedding_violation_s", "simplicial.SimplicialGraph.embedding_violation")
    if "simplicial.embedding_violation_s" in out:
        out["simplicial.embedding_violation_calls"] = tracing.count(
            spans, "simplicial.SimplicialGraph.embedding_violation")
    for fn in ("lift_diagram_3", "commutativity_violation", "coincidence_free",
               "coincidence_oracle", "proximity_vertices"):
        total("diagram.%s_s" % fn, "diagram." + fn)
    total("covers.CoverSystem_s", "covers.CoverSystem")
    for fn in ("RealizedSystem", "enlarge_taut_family", "render_svg"):
        total("geometry.%s_s" % fn, "geometry." + fn)
    total("serialize.write_s", *WRITE_SPANS)
    total("serialize.load_instance_s", "serialize.load_instance")
    total("verify.verify_instance_s", "verify.verify_instance")

    reports = tracer.captured["verify.verify_instance"]
    if reports:
        stages = dict.fromkeys(conditions, 0.0)
        for report in reports:
            for r in report.results:
                stages[r.name] = stages.get(r.name, 0.0) + r.seconds
        for name, seconds in stages.items():
            out["verify.stage.%s_s" % name] = seconds
        out["verify.unstaged_s"] = out["verify.verify_instance_s"] - sum(stages.values())
        out["verify.stages_passed"] = sum(r.status == "PASS" for r in reports[-1].results)
    systems = tracer.captured["covers.CoverSystem"]
    if systems:
        system = systems[-1]
        n = len(system.all_sets())
        out["covers.sets"] = n
        out["covers.pairs"] = n * (n - 1) // 2
        out["simplicial.deepest_vertices"] = len(system.deepest.vertices)
        out["simplicial.deepest_edges"] = len(system.deepest.edges)
    realized = tracer.captured["geometry.RealizedSystem"]
    if realized:
        out["geometry.region_pieces"] = sum(
            len(iv) for r in realized[-1].regions.values() for iv in r.pieces.values())

    other = sum(t for s, t in zip(spans, own) if s[0] in (tracing.ROOT, "cli.main"))
    out["cli.other_s"] = other
    out["trace.span_coverage"] = 1.0 - other / wall
    return out, wall


def probes(mods, wl, tracer, layers):
    """Layer unit costs timed outside the ops, with the wrappers removed."""
    out = {}
    systems = tracer.captured.get("covers.CoverSystem")
    if systems:
        system = systems[-1]
        sets = system.all_sets()
        sets_intersect = mods["covers"].sets_intersect
        t0 = time.perf_counter()
        hits = sum(1 for i, a in enumerate(sets) for b in sets[i + 1:]
                   if sets_intersect(system, a, b))
        out["covers.sets_intersect_pass_s"] = time.perf_counter() - t0
        out["covers.pairs_intersecting"] = hits
    if wl.family_ks:
        build_tree = mods["family"].build_tree
        t0 = time.perf_counter()
        for k in wl.family_ks:
            for n in range(k):
                build_tree(k, n)
        out["family.build_tree_once_s"] = time.perf_counter() - t0
        full = layers.get("family.build_family_diagram_s")
        if full:
            out["family.useful_build_share"] = out["family.build_tree_once_s"] / full
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.startswith("trace.") or name.endswith("_share"):
        return "ratio"
    return "bytes" if name.endswith("bytes") or "bytes_" in name else "count"


# -- the run ----------------------------------------------------------------


def run(wl, name, seed, seconds, trace, out=print):
    """Set up, run ops for ``seconds``, check them; returns the result object."""
    work = WORK / ("run-%d" % os.getpid())
    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        mods = import_package()
        work.mkdir(parents=True)
        wl.prepare(mods, work)
        setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        reference()
        setup_scaled.append(setup_times[-1] * REF_SECONDS / (time.perf_counter() - t0))
    out("workload=%s seed=%s (inputs depend only on l and k; the seed selects nothing) "
        "trace=%d load=closed loop, 1 client, 1 op at a time" % (name, seed, trace))

    conditions = mods["verify"].CONDITIONS
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    scaled = []
    cycles = {False: [], True: []}
    subtimes = {}
    layer_rows = []
    errors = []
    counts = {}
    attempted = failed = 0
    ref_times = []
    t_start = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
            tracer.begin_op(attempted)
        sampler = SpeedSampler()
        t0 = time.perf_counter()
        try:
            with contextlib.nullcontext() if traced else sampler:
                result = wl.run_op(attempted)
        except (Exception, SystemExit) as exc:  # a crash fails this op only
            result = None
            op_errors = ["op raised %s: %s" % (type(exc).__name__, exc)]
        gross = time.perf_counter() - t0
        wall = gross - sum(sampler.samples)
        if traced:
            tracer.end_op()
            tracer.uninstall()
        if result is not None:
            try:
                op_errors, op_counts = wl.check(result)
            except Exception as exc:  # output the check cannot read
                op_errors, op_counts = ["check raised %s: %s" % (type(exc).__name__, exc)], {}
            for key, value in op_counts.items():
                if counts.setdefault(key, value) != value:
                    op_errors.append("%s changed between ops: %r then %r"
                                     % (key, counts[key], value))
        times = result.get("times", {}) if result is not None else {}
        if not traced:
            # the op's machine speed: the calls during it and one after it,
            # made with its outputs freed, so that every op has one
            result = None
            gc.collect()
            t1 = time.perf_counter()
            reference()
            sampler.samples.append(time.perf_counter() - t1)
            ref_times.append(statistics.median(sampler.samples))
            scale = REF_SECONDS / ref_times[-1]
            scaled.append(wall * scale)
            # a part's share of the calls is taken as its share of the op
            for key, value in times.items():
                subtimes.setdefault(key, []).append(value * wall / gross * scale)
        attempted += 1
        if op_errors:
            failed += 1
            errors.extend("op %d: %s" % (attempted, e) for e in op_errors)
        walls[traced].append(wall)
        cycles[traced].append(time.perf_counter() - t0)
        if traced:
            layer_rows.append(op_layers(tracer, attempted - 1, conditions))
            out("op %d traced wall=%.4f s %s"
                % (attempted, wall, "ok" if not op_errors else "FAILED"))
        else:
            out("op %d untraced wall=%.4f s scaled=%.4f s reference=%.4f s (%d calls) %s"
                % (attempted, wall, scaled[-1], ref_times[-1], len(sampler.samples),
                   "ok" if not op_errors else "FAILED"))
        elapsed = time.perf_counter() - t_start
        done_both = not trace or (walls[False] and walls[True])
        if done_both and elapsed + statistics.median(cycles[traced]) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    shutil.rmtree(work, ignore_errors=True)

    layers = {}
    if trace:
        per_op = [row for row, _ in layer_rows]
        for key in dict.fromkeys(k for row in per_op for k in row):
            values = [row[key] for row in per_op if key in row]
            if unit_of(key) in ("count", "bytes") and len(set(values)) > 1:
                errors.append("%s changed between traced ops: %r" % (key, values))
            layers[key] = statistics.median(values)
        layers.update(probes(mods, wl, tracer, layers))
        layers["trace.overhead_share"] = (statistics.median(walls[True])
                                          / statistics.median(walls[False]) - 1.0)
        for key, value in counts.items():
            layers.setdefault(key, value)
        pinned = {k: v for k, v in wl.expected.items() if k in layers}
    else:
        pinned = {k: v for k, v in wl.expected.items() if k in counts}
    seen = layers if trace else counts
    for key, want in sorted(pinned.items()):
        if seen[key] != want:
            errors.append("%s is %r, expected %r" % (key, seen[key], want))

    out("-- end to end (untraced ops; times scaled to the reference's %g s)" % REF_SECONDS)
    out(timing_line("op_s", "s", scaled))
    for key, values in subtimes.items():
        out(timing_line(key, "s", values))
    out(timing_line("setup_s", "s", setup_scaled))
    out(timing_line("op_wall_s", "s", walls[False]))
    out(timing_line("setup_wall_s", "s", setup_times))
    out(timing_line("reference_s", "s", ref_times))
    out("%-40s %-6s %.1f" % ("peak_rss_mb", "MB", peak_rss_mb))
    out("%-40s %-6s %.4f (%d failed of %d)" % ("error_rate", "ratio", failed / attempted,
                                               failed, attempted))
    if trace:
        out("-- per layer (median over %d traced ops)" % len(layer_rows))
        for key in sorted(layers):
            out("%-40s %-6s %s" % (key, unit_of(key), layers[key]))
        write_spans(name, seed, tracer, layers)
        if layers["trace.span_coverage"] < 0.95:
            out("WARNING named spans cover less than 95% of the traced op")
    for e in errors:
        out("ERROR " + e)

    if trace:
        metrics = {m: {"value": layers.get(m, 0.0), "unit": u} for m, u in PER_LAYER}
    else:
        values = {"op_s": statistics.median(scaled),
                  "setup_s": statistics.median(setup_scaled),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_spans(name, seed, tracer, layers):
    path = WORK / ("spans-%s-seed%s.json" % (name, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "layers": layers}, fh)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the inputs depend on l and k alone")
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(WORKLOADS[args.workload](), args.workload, args.seed,
                     args.seconds, bool(args.trace))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
