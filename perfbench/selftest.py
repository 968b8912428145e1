"""Fast self-test of the benchmark at a tiny size (l=2, k<=4).

    python3 perfbench/selftest.py

Runs each workload shape untraced and traced for one or two ops and checks
that the result object holds exactly the metrics BENCHMARK.json names, with
their units; that the readable report prints every end-to-end and per-layer
metric that applies to the shape, with its unit; and that a wrong verdict
counts as a failed op: the checked-in fixture tests/fixtures/phi_equals_g.json
must fail at D1.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run

FAMILY = [("family.build_family_diagram_s", "s"), ("family.build_tree_once_s", "s"),
          ("family.useful_build_share", "ratio")]
DEEPEST = [("simplicial.deepest_vertices", "count"), ("simplicial.deepest_edges", "count")]
EMBEDDING = [("simplicial.embedding_violation_s", "s")]
DIAGRAM = [("diagram.commutativity_violation_s", "s"), ("diagram.coincidence_free_s", "s"),
           ("diagram.coincidence_oracle_s", "s"), ("diagram.proximity_vertices_s", "s")]
LIFT = [("diagram.lift_diagram_3_s", "s")]
COVERS = [("covers.CoverSystem_s", "s"), ("covers.sets", "count"), ("covers.pairs", "count"),
          ("covers.pairs_intersecting", "count"), ("covers.sets_intersect_pass_s", "s")]
GEOMETRY = [("geometry.RealizedSystem_s", "s"), ("geometry.region_pieces", "count"),
            ("geometry.enlarge_taut_family_s", "s")]
RENDER = [("geometry.render_svg_s", "s"), ("geometry.svg_bytes", "bytes")]
WRITE = [("serialize.write_s", "s"), ("serialize.bytes_written", "bytes")]
READ = [("serialize.load_instance_s", "s"), ("serialize.bytes_read", "bytes")]
VERIFY = [("verify.verify_instance_s", "s"), ("verify.unstaged_s", "s"),
          ("verify.stages_passed", "count")]
CLI = [("cli.other_s", "s"), ("trace.overhead_share", "ratio"), ("trace.span_coverage", "ratio")]


def self_times(layers):
    return [("%s.self_s" % layer, "s") for layer in layers]


def stages(conditions):
    return [("verify.stage.%s_s" % c, "s") for c in conditions]


def shapes(conditions):
    """(name, workload, end-to-end timings, per-layer metrics) at tiny sizes."""
    pipeline_layers = (FAMILY + DEEPEST + EMBEDDING + DIAGRAM + LIFT + COVERS + GEOMETRY
                       + RENDER + WRITE + READ + VERIFY + stages(conditions) + CLI
                       + self_times(run.LAYERS))
    verify_layers = (DEEPEST + DIAGRAM + COVERS + GEOMETRY + READ + VERIFY
                     + stages(conditions) + CLI
                     + self_times(("simplicial", "diagram", "covers", "geometry",
                                   "serialize", "verify", "cli")))
    family_layers = (FAMILY + DEEPEST + EMBEDDING + DIAGRAM + LIFT + CLI
                     + self_times(("family", "simplicial", "diagram")))
    return [
        ("pipeline-l2", run.Pipeline(2), ("op_s", "generate_s", "verify_s"), pipeline_layers),
        ("verify-l2", run.VerifyOnly(2), ("op_s", "verify_s"), verify_layers),
        ("family-k4", run.FamilySweep(4), ("op_s", "family_s"), family_layers),
    ]


def printed_units(lines):
    """metric name -> unit, from the readable report lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith(("op ", "workload=", "--", "ERROR")):
            out[parts[0]] = parts[1]
    return out


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    declared = {"end_to_end": run.END_TO_END, "per_layer": run.PER_LAYER}
    for key, metrics in declared.items():
        expect([(m["name"], m["unit"]) for m in spec[key]] == list(metrics),
               "BENCHMARK.json %s differs from run.py" % key)

    conditions = run.import_package()["verify"].CONDITIONS
    for name, wl, timings, layers in shapes(conditions):
        for trace in (False, True):
            lines = []
            result = run.run(wl, name, 0, 0.01, trace, out=lines.append)
            tag = "%s trace=%d" % (name, trace)
            expect(result["correct"] and result["failed"] == 0,
                   "%s: not correct: %s" % (tag, [l for l in lines if l.startswith("ERROR")]))
            wanted = run.PER_LAYER if trace else run.END_TO_END
            got = [(m, v["unit"]) for m, v in result["metrics"].items()]
            expect(got == list(wanted), "%s: result metrics %s" % (tag, got))
            expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                   "%s: a metric value is not a number" % tag)
            units = printed_units(lines)
            printed = [(m, "s") for m in timings + ("setup_s", "op_wall_s", "setup_wall_s",
                                                     "reference_s")]
            printed += [("peak_rss_mb", "MB"), ("error_rate", "ratio")]
            if trace:
                printed += layers
            for metric, unit in printed:
                expect(units.get(metric) == unit, "%s: %s printed as %r, expected unit %s"
                       % (tag, metric, units.get(metric), unit))
            expect(any(l.startswith("op_s ") and "median=" in l and " n=" in l for l in lines),
                   "%s: op_s line lacks median or sample count" % tag)

    # a wrong verdict is a failed op, never a silent pass
    fixture = run.ROOT / "tests" / "fixtures" / "phi_equals_g.json"
    lines = []
    result = run.run(run.VerifyOnly(path=fixture), "phi-equals-g", 0, 0.01, False,
                     out=lines.append)
    expect(result["failed"] == result["attempted"] >= 1 and not result["correct"],
           "phi_equals_g: verdict did not count as a failed op: %s" % result)
    expect(any("first stage not PASS is D1 (FAIL)" in l for l in lines),
           "phi_equals_g: no FAIL at D1 reported")
    expect(any(l.startswith("error_rate") and " 1.0000 " in l for l in lines),
           "phi_equals_g: error_rate is not 1")

    for p in problems:
        print("FAIL " + p)
    print("selftest: %s (%d problems)" % ("FAIL" if problems else "PASS", len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
