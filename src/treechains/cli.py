"""Command line front end.

Subcommands: generate, generate-family, verify, render, example1, oracle.
Every command exits 0 exactly when its check passes.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import geometry as geo
from .covers import EpsilonSchedule, ScheduleError
from .example1 import check_example1
from .family import build_family_diagram
from .serialize import (
    FormatError,
    LabelTable,
    diagram_to_json,
    dump_json,
    enlargement_to_json,
    fraction_from_json,
    load_instance,
    regions_to_json,
    system_to_json,
    write_json,
)
from .simplicial import GraphError
from .verify import (
    ConditionResult,
    VerificationReport,
    VerifyContext,
    _system_build,
    generate_instance,
    oracle_trials,
    verify_instance,
)


def _parse_eps(text: str) -> EpsilonSchedule:
    return EpsilonSchedule.build([fraction_from_json(part.strip())
                                  for part in text.split(",")])


def cmd_generate(args) -> int:
    try:
        eps = _parse_eps(args.eps) if args.eps else None
        instance = generate_instance(args.l, eps)
    except ValueError as exc:  # FormatError, ScheduleError: bad arguments
        return _fail(_failure_report("schema", str(exc)))
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:  # a file in the way, no permission
        return _fail(_failure_report("output", str(exc)))
    ctx = VerifyContext(instance)
    report = verify_instance(instance, ctx=ctx)
    system, realized = ctx.system, ctx.realized
    m_sq, radius_sq = ctx.enlargement
    try:
        dump_json(instance.to_json(), os.path.join(args.out, "instance.json"))
        dump_json(system_to_json(system), os.path.join(args.out, "system.json"))
        dump_json(regions_to_json(realized), os.path.join(args.out, "regions.json"))
        dump_json({"schema": 1, **enlargement_to_json(m_sq, radius_sq)},
                  os.path.join(args.out, "enlargement.json"))
        geo.render_svg(realized, os.path.join(args.out, "covers.svg"), radius_sq)
    except OSError as exc:  # a directory in the way, no permission
        return _fail(_failure_report("output", str(exc)))
    print(report.to_text())
    return 0 if report.passed else 1


def cmd_generate_family(args) -> int:
    try:
        d = build_family_diagram(args.k)
    except ValueError as exc:  # k below 2
        return _fail(_failure_report("schema", str(exc)))
    payload = {"schema": 1, "diagram": diagram_to_json(d, LabelTable())}
    if args.out:
        try:
            dump_json(payload, args.out)
        except OSError as exc:  # a missing directory, a directory in the way
            return _fail(_failure_report("output", str(exc)))
    else:
        write_json(payload, sys.stdout)
        print()
    return 0


def _failure_report(stage: str, witness) -> VerificationReport:
    report = VerificationReport()
    report.results.append(ConditionResult(stage, "FAIL", witness))
    return report


def _fail(report: VerificationReport) -> int:
    print(report.to_text())
    return 1


def _build_failure(ctx: VerifyContext):
    """None when the context's cover system and regions build, else the
    system-build FAIL report, with the witness that verify gives it."""
    witness = _system_build(ctx)
    return None if witness is None else _failure_report("system-build", witness)


def _load(path: str):
    """(instance, None), or (None, a schema FAIL report) for a file that is
    malformed or cannot be read."""
    try:
        return load_instance(path), None
    except (FormatError, ScheduleError, KeyError, ValueError, OSError) as exc:
        return None, _failure_report("schema", str(exc))


def cmd_verify(args) -> int:
    instance, report = _load(args.file)
    if instance is not None:
        report = verify_instance(instance)
    print(report.to_text())
    return 0 if report.passed else 1


def cmd_render(args) -> int:
    instance, failure = _load(args.file)
    if failure is not None:
        return _fail(failure)
    # a level given twice is drawn once, where it first appears
    levels = list(dict.fromkeys(args.level)) if args.level else None
    top = instance.diagram.length
    for n in levels or ():
        if not 0 <= n <= top:
            return _fail(_failure_report("schema", "level %d outside 0..%d" % (n, top)))
    ctx = VerifyContext(instance)
    failure = _build_failure(ctx)
    if failure is not None:
        return _fail(failure)
    try:
        geo.render_svg(ctx.realized, args.out, levels=levels)
    except (OSError, GraphError) as exc:  # no directory or permission; past float range
        return _fail(_failure_report("output", str(exc)))
    print("wrote %s" % args.out)
    return 0


def cmd_example1(args) -> int:
    report = check_example1()
    for key in ("total", "domain_size", "image_within_bounds", "image",
                "unused_targets", "block_sizes", "block_sum"):
        print("%-20s %s" % (key, report[key]))
    print("overall              %s" % ("PASS" if report["pass"] else "FAIL"))
    return 0 if report["pass"] else 1


def cmd_oracle(args) -> int:
    instance, failure = _load(args.file)
    if failure is not None:
        return _fail(failure)
    if args.trials < 0:
        return _fail(_failure_report("schema", "trials %d below 0" % args.trials))
    ctx = VerifyContext(instance)
    failure = _build_failure(ctx)
    if failure is not None:
        return _fail(failure)
    report = oracle_trials(ctx, args.trials, args.seed)
    for key in ("trials", "membership_agree", "map_trials", "map_agree"):
        print("%-20s %s" % (key, report[key]))
    print("overall              %s" % ("PASS" if report["pass"] else "FAIL"))
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treechains",
        description="Generate and verify tree-chain cover pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build an instance and verify it")
    p.add_argument("--l", type=int, required=True, help="pipeline length")
    p.add_argument("--eps", help="comma separated rational schedule, e.g. 3/4,2/3")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("generate-family", help="emit the raw diagram of trees")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_generate_family)

    p = sub.add_parser("verify", help="run the condition report on an instance")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="draw the realized covers as SVG")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--level", type=int, action="append",
                   help="restrict to a cover level (repeatable)")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("example1", help="check the published pattern table")
    p.set_defaults(func=cmd_example1)

    p = sub.add_parser("oracle", help="randomized cross-validation of the checkers")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
