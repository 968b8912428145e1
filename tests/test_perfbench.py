"""The benchmark's tracer (perfbench/spans.py) wraps package functions and
methods by name; every name it lists must still resolve, or traced benchmark
runs break without any test noticing.  The benchmark's own self-test
(perfbench/selftest.py) must pass: each workload shape, traced and not,
reports every metric it names."""

import importlib
import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", os.path.join(PERFBENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    spans = load_spans()
    missing = []
    for module, targets in spans.TARGETS.items():
        mod = importlib.import_module("treechains." + module)
        for target in targets:
            if "." in target:
                cls_name, attr = target.split(".")
                # the tracer swaps the class attribute itself
                ok = attr in vars(getattr(mod, cls_name, object))
            else:
                ok = callable(getattr(mod, target, None))
            if not ok:
                missing.append("%s.%s" % (module, target))
    for name in spans.CAPTURED:
        module, attr = name.split(".")
        if not hasattr(importlib.import_module("treechains." + module), attr):
            missing.append(name)
    assert missing == []


def test_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
