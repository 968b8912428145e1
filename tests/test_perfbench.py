"""The benchmark's tracer (perfbench/spans.py) wraps package functions and
methods by name; every name it lists must still resolve, or traced benchmark
runs break without any test noticing."""

import importlib
import importlib.util
import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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
