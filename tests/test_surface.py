"""Every public name of the package has a caller outside the tests.

A name that only the tests reach belongs in ``tests/reference.py``, so that
the package keeps one constructor and one view of each store.  The scan is
by name over the sources of ``src/``, ``perfbench/`` and ``tools/``: a name
in ``treechains.__all__`` must be named there (``src/treechains/__init__.py``
and the name's own ``def`` or ``class`` line do not count), and a public
method or property of an exported class must be read there as ``.name``.
"""

import inspect
import os
import re
from functools import cached_property

import treechains

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INIT = os.path.join(ROOT, "src", "treechains", "__init__.py")

MEMBER_KINDS = (staticmethod, classmethod, property, cached_property)


def _callers_text() -> str:
    texts = []
    for top in ("src", "perfbench", "tools"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                if name.endswith(".py") and path != INIT:
                    with open(path, encoding="utf-8") as fh:
                        texts.append(fh.read())
    return "\n".join(texts)


TEXT = _callers_text()


def test_every_public_name_has_a_caller_outside_the_tests():
    assert "TARGETS" in TEXT and "def main" in TEXT  # the scan read every tree
    unreached = []
    for name in treechains.__all__:
        # the name's own def or class line is not a caller
        text = re.sub(r"^[ \t]*(?:def|class)[ \t]+%s\b.*$" % name, "", TEXT, flags=re.M)
        if not re.search(r"\b%s\b" % name, text):
            unreached.append(name)
    unread = []
    for export in treechains.__all__:
        cls = getattr(treechains, export)
        if not inspect.isclass(cls):
            continue
        for name, member in vars(cls).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(member) or isinstance(member, MEMBER_KINDS):
                if not re.search(r"\.%s\b" % name, TEXT):
                    unread.append("%s.%s" % (export, name))
    assert (unreached, unread) == ([], [])
