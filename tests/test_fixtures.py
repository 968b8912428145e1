"""Each negative fixture must fail at exactly its intended condition, with
every earlier condition passing."""

import importlib.util
import json
import os

import pytest

from treechains.covers import ScheduleError
from treechains.serialize import FormatError, instance_from_json
from treechains.verify import CONDITIONS, verify_instance

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
# the verify text of each fixture, one file per fixture
REPORTS = os.path.join(os.path.dirname(__file__), "fixture_reports")

CASES = [
    ("eps_nondecreasing.json", "schema"),
    ("g_not_simplicial.json", "diagram-well-formed"),
    ("non_planar.json", "embedding"),
    ("broken_commutativity.json", "commutative"),
    ("coincidence_free.json", "coincidence-free"),
    ("proximity_edit.json", "proximity-free"),
    ("eps_short.json", "system-build"),
    ("phi_equals_g.json", "D1"),
    ("phi_edit_d2.json", "D2"),
    ("phi_edit_d2prime.json", "D2prime"),
    ("inflated_radius.json", "enlargement-disjoint"),
    ("nested_radius.json", "enlargement-nested"),
]


def load(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,condition", CASES)
def test_fails_exactly_at_condition(name, condition):
    payload = load(name)
    if condition == "schema":
        with pytest.raises((FormatError, ScheduleError)):
            instance_from_json(payload)
        return
    report = verify_instance(instance_from_json(payload))
    statuses = {r.name: r.status for r in report.results}
    assert statuses[condition] == "FAIL"
    for earlier in CONDITIONS[:CONDITIONS.index(condition)]:
        assert statuses[earlier] == "PASS", (earlier, statuses)
    assert not report.passed


@pytest.mark.parametrize("name,condition", CASES)
def test_cli_exit_code_nonzero(name, condition, capsys):
    # the printed report is pinned whole: every line, the FAIL line's
    # witness and the metrics included
    from treechains.cli import main
    assert main(["verify", os.path.join(FIXTURES, name)]) == 1
    with open(os.path.join(REPORTS, report_name(name))) as fh:
        assert capsys.readouterr().out == fh.read()


def report_name(name):
    return name[:-len(".json")] + ".txt"


def test_fixture_corpus_complete():
    present = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".json"))
    assert present == sorted(name for name, _ in CASES)
    assert sorted(os.listdir(REPORTS)) == sorted(report_name(name) for name, _ in CASES)


def test_make_fixtures_regenerates_every_fixture_byte_for_byte(tmp_path, monkeypatch):
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "make_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", str(tmp_path))
    tool.main()
    made = sorted(os.listdir(tmp_path))
    assert made == sorted(name for name, _ in CASES)
    for name in made:
        with open(os.path.join(FIXTURES, name), "rb") as fh:
            assert (tmp_path / name).read_bytes() == fh.read(), name
