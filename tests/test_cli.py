import contextlib
import functools
import io
import json
import os
import tempfile
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_fixtures import CASES, FIXTURES

import treechains.geometry as geo
from treechains.cli import main
from treechains.covers import CoverSystem
from treechains.verify import generate_instance, verify_instance


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    code = main(["generate", "--l", "1", "--out", str(out)])
    assert code == 0
    return out


class TestGenerate:
    def test_emits_all_artifacts(self, generated):
        names = sorted(os.listdir(generated))
        assert names == ["covers.svg", "enlargement.json", "instance.json",
                         "regions.json", "system.json"]
        for name in names:
            if name.endswith(".json"):
                payload = json.loads((generated / name).read_text())
                assert payload["schema"] == 1

    def test_determinism(self, generated, tmp_path):
        again = tmp_path / "again"
        assert main(["generate", "--l", "1", "--out", str(again)]) == 0
        for name in os.listdir(generated):
            assert (again / name).read_bytes() == (generated / name).read_bytes()

    def test_eps_override(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["generate", "--l", "1", "--eps", "4/5,7/10",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "instance.json").read_text())
        assert payload["epsilon"] == ["4/5", "7/10"]

    def test_builds_each_structure_once(self, tmp_path, monkeypatch, capsys):
        expected = verify_instance(generate_instance(4)).to_text() + "\n"
        calls = Counter()

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(CoverSystem, "__init__",
                            counted("system", CoverSystem.__init__))
        monkeypatch.setattr(geo.RealizedSystem, "__init__",
                            counted("realized", geo.RealizedSystem.__init__))
        monkeypatch.setattr(geo, "family_min_gap_squared",
                            counted("gap", geo.family_min_gap_squared))
        assert main(["generate", "--l", "4", "--out", str(tmp_path / "o")]) == 0
        assert calls == {"system": 1, "realized": 1, "gap": 1}
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("args", [
        ["--l", "2", "--eps", "3/4,2/3"],  # one radius short of l+1
        ["--l", "2", "--eps", "3/4,1/2,x"],  # not a rational
        ["--l", "0"],
        ["--l", "2", "--eps", " 3_0/40,+2/3,5/8"],  # int() reads these, JSON does not
        ["--l", "2", "--eps", "3 / 4,2/3,5/8"],
        ["--l", "2", "--eps", "\u0663/\u0664,2/3,5/8"],
        ["--l", "2", "--eps", "3/4,2/3,-5/-8"],
    ])
    def test_bad_arguments_fail_at_schema(self, tmp_path, capsys, args):
        out = tmp_path / "o"
        assert main(["generate"] + args + ["--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert text.startswith("schema                 FAIL")
        assert "overall                FAIL" in text
        assert not out.exists()

    def test_out_on_a_file_fails_before_verify(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")
        def no_verify(*args, **kwargs):
            raise AssertionError("verify ran before the output directory was made")

        monkeypatch.setattr("treechains.cli.verify_instance", no_verify)
        assert main(["generate", "--l", "1", "--out", str(taken)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("output                 FAIL  witness=")
        assert lines[1:] == ["overall                FAIL"]
        assert taken.read_text() == ""

    @pytest.mark.parametrize("name", ["instance.json", "covers.svg"])  # first, last
    def test_unwritable_output_file_fails(self, tmp_path, capsys, name):
        (tmp_path / name).mkdir()
        assert main(["generate", "--l", "1", "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("output                 FAIL  witness=")
        assert lines[1:] == ["overall                FAIL"]


def with_enlargement(m_sq, radius_sq):
    """The l=1 instance as JSON text, with its own enlargement block."""
    payload = generate_instance(1).to_json()
    payload["enlargement"] = {"m_sq": m_sq, "radius_sq": radius_sq}
    return json.dumps(payload)


def with_l2(schema=False, fraction=False, vertex=False):
    """The l=2 instance as JSON text with true for an int: for the schema
    number, for every coordinate 1/1, or for the side of every [1, level]
    vertex.  Each verifies PASS if true is read as 1."""
    payload = generate_instance(2).to_json()
    if schema:
        payload["schema"] = True
    text = json.dumps(payload)
    if fraction:
        text = text.replace('"1/1"', "true")
    return text.replace("[1, ", "[true, ") if vertex else text


def with_duplicate(kind):
    """The l=1 instance with a phi table as JSON text, with one entry listed
    twice.  A first entry that the real one follows conflicts with it; a
    reader that kept the last of each would pass the file."""
    inst = generate_instance(1)
    inst.phi_tables = [dict(inst.diagram.f_row[0].assignment)]
    payload = json.loads(json.dumps(inst.to_json()))
    diagram = payload["diagram"]
    level = diagram["levels"][1]
    first = level["vertices"][0]
    other = level["vertices"][1]
    if kind == "g-row":
        row = diagram["g_row"][0]
        row.insert(0, [row[0][0], next(w for v, w in row if w != row[0][1])])
    elif kind == "phi":
        row = payload["phi"][0]
        row.insert(0, [row[0][0], next(w for v, w in row if w != row[0][1])])
    elif kind == "coords":
        level["coords"].insert(0, [first, next(xy for v, xy in level["coords"] if v == other)])
    elif kind == "vertex":
        level["vertices"].append(first)
    else:
        a, b = level["edges"][0]
        level["edges"].append([a, b] if kind == "edge" else [b, a])
    return json.dumps(payload)


class TestVerify:
    def test_pass_exit_zero(self, generated, capsys):
        assert main(["verify", str(generated / "instance.json")]) == 0
        text = capsys.readouterr().out
        assert "overall                PASS" in text
        assert text.count("PASS") >= 18
        assert "Fraction(" not in text

    def test_garbage_fails_at_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "epsilon": ["3/4", "1/2"], "diagram": {}}')
        assert main(["verify", str(bad)]) == 1
        assert "schema" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", [
        '{"schema": 1, "epsilon": ["3/4", "1/2"], "diagram": []}',
        '{"schema": 1, "epsilon": ["3/4", "1/0"], "diagram": {}}',
        pytest.param(with_enlargement("1/9", ["-1/9", "1/36"]), id="negative-radius"),
        # JSON booleans where an int belongs; Python reads true as 1
        pytest.param(with_l2(schema=True), id="bool-schema"),
        pytest.param(with_l2(fraction=True), id="bool-fraction"),
        pytest.param(with_l2(vertex=True), id="bool-vertex"),
    ])
    def test_malformed_fails_at_schema(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(["verify", str(bad)]) == 1
        assert capsys.readouterr().out.startswith("schema                 FAIL")

    @pytest.mark.parametrize("kind", ["g-row", "phi", "coords", "vertex", "edge",
                                      "reversed-edge"])
    def test_duplicate_entry_fails_at_schema(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.json"
        bad.write_text(with_duplicate(kind))
        assert main(["verify", str(bad)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("schema                 FAIL")
        assert "is listed twice" in lines[0]
        assert lines[1:] == ["overall                FAIL"]

    def test_zero_radius_fails_at_nesting(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(with_enlargement("0/1", ["0/1", "0/1"]))
        assert main(["verify", str(path)]) == 1
        assert "enlargement-nested     FAIL" in capsys.readouterr().out

    def test_fail_witness_prints_rationals(self, capsys):
        fixture = os.path.join(os.path.dirname(__file__), "fixtures",
                               "inflated_radius.json")
        assert main(["verify", fixture]) == 1
        text = capsys.readouterr().out
        assert "enlargement-disjoint   FAIL  witness=" in text
        assert "101/16" in text
        assert "Fraction(" not in text


MALFORMED = '{"schema": 1, "epsilon": ["3/4", "1/0"], "diagram": {}}'


class TestOther:
    def test_generate_family(self, tmp_path, capsys):
        out = tmp_path / "fam.json"
        assert main(["generate-family", "--k", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["diagram"]["levels"]) == 3
        capsys.readouterr()
        assert main(["generate-family", "--k", "3"]) == 0  # the same bytes on stdout
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_render(self, generated, tmp_path, capsys):
        svg = tmp_path / "pic.svg"
        assert main(["render", str(generated / "instance.json"),
                     "--out", str(svg), "--level", "1"]) == 0
        text = svg.read_text()
        assert '<g id="level-1"' in text
        assert '<g id="level-0"' not in text

    def test_render_draws_a_repeated_level_once(self, tmp_path, capsys):
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "phi_edit_d2.json")
        svg = tmp_path / "pic.svg"
        assert main(["render", fixture, "--out", str(svg),
                     "--level", "1", "--level", "0", "--level", "1"]) == 0
        text = svg.read_text()
        assert text.count('id="level-1"') == 1 and text.count("cover 1 (") == 1
        # the first appearance sets the order
        assert text.index('id="level-1"') < text.index('id="level-0"')
        assert text.index("cover 1 (") < text.index("cover 0 (")

    @pytest.mark.parametrize("level", ["2", "-1", "-2"])  # l = 1: levels 0..1
    def test_render_level_outside_the_pipeline_fails(self, generated, tmp_path, capsys,
                                                     level):
        svg = tmp_path / "pic.svg"
        assert main(["render", str(generated / "instance.json"),
                     "--out", str(svg), "--level", level]) == 1
        text = capsys.readouterr().out
        assert text.startswith("schema                 FAIL  witness='level %s outside 0..1'" % level)
        assert "overall                FAIL" in text
        assert not svg.exists()

    def test_render_into_a_missing_directory_fails(self, generated, tmp_path, capsys):
        svg = tmp_path / "missing" / "x.svg"
        assert main(["render", str(generated / "instance.json"), "--out", str(svg)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("output                 FAIL  witness=")
        assert lines[1:] == ["overall                FAIL"]
        assert not svg.parent.exists()

    @pytest.mark.parametrize("power", [400, 307])
    def test_render_past_float_range_fails(self, tmp_path, capsys, power):
        # 10^400 overflows each coordinate's quotient, 10^307 the picture's width
        payload = generate_instance(2).to_json()
        for level in payload["diagram"]["levels"]:
            for _, xy in level["coords"]:
                xy[:] = ["%d/%s" % (int(p) * 10 ** power, q)
                         for p, q in (c.split("/") for c in xy)]
        path, svg = tmp_path / "far.json", tmp_path / "far.svg"
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()
        assert main(["render", str(path), "--out", str(svg)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("output                 FAIL  witness=")
        assert "float range" in lines[0]
        assert lines[1:] == ["overall                FAIL"]
        assert not svg.exists()

    def test_render_collapsed_coordinates_fails(self, tmp_path, capsys):
        # below 10^-308 every coordinate's quotient is 0.0, so every tree
        # vertex would draw at one pixel
        payload = generate_instance(2).to_json()
        for level in payload["diagram"]["levels"]:
            for _, xy in level["coords"]:
                xy[:] = ["%s/%d" % (p, int(q) * 10 ** 400)
                         for p, q in (c.split("/") for c in xy)]
        path, svg = tmp_path / "near.json", tmp_path / "near.svg"
        path.write_text(json.dumps(payload))
        assert main(["verify", str(path)]) == 0
        capsys.readouterr()
        assert main(["render", str(path), "--out", str(svg)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("output                 FAIL  witness=")
        assert "one pixel" in lines[0]
        assert lines[1:] == ["overall                FAIL"]
        assert not svg.exists()

    @pytest.mark.parametrize("k", ["1", "0", "-2"])
    def test_generate_family_below_two_fails(self, tmp_path, capsys, k):
        out = tmp_path / "fam.json"
        assert main(["generate-family", "--k", k, "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert text.startswith("schema                 FAIL  witness='k must be at least 2'")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_generate_family_to_a_bad_path_fails(self, tmp_path, capsys, where):
        out = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
        assert main(["generate-family", "--k", "2", "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("output                 FAIL  witness=")
        assert lines[1:] == ["overall                FAIL"]
        assert not (tmp_path / "missing").exists()

    def test_example1(self, capsys):
        assert main(["example1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle(self, generated, capsys):
        assert main(["oracle", str(generated / "instance.json"),
                     "--trials", "500", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "membership_agree     500" in out

    def test_oracle_builds_each_structure_once(self, generated, monkeypatch, capsys):
        calls = Counter()

        def counted(name, fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(CoverSystem, "__init__",
                            counted("system", CoverSystem.__init__))
        monkeypatch.setattr(geo.RealizedSystem, "__init__",
                            counted("realized", geo.RealizedSystem.__init__))
        assert main(["oracle", str(generated / "instance.json"), "--trials", "50"]) == 0
        assert calls == {"system": 1, "realized": 1}
        assert "membership_agree     50" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["render", "{file}", "--out", "{out}"],
        ["oracle", "{file}", "--trials", "5"],
    ])
    def test_malformed_input_fails_without_traceback(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.json"
        bad.write_text(MALFORMED)
        argv = [a.format(file=bad, out=tmp_path / "x.svg") for a in argv]
        assert main(argv) == 1
        assert capsys.readouterr().out.startswith("schema                 FAIL")
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "{file}"],
        ["render", "{file}", "--out", "{out}"],
        ["oracle", "{file}", "--trials", "5"],
    ])
    @pytest.mark.parametrize("missing", [True, False])
    def test_unreadable_input_fails_without_traceback(self, tmp_path, capsys, argv, missing):
        # a path that does not exist, or a directory
        path = tmp_path / "absent.json" if missing else tmp_path
        argv = [a.format(file=path, out=tmp_path / "x.svg") for a in argv]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("schema                 FAIL  witness=")
        assert lines[-1] == "overall                FAIL"
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "{file}"],
        ["render", "{file}", "--out", "{out}"],
        ["oracle", "{file}", "--trials", "5"],
    ])
    def test_deeply_nested_input_fails_without_traceback(self, tmp_path, capsys, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        argv = [a.format(file=deep, out=tmp_path / "x.svg") for a in argv]
        assert main(argv) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["schema                 FAIL  witness='nesting too deep to read'",
                         "overall                FAIL"]
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize("trials", ["-1", "-5"])
    def test_oracle_negative_trials_fail_at_schema(self, generated, capsys, trials):
        assert main(["oracle", str(generated / "instance.json"), "--trials", trials]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["schema                 FAIL  witness='trials %s below 0'" % trials,
                         "overall                FAIL"]


COMMAND_ARGS = {"render": ["--out", "{out}"], "oracle": ["--trials", "50"]}


def _run_on_fixture(command, name, svg):
    args = [a.format(out=svg) for a in COMMAND_ARGS[command]]
    return main([command, os.path.join(FIXTURES, name)] + args)


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_render_and_oracle_end_in_a_verdict_on_every_fixture(tmp_path, capsys, name,
                                                             command):
    svg = tmp_path / "x.svg"
    code = _run_on_fixture(command, name, svg)
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 1)
    if code == 1:
        assert any(line.split()[1:2] == ["FAIL"] for line in lines)
        assert not svg.exists()


# fixtures whose cover system cannot be built, with the start of the error
BUILD_ERRORS = {"eps_short.json": "schedule length 2 != l+1 = 3",
                "g_not_simplicial.json": "empty union: "}


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
@pytest.mark.parametrize("name", sorted(BUILD_ERRORS))
def test_unbuildable_system_fails_at_system_build(tmp_path, capsys, name, command):
    svg = tmp_path / "x.svg"
    assert _run_on_fixture(command, name, svg) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(
        "system-build           FAIL  witness=('build-error', '%s" % BUILD_ERRORS[name])
    assert lines[1] == "overall                FAIL"
    assert not svg.exists()
    if name == "eps_short.json":
        # the line verify prints, where its stages reach the build
        main(["verify", os.path.join(FIXTURES, name)])
        assert lines[0] in capsys.readouterr().out.splitlines()


def _json_paths(node, path=()):
    """Every (path, value) below and including node, in document order."""
    yield path, node
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _json_paths(node[key], path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _json_paths(item, path + (i,))


def _is_rational(value):
    return isinstance(value, str) and value.count("/") == 1


OTHER_TYPES = [None, True, 7, "x", [], {}]


@st.composite
def mutated_instances(draw):
    """The l=1 instance, with or without its own enlargement block, after
    one to three random edits.  Up to two map edits come first: an f entry
    moved to a neighbour of its value, or set to the g entry of the same
    vertex, or the whole f-row set to the g-row (a single entry edit breaks
    simpliciality, so only this one reaches ``coincidence-free``).  Then the
    JSON edits: drop a key, give a value another JSON type, put 1/0 or a
    negative rational in place of a rational, cut a list."""
    payload = json.loads(draw(st.sampled_from(FUZZ_BASES)))
    diagram = payload["diagram"]
    f_row, g_row = diagram["f_row"][0], diagram["g_row"][0]
    edges = diagram["levels"][0]["edges"]
    map_edits = draw(st.integers(0, 2))
    for _ in range(map_edits):
        kind = draw(st.sampled_from(["neighbour", "g-entry", "g-row"]))
        if kind == "g-row":
            f_row[:] = json.loads(json.dumps(g_row))
            continue
        k = draw(st.integers(0, len(f_row) - 1))
        v, w = f_row[k]
        if kind == "g-entry":
            f_row[k] = [v, next(g for u, g in g_row if u == v)]
        else:
            f_row[k] = [v, draw(st.sampled_from([b if a == w else a for a, b in edges
                                                 if w in (a, b)]))]
    for _ in range(draw(st.integers(0 if map_edits else 1, 3))):
        paths = list(_json_paths(payload))
        kind = draw(st.sampled_from(["drop", "retype", "rational", "truncate"]))
        if kind == "drop":
            cands = [(p, v) for p, v in paths if isinstance(v, dict) and v]
        elif kind == "retype":
            cands = [(p, v) for p, v in paths if p]
        elif kind == "rational":
            cands = [(p, v) for p, v in paths if _is_rational(v)]
        else:
            cands = [(p, v) for p, v in paths if isinstance(v, list) and v]
        if not cands:
            continue
        path, value = draw(st.sampled_from(cands))
        if kind == "drop":
            del value[draw(st.sampled_from(sorted(value)))]
            continue
        if kind == "retype":
            new = draw(st.sampled_from([o for o in OTHER_TYPES
                                        if type(o) is not type(value)]))
        elif kind == "rational":
            new = draw(st.sampled_from(["1/0", "-" + value.lstrip("-")]))
        else:
            new = value[:draw(st.integers(0, len(value) - 1))]
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = new
    return payload


def _fuzz_bases():
    plain = generate_instance(1)
    own = generate_instance(1)
    own.phi_tables = [dict(own.diagram.f_row[0].assignment)]
    own.enlargement = {"m_sq": Fraction(1, 324),
                       "radius_sq": [Fraction(1, 324), Fraction(1, 1296)]}
    return [json.dumps(inst.to_json()) for inst in (plain, own)]


FUZZ_BASES = _fuzz_bases()


@settings(max_examples=150, deadline=None)
@given(mutated_instances())
def test_verify_never_raises_on_mutated_instance(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w") as fh:
            json.dump(payload, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["verify", path])
    assert code in (0, 1)
    assert "\noverall                " in "\n" + out.getvalue()
