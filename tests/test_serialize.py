import io
import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import coords
from test_geometry import region_edges

import treechains.cli as cli
import treechains.serialize as serialize
from treechains.cli import main
from treechains.covers import CoverSystem
from treechains.geometry import RealizedSystem
from treechains.serialize import (
    FormatError,
    LabelTable,
    fraction_from_json,
    fraction_to_json,
    graph_from_json,
    graph_to_json,
    instance_from_json,
    regions_to_json,
    system_to_json,
    vertex_from_json,
    write_json,
)
from treechains.simplicial import vkey
from treechains.verify import generate_instance


class TestScalars:
    def test_fraction_roundtrip(self):
        for x in (Fraction(0), Fraction(2, 3), Fraction(-7, 12)):
            assert fraction_from_json(fraction_to_json(x)) == x
        assert fraction_from_json(5) == Fraction(5)
        for bad in ("abc", " 3 / 4 ", "3_0/40", "+3/4", "\u0663/\u0664", "3/-4", "3/0"):
            with pytest.raises(FormatError):
                fraction_from_json(bad)

    def test_vertex_roundtrip(self):
        labels = [(1, 3), (-1, 0),
                  ("sub", ((0, 1), (0, 2)), "2/3"),
                  ("sub", ((-1, 2), (0, 2)), "1/3")]
        for v in labels:
            assert vertex_from_json(json.loads(json.dumps(LabelTable().json(v)))) == v
        with pytest.raises(FormatError):
            vertex_from_json(["sub", [[0, 0], [0, 1]], "1/2"])

    @settings(max_examples=400, deadline=None)
    @given(st.recursive(
        st.integers(-3, 3) | st.booleans() | st.text("sub/13", max_size=3) | st.none()
        | st.floats(-2, 2),
        lambda kids: st.lists(kids, max_size=3).map(tuple)
        | st.tuples(st.just("sub"), kids | st.tuples(kids, kids),
                    st.sampled_from(["1/3", "2/3", "1/2"])),
        max_leaves=8))
    def test_label_table_writes_exactly_what_the_loader_reads(self, label):
        def as_lists(v):
            return [as_lists(x) for x in v] if isinstance(v, tuple) else v

        try:
            js = LabelTable().json(label)
        except FormatError:
            # refused: its plain JSON form does not read back as the label either
            try:
                back = vertex_from_json(json.loads(json.dumps(as_lists(label))))
            except FormatError:
                return
            assert back != label or vkey(back) != vkey(label)
            return
        buf = io.StringIO()
        write_json(js, buf)
        back = vertex_from_json(json.loads(buf.getvalue()))
        assert back == label and vkey(back) == vkey(label)

    def test_bool_labels_are_refused_on_writing(self):
        for label in (True, (True, 1), (0, False), ("sub", ((0, 1), True), "1/3")):
            with pytest.raises(FormatError, match="unsupported vertex label"):
                LabelTable().json(label)

    @pytest.mark.parametrize("plain, with_bool", [
        (1, True),
        ((1, 2), (True, 2)),
        (("sub", ((0, 1), (1, 2)), "2/3"), ("sub", ((False, 1), (1, 2)), "2/3")),
        (("sub", (1, "a"), "1/3"), ("sub", (True, "a"), "1/3")),
    ])
    def test_bool_label_equal_to_a_written_one_is_refused_in_either_order(self, plain,
                                                                          with_bool):
        for first, second in ((plain, with_bool), (with_bool, plain)):
            table = LabelTable()
            for label in (first, second):
                if label is with_bool:
                    with pytest.raises(FormatError, match="unsupported vertex label"):
                        table.json(label)
                else:
                    assert vertex_from_json(table.json(label)) == plain


class TestGraphs:
    def test_graph_roundtrip_with_coords(self):
        g = generate_instance(1).diagram.levels[1]
        back = graph_from_json(json.loads(json.dumps(graph_to_json(g, LabelTable()))))
        assert back == g
        assert coords(back) == coords(g)


class TestInstances:
    def test_roundtrip_is_identity_on_canonical_form(self):
        for l in (1, 2):
            payload = generate_instance(l).to_json()
            text = json.dumps(payload, sort_keys=True)
            back = instance_from_json(json.loads(text))
            assert json.dumps(back.to_json(), sort_keys=True) == text

    def test_schema_version_enforced(self):
        payload = generate_instance(1).to_json()
        payload["schema"] = 2
        with pytest.raises(FormatError):
            instance_from_json(payload)

    def test_too_deep_nesting_is_a_format_error(self, tmp_path, monkeypatch):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        with pytest.raises(FormatError, match="nesting too deep"):
            serialize.load_instance(str(path))
        # vertex_from_json recurses per "sub" level; json.load's own limit trips
        # first on a file, so its RecursionError is raised here by hand
        path.write_text(json.dumps(generate_instance(1).to_json()))

        def too_deep(obj):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(serialize, "vertex_from_json", too_deep)
        with pytest.raises(FormatError, match="nesting too deep"):
            serialize.load_instance(str(path))

    def test_determinism(self):
        a = json.dumps(generate_instance(2).to_json(), sort_keys=True)
        b = json.dumps(generate_instance(2).to_json(), sort_keys=True)
        assert a == b

    def test_enlargement_block_roundtrip(self):
        inst = generate_instance(1)
        inst.enlargement = {"m_sq": Fraction(1, 9),
                            "radius_sq": [Fraction(1, 9), Fraction(1, 36)]}
        back = instance_from_json(json.loads(json.dumps(inst.to_json())))
        assert back.enlargement == inst.enlargement


class TestDerivedDumps:
    def test_levels_labelled_one_based(self):
        inst = generate_instance(1)
        system = CoverSystem(inst.diagram, inst.epsilons)
        sys_json = system_to_json(system)
        assert [lvl["level"] for lvl in sys_json["levels"]] == [1, 2]
        reg_json = regions_to_json(RealizedSystem(system))
        assert sorted(set(s["level"] for s in reg_json["sets"])) == [1, 2]

    def test_region_ends_are_the_pieces(self):
        """regions_to_json reads each end from the codes; SegmentRegion.pieces
        gives the same ends as Fractions."""
        inst = generate_instance(3)
        realized = RealizedSystem(CoverSystem(inst.diagram, inst.epsilons))
        js = LabelTable().json
        for a, dumped in zip(realized.system.all_sets(), regions_to_json(realized)["sets"]):
            r = realized.region(a)
            assert dumped["pieces"] == [
                [[js(e[0]), js(e[1])], [[fraction_to_json(lo), fraction_to_json(hi), lc, hc]
                                        for lo, hi, lc, hc in r.pieces[e]]]
                for e in region_edges(r)]

    def test_fibers_listed_per_set(self):
        inst = generate_instance(1)
        system = CoverSystem(inst.diagram, inst.epsilons)
        sys_json = system_to_json(system)
        deepest = sys_json["levels"][-1]["sets"]
        assert all(len(s["fiber"]) == 1 for s in deepest)


# strings with quotes, backslashes, control and non-ASCII characters; ints past
# 64 bits either side of zero; bools, which JSON writes apart from ints
TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600') | st.characters())
SCALARS = (TEXT | st.integers() | st.integers(2 ** 64, 2 ** 200)
           | st.integers(-2 ** 200, -2 ** 64) | st.booleans())
PAYLOADS = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=30)


@st.composite
def deep_payloads(draw):
    """A payload under 71 to 120 more levels of lists and dicts."""
    obj, key, scalar = draw(PAYLOADS), draw(TEXT), draw(SCALARS)
    for kind in draw(st.lists(st.sampled_from("lds"), min_size=71, max_size=120)):
        obj = [obj] if kind == "l" else {key: obj} if kind == "d" else [scalar, obj]
    return obj


@st.composite
def shared_lists(draw):
    """A payload holding one list object at many depths, which itself holds
    another list object more than once; either may be empty, and strings
    may hold a newline."""
    inner = draw(st.lists(PAYLOADS, max_size=3))
    shared = draw(st.lists(PAYLOADS | st.just(inner), max_size=4))
    obj, key = draw(PAYLOADS), draw(TEXT)
    for kind in draw(st.lists(st.sampled_from("lds"), min_size=1, max_size=40)):
        obj = ([obj, shared] if kind == "l" else {key: obj, key + "\n": shared}
               if kind == "d" else [shared, [inner, obj], "\n"])
    return obj


def _written(obj) -> str:
    buf = io.StringIO()
    write_json(obj, buf)
    return buf.getvalue()


class TestWriter:
    @settings(max_examples=150, deadline=None)
    @given(PAYLOADS | deep_payloads())
    def test_text_is_the_stdlib_indent_1_text(self, obj):
        assert _written(obj) == json.dumps(obj, indent=1, sort_keys=True)

    @settings(max_examples=150, deadline=None)
    @given(shared_lists())
    def test_a_repeated_list_is_written_as_the_stdlib_writes_it(self, obj):
        assert _written(obj) == json.dumps(obj, indent=1, sort_keys=True)

    @pytest.mark.parametrize("obj", [1.5, None, (1, 2), {1: "a"}, [[], 2.0],
                                     {"a": {"b": None}}, {"a": 1, 2: "b"}])
    def test_other_types_raise(self, obj):
        with pytest.raises(TypeError):
            _written(obj)

    @pytest.mark.parametrize("args", [("--l", str(l)) for l in range(1, 6)]
                             + [("--l", "3", "--eps", "3/4,2/3,3/5,11/20")])
    def test_generate_payloads_are_the_stdlib_text(self, args, tmp_path, monkeypatch, capsys):
        """Each of generate's four payloads, its shared lists included, is
        written as the stdlib writes it; regions.json holds one interval list
        per distinct (E, codes) run and one [a, b] list per edge."""
        payloads, realized = {}, []

        def regions(r):
            realized.append(r)
            return regions_to_json(r)

        monkeypatch.setattr(cli, "dump_json", lambda obj, path: payloads.update(
            {os.path.basename(path): obj}))
        monkeypatch.setattr(cli, "regions_to_json", regions)
        assert main(["generate", *args, "--out", str(tmp_path)]) == 0
        assert sorted(payloads) == ["enlargement.json", "instance.json", "regions.json",
                                    "system.json"]
        for obj in payloads.values():
            assert _written(obj) == json.dumps(obj, indent=1, sort_keys=True)
        regions = realized[0].regions.values()
        pieces = [p for s in payloads["regions.json"]["sets"] for p in s["pieces"]]
        assert len({id(run) for _, run in pieces}) == len(
            {(r.steps, coded) for r in regions for coded in r.codes.values()})
        assert len({id(pair) for pair, _ in pieces}) == len(
            {k for r in regions for k in r.codes})

    def test_generate_streams_its_files(self, tmp_path, monkeypatch, capsys):
        """At l = 8 no single write exceeds 64 KiB: no document is built whole."""
        sizes = []

        class Recording:
            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                sizes.append(len(text))
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        monkeypatch.setattr(serialize, "open", lambda *a, **k: Recording(open(*a, **k)),
                            raising=False)
        assert main(["generate", "--l", "8", "--out", str(tmp_path)]) == 0
        assert sum(sizes) == sum(p.stat().st_size for p in tmp_path.glob("*.json"))
        assert max(sizes) <= 64 * 1024
