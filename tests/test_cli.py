import functools
import json
import os
from collections import Counter

import pytest

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
    ])
    def test_malformed_fails_at_schema(self, tmp_path, capsys, payload):
        bad = tmp_path / "bad.json"
        bad.write_text(payload)
        assert main(["verify", str(bad)]) == 1
        assert capsys.readouterr().out.startswith("schema                 FAIL")


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
    def test_generate_family(self, tmp_path):
        out = tmp_path / "fam.json"
        assert main(["generate-family", "--k", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["diagram"]["levels"]) == 3

    def test_render(self, generated, tmp_path, capsys):
        svg = tmp_path / "pic.svg"
        assert main(["render", str(generated / "instance.json"),
                     "--out", str(svg), "--level", "1"]) == 0
        text = svg.read_text()
        assert '<g id="level-1"' in text
        assert '<g id="level-0"' not in text

    def test_example1(self, capsys):
        assert main(["example1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_oracle(self, generated, capsys):
        assert main(["oracle", str(generated / "instance.json"),
                     "--trials", "500", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "membership_agree     500" in out

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
