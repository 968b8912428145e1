"""Byte identity of `generate --l 3`: the report and the five files it
writes are pinned by sha256.  A change that keeps every output the same
keeps these digests; one that means to change an output updates them."""

import hashlib

from treechains.cli import main

GOLDEN = {
    "covers.svg": "5f4872cdbbae29ac4dfb6793586a86be159f3ff1838ca9045b64a892e95283d0",
    "enlargement.json": "e88adbed4fff221409a118145ef4db5f88e5d2a8c4fbcc737b00fca2ea6630ff",
    "instance.json": "568c3cdaaeaf5333b61e5ac65de25f9af3e2ebf79b2c7429ab858fe9c4d3f10a",
    "regions.json": "64bed9894b3a33b58d69c7ff10e223d58800e31217ee55c5a240b8be6fd293b9",
    "system.json": "a234454b12364edcf2b004adcf9b9f91afe5d86d6571461a90bf8e949a09fdec",
}
STDOUT = "8cac70eeab8a36af77cb807aa489890c28ce689c33f27e249e839817b7525ef1"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_generate_l3_bytes(tmp_path, capsys):
    assert main(["generate", "--l", "3", "--out", str(tmp_path)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == STDOUT
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(GOLDEN)
    assert {name: _sha256((tmp_path / name).read_bytes()) for name in GOLDEN} == GOLDEN
