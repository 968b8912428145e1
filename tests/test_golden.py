"""Byte identity of `generate --l 3`, `generate --l 8` and `generate --l 3
--eps 3/4,2/3,3/5,11/20` (a grid of E = 60, not the default schedule's): the
report and the five files each writes are pinned by sha256.  A change that keeps every
output the same keeps these digests; one that means to change an output
updates them."""

import hashlib

from treechains.cli import main

# arguments -> (sha256 of the report, sha256 of each file written)
GOLDEN = {
    ("--l", "3"): ("8cac70eeab8a36af77cb807aa489890c28ce689c33f27e249e839817b7525ef1", {
        "covers.svg": "5f4872cdbbae29ac4dfb6793586a86be159f3ff1838ca9045b64a892e95283d0",
        "enlargement.json": "e88adbed4fff221409a118145ef4db5f88e5d2a8c4fbcc737b00fca2ea6630ff",
        "instance.json": "568c3cdaaeaf5333b61e5ac65de25f9af3e2ebf79b2c7429ab858fe9c4d3f10a",
        "regions.json": "64bed9894b3a33b58d69c7ff10e223d58800e31217ee55c5a240b8be6fd293b9",
        "system.json": "a234454b12364edcf2b004adcf9b9f91afe5d86d6571461a90bf8e949a09fdec",
    }),
    ("--l", "8"): ("e2a2aa38e3dc693075447e922487384ac07ec33840b96b6181be4cec8f01e130", {
        "covers.svg": "b0bec4eae4a71eb45daeb6564679bf6f28bef0653c53f6a31be15571055e52f7",
        "enlargement.json": "e806fd76c6dfc85bd32988e3d1cc7bb9b929f151108abb60f6f193c29fd48863",
        "instance.json": "d850798756504f1c34b3f9916b57d23117b2106cd89299eaa0f0393ae0652c5d",
        "regions.json": "7fe9daecbe6165c30f7f61f7604a0211feeab0c15fdb6744abbdf94c3f4ad1c0",
        "system.json": "fe946581030ad27d424f1eede9eb3876c23c8956f0f201fa60322fe9552b8861",
    }),
    ("--l", "3", "--eps", "3/4,2/3,3/5,11/20"): (
        "e567095af7054f0fee44716a24a01446f6f5945ce019f1aa02ef75b6964d56e2", {
            "covers.svg": "1394b1e3740ef4c52969ee6599cb37f42bf20c78bcf38780da54e3b07ee5339f",
            "enlargement.json": "e88adbed4fff221409a118145ef4db5f88e5d2a8c4fbcc737b00fca2ea6630ff",
            "instance.json": "3acc47a4d4ee3d647bfee61177342c0f128673c6710f42da01886945bd5c5b8f",
            "regions.json": "088c8608a90a1a5e395fe4a414a4da7306efa0dcce8b6270fc4a5aee717f26ef",
            "system.json": "bd7fcdad0e05ca32023192502d98bb86ddb7bf607e719c369608ad856ccf1c98",
        }),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _check_generate_bytes(args, out, capsys):
    stdout, files = GOLDEN[args]
    assert main(["generate", *args, "--out", str(out)]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == stdout
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    assert {name: _sha256((out / name).read_bytes()) for name in files} == files


def test_generate_l3_bytes(tmp_path, capsys):
    _check_generate_bytes(("--l", "3"), tmp_path, capsys)


def test_generate_l8_bytes(tmp_path, capsys):
    _check_generate_bytes(("--l", "8"), tmp_path, capsys)


def test_generate_l3_eps60_bytes(tmp_path, capsys):
    _check_generate_bytes(("--l", "3", "--eps", "3/4,2/3,3/5,11/20"), tmp_path, capsys)
