"""Golden digests of everything a simulation writes.

The SHA-256 digests below were captured from the scalar per-trial sampler
before the Monte Carlo engine was vectorised; the vectorised engine must
reproduce every byte.  Each case runs the CLI in a scratch directory with
relative paths, so the bytes do not depend on where the test runs:

* `csv`, `json`: `simulate --out records.csv --format json`;
* `csv_lambda`, `text`: `simulate --out records.csv --reveal-lambda`;
* `report`: the `simulation` section of `report --simulate-trials 500
  --format json` (the other sections belong to other modules).

Inputs: the conftest CHSH singlet under the uniform policy, the
equal-axes singlet under a `sequence:` policy, the eight-pattern fixture,
and a decimal spec whose ids need CSV quoting.  The large seed is past
2^63, so the 64-bit wrap of the stream state is pinned too.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from bell_lab.cli import main
from bell_lab.singlet import make_planar_singlet
from bell_lab.specio import dump_theory

FIXTURES = Path(__file__).parent / "fixtures"

TRIALS = 700
SEEDS = (7, 2**64 - 12345)

#: Alice ids with a comma, a quote and a space; a Bob id with a newline;
#: hidden-state ids with a comma and quotes, and with a line break.
_ALICE = ("a,1", 'a"2', "a 3")
_BOB = ("b\n1", "b2")
_STATES = ('s,"1"', "s\r\n2", "s3")
_CELLS = ((0.1, 0.2, 0.3, 0.4), (0.5, 0.5, 0.0, 0.0), (0.0, 0.25, 0.75, 0.0),
          (0.3, 0.3, 0.3, 0.1), (0.7, 0.1, 0.1, 0.1), (0.0, 0.0, 0.0, 1.0))
QUOTED_SPEC = {
    "name": "ids that need CSV quoting",
    "scenario": {
        "alice_settings": [{"id": a} for a in _ALICE],
        "bob_settings": [{"id": b} for b in _BOB],
    },
    "ensemble": [{"id": s, "weight": w} for s, w in zip(_STATES, (0.1, 0.2, 0.7))],
    "kernel": {
        s: {
            f"{a}|{b}": dict(zip(("++", "+-", "-+", "--"), _CELLS[(i + k) % len(_CELLS)]))
            for i, (a, b) in enumerate((a, b) for a in _ALICE for b in _BOB)
        }
        for k, s in enumerate(_STATES)
    },
}


def _write_spec(case: str, work: Path) -> list[str]:
    """Write the case's spec (and policy file) into `work`; returns extra
    `simulate` arguments."""
    spec = work / "spec.json"
    if case == "singlet_chsh":
        dump_theory(make_planar_singlet("a1=0,a2=90", "b1=45,b2=135", name="singlet chsh angles"),
                    spec)
        return ["--chsh-roles", "a2,a1:b1,b2"]
    if case == "singlet_equal_axes":
        dump_theory(make_planar_singlet("n1=0,n2=90", "n1=0,n2=90", name="singlet shared axes"),
                    spec)
        (work / "seq.txt").write_text("n1,n1\nn2,n2\nn1,n2\n", encoding="utf-8")
        return ["--policy", "sequence:seq.txt"]
    if case == "eight_pattern":
        shutil.copyfile(FIXTURES / "eight_pattern.json", spec)
        return []
    spec.write_text(json.dumps(QUOTED_SPEC), encoding="utf-8")
    return []


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def simulation_digests(case: str, seed: int, work: Path, capsys) -> dict[str, str]:
    """Run the case through the CLI in `work` (the current directory)."""
    extra = _write_spec(case, work)
    sim = ["simulate", "spec.json", "--trials", str(TRIALS), "--seed", str(seed),
           "--out", "records.csv", *extra]
    out: dict[str, str] = {}

    assert main([*sim, "--format", "json"]) == 0
    out["json"] = _sha(capsys.readouterr().out.encode("utf-8"))
    out["csv"] = _sha((work / "records.csv").read_bytes())

    assert main([*sim, "--reveal-lambda"]) == 0
    out["text"] = _sha(capsys.readouterr().out.encode("utf-8"))
    out["csv_lambda"] = _sha((work / "records.csv").read_bytes())

    assert main(["report", "spec.json", "--simulate-trials", "500", "--seed", str(seed),
                 "--format", "json"]) == 0
    section = json.loads(capsys.readouterr().out)["sections"]["simulation"]
    out["report"] = _sha(json.dumps(section, indent=2, sort_keys=True).encode("utf-8"))
    return out


GOLDEN: dict[str, dict[str, str]] = {
    "singlet_chsh@7": {
        "json": "5f5883c756c116044b823ef20d3f471840ba8785a73dcb125e03ee0d4761b9e4",
        "csv": "898c8cdb23b4ab0fdc93777da99db44186c828301b98344c9a48bf055c9e392f",
        "text": "1581c6d70afded3d0b028a1cbe429f93ebb2e38746986de0f3b991d7d122025c",
        "csv_lambda": "0b2a071f7b0f9934ea66f685683425d1e378ccab3c9b64bd80762e088ccb4120",
        "report": "fd7367a54d3712d07b0fa5703d13bc9e9be056dd4426274ed2b320a891fac674",
    },
    "singlet_chsh@18446744073709539271": {
        "json": "8af064bdd0f5b08b02c753763034c7beecc38d80dd2fd87d0700b8b3b6c1fe49",
        "csv": "36a45c92b3665de12649f3cb07f55cd84e288f6fe9a694589e43320c226a5729",
        "text": "987281fbb9307e81692c869e247bfdc5e52b49c47831eeb966f0e5ff012320e0",
        "csv_lambda": "96363b7ae1edb6004a14d16995fd79a571986249fe30ab031c1977b353ad141a",
        "report": "e4e2ce30ecfe1b67e3a7048b65480e5e958ec9d4e31fb4cf47c5ba98ced05485",
    },
    "singlet_equal_axes@7": {
        "json": "85ccf8583148015327425b2b919e4b71562038717f3b5f8ec0d4b3191fd15e35",
        "csv": "be9a2a0cd024e700f2b3c6c9c5907e4183bf324da9920603b6c12de9e433f94c",
        "text": "38913ee01d089f8f888d48e5081aef047d1a6828b824441f0d90cabb84a8cb9e",
        "csv_lambda": "047fbda98fc0bc341b95c4187206eed68d42c9f4a54dd51d6c41081046b54827",
        "report": "034776535477f0a1ee3d5f3a3c2f9e1f84310a7c8a5bccbe025b7e51b7ee3df1",
    },
    "singlet_equal_axes@18446744073709539271": {
        "json": "866ec83bfec3e7b930a17fb68f5e4a6ff8cba4f5b2f537fe479e8b582cdd7c11",
        "csv": "e0089a293d13712dd57afdbef98515f6d7ede38ff32b7a0b1de1786c79abbd4b",
        "text": "538d79bbbd667a22e4defce099a77c4f530c93ffda15d782f659e3f065710384",
        "csv_lambda": "f43864f0ebb540cde4e38f77e7051448d01041f769affc7e301dddec6df10c52",
        "report": "a0855ffa93f7ee635da4a732e612a990ac8661410331f5a131e88c489522aeb5",
    },
    "eight_pattern@7": {
        "json": "1dd4fb9618d25c8a87d056c971ad78eec86c00e0fefd2cd20fb308fa67eedb09",
        "csv": "7752deaacc02560fdac9ec6a220365c958d27d82feb0564a9f541e99128ea4a5",
        "text": "415dea47043ccbcda4b1c651e70432d6d2d8db88fbcfd8992899163d69085294",
        "csv_lambda": "67741234424412ece13a45406e94e4f0e19bbb6073e2c1d972c608e036abde07",
        "report": "c57b7a91a73610929eff364d73fc5add088f60dc763cb2c73cb487d0644f504e",
    },
    "eight_pattern@18446744073709539271": {
        "json": "c8e5e23a3373c1829abf026f1313fcd9fd7f6cd6d11e8039463878b3f134f6ea",
        "csv": "27d91ebd304d6a9b74c515e6275e76e47d6e817176fe2b899144ec76deaf27e5",
        "text": "8e2b9334a1cc4a3e7b26baacab9c6858d7dae5a650efdcafc4f02739d6fdc3df",
        "csv_lambda": "f484fb076b2a8f35841759250115ba308044ddcbd9442f35b2eb9d5711176689",
        "report": "56dd0c4b1a8d1318ee96f00c12d4bd145aabd49661ec787fac2a9a341d0d335c",
    },
    "quoted_ids@7": {
        "json": "27b26ad5bfc6c295bd37abc9ad51079c4274a1f6d9b41a6ffcef992a694627b9",
        "csv": "e07e2c02a1db1dae8b28482867aaa43ec5ac6a0c47a3df554c9dc213d6e1eb4d",
        "text": "88698d3c2d3a4cd9c6e237a1a4ce8881d29ecbb9f9d0d24d74e3cd8ae26081a7",
        "csv_lambda": "d2a3c0ad386012de374c34a6010501a399f60ef0f5bc62115df6b530dbc02acd",
        "report": "9962aa7e4b617beee41c286d5e44f197fa9c03aad0fd43267af8eea2122b3709",
    },
    "quoted_ids@18446744073709539271": {
        "json": "78e15c124a0f87420b35bde5a69c084a8d5e7f5d62f00a9179188bdc5bf95962",
        "csv": "8e73175231a66c26588d0bb5f76237cae4e5bf73c1a70eabe9fcbbeedb034889",
        "text": "e8b2b44ac8d55a10b55092cacc3fc43df57b851d488f21b1f25cae60bd18865e",
        "csv_lambda": "f95a26ee515401074a3034fb98ee39a600066bcc5651bb2864535999885dac74",
        "report": "7a63ea339647034f2c17756d76cac456ad5d38ca3138fcef24da58ce6f96a765",
    },
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", ["singlet_chsh", "singlet_equal_axes", "eight_pattern", "quoted_ids"])
def test_simulation_bytes_match_golden(case, seed, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert simulation_digests(case, seed, tmp_path, capsys) == GOLDEN[f"{case}@{seed}"]
