"""Golden digests of the audit, derivation and Bell-test output.

Each case runs one subcommand through `cli.main` in the spec's directory,
with the spec named by a relative path, and hashes the exit code, stdout
and stderr together with SHA-256.  The digests were captured before
`report` learned to validate a model once, to share one tolerance rule
and one CHSH form, so they hold that refactor to the same bytes.

Specs: every file under `fixtures/` (valid, invalid and malformed), the
three conftest singlets written out by `dump_theory`, and two 3x3 specs
of 40 states in `fixtures/golden/`: an exact local ensemble (instruction
sets plus product states) and a decimal non-local one with thousands of
locality violations.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bell_lab.cli import main
from bell_lab.singlet import make_planar_singlet
from bell_lab.specio import dump_theory

FIXTURES = Path(__file__).parent / "fixtures"

COMMANDS = {
    "report-json": ["report", "--format", "json"],
    "report-text": ["report"],
    "check-locality": ["check-locality", "--format", "json"],
    "check-signal": ["check-signal", "--format", "json"],
    "check-anticorrelation": ["check-anticorrelation", "--format", "json"],
    "derive-instructions": ["derive-instructions", "--format", "json"],
    "bell-test": ["bell-test", "--membership", "--format", "json"],
}

SINGLETS = {
    "conftest:singlet_equal_axes": ("n1=0,n2=90", "n1=0,n2=90", "singlet shared axes"),
    "conftest:singlet_chsh": ("a1=0,a2=90", "b1=45,b2=135", "singlet chsh angles"),
    "conftest:singlet_three_axes": ("n1=0,n2=60,n3=120", "n1=0,n2=60,n3=120", "singlet three axes"),
}

SPECS = sorted(p.relative_to(FIXTURES).as_posix() for p in FIXTURES.rglob("*.json")) + sorted(SINGLETS)

#: (spec, label, argv) cases beyond the command table: flags of `report`
#: and `bell-test`, and a tolerance other than the default
EXTRAS = [
    ("conftest:singlet_three_axes", "report-bell1964",
     ["report", "--bell1964", "n1,n2,n3", "--format", "json"]),
    ("conftest:singlet_three_axes", "report-bell1964-text", ["report", "--bell1964", "n1,n2,n3"]),
    ("conftest:singlet_three_axes", "bell-test-bell1964",
     ["bell-test", "--bell1964", "n1,n2,n3", "--format", "json"]),
    ("conftest:singlet_chsh", "report-chsh", ["report", "--chsh", "a2,a1:b1,b2", "--format", "json"]),
    ("conftest:singlet_chsh", "bell-test-chsh",
     ["bell-test", "--chsh", "a1,a2:b1,b2", "--membership"]),
    ("golden/exact_local_3x3.json", "report-axes", ["report", "--axes", "n1,n2", "--format", "json"]),
    ("golden/decimal_nonlocal_3x3.json", "report-tol", ["report", "--tol", "0.001", "--format", "json"]),
    ("golden/decimal_nonlocal_3x3.json", "check-locality-tol",
     ["check-locality", "--tol", "0.001", "--format", "json"]),
]

GOLDEN = {
    "bad_sum.json report-json":
        "fdb0d82358d90cbc8cbb614c99a90edb7ba57930c321a4af182b1f5dc8c8aa6b",
    "bad_sum.json report-text":
        "861326de21ca44caed61dfceab0a994b8186fd55dc4e0d4955be9b8129fc81fb",
    "bad_sum.json check-locality":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "bad_sum.json check-signal":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "bad_sum.json check-anticorrelation":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "bad_sum.json derive-instructions":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "bad_sum.json bell-test":
        "32f2a1e3fe14b851aee90ac6b0f0a64eeb55847e6821455da3eafd9bff457ea5",
    "certificates/mixture_4x4.json report-json":
        "9c85dcd27e4f4fd1fefc5e0ecd343b7ef742295d32fb93746431e0c4b511aef2",
    "certificates/mixture_4x4.json report-text":
        "cc9e4faa9a7fbad459447e6639c3c9cbd4fed2becb7a48c5fbe81bb73307dfda",
    "certificates/mixture_4x4.json check-locality":
        "72340d010c4d438e20c234c84abb95f036fac279f5332161ee580e3a228e4035",
    "certificates/mixture_4x4.json check-signal":
        "a6379f2c2640027afe7a30ecd7835596f744bee3db5dfa86927b61d287ea13a9",
    "certificates/mixture_4x4.json check-anticorrelation":
        "3f9a3eb8ffbb586ff96a24587cbbf6facbe09f76f7972b47ede986d14517fdff",
    "certificates/mixture_4x4.json derive-instructions":
        "f89893900d4846718e7b1ff1098da60cfc84f94d5f2c90c169fd84f41a7238aa",
    "certificates/mixture_4x4.json bell-test":
        "08651ce24555822968fd6ce89854cf4bea4b10bc7b2348da11a820f340012de8",
    "certificates/singlet_4x4.json report-json":
        "8d1ad103a2fb7af9519bc5ccf9fcc0f923de44162a5cdac9950e4cf12a895e74",
    "certificates/singlet_4x4.json report-text":
        "667b3c70f220b598973003be382e54a6abf9b571d319b8bd2907ba16a02bf7d5",
    "certificates/singlet_4x4.json check-locality":
        "d03f3949533d2ce043fc9e6f4d8f206f986bd0cd6c68fb20f4008dfcfd09638f",
    "certificates/singlet_4x4.json check-signal":
        "628b69bc277b4a57502139bab75d5e69eaa45c4762552339c729beb70a456cbe",
    "certificates/singlet_4x4.json check-anticorrelation":
        "bcb6a0f6cd2b0334e7eaa750358e09cffd6637fa97e76b25b3361fbc8ac0d169",
    "certificates/singlet_4x4.json derive-instructions":
        "91b001c7c5590607117fdd522972de2981cfb3e79859629c4dd015a1838674f8",
    "certificates/singlet_4x4.json bell-test":
        "8fcc31ba4073465672a50ab3e49306771f305245437e11d42972dd54789b98e3",
    "certificates/singlet_chsh.json report-json":
        "24eae50da85c4598524c366872aac4d996e7ce7d5102680e08d563f2334b0d9b",
    "certificates/singlet_chsh.json report-text":
        "f1bf01f0a5189ba70691968e20cf1d53815ee3da97a7584a48b1cb90624a6a5a",
    "certificates/singlet_chsh.json check-locality":
        "528b23c080af16ea461cda857aa903c5a3349c69eb5ed53303fcc5204714965f",
    "certificates/singlet_chsh.json check-signal":
        "c1fc1ae5e5db7f574880855247a53a350ee5454239d893a5f6652fb4659c56ac",
    "certificates/singlet_chsh.json check-anticorrelation":
        "bcb6a0f6cd2b0334e7eaa750358e09cffd6637fa97e76b25b3361fbc8ac0d169",
    "certificates/singlet_chsh.json derive-instructions":
        "91b001c7c5590607117fdd522972de2981cfb3e79859629c4dd015a1838674f8",
    "certificates/singlet_chsh.json bell-test":
        "2e5fe226b1a622373a25972661aa62eb8d72fa6ba4b874497b72281d7eb6e7be",
    "certificates/singlet_equal_axes.json report-json":
        "df61dc712d93a9b1caaa3a08cd6000f4651fbc5fb29dad68bfc73250efdfc113",
    "certificates/singlet_equal_axes.json report-text":
        "6c72308d745bd522eb934b8cef9a51ba809d9c98906a015317e0cce67adc1e68",
    "certificates/singlet_equal_axes.json check-locality":
        "0a8406f897b9c86b736b74ef9c093ca2570b29bb02acb96de82d1328b106f283",
    "certificates/singlet_equal_axes.json check-signal":
        "51abe642e8e22cab89cd422cf14058f07a2901bad057d8973ae2f77a9058caf5",
    "certificates/singlet_equal_axes.json check-anticorrelation":
        "528a46facd74ac113d019225ce54c7779fee86f3a65c39d28e34646123e4d153",
    "certificates/singlet_equal_axes.json derive-instructions":
        "834c09b000bc67a7502284a3fd1d1267c900881d1cf0829497904ee99f1b5e52",
    "certificates/singlet_equal_axes.json bell-test":
        "14148c59b0de89cd8f344a4c18d64dcf603d4994c389d0d2ae55951b6dbff0c6",
    "certificates/singlet_three_axes.json report-json":
        "a2c9111b550d868ebd978c20e668e403029175412b41fde61b6bc9157700d08b",
    "certificates/singlet_three_axes.json report-text":
        "78b204c99252595c88e1bcccb9d27d189efa3607b1965f5d03dee90dd1a736ec",
    "certificates/singlet_three_axes.json check-locality":
        "d4e104ef9cc972f7afae8d6ccc83dc0000a75f07234c8dd9836f3a560ea8ad4f",
    "certificates/singlet_three_axes.json check-signal":
        "2a1b5ab10f367267dac0ac5114778eb6815cddddb12ad09f01c28e1681a8b899",
    "certificates/singlet_three_axes.json check-anticorrelation":
        "4389567172cd794d299b3f5748469c69ffe17c7f444fffa85742cdba0c176562",
    "certificates/singlet_three_axes.json derive-instructions":
        "834c09b000bc67a7502284a3fd1d1267c900881d1cf0829497904ee99f1b5e52",
    "certificates/singlet_three_axes.json bell-test":
        "e66b6a40b39bf36b6f3b5781e07947110da51d7ebf9da3158bd723019dd6195f",
    "eight_pattern.json report-json":
        "9f60d7c6dcd5ed18e3460b162e34e9cd6a242d9d6e6685de9f27478f765a69fc",
    "eight_pattern.json report-text":
        "b42fcb26e265e2401b9550abb9f39a0b661052f7b2e2f33c31ba4fe7787f88c5",
    "eight_pattern.json check-locality":
        "72340d010c4d438e20c234c84abb95f036fac279f5332161ee580e3a228e4035",
    "eight_pattern.json check-signal":
        "248f1c0fd34530c6898e24b72d2934d240510cf4e178e427924ec6643081ac0a",
    "eight_pattern.json check-anticorrelation":
        "f07015aa1affac7d5a6ed09c485f3ce571d39e2ff9c48e5b8774fa09b2e81055",
    "eight_pattern.json derive-instructions":
        "4dd305a29afe03809c3bba8d6d6207c432b20f5b547dbf53d2e2f41206260793",
    "eight_pattern.json bell-test":
        "41b76332a8fa9bbea689726ee17ebcb4ab6af1b4d8454822f99f6cb39b318bb2",
    "golden/decimal_nonlocal_3x3.json report-json":
        "d1e2d8f5fc3cd60172a9394c3270f550fa42416c77385f55444240d3d17837d2",
    "golden/decimal_nonlocal_3x3.json report-text":
        "cee883b59a67e70a4ef8cc746a709ba2a891ce6304f74fde1ab7621c071b5479",
    "golden/decimal_nonlocal_3x3.json check-locality":
        "c33bc292d7ef5161db58ec0b995c6b0f59afdd0ff01330b6e7a3638dcf42d888",
    "golden/decimal_nonlocal_3x3.json check-signal":
        "1e4a892c3c994053ed7ddea598538a9a0760eedf2736388817e4705d6debd727",
    "golden/decimal_nonlocal_3x3.json check-anticorrelation":
        "b6e5c830f0e92e3735f1f943386bae3686fab49657782072d2b8b05e34f24fd2",
    "golden/decimal_nonlocal_3x3.json derive-instructions":
        "3c2005b8df9eeab4671c55c762fa7df896ad8f56af436eee3bb301defec4c296",
    "golden/decimal_nonlocal_3x3.json bell-test":
        "4662c79c91176580293ba82407ab1cd767a206ef67b6acdf7f3cb22c47e3a6b7",
    "golden/exact_local_3x3.json report-json":
        "6d6991a6fd6746861bab755e98e1a5b062055cc1ed209a46cb0a4d084f65f6ba",
    "golden/exact_local_3x3.json report-text":
        "5e1c8f1dcecd2ce08c94300d016c2643927b7a2e8a3cc16fc3dc45bf4c157555",
    "golden/exact_local_3x3.json check-locality":
        "72340d010c4d438e20c234c84abb95f036fac279f5332161ee580e3a228e4035",
    "golden/exact_local_3x3.json check-signal":
        "248f1c0fd34530c6898e24b72d2934d240510cf4e178e427924ec6643081ac0a",
    "golden/exact_local_3x3.json check-anticorrelation":
        "b94f898918c264a2e60c95ab292a1ed3e127c81e87eedffd9691daed81534f2b",
    "golden/exact_local_3x3.json derive-instructions":
        "3b4dab22c804fcfb2fb20479186fa183f8de073304630acdd31adfeb335bd552",
    "golden/exact_local_3x3.json bell-test":
        "78bd9b807f6f162df801517343ad38c3129b0bfa6d55274519c8b2e7a2ff8b1e",
    "malformed.json report-json":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json report-text":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json check-locality":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json check-signal":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json check-anticorrelation":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json derive-instructions":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "malformed.json bell-test":
        "55659a2461e517513f2779fa9557fd7876d0dfd750e3f073e0289abb2ae8aca7",
    "signalling.json report-json":
        "2be64f59ebd551c9d92fe141b5e4891aa423ada11a3eea97ffc63b64c50c6104",
    "signalling.json report-text":
        "c49b512ab23bc56ffb8c04ae311f77f996e8b5dd1ac1f57b58607977264b0f5f",
    "signalling.json check-locality":
        "7fcc7bce62821ae24b1162768d8689f2a206dcce9c93ba8d89efe9b5d9fc9e2d",
    "signalling.json check-signal":
        "2cfd69f2741a921a01fab3ad8c8ea8835c8542092c70896612724a82447413fd",
    "signalling.json check-anticorrelation":
        "bcb6a0f6cd2b0334e7eaa750358e09cffd6637fa97e76b25b3361fbc8ac0d169",
    "signalling.json derive-instructions":
        "91b001c7c5590607117fdd522972de2981cfb3e79859629c4dd015a1838674f8",
    "signalling.json bell-test":
        "ff2ed2af2378e5a68951daad743baea1ac5f4b9a3e1515c16dd0935500af127c",
    "two_state.json report-json":
        "991f13f3209ff37b22440ce710b118a97fd22e7125106fd5824e4997562b5527",
    "two_state.json report-text":
        "568c67f46e8450ee26a2fb80d5bbba56253f362c6245fb73bb1459d47321606c",
    "two_state.json check-locality":
        "72340d010c4d438e20c234c84abb95f036fac279f5332161ee580e3a228e4035",
    "two_state.json check-signal":
        "a7ab3aaa9e4bd2a6619ffd17635b849d46b572f8361b360426a1e4cad86c68f7",
    "two_state.json check-anticorrelation":
        "4a4a19c8c6139e361dc6cbe41f67500126b63c8d5c0c139b7961dd12d65361f7",
    "two_state.json derive-instructions":
        "10e0a79bb0d4e9a714dce93f1c1234a2232081f9640644493ed4a805d04aa7d7",
    "two_state.json bell-test":
        "6230b9be791d6e0738e797bb38b9d1bb7724926893b8b0ae7baf9144d77d6440",
    "unknown_key.json report-json":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json report-text":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json check-locality":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json check-signal":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json check-anticorrelation":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json derive-instructions":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "unknown_key.json bell-test":
        "bc39829c4983c3ebb9354a966b5c942768871dfec57d451956a775787e088fb3",
    "conftest:singlet_chsh report-json":
        "24eae50da85c4598524c366872aac4d996e7ce7d5102680e08d563f2334b0d9b",
    "conftest:singlet_chsh report-text":
        "f1bf01f0a5189ba70691968e20cf1d53815ee3da97a7584a48b1cb90624a6a5a",
    "conftest:singlet_chsh check-locality":
        "528b23c080af16ea461cda857aa903c5a3349c69eb5ed53303fcc5204714965f",
    "conftest:singlet_chsh check-signal":
        "c1fc1ae5e5db7f574880855247a53a350ee5454239d893a5f6652fb4659c56ac",
    "conftest:singlet_chsh check-anticorrelation":
        "bcb6a0f6cd2b0334e7eaa750358e09cffd6637fa97e76b25b3361fbc8ac0d169",
    "conftest:singlet_chsh derive-instructions":
        "91b001c7c5590607117fdd522972de2981cfb3e79859629c4dd015a1838674f8",
    "conftest:singlet_chsh bell-test":
        "2e5fe226b1a622373a25972661aa62eb8d72fa6ba4b874497b72281d7eb6e7be",
    "conftest:singlet_equal_axes report-json":
        "df61dc712d93a9b1caaa3a08cd6000f4651fbc5fb29dad68bfc73250efdfc113",
    "conftest:singlet_equal_axes report-text":
        "6c72308d745bd522eb934b8cef9a51ba809d9c98906a015317e0cce67adc1e68",
    "conftest:singlet_equal_axes check-locality":
        "0a8406f897b9c86b736b74ef9c093ca2570b29bb02acb96de82d1328b106f283",
    "conftest:singlet_equal_axes check-signal":
        "51abe642e8e22cab89cd422cf14058f07a2901bad057d8973ae2f77a9058caf5",
    "conftest:singlet_equal_axes check-anticorrelation":
        "528a46facd74ac113d019225ce54c7779fee86f3a65c39d28e34646123e4d153",
    "conftest:singlet_equal_axes derive-instructions":
        "834c09b000bc67a7502284a3fd1d1267c900881d1cf0829497904ee99f1b5e52",
    "conftest:singlet_equal_axes bell-test":
        "14148c59b0de89cd8f344a4c18d64dcf603d4994c389d0d2ae55951b6dbff0c6",
    "conftest:singlet_three_axes report-json":
        "a2c9111b550d868ebd978c20e668e403029175412b41fde61b6bc9157700d08b",
    "conftest:singlet_three_axes report-text":
        "78b204c99252595c88e1bcccb9d27d189efa3607b1965f5d03dee90dd1a736ec",
    "conftest:singlet_three_axes check-locality":
        "d4e104ef9cc972f7afae8d6ccc83dc0000a75f07234c8dd9836f3a560ea8ad4f",
    "conftest:singlet_three_axes check-signal":
        "2a1b5ab10f367267dac0ac5114778eb6815cddddb12ad09f01c28e1681a8b899",
    "conftest:singlet_three_axes check-anticorrelation":
        "4389567172cd794d299b3f5748469c69ffe17c7f444fffa85742cdba0c176562",
    "conftest:singlet_three_axes derive-instructions":
        "834c09b000bc67a7502284a3fd1d1267c900881d1cf0829497904ee99f1b5e52",
    "conftest:singlet_three_axes bell-test":
        "e66b6a40b39bf36b6f3b5781e07947110da51d7ebf9da3158bd723019dd6195f",
    "conftest:singlet_three_axes report-bell1964":
        "e36ea351edec982299b262680acf67ac482261f419f7679c6d36d6ad4b12eefd",
    "conftest:singlet_three_axes report-bell1964-text":
        "ecb6c28ba79a8df1b7b65d04c630bf7d4d1a7686c93ca5712765a429529f81ea",
    "conftest:singlet_three_axes bell-test-bell1964":
        "d9c5a83319fe8c4f080de5afc2cbdcc77588f2c7850a2bb55bf5a4ded1b73644",
    "conftest:singlet_chsh report-chsh":
        "85e3cd6231be03e3d78d2baaca773fc6d63b6f4c1615c5ff8970efce201c3560",
    "conftest:singlet_chsh bell-test-chsh":
        "92a4e934c05844c4b61a43c5c37189b21e58710fc7b952cfd00d63f832b3de82",
    "golden/exact_local_3x3.json report-axes":
        "28d98267a04e8e25a7b8b9430780331056868dbd2982311a1f334a7da54e72a6",
    "golden/decimal_nonlocal_3x3.json report-tol":
        "88cafaa6339ef62d2ae7c0f3c66ee0d0c156e40f9ded622a37e68547cb287647",
    "golden/decimal_nonlocal_3x3.json check-locality-tol":
        "d1d7114ac1cef7738ec3d17ce3af8dcc992db55d3511559ab3b321c9a6d54173",
}


def digest(spec: str, argv: list[str], tmp_path: Path, monkeypatch, capsys) -> str:
    if spec in SINGLETS:
        alice, bob, name = SINGLETS[spec]
        path = tmp_path / f"{spec.split(':')[1]}.json"
        dump_theory(make_planar_singlet(alice, bob, name=name), path)
    else:
        path = FIXTURES / spec
    monkeypatch.chdir(path.parent)
    code = main([argv[0], path.name, *argv[1:]])
    captured = capsys.readouterr()
    blob = json.dumps([code, captured.out, captured.err]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


CASES = [(spec, label, argv) for spec in SPECS for label, argv in COMMANDS.items()] + EXTRAS


@pytest.mark.parametrize("spec, label, argv", CASES, ids=[f"{s}-{l}" for s, l, _ in CASES])
def test_output_bytes_are_pinned(spec, label, argv, tmp_path, monkeypatch, capsys):
    assert digest(spec, argv, tmp_path, monkeypatch, capsys) == GOLDEN[f"{spec} {label}"]
