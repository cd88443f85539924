"""Golden membership certificates: the `bell_tests.membership` section of
`report --format json`, pinned byte for byte by SHA-256.

The hashes were taken with the Fraction-tableau simplex (now the oracle in
`reference_simplex.py`), before membership moved to integer pivoting, so
they hold the new arithmetic to the old certificates.  The singlet specs
in `fixtures/certificates/` are the conftest singlets (plus a 4x4 one)
written out once by `dump_theory`, so the inputs are fixed bytes and do
not move with the last bits of the linear algebra that computes them.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from bell_lab.cli import main
from bell_lab.model import behavior, parse_probability
from bell_lab.specio import load_theory

GOLDEN = {
    "two_state.json": "5991c5cff097f7a3f1941413d959dd97b08b0c18ce923115ef668b60e24be974",
    "eight_pattern.json": "3428607689ea159555498e2d99bc2d2fde2a1fdb6bc805083ca06ba105ce38de",
    "signalling.json": "4efffa83c9f9ef0e69b667074b7365cd26d86a87d49350fdf03c650c2c25c6db",
    "certificates/singlet_chsh.json": "5ca1b173f43e71319c6136fa71d47965062b49b7b0167de3bafb5091b03e80ff",
    "certificates/singlet_three_axes.json": "0c7b97a8450261b9dc9ff9974ca41e173b0ad3753cf29fe7595b5203d5414e77",
    "certificates/singlet_4x4.json": "9410a58e39966a6ee04b8770779c392b2439916f86a02a017b4c5503711416a5",
    "certificates/mixture_4x4.json": "65d6967a32df7e4cd280142f586b6a1f2620f153d2b616b15787ce8f75c17b4e",
}

#: The equal-axes singlet's phase-1 residual is 7/2^54 > 0, so it used to
#: come back inside without weights: its old document without `weights`,
#: and its document now.
EQUAL_AXES_WITHOUT_WEIGHTS = "bdc716648181047afec4d374493aa2ee9bf6d98684d3388df5d12d9f8725a51f"
EQUAL_AXES = "060128927045f8e3dec3f9fc449e2755eaf34c068b917d440d66265666f7dab1"


def canonical(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")


def sha(obj) -> str:
    return hashlib.sha256(canonical(obj)).hexdigest()


def membership_doc(capsys, path) -> dict:
    code = main(["report", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)["sections"]["bell_tests"]["membership"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_certificate_bytes_are_pinned(capsys, fixtures_dir, name):
    assert sha(membership_doc(capsys, fixtures_dir / name)) == GOLDEN[name]


def test_equal_axes_gains_weights_and_keeps_every_other_byte(capsys, fixtures_dir):
    doc = membership_doc(capsys, fixtures_dir / "certificates" / "singlet_equal_axes.json")
    assert sha(doc) == EQUAL_AXES
    weights = {label: parse_probability(w) for label, w in doc.pop("weights").items()}
    assert sha(doc) == EQUAL_AXES_WITHOUT_WEIGHTS
    assert doc["inside"] is True
    assert all(isinstance(w, Fraction) and w > 0 for w in weights.values())
    assert abs(sum(weights.values()) - 1) <= doc["tolerance"]


@pytest.mark.parametrize(
    "fixture, name",
    [
        ("singlet_chsh", "singlet_chsh.json"),
        ("singlet_three_axes", "singlet_three_axes.json"),
        ("singlet_equal_axes", "singlet_equal_axes.json"),
    ],
)
def test_fixture_specs_are_the_conftest_singlets(request, fixtures_dir, fixture, name):
    model = request.getfixturevalue(fixture)
    stored = load_theory(fixtures_dir / "certificates" / name)
    assert stored.name == model.name
    assert stored.scenario.pairs() == model.scenario.pairs()
    want, got = behavior(model), behavior(stored)
    for pair, dist in want.cells.items():
        for p, q in zip(dist.values(), got.cells[pair].values()):
            assert p == pytest.approx(q, abs=1e-15)
