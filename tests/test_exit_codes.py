"""The CLI exit-code contract as a property: whatever bytes arrive as a spec,
a setting sequence, a flag that names settings or `make-singlet` text,
`main` returns 0 (check passed), 1 (check failed) or 2 (bad input) and
raises nothing.

Each run goes through `cli.main` in process, with stdout encoding UTF-8
strictly as a terminal does, so text that cannot be written is caught too.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from bell_lab.cli import main
from bell_lab.model import validate_theory
from bell_lab.specio import parse_theory

FIXTURES = Path(__file__).parent / "fixtures"

#: Valid specs to mutate: exact, decimal with vectors, and up to 3x3.
BASE_SPECS = [
    json.loads((FIXTURES / name).read_text(encoding="utf-8"))
    for name in ("two_state.json", "signalling.json", "eight_pattern.json",
                 "certificates/singlet_chsh.json")
]

#: The eight subcommands that read a spec, with the flags that make them
#: reach every stage; `{out}` is a scratch path.
SPEC_COMMANDS = {
    "validate": [],
    "check-locality": [],
    "check-signal": [],
    "check-anticorrelation": [],
    "derive-instructions": [],
    "bell-test": ["--membership"],
    "simulate": ["--trials", "5", "--out", "{out}", "--reveal-lambda"],
    "report": ["--simulate-trials", "5"],
}


def run(argv: list[str]) -> tuple[int, bytes]:
    """`main(argv)`'s exit code and stdout bytes."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict", newline="")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
        stdout.flush()
    assert code in (0, 1, 2), (argv, code)
    return code, stdout.buffer.getvalue()


def run_on_spec(command: str, spec: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_bytes(spec)
        extra = [arg.format(out=Path(tmp) / "out.csv") for arg in SPEC_COMMANDS[command]]
        return run([command, str(path), *extra])[0]


def _paths(node, prefix=()):
    """Every path to a value inside a JSON document, containers included."""
    yield prefix
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*prefix, key))


#: Placeholder for nesting too deep to build as a Python value.
_DEEP = "\x00deep\x00"

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.text(st.characters(codec=None, exclude_categories=()), max_size=8),
    st.sampled_from(["1/2", "1/0", "0.5", "a|b", "a,b", "", "n1", "psi", "+1", "1e400"]),
    st.just(_DEEP),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_specs(draw) -> bytes:
    """A valid spec with one value, anywhere in it, replaced."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BASE_SPECS))))
    path = draw(st.sampled_from(list(_paths(doc))))
    value = draw(json_values)
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    depth = draw(st.sampled_from([3, 900, 5000]))
    return json.dumps(doc).replace(json.dumps(_DEEP), "[" * depth + "]" * depth).encode()


@settings(max_examples=400, deadline=None)
@given(command=st.sampled_from(sorted(SPEC_COMMANDS)),
       spec=st.one_of(st.binary(max_size=64), mutated_specs()))
@example(command="validate", spec=json.dumps({
    "name": "huge vector",
    "scenario": {"alice_settings": [{"id": "a", "vector": [10**400, 0, 0]}],
                 "bob_settings": [{"id": "b"}]},
    "ensemble": [{"id": "s", "weight": 1}],
    "kernel": {"s": {"a|b": {"++": 1, "+-": 0, "-+": 0, "--": 0}}},
}).encode())
@example(command="report", spec=json.dumps({**BASE_SPECS[0], "name": "\ud800"}).encode())
@example(command="check-locality", spec=json.dumps({**BASE_SPECS[3], "kernel": {"psi": {
    **BASE_SPECS[3]["kernel"]["psi"],
    "a1|b1": {"++": 0.5, "+-": 10**309, "-+": 0.5, "--": 0},
}}}).encode())
def test_any_spec_exits_zero_one_or_two(command, spec):
    run_on_spec(command, spec)


#: Command-line text as the interpreter decodes argv bytes: undecodable
#: bytes become lone surrogates.
argv_text = st.one_of(
    st.text(max_size=12),
    st.binary(max_size=12).map(lambda b: b.replace(b"\0", b"").decode("utf-8", "surrogateescape")),
)


@settings(max_examples=200, deadline=None)
@given(alice=argv_text, bob=argv_text, name=argv_text)
@example(alice="a=nan", bob="b=0", name="s")
@example(alice="a=inf", bob="b=0", name="s")
@example(alice="a=0,a2=-inf", bob="b=1e400", name="s")
@example(alice="\udcff=0", bob="b=0", name="s")
@example(alice="a=0", bob="b=0", name="\udcff")
@example(alice="a=0,a=90", bob="b=0", name="s")
@example(alice="a|1=0", bob="b=0", name="s")
def test_make_singlet_text_exits_zero_or_two(alice, bob, name):
    code, out = run(["make-singlet", f"--alice={alice}", f"--bob={bob}", f"--name={name}"])
    assert code in (0, 2)
    if code == 0:
        assert validate_theory(parse_theory(out)) == []


#: The four flags that name settings, each with a subcommand that reads it.
SETTING_FLAGS = [
    ("bell-test", "--chsh"), ("report", "--chsh"), ("simulate", "--chsh-roles"),
    ("check-anticorrelation", "--axes"), ("derive-instructions", "--axes"), ("report", "--axes"),
    ("bell-test", "--bell1964"), ("report", "--bell1964"),
]

#: Argument text: anything argv can carry, and fixture ids mixed with
#: quotes, separators and spaces.
setting_text = st.one_of(
    argv_text,
    st.lists(st.sampled_from(["n1", "n2", "n3", "a1", "a2", "b1", "b2", '"', '""', ",", ":", "=", " "]),
             max_size=10).map("".join),
)


@settings(max_examples=300, deadline=None)
@given(flag=st.sampled_from(SETTING_FLAGS), text=setting_text,
       spec=st.sampled_from(["two_state.json", "eight_pattern.json",
                             "certificates/singlet_chsh.json", "certificates/singlet_three_axes.json"]))
@example(flag=("bell-test", "--chsh"), text='"a1", "a2":"b1","b""2"', spec="certificates/singlet_chsh.json")
@example(flag=("report", "--bell1964"), text='n1,"n2" ,"n3', spec="certificates/singlet_three_axes.json")
@example(flag=("simulate", "--chsh-roles"), text='"a1,a2:b1,b2"', spec="certificates/singlet_chsh.json")
def test_setting_flags_exit_zero_one_or_two(flag, text, spec):
    command, name = flag
    trials = ["--trials", "5"] if command == "simulate" else []
    run([command, str(FIXTURES / spec), *trials, f"{name}={text}"])


@settings(max_examples=200, deadline=None)
@given(sequence=st.one_of(st.binary(max_size=32),
                          st.lists(st.sampled_from(["a1,b1", "a2,b2", "a1", "#", "zz,b1", "",
                                                    '"a1","b1"', '"a1,b1"', '"a2" , b2']))
                          .map(lambda lines: "\n".join(lines).encode())))
@example(sequence=b"a1,b1\n\xff\xfe\n")
def test_any_sequence_file_exits_zero_or_two(sequence):
    with tempfile.TemporaryDirectory() as tmp:
        seq = Path(tmp) / "seq.txt"
        seq.write_bytes(sequence)
        spec = FIXTURES / "certificates" / "singlet_chsh.json"
        code, _ = run(["simulate", str(spec), "--trials", "5", f"--policy=sequence:{seq}"])
    assert code in (0, 2)
