"""The output boundary: `emit_json` writes the bytes of
`json.dumps(obj, indent=2, sort_keys=True)` one encoded piece at a time,
text output escapes what stdout cannot encode, and a closed stdout keeps
the check's exit code.

The closed-pipe tests run the CLI as a child process under `-X dev -W
error`, so a warning at interpreter exit (an unclosed file, a failed last
flush) shows on its stderr.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bell_lab
from bell_lab import cli
from bell_lab.cli import build_parser, emit_json, main, run_pipeline
from bell_lab.specio import dump_theory
from genmodels import random_arbitrary_model

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(bell_lab.__file__).resolve().parents[1])


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


class Recorder:
    """A stream that keeps each write's length and a digest of the text."""

    def __init__(self):
        self.lengths = []
        self.digest = hashlib.sha256()

    def write(self, text: str) -> None:
        self.lengths.append(len(text))
        self.digest.update(text.encode("ascii"))


# ---------------------------------------------------------------------------
# same bytes as json.dumps(indent=2, sort_keys=True)

_TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs"]),
                          st.sampled_from('\n"\\/{}[],: \x00\x7fé ')), max_size=6)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda n: st.sampled_from((n, -n))),
    st.floats(), _TEXT,
)
#: keys of one dict must sort together: text, numbers (bool is one), or None
_KEYS = (_TEXT, st.one_of(st.integers(), st.floats(), st.booleans()), st.none())


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        *(st.dictionaries(keys, children, max_size=4) for keys in _KEYS),
        st.lists(st.dictionaries(_TEXT, _SCALARS, max_size=4), max_size=3),
    )


DOCUMENTS = st.recursive(_SCALARS, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(DOCUMENTS)
@example({"a": [], "b": {}, "c": [{}], "d": ()})
@example([True, 1, 1.0, False, 0, 2**64 + 1, -(2**70)])
@example({1: {"x": 1}, 1.5: [float("nan")], True: [float("inf"), -float("inf")]})
@example({None: ["\ud800", "é", "\udfff\ud800"]})
def test_same_bytes_as_json_dumps(doc):
    writes = []
    emit_json(doc, SimpleNamespace(write=writes.append))
    assert "".join(writes) == dumps(doc)


@pytest.mark.parametrize("doc", [
    Fraction(1, 3),
    {"a": [1, Fraction(1, 2)]},
    [{"x": {1, 2}}],
    {(1, 2): [3]},
    {(1, 2): 3},
    {"a": {"b": [1]}, 2: 3},
    [b"bytes"],
], ids=["fraction", "nested-fraction", "set-in-row", "tuple-key", "tuple-key-flat",
        "mixed-keys", "bytes"])
def test_unencodable_values_raise_what_json_dumps_raises(doc):
    with pytest.raises(TypeError) as want:
        dumps(doc)
    with pytest.raises(TypeError) as got:
        emit_json(doc, io.StringIO())
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# lists of flat rows, encoded one slab of rows per C encoder call


class Row(dict):
    """A dict subclass: the slab path takes plain dicts only."""


#: texts that look like the separators the slab path rewrites
_ROW_TEXT = st.one_of(_TEXT, st.sampled_from(("},\n    {", "}, {", "},\n  {", "}]", "\n  }")))
_ROW_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _ROW_TEXT)
_ROW_KEYS = (_ROW_TEXT, st.one_of(st.integers(), st.floats(), st.booleans()), st.none())
_ROWS = st.one_of(*(st.dictionaries(keys, _ROW_VALUES, min_size=1, max_size=4)
                    for keys in _ROW_KEYS))
#: rows that send the whole list to the walker
_SPOILERS = st.sampled_from((Row(x=1.5), {}, {"t": (1, "2")}, {"l": [1, None]}, [{"a": 1}]))


@st.composite
def row_lists(draw, spoilers: bool = True) -> list:
    """More than two slabs of rows cycled from a few drawn ones, with up
    to two rows swapped for ones the slab path must not take."""
    pool = draw(st.lists(_ROWS, min_size=1, max_size=5))
    n = draw(st.integers(2 * cli._SLAB_ROWS + 1, 3 * cli._SLAB_ROWS))
    rows = [dict(pool[i % len(pool)]) for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if spoilers else 0):
        rows[draw(st.integers(0, n - 1))] = draw(_SPOILERS)
    return rows


def _takes_slabs(rows: list) -> bool:
    return all(type(row) is dict and row and not any(
        isinstance(v, (dict, list, tuple)) for v in row.values()) for row in rows)


#: the row list at the top, under a key, and two lists deep
_PLACES = (lambda rows: rows, lambda rows: {"n": len(rows), "violations": rows},
           lambda rows: [[rows], 1])


def _cycled(*rows) -> list:
    return [dict(rows[i % len(rows)]) for i in range(2 * cli._SLAB_ROWS + 3)]


@settings(max_examples=60, deadline=None)
@given(row_lists(), st.sampled_from(_PLACES))
@example(_cycled({"lhs": float("nan"), "rhs": float("inf"), "residual": -float("inf"),
                  "s": "},\n    {"}, {"s": "}, {", "t": "\n"}), _PLACES[1])
@example(_cycled({0.5: "},\n      {", 2: None, True: -0.0}, {None: float("nan")}), _PLACES[2])
@example(_cycled({"a": 1}, {"a": 2})[:-1] + [Row(a=3)], _PLACES[0])
def test_row_lists_give_the_same_bytes_as_json_dumps(rows, place):
    doc = place(rows)
    writes = []
    with mock.patch.object(cli, "_slabs", wraps=cli._slabs) as slabs:
        emit_json(doc, SimpleNamespace(write=writes.append))
    assert "".join(writes) == dumps(doc)
    assert any(call.args[0] is rows for call in slabs.call_args_list) == _takes_slabs(rows)


@settings(max_examples=40, deadline=None)
@given(row_lists(spoilers=False), st.sampled_from((set, Fraction)), st.integers(1, 3))
def test_unencodable_value_in_the_last_row_of_a_slab(rows, kind, slab):
    """The C encoder's TypeError for a whole slab is json.dumps's."""
    at = min(slab * cli._SLAB_ROWS, len(rows)) - 1
    rows[at] = {**rows[at], next(iter(rows[at])): kind((1, 2)) if kind is set else kind(1, 3)}
    doc = {"violations": rows}
    with pytest.raises(TypeError) as want:
        dumps(doc)
    with pytest.raises(TypeError) as got:
        emit_json(doc, io.StringIO())
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# bounded writes on a report the size of the benchmark's decimal one


@pytest.fixture(scope="module")
def decimal_report(tmp_path_factory):
    """`report --format json`'s document on a 256-state decimal 3x3 model,
    which lists a few thousand locality violations per 100 states."""
    path = tmp_path_factory.mktemp("report") / "decimal.json"
    dump_theory(random_arbitrary_model(np.random.default_rng(11), 3, 3, 256), path)
    args = build_parser().parse_args(["report", str(path), "--format", "json"])
    return run_pipeline(str(path), args)


def test_report_is_written_in_bounded_chunks(decimal_report):
    want = dumps(decimal_report)
    stream = Recorder()
    tracemalloc.start()
    try:
        emit_json(decimal_report, stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.digest.hexdigest() == hashlib.sha256(want.encode("ascii")).hexdigest()
    assert sum(stream.lengths) == len(want)
    # each write is one encoded piece, at most a slab of rows
    assert max(stream.lengths) < 128 << 10
    # the text is never held whole: a few pieces' worth at most
    assert peak < 1 << 20 < len(want) // 4


# ---------------------------------------------------------------------------
# a closed stdout is not bad input


@pytest.fixture(scope="module")
def noisy_spec(tmp_path_factory) -> Path:
    """A decimal 3x3 spec whose report runs to several pipe buffers."""
    path = tmp_path_factory.mktemp("pipe") / "noisy.json"
    dump_theory(random_arbitrary_model(np.random.default_rng(5), 3, 3, 16), path)
    return path


#: the CLI as a child process, under the flags of the tier-1 CI job
CHILD = [sys.executable, "-X", "dev", "-W", "error", "-m", "bell_lab"]
#: a spec whose `check-locality` fails: exit 1
FAILING = str(FIXTURES / "golden" / "decimal_nonlocal_3x3.json")


def child_env(unbuffered: bool) -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def run_closed(argv: list[str], read: int, unbuffered: bool) -> tuple[bytes, int, bytes]:
    """Run the CLI on `argv` with a stdout pipe whose reader takes `read`
    bytes and then closes it; with `read` 0 the reader is gone before the
    child starts.  The bytes read, the exit code and the whole stderr."""
    env = child_env(unbuffered)
    if read == 0:
        reader, writer = os.pipe()
        os.close(reader)
        try:
            proc = subprocess.run([*CHILD, *argv], stdout=writer, stderr=subprocess.PIPE,
                                  env=env, check=False, timeout=120)
        finally:
            os.close(writer)
        return b"", proc.returncode, proc.stderr
    with subprocess.Popen([*CHILD, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        head = proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        return head, proc.wait(timeout=120), err


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_report_into_closed_pipe_exits_zero(noisy_spec, fmt, unbuffered):
    head, code, err = run_closed(["report", str(noisy_spec), "--format", fmt], 10, unbuffered)
    assert (code, err) == (0, b"")
    assert head.startswith(b'{\n  "' if fmt == "json" else b"bell-lab ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("read", [0, 10], ids=["closed-first", "after-10-bytes"])
def test_failed_check_into_closed_pipe_keeps_exit_one(read, unbuffered):
    head, code, err = run_closed(["check-locality", FAILING], read, unbuffered)
    assert (code, err) == (1, b"")
    assert head == b"Bell locality: VIOLATED\n"[:read]


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs a POSIX shell")
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_check_with_stdout_closed_from_the_start_keeps_its_code(fmt):
    """`>&-` leaves the interpreter without a sys.stdout."""
    proc = subprocess.run(
        ["/bin/sh", "-c", '"$@" >&-', "sh", *CHILD, "check-locality", FAILING, "--format", fmt],
        stderr=subprocess.PIPE, env=child_env(False), check=False, timeout=120)
    assert (proc.returncode, proc.stderr) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_full_stdout_is_an_unwritable_output(unbuffered):
    """Any other failure to write stdout exits 2 as an unwritable --out
    does, with one error line and no complaint at exit."""
    with open("/dev/full", "w", encoding="utf-8") as full:
        proc = subprocess.run([*CHILD, "check-locality", FAILING], stdout=full,
                              stderr=subprocess.PIPE, env=child_env(unbuffered), check=False,
                              timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == b"bell-lab: error: [Errno 28] No space left on device\n"


@pytest.fixture(scope="module")
def accented_specs(tmp_path_factory) -> dict[str, Path]:
    """The two-state spec named "modèle", and the failing spec with its
    setting id n1 renamed "aé"."""
    root = tmp_path_factory.mktemp("accented")
    texts = {
        "named": (FIXTURES / "two_state.json").read_text(encoding="utf-8")
        .replace('"two-state anticorrelated"', '"modèle"'),
        "renamed": Path(FAILING).read_text(encoding="utf-8").replace("n1", "aé"),
    }
    for name, text in texts.items():
        (root / f"{name}.json").write_text(text, encoding="utf-8")
    return {name: root / f"{name}.json" for name in texts}


@pytest.mark.parametrize("command, spec, code, line", [
    ("report", "named", 0, b"model: mod\\xe8le\n"),
    ("check-locality", "renamed", 1, b" a=a\\xe9 "),
], ids=["report", "check-locality"])
def test_text_stdout_cannot_encode_is_escaped(accented_specs, command, spec, code, line):
    """A character the stdout encoding lacks is written as a backslash
    escape: the exit code stays the check's own, with nothing on stderr."""
    proc = subprocess.run([*CHILD, command, str(accented_specs[spec])], capture_output=True,
                          env={**child_env(False), "PYTHONIOENCODING": "ascii"}, check=False,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert line in proc.stdout


def test_files_named_on_the_command_line_are_still_bad_input(tmp_path, capsys):
    spec = str(FIXTURES / "two_state.json")
    absent = tmp_path / "absent" / "x"
    cases = [
        ["validate", str(absent)],
        ["simulate", spec, "--trials", "5", "--policy", f"sequence:{absent}"],
        ["simulate", spec, "--trials", "5", "--out", str(absent)],
        ["make-singlet", "--alice", "a=0", "--bob", "b=0", "--out", str(absent)],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("bell-lab: error: ") and "No such file or directory" in err
