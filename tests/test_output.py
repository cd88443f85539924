"""The output boundary: `emit_json` writes the bytes of
`json.dumps(obj, indent=2, sort_keys=True)` a batch of json's encoded
pieces at a time, with the locality listing spliced in from the audit's
columns at whatever depth the report sits; it raises what `json.dumps`
raises; text output escapes what stdout cannot encode, and a closed
stdout keeps the check's exit code.

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
import genmodels
from bell_lab import cli
from bell_lab.audit import LocalityReport, check_bell_locality
from bell_lab.cli import build_parser, emit_json, main, run_pipeline
from bell_lab.model import (BellLabError, EnsembleEntry, HiddenStateEnsemble, OutcomeDistribution,
                            ResponseKernel, Scenario, Setting, TheoryModel, format_probability)
from bell_lab.singlet import make_planar_singlet
from bell_lab.specio import dump_theory, parse_theory
from genmodels import random_arbitrary_model

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(bell_lab.__file__).resolve().parents[1])
#: a spec whose `check-locality` fails: exit 1
FAILING = str(FIXTURES / "golden" / "decimal_nonlocal_3x3.json")


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def with_rows(obj):
    """`obj` with each locality report in it, which `emit_json` writes
    from the report's columns, replaced by its list of row dicts."""
    if isinstance(obj, LocalityReport):
        return obj.to_dict()["violations"]
    if isinstance(obj, dict):
        return {key: with_rows(value) for key, value in obj.items()}
    return obj


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


def test_pieces_are_written_in_batches():
    """Each write but the last holds `_SLAB_ROWS` of json's pieces, as an
    unbuffered stdout makes each write a system call."""
    doc = {"rows": [{"a": i, "b": [i, None]} for i in range(1000)]}
    writes = []
    emit_json(doc, SimpleNamespace(write=writes.append))
    pieces = list(json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc))
    assert len(writes) == len(pieces) // cli._SLAB_ROWS + 1
    assert "".join(writes) == dumps(doc)


@pytest.mark.parametrize("kind", [list, dict])
def test_a_document_that_holds_itself_raises_what_json_dumps_raises(kind):
    doc = kind()
    if kind is list:
        doc.append(doc)
    else:
        doc["x"] = [1, doc]
    with pytest.raises(ValueError) as want:
        dumps(doc)
    with pytest.raises(ValueError) as got:
        emit_json(doc, io.StringIO())
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# lists of flat rows, the shape of a listing in more than two slabs


class Row(dict):
    """A dict subclass, which json writes as it writes a dict."""


#: texts that look like the separators between and inside indented rows
_ROW_TEXT = st.one_of(_TEXT, st.sampled_from(("},\n    {", "}, {", "},\n  {", "}]", "\n  }")))
_ROW_VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _ROW_TEXT)
_ROW_KEYS = (_ROW_TEXT, st.one_of(st.integers(), st.floats(), st.booleans()), st.none())
_ROWS = st.one_of(*(st.dictionaries(keys, _ROW_VALUES, min_size=1, max_size=4)
                    for keys in _ROW_KEYS))
#: rows that break the list's shape: a subclass, empty, or holding a container
_SPOILERS = st.sampled_from((Row(x=1.5), {}, {"t": (1, "2")}, {"l": [1, None]}, [{"a": 1}]))


@st.composite
def row_lists(draw, spoilers: bool = True) -> list:
    """More than two slabs of rows cycled from a few drawn ones, with up
    to two rows swapped for ones that are not flat dicts."""
    pool = draw(st.lists(_ROWS, min_size=1, max_size=5))
    n = draw(st.integers(2 * cli._SLAB_ROWS + 1, 3 * cli._SLAB_ROWS))
    rows = [dict(pool[i % len(pool)]) for i in range(n)]
    for _ in range(draw(st.integers(0, 2)) if spoilers else 0):
        rows[draw(st.integers(0, n - 1))] = draw(_SPOILERS)
    return rows


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
    emit_json(doc, SimpleNamespace(write=writes.append))
    assert "".join(writes) == dumps(doc)


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
# the locality listing, written from the audit's columns

#: ids holding quotes, backslashes, control characters, '%' and non-ASCII text
_ODD_IDS = st.text(st.sampled_from('"\\\x00\x1f\x7f\n/%sé中\U0001f600'), max_size=3)


@st.composite
def audited_models(draw) -> TheoryModel:
    """An exact or decimal model under odd ids, or a mixed one: an exact
    model with one cell's entries turned to floats."""
    model = draw(genmodels.relabelled_models(_ODD_IDS))
    if model.kernel.is_exact and draw(st.booleans()):
        cells = dict(model.kernel.cells)
        key = draw(st.sampled_from(sorted(cells)))
        cells[key] = OutcomeDistribution(*map(float, cells[key].values()))
        model = TheoryModel(model.name, model.scenario, model.ensemble, ResponseKernel(cells))
    return model


def _flip_model() -> TheoryModel:
    """One deterministic state whose outcome at a1 flips with Bob's
    setting: every listed lhs and rhs is the Fraction 0 or 1."""
    a, b = (Setting('a"\\'),), (Setting("b\x01"), Setting("bé"))
    cells = {("s\n中", "a\"\\", "b\x01"): OutcomeDistribution.point(+1, +1),
             ("s\n中", "a\"\\", "bé"): OutcomeDistribution.point(-1, +1)}
    ensemble = HiddenStateEnsemble((EnsembleEntry("s\n中", Fraction(1)),))
    return TheoryModel("flip", Scenario(a, b), ensemble, ResponseKernel(cells))


#: the listing at the top, under a key, two lists deep, as a list item, and
#: the same report three times in one document, at two depths
_LISTING_PLACES = (lambda doc: doc["violations"], lambda doc: doc, lambda doc: [[doc], 1],
                   lambda doc: [1, doc["violations"]],
                   lambda doc: {"a": doc, "b": [[doc["violations"]], doc]})


@settings(max_examples=150, deadline=None)
@given(audited_models(), st.sampled_from([None, 0.0, 0.05]), st.integers(1, 4),
       st.sampled_from(_LISTING_PLACES))
@example(_flip_model(), None, 1, _LISTING_PLACES[1])
@example(_flip_model(), None, 1, _LISTING_PLACES[3])
@example(_flip_model(), None, 2, _LISTING_PLACES[4])
def test_listing_gives_the_bytes_of_the_rows(model, tol, slab, place):
    try:
        report = check_bell_locality(model, tol)
    except BellLabError:
        return  # an id drawn twice
    writes = []
    with mock.patch.object(cli, "_SLAB_ROWS", slab):
        emit_json(place(report.to_dict(as_columns=True)), SimpleNamespace(write=writes.append))
    assert "violations" not in vars(report)
    assert "".join(writes) == dumps(place(report.to_dict()))
    if not report.bell_local:
        assert len(writes) > len(report.violations) // slab


def test_flip_model_lists_whole_fractions():
    lhs, rhs, _ = check_bell_locality(_flip_model()).values
    assert {type(v) for v in lhs + rhs} == {Fraction} and {v.denominator for v in lhs + rhs} == {1}


def _zero_sign_spec(mixed: bool) -> dict:
    """Alice a1, Bob b1 and b2, and one float state whose a1|b2 cell has a
    -0.0 next to a 0.0: its listing holds both zeros in one slab.  With
    `mixed`, a second, exact state of equal weight adds rows of '1/2', 0
    and 1 to the same columns."""
    cell = lambda pp, pm, mp, mm: {"++": pp, "+-": pm, "-+": mp, "--": mm}
    ensemble = [{"id": "s", "weight": 0.5 if mixed else 1.0}]
    kernel = {"s": {"a1|b1": cell(1.0, 0.0, 0.0, 0.0), "a1|b2": cell(-0.0, 0.5, 0.5, 0.0)}}
    if mixed:
        ensemble.append({"id": "t", "weight": 0.5})
        kernel["t"] = {pair: cell("1/2", 0, 0, "1/2") for pair in ("a1|b1", "a1|b2")}
    scenario = {"alice_settings": [{"id": "a1"}], "bob_settings": [{"id": "b1"}, {"id": "b2"}]}
    return {"name": "signed zeros", "scenario": scenario, "ensemble": ensemble, "kernel": kernel}


def test_listing_keeps_the_sign_of_zero_in_one_slab(tmp_path, capsys):
    """-0.0 and 0.0 are equal floats with two texts: a listing that
    encodes each distinct float once must tell them apart by their bits."""
    path = tmp_path / "zeros.json"
    path.write_text(json.dumps(_zero_sign_spec(mixed=False)), encoding="utf-8")
    args = build_parser().parse_args(["report", str(path), "--format", "json"])
    lhs = run_pipeline(str(path), args)["sections"]["bell_locality"]["violations"].values[0]
    assert len(lhs) < cli._SLAB_ROWS and {type(v) for v in lhs} == {float}
    assert main(["report", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == dumps(with_rows(run_pipeline(str(path), args)))
    assert '"lhs": -0.0,' in out and '"lhs": 0.0,' in out


@pytest.mark.parametrize("slab", [1, 4, 10, 256])
def test_listing_of_columns_that_mix_floats_and_fractions(slab):
    """A decimal model with an exact state lists floats, 'p/q' strings and
    ints in one column; a slab of floats only and a mixed slab both give
    `to_dict`'s rows."""
    report = check_bell_locality(parse_theory(json.dumps(_zero_sign_spec(mixed=True))))
    lhs = report.values[0]
    assert {json.dumps(format_probability(v)) for v in lhs} == {
        '"1/2"', "0", "1", "0.5", "-0.0", "0.0", "1.0"}
    writes = []
    with mock.patch.object(cli, "_SLAB_ROWS", slab):
        emit_json(report.to_dict(as_columns=True), SimpleNamespace(write=writes.append))
    assert "".join(writes) == dumps(report.to_dict())


@pytest.mark.parametrize("argv, code", [
    (["report", "--format", "json"], 0),
    (["report"], 0),
    (["check-locality", "--format", "json"], 1),
    (["check-locality"], 1),
], ids=["report-json", "report-text", "check-locality-json", "check-locality-text"])
def test_output_leaves_the_rows_unbuilt(argv, code, capsys):
    """No command builds the audit's whole `violations` tuple: JSON is
    written from the columns and text zips only the rows it prints."""
    reports = []

    def audit(*args):
        reports.append(check_bell_locality(*args))
        return reports[-1]

    with mock.patch.object(cli, "check_bell_locality", audit):
        assert main([argv[0], FAILING, *argv[1:]]) == code
    assert capsys.readouterr().out
    (report,) = reports
    assert not report.bell_local
    assert "violations" not in vars(report)


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


@pytest.fixture(scope="module")
def repeating_report(tmp_path_factory):
    """`report --format json`'s document on 256 noisy singlet states at
    3x3 that share four visibilities, so that each slab of its listing
    repeats a few lhs, rhs and residual values."""
    singlet = make_planar_singlet("a1=0,a2=60,a3=120", "b1=0,b2=60,b3=120")
    rng = np.random.default_rng(3)
    visibilities = rng.choice([1.0, 0.95, 0.9, 0.85], size=256)
    cells = {(f"q{i + 1}", a, b): OutcomeDistribution(*(v * float(p) + (1 - v) / 4 for p in dist.values()))
             for i, v in enumerate(visibilities) for (_, a, b), dist in singlet.kernel.cells.items()}
    ensemble = HiddenStateEnsemble(tuple(EnsembleEntry(f"q{i + 1}", float(w))
                                         for i, w in enumerate(rng.dirichlet(np.ones(256)))))
    path = tmp_path_factory.mktemp("report") / "repeating.json"
    dump_theory(TheoryModel("noisy singlets", singlet.scenario, ensemble, ResponseKernel(cells)), path)
    args = build_parser().parse_args(["report", str(path), "--format", "json"])
    return run_pipeline(str(path), args)


def assert_written_in_bounded_chunks(doc) -> None:
    want = dumps(with_rows(doc))
    stream = Recorder()
    tracemalloc.start()
    try:
        emit_json(doc, stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stream.digest.hexdigest() == hashlib.sha256(want.encode("ascii")).hexdigest()
    assert sum(stream.lengths) == len(want)
    # each write is one encoded piece, at most a slab of rows
    assert max(stream.lengths) < 128 << 10
    # the text is never held whole: a few pieces' worth at most
    assert peak < 1 << 20 < len(want) // 4


def test_report_is_written_in_bounded_chunks(decimal_report):
    assert_written_in_bounded_chunks(decimal_report)


def test_report_that_repeats_values_across_slabs_is_written_in_bounded_chunks(repeating_report):
    lhs, rhs, resid = repeating_report["sections"]["bell_locality"]["violations"].values
    assert len(lhs) > 3 * cli._SLAB_ROWS
    # fewer than 100 distinct values a column in more than 27,000 rows
    assert all(len(set(column)) < 100 for column in (lhs, rhs, resid))
    assert_written_in_bounded_chunks(repeating_report)


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
