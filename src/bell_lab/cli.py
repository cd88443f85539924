"""Command-line interface.

One subcommand per audit plus `report`, which chains them over a single
theory-spec file: validation, Bell and signal locality, anti-correlation,
instruction derivation, Bell tests, and optionally a simulation.  Exit
codes: 0 = clean verdict (or report generated), 1 = audited property
fails, 2 = input could not be used (parse error, schema violation,
invalid model, bad flags).

The six check subcommands (`validate` to `bell-test`) are the rows of one
table, `CHECKS`, which `build_parser` registers; `cmd_check` serves them
all: load the spec, run the row's check, emit JSON or text, and return 0
if the check passed, else 1.  A row also names the `report` section it
writes, and `report` runs those rows in table order, each section the
JSON document of its check: a check that finds no equal axes gives
{"skipped": why}, and an invalid model ends the report after its
validation section.  `make-singlet` compares and renders
nothing, so it takes no `--tol` or `--format`.  Each engine loads where
it is called: a check loads its own of `audit`, `harness` and
`instructions`, `report` each as its first section needs it (none for a
model that fails validation), `simulate` and `report --simulate-trials`
`montecarlo`, and `make-singlet` `singlet`.

JSON output is canonical: keys sorted, two-space indent, one trailing
newline.  Parsing a JSON report and re-rendering it reproduces the bytes.
`emit_json` writes the pieces json's own encoder makes, `_SLAB_ROWS` at
a time, so a large report is never held as one string; where the encoder
meets a locality report, `_listing` writes its violations from the
audit's columns, one join per slab of `_SLAB_ROWS` rows, each distinct
float of a slab encoded once.  Text output writes a
character stdout cannot encode as a backslash escape.  A closed stdout
(`| head`, `>&-`) does not change the exit code: it stays the check's
own 0 or 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import struct
import sys
from contextlib import contextmanager
from functools import partial
from itertools import chain, repeat
from typing import Any, Iterable, Iterator

from . import __version__
from .model import (Axis, BellLabError, EnumerationLimitError, EqualAxisError, TheoryModel, behavior,
                    format_probability, resolve_axes, resolve_tolerance, validate_theory)
from .specio import SpecFormatError, dump_theory, parse_theory, theory_to_dict

PROG = "bell-lab"


#: the locality listing is written this many rows per write, the rest of a
#: document this many of json's encoded pieces
_SLAB_ROWS = 256


def _texts(values: list) -> Iterable[str]:
    """Each value's json text as `to_dict` lists it, none holding ", "; floats
    are encoded once per distinct bit pattern, so -0.0 and 0.0 stay apart."""
    if set(map(type, values)) != {float}:
        return json.dumps(list(map(format_probability, values)))[1:-1].split(", ")
    # struct, not a numpy view: the report path does not load numpy
    bits = struct.unpack(f"{len(values)}q", struct.pack(f"{len(values)}d", *values))
    distinct = dict(zip(bits, values))
    return map(dict(zip(distinct, json.dumps([*distinct.values()])[1:-1].split(", "))).__getitem__, bits)


def _listing(report, level: int) -> Iterator[str]:
    """The `indent=2` text of `report.to_dict()["violations"]`, `level`
    deep, one join per `_SLAB_ROWS` rows of the pieces of each slot's row,
    dumped with "%s" for the six other fields, and those fields' texts."""
    from .audit import SLOTS, LocalityViolation

    row = "\n" + "  " * (level + 1)
    blank = lambda form, A, B: LocalityViolation(form, *["%s"] * 3, A, B, *["%s"] * 3)
    # json escapes a newline inside a string, so one replace indents a dumped row;
    # pieces[i][k]: slot k's text before field i (for i = 6, after the last)
    pieces = list(zip(*(("," + row + json.dumps(blank(*slot).to_dict(), indent=2, sort_keys=True)
                         .replace("\n", row)).split('"%s"') for slot in SLOTS)))
    states, a_ids, b_ids = (list(map(json.dumps, ids)) for ids in report.ids)
    (s, a, b, k), (lhs, rhs, resid) = report.failing, report.values
    for start in range(0, len(k), _SLAB_ROWS):
        part = slice(start, start + _SLAB_ROWS)
        # the fields in key order: a, b, lhs, residual, rhs, state
        fields = (map(a_ids.__getitem__, a[part]), map(b_ids.__getitem__, b[part]), _texts(lhs[part]),
                  _texts(resid[part]), _texts(rhs[part]), map(states.__getitem__, s[part]))
        # only the pieces around "form" and the outcomes vary
        *before, after = (repeat(p[0]) if len(set(p)) == 1 else map(p.__getitem__, k[part]) for p in pieces)
        text = "".join(chain.from_iterable(zip(*chain.from_iterable(zip(before, fields)), after)))
        yield text if start else "[" + text[1:]  # each template starts with ","
    yield row[:-2] + "]"


def emit_json(obj: Any, out=None) -> None:
    """Write `json.dumps(obj, indent=2, sort_keys=True)` and a newline to
    `out` (default stdout), byte for byte, `_SLAB_ROWS` of json's encoded
    pieces per write, so the whole text is never held at once.  The
    encoder hands each `LocalityReport` to the `default` hook, which
    notes it and returns []; `_listing` writes a report with failing
    checks in place of that "[]", as deep as the indent after the last
    newline says.  A value `json` cannot encode raises its TypeError, and
    a document that contains itself its ValueError, perhaps after writes."""
    out = out or sys.stdout
    reports = []

    def note(value):
        from .audit import LocalityReport

        if not isinstance(value, LocalityReport):
            return json.JSONEncoder.default(None, value)  # raises json's TypeError
        reports.append(value)
        return []

    line, held = "", []  # the last piece that holds a newline; the pieces not yet written
    for piece in json.JSONEncoder(indent=2, sort_keys=True, default=note).iterencode(obj):
        if reports and (report := reports.pop()).failing[0]:
            for text in _listing(report, (len(line) - line.rfind("\n") - 1) // 2):
                out.write("".join(held) + text)
                held.clear()
            continue
        if "\n" in piece:
            line = piece
        held.append(piece)
        if len(held) == _SLAB_ROWS:
            out.write("".join(held))
            held.clear()
    out.write("".join(held) + "\n")


def _fields(text: str, seps: str = ",") -> Iterator[tuple[str, bool, str]]:
    """(field, quoted, separator after it or "") for each field of one
    argument or sequence line, split at the characters of `seps` with CSV
    quoting.  A field is the text up to the next separator, stripped,
    unless it is one double-quoted string (spaces around it aside): then
    it is the text inside, where a doubled quote stands for one quote and
    separators are plain text.  So any setting id can be named, and text
    in which no field starts with a quote splits as `str.split` does."""
    sep = f"([{re.escape(seps)}]|\\Z)"
    quoted = re.compile(rf'\s*"((?:[^"]|"")*)"\s*{sep}')
    bare = re.compile(rf"([^{re.escape(seps)}]*){sep}")
    pos = 0
    while True:
        match = quoted.match(text, pos)
        if match:
            yield match[1].replace('""', '"'), True, match[2]
        else:
            match = bare.match(text, pos)
            yield match[1].strip(), False, match[2]
        if not match[2]:
            return
        pos = match.end()


def _parse_roles(text: str) -> tuple[str, str, str, str]:
    """'a1,a2:b1,b2' -> roles (a, a_prime, b, b_prime)."""
    fields = list(_fields(text, ",:"))
    if [sep for *_, sep in fields] != [",", ":", ",", ""]:
        raise BellLabError(f"expected 'a,aPrime:b,bPrime', got {text!r}")
    return tuple(field for field, *_ in fields)


def _axis_names(text: str) -> list[str | tuple[str, str | None]]:
    """The axis names of an --axes or --bell1964 argument, for
    `resolve_axes`.  When no field and no side of '=' is quoted these are
    the fields as before, each an 'aId=bId' pair or a bare id.  Otherwise
    the argument is split at ',' and '=' with quoting, and each field is
    verbatim: `"x=1"` is the bare id x=1 and `"a,1"="b"` the pair of ids
    a,1 and b.  An empty unquoted field stays "", which --axes skips."""
    fields = list(_fields(text, ",="))
    if not any(quoted for _, quoted, _ in fields):
        return [field for field, *_ in _fields(text)]
    names, sides = [], []
    for field, quoted, sep in fields:
        sides.append(field)
        if sep == "=":
            continue
        if len(sides) > 2:
            raise BellLabError(f"expected 'aId=bId', got {'='.join(sides)!r}")
        blank = sides == [""] and not quoted
        names.append("" if blank else (*sides, None)[:2])
        sides = []
    return names


def _parse_axes_arg(model: TheoryModel, text: str | None) -> list[tuple[str, str]] | None:
    if text is None:
        return None
    names = [name for name in _axis_names(text) if name != ""]
    if not names:
        raise BellLabError("--axes given but empty")
    return resolve_axes(model.scenario, names)


def _parse_bell1964(model: TheoryModel, text: str) -> tuple[Axis, Axis, Axis]:
    names = _axis_names(text)
    if len(names) != 3:
        raise BellLabError(f"--bell1964 needs three axes, got {len(names)}")
    return tuple(resolve_axes(model.scenario, names))


def _load(path: str) -> tuple[TheoryModel, bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    return parse_theory(raw, source=path), raw


# ---------------------------------------------------------------------------
# text renderers


def _fmt(p) -> str:
    rendered = format_probability(p)
    return rendered if isinstance(rendered, str) else repr(rendered)


def render_validation(violations, out) -> None:
    if not violations:
        out.write("model valid\n")
        return
    out.write(f"model INVALID: {len(violations)} violation(s)\n")
    for v in violations:
        out.write(f"  {v.location}: {v.message}\n")


def render_locality(report, out) -> None:
    out.write(f"Bell locality: {report.verdict}\n")
    out.write(f"  worst factorization residual: {_fmt(report.worst_residual)}\n")
    out.write("  residual metric (this tool's choice): max |joint - product|\n")
    out.write(f"  tolerance: {report.tolerance!r}\n")
    for v in report.rows(20):
        slot_a = "." if v.outcome_a is None else ("+" if v.outcome_a > 0 else "-")
        slot_b = "." if v.outcome_b is None else ("+" if v.outcome_b > 0 else "-")
        out.write(f"  [{v.form}] state={v.state_id} a={v.a_id} b={v.b_id} outcomes={slot_a}{slot_b} "
                  f"lhs={_fmt(v.lhs)} rhs={_fmt(v.rhs)} residual={_fmt(v.residual)}\n")
    if len(report.failing[0]) > 20:
        out.write(f"  ... {len(report.failing[0]) - 20} more violation(s)\n")


def render_signal(report, out) -> None:
    out.write(f"Signal locality: {report.verdict}\n")
    out.write(f"  max delta: {_fmt(report.max_delta)} (tolerance {report.tolerance!r})\n")
    for d in report.deltas:
        if d.delta > report.tolerance:
            out.write(
                f"  {d.side} P({d.outcome:+d}|{d.own_setting}) moves across "
                f"{d.far_pair[0]}/{d.far_pair[1]}: delta {_fmt(d.delta)}\n"
            )


def render_anticorr(report, out) -> None:
    out.write(f"Anti-correlation: {report.verdict}\n")
    out.write(f"  axes: {', '.join(f'{a}={b}' for a, b in report.axes_checked)}\n")
    for c in report.offending():
        out.write(f"  state={c.state_id} axis {c.a_id}={c.b_id}: "
                  f"P(+,+)={_fmt(c.same_plus)} P(-,-)={_fmt(c.same_minus)}\n")


def render_instructions(result, partition, out) -> None:
    from .instructions import DerivationFailure

    if isinstance(result, DerivationFailure):
        out.write("Instruction derivation: FAILED\n")
        out.write(
            f"  state={result.state_id} axis {result.axis[0]}={result.axis[1]} "
            f"side={result.side} marginal={_fmt(result.marginal)}\n"
        )
        out.write(f"  reason: {result.reason}\n")
        return
    out.write("Instruction derivation: OK\n")
    axes_text = ", ".join(f"{a}={b}" for a, b in result.axes)
    out.write(f"  axes: {axes_text}\n")
    for state_id, signs in result.signs.items():
        pattern = "".join("+" if s > 0 else "-" for s in signs)
        out.write(f"  state {state_id}: pattern {pattern} (weight {_fmt(result.weights[state_id])})\n")
    if "skipped" in partition:
        out.write(f"  classes skipped: {partition['skipped']}\n")
        return
    out.write(f"  classes ({partition['class_count']} patterns):\n")
    for cls in partition["classes"]:
        members = ",".join(cls["members"]) if cls["members"] else "-"
        out.write(f"    {cls['pattern']}: weight {cls['weight']} members {members}\n")


def render_bell_tests(result, out) -> None:
    out.write("Correlators:\n")
    for (a, b), e in result.correlators.items():
        out.write(f"  E({a},{b}) = {_fmt(e)}\n")
    if result.chsh is not None:
        r = result.chsh
        out.write(f"CHSH ({r.convention}):\n")
        out.write(f"  roles a={r.roles[0]} a'={r.roles[1]} b={r.roles[2]} b'={r.roles[3]}\n")
        out.write(f"  S = {_fmt(r.chsh_value)}, local bound {_fmt(r.local_bound)} "
                  f"(brute-forced), violated: {r.violated}\n")
    if result.bell1964 is not None:
        r = result.bell1964
        axes_text = ", ".join(f"{a}={b}" for a, b in r.axes)
        out.write(f"Three-axis inequality on {axes_text}:\n")
        out.write(f"  lhs {_fmt(r.lhs)} vs rhs {_fmt(r.rhs)}: {'satisfied' if r.satisfied else 'VIOLATED'}\n")
    if result.membership is not None:
        m = result.membership
        out.write(f"Local polytope: {'inside' if m.inside else 'OUTSIDE'}\n")
        out.write(f"  feasibility residual: {_fmt(m.residual)}\n")
        if m.weights:
            out.write(f"  convex weights over {len(m.weights)} strategies:\n")
            for strat, w in m.weights.items():
                out.write(f"    {_fmt(w)}  {strat.label()}\n")
        if m.functional is not None:
            f = m.functional
            out.write(f"  separating functional ({f.kind}): {f.description}\n")
            out.write(f"  bound {_fmt(f.bound)}, value {_fmt(f.value)}\n")


def render_stats(stats, out) -> None:
    out.write(f"Simulation: {stats.trials} trials (seed {stats.seed})\n")
    for (a, b), e in stats.correlators.items():
        n = stats.pair_counts[(a, b)]
        out.write(f"  E({a},{b}) = {e.value:+.6f} +/- {e.std_error:.6f}  (n={n})\n")
    if stats.chsh is not None:
        roles = stats.chsh_roles
        out.write(
            f"  CHSH[a={roles[0]},a'={roles[1]},b={roles[2]},b'={roles[3]}] "
            f"= {stats.chsh.value:+.6f} +/- {stats.chsh.std_error:.6f}\n"
        )
    worst = max(stats.signal_deltas, key=lambda d: d.delta, default=None)
    if worst is not None:
        out.write(
            f"  worst no-signaling delta: {worst.delta:.6f} +/- {worst.std_error:.6f} "
            f"({worst.side} P({worst.outcome:+d}|{worst.own_setting}) across "
            f"{worst.far_pair[0]}/{worst.far_pair[1]})\n"
        )


# ---------------------------------------------------------------------------
# the check subcommands: one row each, one handler


def _or_skipped(section, error: type[BellLabError]) -> dict:
    """`section()`, or {"skipped": why} if it raises `error`, that class only."""
    try:
        return section()
    except error as exc:
        return {"skipped": str(exc)}


def _validate(model: TheoryModel, args):
    violations = validate_theory(model, args.tol)
    doc = {"valid": not violations, "violations": [v._asdict() for v in violations]}
    return lambda: doc, partial(render_validation, violations), not violations


def _locality(model: TheoryModel, args):
    from .audit import check_bell_locality

    report = check_bell_locality(model, args.tol)
    return partial(report.to_dict, as_columns=True), partial(render_locality, report), report.bell_local


def _signal(model: TheoryModel, args):
    from .audit import check_signal_locality

    report = check_signal_locality(model, args.tol)
    return report.to_dict, partial(render_signal, report), report.signal_local


def _anticorrelation(model: TheoryModel, args):
    from .audit import check_anticorrelation

    report = check_anticorrelation(model, _parse_axes_arg(model, args.axes), args.tol)
    return report.to_dict, partial(render_anticorr, report), report.holds


def _derivation(model: TheoryModel, args):
    from .instructions import DerivationFailure, classify_states, derive_instruction_sets

    result = derive_instruction_sets(model, _parse_axes_arg(model, args.axes), args.tol)
    if isinstance(result, DerivationFailure):
        doc = {"derived": False, "failure": result.to_dict()}
    else:
        partition = _or_skipped(lambda: classify_states(result).to_dict(), EnumerationLimitError)  # past 16 axes
        doc = {"derived": True, "instructions": result.to_dict(), "partition": partition}
    return lambda: doc, partial(render_instructions, result, doc.get("partition")), doc["derived"]


def _bell_tests(model: TheoryModel, args):
    from .harness import BellTestResult, all_correlators, bell1964, chsh, local_polytope_membership

    table = behavior(model, args.tol)
    result = BellTestResult(
        chsh=chsh(table, *_parse_roles(args.chsh), tol=args.tol) if args.chsh else None,
        bell1964=(bell1964(table, _parse_bell1964(model, args.bell1964), tol=args.tol)
                  if args.bell1964 else None),
        membership=local_polytope_membership(table, tol=args.tol) if args.membership else None,
        correlators=all_correlators(table),
    )
    return result.to_dict, partial(render_bell_tests, result), True


#: One row per check subcommand, in `--help` order: name, the `report`
#: section it writes (None: not run by `report`), help, the check and the
#: flags beyond the spec, `--tol` and `--format`.  A check returns a
#: builder of its JSON document (called only for `--format json`, and by
#: `report` for its section), a text renderer taking the output stream,
#: and whether the check passed.
CHECKS = (
    ("validate", "validation", "check model invariants", _validate, {}),
    ("check-locality", "bell_locality", "audit Bell locality", _locality, {}),
    ("check-signal", "signal_locality", "audit signal locality", _signal, {}),
    ("check-anticorrelation", "anticorrelation", "audit perfect anti-correlation on equal axes",
     _anticorrelation, {"--axes": dict(help="comma-separated axes: 'a1=b1,a2=b2' or bare shared ids")}),
    ("derive-instructions", "instructions", "derive per-state instruction sets and the class partition",
     _derivation, {"--axes": dict(help="comma-separated axes (default: auto-detect by vector)")}),
    ("bell-test", None, "CHSH, three-axis inequality, membership", _bell_tests, {
        "--chsh": dict(metavar="A,A2:B,B2", help="CHSH roles (a, a_prime : b, b_prime)"),
        "--bell1964": dict(metavar="AX1,AX2,AX3", help="three axes for the 1964 inequality"),
        "--membership": dict(action="store_true", help="decide local-polytope membership"),
    }),
)


@contextmanager
def _named_file():
    """An OSError on a file the command line names is bad input."""
    try:
        yield
    except OSError as exc:
        raise BellLabError(str(exc)) from exc


def _output(fmt: str, to_json, render, code: int = 0) -> int:
    """Write a command's result to stdout, as JSON (`to_json()`) or as
    text (`render(sys.stdout)`), and return its exit code `code`.  A
    reader that closes stdout early does not change the verdict, so a
    broken pipe keeps `code`; any other failure to write stdout is an
    unwritable output, as for --out.  Either way fd 1 then points at
    os.devnull, so the interpreter's last flush stays quiet (the "Note
    on SIGPIPE" in Python's `signal` docs).  With fd 1 closed before the
    start (`>&-`), sys.stdout is None and nothing is written.  Text that
    stdout cannot encode is written with backslash escapes."""
    if sys.stdout is None:
        return code
    try:
        if fmt == "json":
            emit_json(to_json())
        else:
            if hasattr(sys.stdout, "reconfigure"):
                sys.stdout.reconfigure(errors="backslashreplace")
            render(sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            raise BellLabError(str(exc)) from exc
    return code


def cmd_check(check, args) -> int:
    to_json, render, passed = check(_load(args.spec)[0], args)
    return _output(args.fmt, to_json, render, 0 if passed else 1)


def _parse_policy(text: str):
    from .montecarlo import FixedSequencePolicy, UniformSettingPolicy

    if text == "uniform":
        return UniformSettingPolicy()
    if text.startswith("sequence:"):
        path = text[len("sequence:"):]
        try:
            with _named_file(), open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise BellLabError(f"{path}: setting sequence is not UTF-8 ({exc})") from exc
        pairs = []
        for line_no, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [field for field, *_ in _fields(line)]
            if len(parts) != 2:
                raise BellLabError(f"{path}:{line_no}: expected 'aId,bId', got {line!r}")
            pairs.append(tuple(parts))
        if not pairs:
            raise BellLabError(f"{path}: empty setting sequence")
        return FixedSequencePolicy(pairs=pairs)
    raise BellLabError(f"policy must be 'uniform' or 'sequence:<file>', got {text!r}")


def cmd_simulate(args) -> int:
    from .montecarlo import simulate

    model = _load(args.spec)[0]
    policy = _parse_policy(args.policy)
    roles = _parse_roles(args.chsh_roles) if args.chsh_roles else None
    with _named_file():
        stats = simulate(
            model, args.trials, args.seed, policy=policy, chsh_roles=roles,
            csv_path=args.out or None, reveal_hidden=args.reveal_lambda, tol=args.tol,
        )

    def render(out) -> None:
        render_stats(stats, out)
        if args.out:
            out.write(f"  records written to {args.out}\n")
    return _output(args.fmt, stats.to_dict, render)


def cmd_make_singlet(args) -> int:
    from .singlet import make_planar_singlet

    model = make_planar_singlet(args.alice, args.bob, name=args.name)
    if not args.out:
        return _output("json", partial(theory_to_dict, model), None)
    with _named_file():
        dump_theory(model, args.out)
    return _output("text", None, lambda out: out.write(f"singlet spec written to {args.out}\n"))


def run_pipeline(spec_path: str, args) -> dict:
    """The report on one spec file: the tool, the input and its digest,
    the model's name and one section per stage of the pipeline, the first
    ones those the `CHECKS` rows name."""
    import hashlib  # only `report` digests its input

    if args.simulate_trials < 0:
        raise BellLabError(f"--simulate-trials must be >= 0, got {args.simulate_trials}")
    model, raw = _load(spec_path)
    sections: dict[str, Any] = {}
    report = {
        "tool": {"name": PROG, "version": __version__},
        "input": {"path": spec_path, "sha256": hashlib.sha256(raw).hexdigest()},
        "model": model.name,
        "sections": sections,
    }
    del raw  # hashed: the spec's bytes are not held through the pipeline

    # the rows in table order: an invalid model ends the report after validation,
    # and a valid one remembers it, so no later row validates again
    for _, section, _, check, _ in CHECKS:
        if section:
            sections[section] = _or_skipped(lambda: check(model, args)[0](), EqualAxisError)
            if not sections["validation"]["valid"]:
                return report

    from .harness import all_correlators, bell1964, chsh, local_polytope_membership

    t = resolve_tolerance(model, args.tol)
    table = behavior(model, t)
    bell: dict[str, Any] = {
        "correlators": {
            f"{a}|{b}": format_probability(v) for (a, b), v in all_correlators(table).items()
        }
    }
    roles = _parse_roles(args.chsh) if args.chsh else model.scenario.default_chsh_roles()
    if roles is not None:
        bell["chsh"] = chsh(table, *roles, tol=t).to_dict()
    else:
        bell["chsh"] = {"skipped": "no roles given and scenario is not two-by-two"}
    if args.bell1964:
        bell["bell1964"] = _or_skipped(
            lambda: bell1964(table, _parse_bell1964(model, args.bell1964), tol=t).to_dict(), BellLabError)
    else:
        bell["bell1964"] = {"skipped": "no axes given (--bell1964)"}
    bell["membership"] = _or_skipped(
        lambda: local_polytope_membership(table, tol=t).to_dict(), EnumerationLimitError)
    sections["bell_tests"] = bell

    if args.simulate_trials > 0:
        from .montecarlo import simulate

        sections["simulation"] = simulate(model, args.simulate_trials, args.seed, tol=t).to_dict()
    else:
        sections["simulation"] = {"skipped": "not requested (--simulate-trials)"}
    return report


def render_report(report: dict, out) -> None:
    out.write(f"{PROG} {report['tool']['version']} report\n")
    out.write(f"input: {report['input']['path']} (sha256 {report['input']['sha256'][:16]}...)\n")
    out.write(f"model: {report['model']}\n")
    for name, payload in report["sections"].items():
        out.write(f"\n== {name} ==\n")
        if isinstance(payload, dict) and "skipped" in payload:
            out.write(f"skipped: {payload['skipped']}\n")
        else:
            emit_json(payload, out)


def cmd_report(args) -> int:
    report = run_pipeline(args.spec, args)
    return _output(args.fmt, lambda: report, partial(render_report, report))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None,
                        help="comparison tolerance (default: exact for rational models, 1e-9 otherwise)")
    common.add_argument("--format", dest="fmt", choices=("text", "json"), default="text",
                        help="output format")

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Audit hidden-state theories for locality, derive instruction sets, "
                    "run Bell tests, and simulate EPRB experiments.",
    )
    parser.add_argument("--version", action="version", version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, _, help_text, check, flags in CHECKS:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("spec")
        for flag, options in flags.items():
            p.add_argument(flag, **options)
        p.set_defaults(func=partial(cmd_check, check))

    p = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo EPRB experiment")
    p.add_argument("spec")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--policy", default="uniform", help="'uniform' or 'sequence:<file>'")
    p.add_argument("--out", help="write per-trial records to this CSV file")
    p.add_argument("--reveal-lambda", action="store_true",
                   help="include the hidden-state column in the CSV (pedagogy only)")
    p.add_argument("--chsh-roles", metavar="A,A2:B,B2", help="roles for the CHSH estimate")
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", parents=[common], help="full pipeline over one spec")
    p.add_argument("spec")
    p.add_argument("--axes", help="axes for anti-correlation and derivation")
    p.add_argument("--chsh", metavar="A,A2:B,B2", help="CHSH roles")
    p.add_argument("--bell1964", metavar="AX1,AX2,AX3", help="axes for the 1964 inequality")
    p.add_argument("--simulate-trials", type=int, default=0,
                   help="also simulate this many trials (0 = skip)")
    p.add_argument("--seed", type=int, default=0, help="random seed for --simulate-trials")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("make-singlet", help="write a quantum singlet spec from planar angles")
    p.add_argument("--alice", required=True, metavar="ID=DEG,...",
                   help="Alice settings as 'a1=0,a2=90' (x-z plane angles in degrees)")
    p.add_argument("--bob", required=True, metavar="ID=DEG,...", help="Bob settings")
    p.add_argument("--name", default="quantum singlet")
    p.add_argument("--out", help="output path (default: print to stdout)")
    p.set_defaults(func=cmd_make_singlet)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "tol", None) is not None:
            resolve_tolerance(True, args.tol)
        return args.func(args)
    except BellLabError as exc:
        sys.stderr.write(f"{PROG}: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
