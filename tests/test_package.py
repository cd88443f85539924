"""The package's public names and what each command loads.

`bell_lab.__all__` is pinned as a literal, and each name must be the very
object its home module defines, although `import bell_lab` imports no
submodule: names are looked up on first access.  The load tests run the
CLI as `python -m bell_lab` in a fresh `python -X dev -W error` and list
the `bell_lab` modules it loaded, and whether numpy, `dataclasses` and
`inspect` were.  Only `simulate`, `make-singlet` and `report
--simulate-trials` load numpy: every other command gives the same exit
code, stdout and stderr with `import numpy` blocked.  `report` and the
checks load neither `dataclasses` nor `inspect` (numpy loads `inspect`,
so the commands that load numpy are exempt).  `simulate` and
`make-singlet` load none of `audit`, `harness` and `instructions`, each
check loads only the one it runs, and `report` loads them only once its
spec has parsed.  The layering tests hold each engine module to
relative imports from `.model` alone, both in its source and in what
importing it loads, and no module of the package to `dataclasses`.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bell_lab

FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(Path(bell_lab.__file__).resolve().parents[1])

ALL = [
    "__version__",
    "BehaviorTable", "BellLabError", "EnsembleEntry", "HiddenStateEnsemble",
    "InvalidModelError", "OutcomeDistribution", "ResponseKernel", "Scenario",
    "Setting", "TheoryModel", "UnknownIdError", "Violation",
    "behavior", "validate_theory",
    "SpecFormatError", "dump_theory", "load_theory", "parse_theory", "theory_to_dict",
    "SingletSpec", "make_planar_singlet", "make_quantum_theory", "singlet_joint_prob",
    "AntiCorrelationReport", "LocalityReport", "SignalReport",
    "check_anticorrelation", "check_bell_locality", "check_signal_locality",
    "ClassPartition", "DerivationFailure", "InstructionSet",
    "classify_states", "derive_instruction_sets", "realize_model",
    "Bell1964Result", "BellTestResult", "CHSHResult", "DeterministicStrategy",
    "MembershipCertificate", "bell1964", "chsh", "correlator",
    "enumerate_strategies", "local_polytope_membership",
    "ExperimentStats", "FixedSequencePolicy", "UniformSettingPolicy", "simulate",
]

#: the module that defines each public name
HOMES = {
    "model": "BehaviorTable BellLabError EnsembleEntry HiddenStateEnsemble InvalidModelError "
             "OutcomeDistribution ResponseKernel Scenario Setting TheoryModel UnknownIdError "
             "Violation behavior validate_theory",
    "specio": "SpecFormatError dump_theory load_theory parse_theory theory_to_dict",
    "singlet": "SingletSpec make_planar_singlet make_quantum_theory singlet_joint_prob",
    "audit": "AntiCorrelationReport LocalityReport SignalReport check_anticorrelation "
             "check_bell_locality check_signal_locality",
    "instructions": "ClassPartition DerivationFailure InstructionSet classify_states "
                    "derive_instruction_sets realize_model",
    "harness": "Bell1964Result BellTestResult CHSHResult DeterministicStrategy "
               "MembershipCertificate bell1964 chsh correlator enumerate_strategies "
               "local_polytope_membership",
    "montecarlo": "ExperimentStats FixedSequencePolicy UniformSettingPolicy simulate",
}


class TestPublicNames:
    def test_all_is_pinned(self):
        assert bell_lab.__all__ == ALL
        assert sorted(name for names in HOMES.values() for name in names.split()) == sorted(ALL[1:])

    def test_each_name_is_its_home_modules_object(self):
        for module, names in HOMES.items():
            home = import_module(f"bell_lab.{module}")
            for name in names.split():
                assert getattr(bell_lab, name) is getattr(home, name), name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from bell_lab import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(ALL)
        assert all(namespace[name] is getattr(bell_lab, name) for name in ALL)

    def test_dir_lists_every_name(self):
        assert set(ALL) <= set(dir(bell_lab))

    def test_an_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match=r"^module 'bell_lab' has no attribute 'x'$"):
            bell_lab.x  # noqa: B018
        with pytest.raises(ImportError):
            exec("from bell_lab import x", {})


#: runs `python -m bell_lab <argv>` (argv from sys.argv[2:]; none: only
#: `import bell_lab`) and writes to the file sys.argv[1] its exit code, the
#: `bell_lab` modules it loaded and which of numpy, dataclasses and inspect
CHILD = """
import json, runpy, sys

result, argv = sys.argv[1], sys.argv[2:]
code = None
if argv:
    sys.argv = ["bell_lab", *argv]
    try:
        runpy.run_module("bell_lab", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    import bell_lab
with open(result, "w", encoding="utf-8") as fh:
    json.dump({"code": code, "numpy": "numpy" in sys.modules, "dataclasses": "dataclasses" in sys.modules,
               "inspect": "inspect" in sys.modules,
               "modules": sorted(m for m in sys.modules if m.split(".")[0] == "bell_lab")}, fh)
"""


def run_child(tmp_path: Path, *argv: str, refused: bool = False) -> dict:
    """The child's result; its stderr must be empty, or with `refused` one
    line of the CLI's error message."""
    result = tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", CHILD, str(result),
                           *argv], env=env, cwd=tmp_path, capture_output=True, check=False)
    err = proc.stderr.decode("utf-8", "replace")
    assert proc.returncode == 0 and (err.startswith("bell-lab: error: ") and err.count("\n") == 1
                                     if refused else not err), err
    return json.loads(result.read_text(encoding="utf-8"))


class TestWhatEachCommandLoads:
    def test_import_loads_no_submodule(self, tmp_path):
        run = run_child(tmp_path)
        assert run["modules"] == ["bell_lab"] and not run["numpy"]
        assert not run["dataclasses"] and not run["inspect"]

    @pytest.mark.parametrize("argv, code", [
        (["report", str(FIXTURES / "two_state.json"), "--format", "json"], 0),
        (["report", str(FIXTURES / "golden" / "decimal_nonlocal_3x3.json")], 0),
        (["check-locality", str(FIXTURES / "golden" / "decimal_nonlocal_3x3.json")], 1),
        (["check-locality", str(FIXTURES / "two_state.json"), "--format", "json"], 0),
    ])
    def test_report_and_checks_skip_montecarlo_and_singlet(self, tmp_path, argv, code):
        run = run_child(tmp_path, *argv)
        assert run["code"] == code
        assert "bell_lab.cli" in run["modules"]
        assert "bell_lab.montecarlo" not in run["modules"]
        assert "bell_lab.singlet" not in run["modules"]
        assert not run["numpy"]
        assert not run["dataclasses"] and not run["inspect"]

    @pytest.mark.parametrize("argv, module", [
        (["simulate", str(FIXTURES / "two_state.json"), "--trials", "10", "--out", "records.csv"],
         "bell_lab.montecarlo"),
        (["make-singlet", "--alice", "a1=0,a2=90", "--bob", "b1=45,b2=135", "--out", "s.json"],
         "bell_lab.singlet"),
        (["report", str(FIXTURES / "two_state.json"), "--simulate-trials", "10"],
         "bell_lab.montecarlo"),
    ])
    def test_simulate_and_make_singlet_load_their_module(self, tmp_path, argv, module):
        run = run_child(tmp_path, *argv)
        assert run["code"] == 0 and module in run["modules"] and run["numpy"]

    @pytest.mark.parametrize("argv, engine", [
        (["simulate", str(FIXTURES / "two_state.json"), "--trials", "10", "--format", "json"], "montecarlo"),
        (["simulate", str(FIXTURES / "eight_pattern.json"), "--trials", "1200", "--out", "records.csv",
          "--reveal-lambda", "--chsh-roles", "n1,n2:n1,n2"], "montecarlo"),
        (["make-singlet", "--alice", "a1=0,a2=90", "--bob", "b1=45,b2=135", "--out", "s.json"], "singlet"),
        (["make-singlet", "--alice", "a1=0", "--bob", "b1=45"], "singlet"),
    ])
    def test_simulate_and_make_singlet_skip_the_audit_chain(self, tmp_path, argv, engine):
        """Neither loads `audit`, `harness` or `instructions`: `cli` imports
        them only where a check or `report` calls them."""
        run = run_child(tmp_path, *argv)
        assert run["code"] == 0
        loaded = ["bell_lab", *(f"bell_lab.{m}" for m in ("cli", engine, "model", "specio"))]
        assert run["modules"] == sorted(loaded)

    @pytest.mark.parametrize("check, engine", [
        ("validate", None), ("check-locality", "audit"), ("check-signal", "audit"),
        ("check-anticorrelation", "audit"), ("derive-instructions", "instructions"), ("bell-test", "harness"),
    ])
    def test_each_check_loads_only_its_own_engine(self, tmp_path, check, engine):
        run = run_child(tmp_path, check, str(FIXTURES / "eight_pattern.json"))
        assert run["code"] in (0, 1)
        chain = {"bell_lab.audit", "bell_lab.harness", "bell_lab.instructions"}
        assert chain.intersection(run["modules"]) == ({f"bell_lab.{engine}"} if engine else set())
        assert not run["dataclasses"] and not run["inspect"]

    @pytest.mark.parametrize("data", [b'{"name": "x", "name": "y"}', b"\xff", b"[]"])
    def test_report_on_a_spec_that_does_not_parse_loads_no_engine(self, tmp_path, data):
        (tmp_path / "bad.json").write_bytes(data)
        run = run_child(tmp_path, "report", "bad.json", refused=True)
        assert run["code"] == 2
        assert run["modules"] == ["bell_lab", "bell_lab.cli", "bell_lab.model", "bell_lab.specio"]

    def test_report_imports_neither_dataclasses_nor_inspect(self):
        """As `python -X importtime` lists the imports of a report."""
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "bell_lab", "report",
                               str(FIXTURES / "two_state.json")], env={**os.environ, "PYTHONPATH": SRC},
                              capture_output=True, text=True, encoding="utf-8", check=False)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert {"bell_lab.audit", "bell_lab.harness", "bell_lab.instructions"} <= imported
        assert not imported & {"dataclasses", "inspect"}


#: runs each argv of the JSON list in the file sys.argv[1] as `python -m
#: bell_lab` in this one process, with `import numpy` blocked when
#: sys.argv[2] is "blocked", and writes to the file sys.argv[3] each run's
#: exit code, stdout and stderr, and whether numpy was loaded at the end
SEQUENCE = """
import contextlib, io, json, runpy, sys

listing, mode, result = sys.argv[1:]
with open(listing, encoding="utf-8") as fh:
    commands = json.load(fh)
if mode == "blocked":
    sys.modules["numpy"] = None  # `import numpy` raises ImportError
runs = []
for argv in commands:
    out, err, code = io.StringIO(), io.StringIO(), None
    sys.argv = ["bell_lab", *argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            runpy.run_module("bell_lab", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    runs.append([argv, code, out.getvalue(), err.getvalue()])
with open(result, "w", encoding="utf-8") as fh:
    json.dump({"runs": runs, "numpy": sys.modules.get("numpy") is not None}, fh)
"""


def _report_path_commands() -> list[list[str]]:
    """`report`, the five other checks and `bell-test` with CHSH and
    membership, each as JSON and as text, on every golden and certificate
    fixture."""
    commands = [["--version"]]
    for path in sorted([*FIXTURES.glob("golden/*.json"), *FIXTURES.glob("certificates/*.json")]):
        doc = json.loads(path.read_text(encoding="utf-8"))
        alice, bob = ([s["id"] for s in doc["scenario"][f"{side}_settings"][:2]] for side in ("alice", "bob"))
        spec = str(path)
        chsh = ["--chsh", f"{','.join(alice)}:{','.join(bob)}", "--membership"]
        for argv in (["report", spec], ["validate", spec], ["check-locality", spec], ["check-signal", spec],
                     ["check-anticorrelation", spec], ["derive-instructions", spec], ["bell-test", spec, *chsh]):
            commands += [[*argv, "--format", "json"], argv]
    return commands


def run_sequence(tmp_path: Path, commands: list[list[str]], mode: str) -> dict:
    listing, result = tmp_path / "commands.json", tmp_path / f"{mode}.json"
    listing.write_text(json.dumps(commands), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", SEQUENCE, str(listing), mode,
                           str(result)], env={**os.environ, "PYTHONPATH": SRC}, cwd=tmp_path,
                          capture_output=True, check=False)
    assert proc.returncode == 0 and not proc.stderr, proc.stderr.decode("utf-8", "replace")
    return json.loads(result.read_text(encoding="utf-8"))


class TestWithoutNumpy:
    def test_the_report_path_runs_the_same_with_numpy_blocked(self, tmp_path):
        commands = _report_path_commands()
        plain, blocked = (run_sequence(tmp_path, commands, mode) for mode in ("plain", "blocked"))
        assert not plain["numpy"] and not blocked["numpy"]
        assert [argv for argv, *_ in plain["runs"]] == commands
        codes = {code for _, code, *_ in plain["runs"]}
        assert codes == {0, 1, 2}, codes  # passed and failed checks, and refused inputs
        for want, got in zip(plain["runs"], blocked["runs"], strict=True):
            assert got == want, want[0]


#: the engines, each of which builds on `model` alone
ENGINES = ["specio", "audit", "instructions", "harness", "montecarlo", "singlet"]


class TestLayering:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_an_engine_imports_only_model(self, engine):
        source = Path(SRC, "bell_lab", f"{engine}.py").read_text(encoding="utf-8")
        relative = [(node.level, node.module) for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.ImportFrom) and node.level]
        assert relative and set(relative) == {(1, "model")}, relative

    @pytest.mark.parametrize("engine, loads", [
        ("montecarlo", ["bell_lab", "bell_lab.model", "bell_lab.montecarlo"]),
        ("instructions", ["bell_lab", "bell_lab.instructions", "bell_lab.model"]),
        ("harness", ["bell_lab", "bell_lab.harness", "bell_lab.model"]),
        ("singlet", ["bell_lab", "bell_lab.model", "bell_lab.singlet"]),
        ("audit", ["bell_lab", "bell_lab.audit", "bell_lab.model"]),
        ("specio", ["bell_lab", "bell_lab.model", "bell_lab.specio"]),
    ])
    def test_an_engine_loads_only_model(self, engine, loads):
        # and numpy only for the Monte Carlo engine and the singlet builder
        code = (f"import sys, bell_lab.{engine}; "
                "print(*sorted(m for m in sys.modules if m.startswith('bell_lab')), 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code],
                              env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
                              encoding="utf-8", check=False)
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        *modules, numpy = proc.stdout.split()
        assert modules == loads and numpy == str(engine in ("montecarlo", "singlet"))

    def test_no_module_imports_dataclasses(self):
        """`dataclasses` loads `inspect`, `ast`, `dis` and `tokenize`; the
        records are `model.Record`s instead."""
        for path in sorted(Path(SRC, "bell_lab").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            names = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
                     for alias in node.names}
            names |= {node.module.split(".")[0] for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) and not node.level}
            assert "dataclasses" not in names and "inspect" not in names, path.name

    def test_the_chsh_convention_has_one_home(self):
        from bell_lab import harness, model, montecarlo

        assert harness.CHSH_SIGNS is model.CHSH_SIGNS is montecarlo.CHSH_SIGNS
        assert harness._chsh_form is model._chsh_form
        assert harness.CHSH_CONVENTION is model.CHSH_CONVENTION
