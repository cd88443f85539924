"""Command-line interface, exercised in process through main(argv)."""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bell_lab
from bell_lab.cli import (_axis_names, _fields, _parse_axes_arg, _parse_bell1964, _parse_policy,
                          _parse_roles, build_parser, main)
from bell_lab.instructions import InstructionSet, realize_model
from bell_lab.model import BellLabError, Scenario, Setting
from bell_lab.specio import dump_theory, load_theory


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def singlet_chsh_path(tmp_path, capsys):
    code = main(
        [
            "make-singlet",
            "--alice", "a1=0,a2=90",
            "--bob", "b1=45,b2=135",
            "--out", str(tmp_path / "singlet.json"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    return tmp_path / "singlet.json"


class TestValidate:
    @pytest.mark.parametrize("command", ["validate", "report"])
    def test_missing_cells_in_declaration_order_under_any_hash_seed(self, tmp_path, command):
        """Each run is a fresh interpreter: string hashing, and with it the
        order of a set of ids, changes with PYTHONHASHSEED."""
        spec = tmp_path / "missing.json"
        spec.write_text(json.dumps({
            "name": "one cell", "ensemble": [{"id": "s1", "weight": 1}],
            "scenario": {"alice_settings": [{"id": "a1"}, {"id": "a2"}],
                         "bob_settings": [{"id": "b1"}, {"id": "b2"}]},
            "kernel": {"s1": {"a1|b1": {"++": "1/2", "+-": 0, "-+": 0, "--": "1/2"}}},
        }), encoding="utf-8")
        src = str(Path(bell_lab.__file__).resolve().parents[1])
        runs = []
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-m", "bell_lab", command, str(spec)],
                                  env=env, capture_output=True, check=False)
            runs.append((proc.returncode, proc.stdout))
        assert runs[0] == runs[1]
        cells = re.findall(r"kernel\[s1,(a\d),(b\d)\]", runs[0][1].decode("utf-8"))
        assert cells == [("a1", "b2"), ("a2", "b1"), ("a2", "b2")]

    def test_valid_spec_exits_zero(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "validate", str(fixtures_dir / "two_state.json"))
        assert code == 0
        assert "valid" in out

    def test_invalid_spec_exits_one_and_lists_violations(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "validate", str(fixtures_dir / "bad_sum.json"), "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["valid"] is False
        assert doc["violations"]

    def test_malformed_json_exits_two(self, capsys, fixtures_dir):
        code, _, err = run_cli(capsys, "validate", str(fixtures_dir / "malformed.json"))
        assert code == 2
        assert "line" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "absent.json"))
        assert code == 2
        assert "cannot read" in err

    def test_non_utf8_spec_exits_two(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"name": "caf\xe9", "scenario": {}}\n')
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert "not UTF-8" in err

    def test_deeply_nested_spec_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_bytes(b"[" * 100_000)
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert "nested too deeply" in err

    def test_duplicate_key_exits_two_and_names_it(self, capsys, fixtures_dir, tmp_path):
        text = (fixtures_dir / "two_state.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        first = doc["ensemble"][0]["id"]
        # an empty kernel block ahead of the real one used to win silently
        dup = text.replace('"kernel": {', f'"kernel": {{\n    "{first}": {{}},', 1)
        assert dup != text
        path = tmp_path / "duplicate.json"
        path.write_text(dup, encoding="utf-8")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 2
        assert f"duplicate key {first!r}" in err


class TestChecks:
    def test_locality_flags_singlet(self, capsys, tmp_path):
        main(
            [
                "make-singlet",
                "--alice", "n1=0,n2=90",
                "--bob", "n1=0,n2=90",
                "--out", str(tmp_path / "equal.json"),
            ]
        )
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "check-locality", str(tmp_path / "equal.json"), "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "NotBellLocal"
        # equal-axes geometry: joint P(+,+) is 0 but the marginal product is 1/4
        assert abs(float(doc["worst_residual"]) - 0.25) < 1e-9

    def test_locality_passes_deterministic_fixture(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "check-locality", str(fixtures_dir / "eight_pattern.json")
        )
        assert code == 0
        assert "BellLocal" in out

    def test_signal_passes_singlet(self, capsys, singlet_chsh_path):
        code, out, _ = run_cli(
            capsys, "check-signal", str(singlet_chsh_path), "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "SignalLocal"

    def test_signal_catches_signalling_fixture(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "check-signal", str(fixtures_dir / "signalling.json"), "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "Signalling"

    def test_anticorrelation_on_shared_axes(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "check-anticorrelation", str(fixtures_dir / "eight_pattern.json")
        )
        assert code == 0
        assert "AntiCorrelated" in out

    def test_anticorrelation_explicit_axes_failure(self, capsys, singlet_chsh_path):
        code, out, _ = run_cli(
            capsys,
            "check-anticorrelation", str(singlet_chsh_path),
            "--axes", "a1=b1",
            "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["verdict"] == "NotAntiCorrelated"

    def test_anticorrelation_without_axes_errors_cleanly(self, capsys, singlet_chsh_path):
        code, _, err = run_cli(capsys, "check-anticorrelation", str(singlet_chsh_path))
        assert code == 2
        assert "equal-axis" in err


class TestDeriveInstructions:
    def test_derivation_succeeds_on_fixture(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "derive-instructions", str(fixtures_dir / "eight_pattern.json"),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["derived"] is True
        assert doc["partition"]["class_count"] == 8
        assert all(c["weight"] == "1/8" for c in doc["partition"]["classes"])

    def test_derivation_fails_on_singlet_with_named_marginal(self, capsys, tmp_path):
        main(
            [
                "make-singlet",
                "--alice", "n1=0,n2=90",
                "--bob", "n1=0,n2=90",
                "--out", str(tmp_path / "equal.json"),
            ]
        )
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys, "derive-instructions", str(tmp_path / "equal.json"), "--format", "json"
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["derived"] is False
        assert abs(float(doc["failure"]["marginal"]) - 0.5) < 1e-9

    def test_text_rendering_mentions_classes(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "derive-instructions", str(fixtures_dir / "eight_pattern.json")
        )
        assert code == 0
        assert "classes" in out

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_partition_skipped_past_sixteen_axes(self, capsys, tmp_path, fmt):
        """17 derived axes would need 2^17 classes: the derivation is
        printed, the partition skipped, and the exit code stays 0."""
        path = seventeen_axes_spec(tmp_path)
        code, out, _ = run_cli(capsys, "derive-instructions", str(path), "--format", fmt)
        assert code == 0
        skipped = "refusing to enumerate 2^17 classes (limit 2^16)"
        if fmt == "json":
            doc = json.loads(out)
            assert doc["derived"] is True
            assert doc["partition"] == {"skipped": skipped}
        else:
            assert out.startswith("Instruction derivation: OK\n")
            assert out.endswith(f"  classes skipped: {skipped}\n")


def seventeen_axes_spec(tmp_path) -> Path:
    """One deterministic state on 17 shared axes, all Alice outcomes +1."""
    ids = [f"n{k}" for k in range(1, 18)]
    axes = tuple((i, i) for i in ids)
    instr = InstructionSet(axes=axes, assignments={"s": {axis: (1, -1) for axis in axes}},
                           weights={"s": Fraction(1)})
    settings_ = tuple(Setting(i) for i in ids)
    path = tmp_path / "seventeen.json"
    dump_theory(realize_model(instr, Scenario(settings_, settings_)), path)
    return path


class TestBellTest:
    def test_chsh_roles_and_membership(self, capsys, singlet_chsh_path):
        code, out, _ = run_cli(
            capsys,
            "bell-test", str(singlet_chsh_path),
            "--chsh", "a2,a1:b1,b2",
            "--membership",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["chsh"]["violated"] is True
        assert abs(abs(float(doc["chsh"]["chsh_value"])) - 2.8284271247461903) < 1e-9
        assert doc["membership"]["inside"] is False
        assert doc["membership"]["functional"]["kind"] == "chsh"

    def test_bell1964_on_three_axis_singlet(self, capsys, tmp_path):
        main(
            [
                "make-singlet",
                "--alice", "n1=0,n2=60,n3=120",
                "--bob", "n1=0,n2=60,n3=120",
                "--out", str(tmp_path / "three.json"),
            ]
        )
        capsys.readouterr()
        code, out, _ = run_cli(
            capsys,
            "bell-test", str(tmp_path / "three.json"),
            "--bell1964", "n1,n2,n3",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bell1964"]["satisfied"] is False
        assert abs(float(doc["bell1964"]["lhs"]) - 1.0) < 1e-9
        assert abs(float(doc["bell1964"]["rhs"]) - 0.5) < 1e-9

    def test_bad_roles_syntax_errors(self, capsys, singlet_chsh_path):
        code, _, err = run_cli(
            capsys, "bell-test", str(singlet_chsh_path), "--chsh", "a1,a2,b1,b2"
        )
        assert code == 2
        assert "roles" in err or "a,a2:b,b2" in err.lower() or err

    def test_membership_inside_fixture(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys,
            "bell-test", str(fixtures_dir / "eight_pattern.json"),
            "--membership",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["membership"]["inside"] is True
        assert doc["membership"]["residual"] == 0


class TestSimulate:
    def test_summary_and_csv(self, capsys, singlet_chsh_path, tmp_path):
        out_csv = tmp_path / "records.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate", str(singlet_chsh_path),
            "--trials", "2000",
            "--seed", "42",
            "--out", str(out_csv),
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["trials"] == 2000
        assert doc["seed"] == 42
        header = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "trial,a,b,A,B"

    def test_reveal_lambda_column(self, capsys, singlet_chsh_path, tmp_path):
        out_csv = tmp_path / "records.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate", str(singlet_chsh_path),
            "--trials", "10",
            "--out", str(out_csv),
            "--reveal-lambda",
        )
        assert code == 0
        assert out_csv.read_text(encoding="utf-8").splitlines()[0] == "trial,a,b,A,B,lambda"

    def test_sequence_policy_file(self, capsys, singlet_chsh_path, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("# pairs\na1,b1\na2,b2\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "simulate", str(singlet_chsh_path),
            "--trials", "100",
            "--policy", f"sequence:{seq}",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc["pair_counts"]) == {"a1|b1", "a2|b2"}

    def test_non_utf8_sequence_file_exits_two(self, capsys, singlet_chsh_path, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_bytes(b"a1,b1\n\xff\xfe\n")
        code, out, err = run_cli(
            capsys, "simulate", str(singlet_chsh_path), "--trials", "10",
            "--policy", f"sequence:{seq}",
        )
        assert code == 2
        assert out == ""
        assert str(seq) in err and "not UTF-8" in err

    @pytest.mark.parametrize(
        "command, trials", [("simulate", "--trials"), ("report", "--simulate-trials")]
    )
    def test_tol_reaches_the_sampler(self, capsys, tmp_path, command, trials):
        # one decimal cell sums to 1.00001: valid at --tol 0.001, not at 1e-9
        spec = tmp_path / "loose.json"
        spec.write_text(json.dumps({
            "name": "loose", "ensemble": [{"id": "s1", "weight": 1}],
            "scenario": {"alice_settings": [{"id": "a1"}], "bob_settings": [{"id": "b1"}]},
            "kernel": {"s1": {"a1|b1": {"++": 0.5, "+-": 0.50001, "-+": 0.0, "--": 0.0}}},
        }), encoding="utf-8")
        argv = [command, str(spec), trials, "10", "--format", "json"]
        code, out, err = run_cli(capsys, *argv)
        if command == "simulate":
            assert (code, out) == (2, "")
            assert "sum to 1" in err
        else:
            assert (code, err) == (0, "")
            assert json.loads(out)["sections"]["validation"]["valid"] is False
        code, out, err = run_cli(capsys, *argv, "--tol", "0.001")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        stats = doc if command == "simulate" else doc["sections"]["simulation"]
        assert stats["trials"] == 10

    def test_bad_policy_errors(self, capsys, singlet_chsh_path):
        code, _, err = run_cli(
            capsys, "simulate", str(singlet_chsh_path), "--trials", "10", "--policy", "coin"
        )
        assert code == 2
        assert "policy" in err

    def test_chsh_roles_flag(self, capsys, singlet_chsh_path):
        code, out, _ = run_cli(
            capsys,
            "simulate", str(singlet_chsh_path),
            "--trials", "20000",
            "--seed", "42",
            "--chsh-roles", "a2,a1:b1,b2",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["chsh_roles"] == ["a2", "a1", "b1", "b2"]
        assert abs(doc["chsh"]["value"]) > 2.5

    def test_unknown_chsh_roles_exit_two(self, capsys, singlet_chsh_path, tmp_path):
        out = tmp_path / "records.csv"
        for roles in ("zz,a2:b1,b2", "a1,a2:b1,zz"):
            code, stdout, err = run_cli(capsys, "simulate", str(singlet_chsh_path), "--trials", "10",
                                        "--chsh-roles", roles, "--out", str(out))
            assert (code, stdout) == (2, ""), roles
            assert "'zz'" in err
        assert not out.exists()

    def test_unobserved_chsh_roles_give_null(self, capsys, singlet_chsh_path, tmp_path):
        seq = tmp_path / "seq.txt"
        seq.write_text("a1,b1\na2,b2\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "simulate", str(singlet_chsh_path), "--trials", "10",
                               "--policy", f"sequence:{seq}", "--chsh-roles", "a2,a1:b1,b2",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["chsh"], doc["chsh_roles"]) == (None, None)


class TestMakeSinglet:
    def test_writes_loadable_spec(self, singlet_chsh_path):
        model = load_theory(singlet_chsh_path)
        assert model.scenario.alice_ids() == ("a1", "a2")
        assert model.scenario.bob_ids() == ("b1", "b2")

    def test_prints_json_without_out(self, capsys):
        code, out, _ = run_cli(
            capsys, "make-singlet", "--alice", "a1=0", "--bob", "b1=90"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kernel"]["psi"]["a1|b1"]

    @pytest.mark.parametrize("alice", ["a1=0,a1=90", "a|1=0"])
    def test_ids_of_an_invalid_spec_exit_two(self, capsys, alice):
        """A duplicate id, or one holding '|', would make a spec that
        `validate` refuses or that does not parse: nothing is written."""
        code, out, err = run_cli(capsys, "make-singlet", "--alice", alice, "--bob", "b1=45")
        assert (code, out) == (2, "")
        assert "invalid theory model" in err

    def test_rejects_bad_angles(self, capsys):
        for angle in ("zero", "nan", "inf", "-inf", "1e400"):
            code, out, err = run_cli(
                capsys, "make-singlet", "--alice", f"a1={angle}", "--bob", "b1=90"
            )
            assert (code, out) == (2, ""), angle
            assert "angle" in err


class TestReport:
    def test_negative_simulate_trials_exit_two(self, capsys, singlet_chsh_path):
        code, out, err = run_cli(capsys, "report", str(singlet_chsh_path),
                                 "--simulate-trials", "-5")
        assert (code, out) == (2, "")
        assert "--simulate-trials" in err

    def test_full_pipeline_json(self, capsys, singlet_chsh_path):
        code, out, _ = run_cli(
            capsys,
            "report", str(singlet_chsh_path),
            "--chsh", "a2,a1:b1,b2",
            "--simulate-trials", "500",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        sections = doc["sections"]
        assert sections["validation"]["valid"] is True
        assert sections["bell_locality"]["verdict"] == "NotBellLocal"
        assert sections["signal_locality"]["verdict"] == "SignalLocal"
        assert "skipped" in sections["anticorrelation"]
        assert sections["bell_tests"]["chsh"]["violated"] is True
        assert sections["bell_tests"]["membership"]["inside"] is False
        assert sections["simulation"]["trials"] == 500
        assert len(doc["input"]["sha256"]) == 64

    def test_pipeline_stops_at_invalid_model(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "report", str(fixtures_dir / "bad_sum.json"), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sections"]["validation"]["valid"] is False
        assert "bell_locality" not in doc["sections"]

    def test_pipeline_on_deterministic_fixture_derives(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            capsys, "report", str(fixtures_dir / "eight_pattern.json"), "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        sections = doc["sections"]
        assert sections["anticorrelation"]["verdict"] == "AntiCorrelated"
        assert sections["instructions"]["derived"] is True
        assert sections["instructions"]["partition"]["class_count"] == 8
        assert sections["bell_tests"]["chsh"]["skipped"]

    def test_partition_skipped_past_sixteen_axes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "report", str(seventeen_axes_spec(tmp_path)),
                               "--format", "json")
        assert code == 0
        instructions = json.loads(out)["sections"]["instructions"]
        assert instructions["derived"] is True
        assert len(instructions["instructions"]["axes"]) == 17
        assert instructions["partition"] == {
            "skipped": "refusing to enumerate 2^17 classes (limit 2^16)"}

    def test_text_report_renders(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "report", str(fixtures_dir / "two_state.json"))
        assert code == 0
        assert "== validation ==" in out
        assert "== bell_tests ==" in out


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "bell-lab" in out

    def test_no_command_shows_usage(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("argv", [
        [command, "{spec}"] for command in ("validate", "check-locality", "check-signal",
                                            "check-anticorrelation", "derive-instructions",
                                            "bell-test")
    ] + [["make-singlet", "--alice", "a1=0", "--bob", "b1=45"]])
    def test_seed_is_refused_where_nothing_is_drawn(self, capsys, singlet_chsh_path, argv):
        with pytest.raises(SystemExit) as info:
            main([arg.format(spec=singlet_chsh_path) for arg in argv] + ["--seed", "1"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_simulate_and_report_take_seed(self, capsys, singlet_chsh_path):
        code, out, _ = run_cli(capsys, "simulate", str(singlet_chsh_path), "--trials", "20",
                               "--seed", "7", "--format", "json")
        assert (code, json.loads(out)["seed"]) == (0, 7)
        code, out, _ = run_cli(capsys, "report", str(singlet_chsh_path), "--simulate-trials", "20",
                               "--seed", "7", "--format", "json")
        assert (code, json.loads(out)["sections"]["simulation"]["seed"]) == (0, 7)

    COMMON = {"-h", "--help", "--tol", "--format"}

    #: command -> (positional arguments, option strings), in `--help` order
    FLAGS = {
        "validate": (["spec"], COMMON),
        "check-locality": (["spec"], COMMON),
        "check-signal": (["spec"], COMMON),
        "check-anticorrelation": (["spec"], COMMON | {"--axes"}),
        "derive-instructions": (["spec"], COMMON | {"--axes"}),
        "bell-test": (["spec"], COMMON | {"--chsh", "--bell1964", "--membership"}),
        "simulate": (["spec"], COMMON | {"--trials", "--policy", "--out", "--reveal-lambda",
                                         "--chsh-roles", "--seed"}),
        "report": (["spec"], COMMON | {"--axes", "--chsh", "--bell1964", "--simulate-trials",
                                       "--seed"}),
        "make-singlet": ([], {"-h", "--help", "--alice", "--bob", "--name", "--out"}),
    }

    @staticmethod
    def subcommands() -> dict[str, argparse.ArgumentParser]:
        return next(action.choices for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))

    @pytest.mark.parametrize("command", FLAGS)
    def test_each_subcommand_has_exactly_its_flags(self, command):
        positionals, options = self.FLAGS[command]
        actions = self.subcommands()[command]._actions
        assert [a.dest for a in actions if not a.option_strings] == positionals
        assert {opt for a in actions for opt in a.option_strings} == options

    def test_subcommands_keep_their_help_order(self):
        assert list(self.subcommands()) == list(self.FLAGS)

    def test_unknown_ids_exit_two(self, capsys, singlet_chsh_path):
        code, _, err = run_cli(
            capsys, "bell-test", str(singlet_chsh_path), "--chsh", "zz,a1:b1,b2"
        )
        assert code == 2
        assert "zz" in err


class TestToleranceFlag:
    """A NaN, infinite or negative --tol would make failing comparisons
    pass; every subcommand rejects it as bad input."""

    SUBCOMMANDS = {
        "validate": [],
        "check-locality": [],
        "check-signal": [],
        "check-anticorrelation": [],
        "derive-instructions": [],
        "bell-test": ["--membership"],
        "simulate": ["--trials", "10"],
        "report": [],
    }

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9"])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_bad_tolerance_exits_two(self, capsys, fixtures_dir, command, tol):
        spec = fixtures_dir / "golden" / "decimal_nonlocal_3x3.json"
        argv = [command, str(spec), *self.SUBCOMMANDS[command]]
        code, out, err = run_cli(capsys, *argv, f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "tolerance must be a finite number >= 0" in err

    @pytest.mark.parametrize("flag", ["--tol=1e-3", "--format=json", "--format=text"])
    def test_make_singlet_has_no_tolerance_or_format(self, capsys, flag):
        """make-singlet compares nothing and always writes the JSON spec."""
        with pytest.raises(SystemExit) as info:
            main(["make-singlet", "--alice", "a1=0", "--bob", "b1=45", flag])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestBell1964Axes:
    """report and bell-test read --bell1964 through one parser."""

    @pytest.mark.parametrize("axes, count", [("n1,n2", 2), ("n1,n2,n3,n1", 4), ("n1", 1)])
    def test_report_skips_a_wrong_axis_count(self, capsys, fixtures_dir, axes, count):
        spec = fixtures_dir / "certificates" / "singlet_three_axes.json"
        code, out, err = run_cli(capsys, "report", str(spec), "--bell1964", axes, "--format", "json")
        assert code == 0
        assert err == ""
        section = json.loads(out)["sections"]["bell_tests"]["bell1964"]
        assert section == {"skipped": f"--bell1964 needs three axes, got {count}"}

    @pytest.mark.parametrize("axes, count", [("n1,n2", 2), ("n1,n2,n3,n1", 4)])
    def test_bell_test_rejects_a_wrong_axis_count(self, capsys, fixtures_dir, axes, count):
        spec = fixtures_dir / "certificates" / "singlet_three_axes.json"
        code, out, err = run_cli(capsys, "bell-test", str(spec), "--bell1964", axes)
        assert code == 2
        assert out == ""
        assert f"--bell1964 needs three axes, got {count}" in err


def quoted(*ids: str) -> str:
    """The quoting writer: ids as one CSV row with every field quoted."""
    buf = io.StringIO()
    csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="").writerow(ids)
    return buf.getvalue()


def shared_axes_spec(path, ids: list[str]):
    """An exact anti-correlated mixture on shared axes named by `ids`."""
    axes = tuple((i, i) for i in ids)
    instr = InstructionSet(
        axes=axes,
        assignments={f"s{k}": {axis: (s, -s) for axis, s in zip(axes, signs)}
                     for k, signs in enumerate(itertools.product((1, -1), repeat=len(ids)))},
        weights={f"s{k}": Fraction(1, 2 ** len(ids)) for k in range(2 ** len(ids))},
    )
    settings_ = tuple(Setting(i) for i in ids)
    dump_theory(realize_model(instr, Scenario(settings_, settings_)), path)
    return load_theory(path)


#: Valid setting ids: any text without '|', the kernel-key separator.
setting_ids = st.text(max_size=6).filter(lambda s: "|" not in s)


class TestQuotedIds:
    """Flags and sequence files read fields with CSV quoting, so every
    valid setting id can be named; text without quoted fields parses as
    it did before quoting was read."""

    IDS = ["n,1", 'n"=2', " n:3 "]  # commas, quotes, '=' and colons

    @settings(max_examples=200, deadline=None)
    @given(ids=st.lists(setting_ids, min_size=1, max_size=4), roles=st.lists(setting_ids, min_size=4, max_size=4))
    def test_every_valid_id_names_itself(self, ids, roles):
        assert [field for field, *_ in _fields(quoted(*ids))] == ids
        text = quoted(*roles[:2]) + ":" + quoted(*roles[2:])
        assert _parse_roles(text) == tuple(roles)

    @settings(max_examples=50, deadline=None)
    @given(ids=st.lists(setting_ids.filter(lambda s: not {"\n", "\r"} & set(s)),
                        min_size=3, max_size=3, unique=True))
    @example(ids=["x=1", "=", 'a"=b'])
    def test_axes_and_sequence_lines_name_any_id(self, tmp_path_factory, ids):
        # a sequence file splits at line breaks
        model = shared_axes_spec(tmp_path_factory.mktemp("q") / "spec.json", ids)
        axes = [(i, i) for i in ids]
        assert _parse_axes_arg(model, quoted(*ids)) == axes
        assert list(_parse_bell1964(model, quoted(*ids))) == axes
        pairs = ",".join(quoted(i) + " = " + quoted(i) for i in ids)
        assert _parse_axes_arg(model, pairs) == axes
        assert list(_parse_bell1964(model, pairs)) == axes
        seq = tmp_path_factory.mktemp("q") / "seq.txt"
        seq.write_text("".join(quoted(i, i) + "\n" for i in ids), encoding="utf-8")
        assert _parse_policy(f"sequence:{seq}").pairs == tuple(axes)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.sampled_from('ab ,:"\t\n'), max_size=12))
    def test_text_without_quoted_fields_splits_as_before(self, text):
        assume(not any(chunk.strip().startswith('"') for chunk in re.split("[,:]", text)))
        assert [field for field, *_ in _fields(text)] == [s.strip() for s in text.split(",")]
        try:  # the roles parser before quoting
            alice_part, bob_part = text.split(":")
            a, a2 = (s.strip() for s in alice_part.split(","))
            b, b2 = (s.strip() for s in bob_part.split(","))
        except ValueError:
            with pytest.raises(BellLabError):
                _parse_roles(text)
        else:
            assert _parse_roles(text) == (a, a2, b, b2)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(st.sampled_from('ab =,"\t'), max_size=12))
    def test_axes_without_quoted_fields_split_as_before(self, text):
        # the axes parser before quoting was read: comma fields, stripped,
        # each split by resolve_axes at its first '='
        assume(not any(quoted for _, quoted, _ in _fields(text, ",=")))
        assert _axis_names(text) == [s.strip() for s in text.split(",")]

    def test_a_quoted_side_names_an_id_holding_equals(self, tmp_path):
        model = shared_axes_spec(tmp_path / "spec.json", ["x=1", "x", "1"])
        assert _parse_axes_arg(model, '"x=1"') == [("x=1", "x=1")]
        assert _parse_axes_arg(model, '"x=1"=x, "x" = "1"') == [("x=1", "x"), ("x", "1")]
        assert _parse_axes_arg(model, "x=1") == [("x", "1")]  # unquoted: a pair, as before
        assert _parse_axes_arg(model, 'x=1, x=1 ,') == [("x", "1"), ("x", "1")]
        with pytest.raises(BellLabError, match="aId=bId"):
            _parse_axes_arg(model, '"x"=1=x')

    def test_every_flag_names_ids_with_commas_quotes_and_colons(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        shared_axes_spec(spec, self.IDS)
        axes = [[i, i] for i in self.IDS]
        roles = quoted(*self.IDS[:2]) + ":" + quoted(*self.IDS[:2])
        code, out, err = run_cli(capsys, "check-anticorrelation", str(spec), "--axes", quoted(*self.IDS),
                                 "--format", "json")
        assert (code, err) == (0, "") and json.loads(out)["axes"] == axes
        code, out, err = run_cli(capsys, "derive-instructions", str(spec), "--axes", quoted(*self.IDS),
                                 "--format", "json")
        assert (code, err) == (0, "") and json.loads(out)["instructions"]["axes"] == axes
        code, out, err = run_cli(capsys, "bell-test", str(spec), "--bell1964", quoted(*self.IDS),
                                 "--chsh", roles, "--format", "json")
        doc = json.loads(out)
        assert (code, err) == (0, "") and doc["bell1964"]["axes"] == axes
        assert list(doc["chsh"]["roles"].values()) == self.IDS[:2] * 2
        seq = tmp_path / "seq.txt"
        seq.write_text("# pairs\n" + quoted(self.IDS[0], self.IDS[2]) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "simulate", str(spec), "--trials", "20", "--policy",
                                 f"sequence:{seq}", "--chsh-roles", roles, "--format", "json")
        doc = json.loads(out)
        assert (code, err) == (0, "") and list(doc["pair_counts"]) == [f"{self.IDS[0]}|{self.IDS[2]}"]
