"""The library's value contract, over every public callable at once.

A bad value a caller passes to a public entry point raises `BellLabError`
(or a subclass), with the two exceptions README names: `ValueError` for an
outcome other than +1 or -1, and the `OSError` of `open` for a path that
cannot be opened for writing.  The property draws junk for each value
parameter (ids, setting pairs, outcomes, tolerances, counts, seeds, angle
text, spec text, paths and directions) and holds every value-taking
callable in `bell_lab.__all__` to that.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bell_lab
import genmodels
from bell_lab import (
    BellLabError, FixedSequencePolicy, InstructionSet, OutcomeDistribution, SpecFormatError, UnknownIdError,
    behavior, bell1964, check_anticorrelation, check_bell_locality, check_signal_locality, chsh, correlator,
    derive_instruction_sets, dump_theory, load_theory, local_polytope_membership, make_planar_singlet,
    parse_theory, realize_model, simulate, singlet_joint_prob, theory_to_dict, validate_theory,
)

MODEL = make_planar_singlet("a1=0,a2=90", "b1=45,b2=135")
TABLE = behavior(MODEL)
SPEC_TEXT = json.dumps(theory_to_dict(MODEL))
INSTRUCTIONS = derive_instruction_sets(genmodels.random_anticorr_mixture(np.random.default_rng(3), 2, 3))
INSTRUCTIONS_SCENARIO = genmodels.shared_axis_scenario(2)
SRC = str(Path(bell_lab.__file__).resolve().parents[1])

#: the junk any value parameter is given; integers are kept apart, since a
#: trial count may not be huge (a huge count is valid and only slow)
NOT_INT = st.one_of(
    st.none(), st.booleans(), st.just(math.nan), st.floats(), st.text(max_size=6), st.binary(max_size=6),
    st.lists(st.integers(-2, 2), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.builds(object), st.tuples(), st.tuples(st.just("a1")), st.tuples(st.just("a1"), st.just("b1"), st.just("b2")),
)
JUNK = st.one_of(NOT_INT, st.integers())
NOT_TEXT = JUNK.filter(lambda v: not isinstance(v, (str, bytes)))


def either(valid: st.SearchStrategy, junk: st.SearchStrategy = JUNK) -> st.SearchStrategy:
    """`valid` three times in four, else `junk`: a call with several
    parameters often gets past its first check to the next one."""
    return st.integers(0, 3).flatmap(lambda k: junk if k == 0 else valid)


#: an id where an Alice, Bob or state id goes: one the model has, else an
#: unknown one or junk
A_ID, B_ID, STATE_ID = (either(st.sampled_from(ids), st.one_of(st.sampled_from(["zz", ""]), JUNK))
                        for ids in (("a1", "a2"), ("b1", "b2"), ("psi",)))
PAIRS = either(st.one_of(st.lists(st.tuples(A_ID, B_ID), max_size=3), st.lists(st.tuples(A_ID), max_size=2)))


def paths(root: Path) -> st.SearchStrategy:
    """Paths inside `root` (a name with no separator cannot leave it), as
    text, bytes and `Path`; text may hold a NUL byte or a lone surrogate."""
    name = st.text(st.characters(codec=None, exclude_characters="/", exclude_categories=()), max_size=8)
    return st.one_of(name.map(lambda n: f"{root}/{n}"), name.map(lambda n: root / n),
                     st.binary(max_size=8).filter(lambda b: b"/" not in b).map(lambda b: os.fsencode(root) + b"/" + b),
                     st.just(root))


def kinds(root: Path) -> dict[str, st.SearchStrategy]:
    return {
        "a_id": A_ID,
        "b_id": B_ID,
        "state_id": STATE_ID,
        "pairs": st.one_of(st.none(), PAIRS),
        "outcome": either(st.sampled_from([+1, -1])),
        "tol": either(st.sampled_from([None, 0, 1e-9, 0.5])),
        "count": either(st.integers(-2, 30), NOT_INT),
        "seed": either(st.integers(0, 2**64)),
        "roles": either(st.one_of(st.none(), st.tuples(A_ID, A_ID, B_ID, B_ID), st.lists(A_ID, max_size=5))),
        "policy": either(st.one_of(st.none(), st.just(FixedSequencePolicy(pairs=[("a1", "b2")])))),
        "angles": either(st.sampled_from(["a1=0,a2=90", "b1=45", "a1=x"])),
        "name": either(st.just("theory")),
        "spec": either(st.sampled_from([SPEC_TEXT, SPEC_TEXT.encode(), SPEC_TEXT[:-1]])),
        "direction": either(st.one_of(st.just((0.0, 0.0, 1.0)), st.lists(st.floats(), max_size=4))),
        # text and bytes name files only inside `root`; an int csv_path is a
        # file descriptor to open(), so it is tried in a child process below
        "path": either(paths(root), NOT_TEXT),
        "csv_path": either(paths(root), NOT_TEXT.filter(lambda v: not isinstance(v, int))),
    }


#: every value-taking callable in `bell_lab.__all__`: the kinds of value it
#: takes, the call, and what its contract lets escape besides BellLabError
ROWS = {
    "BehaviorTable.cell": (("a_id", "b_id"), TABLE.cell, ()),
    "ResponseKernel.cell": (("state_id", "a_id", "b_id"), MODEL.kernel.cell, ()),
    "Scenario.alice_setting": (("a_id",), MODEL.scenario.alice_setting, ()),
    "Scenario.bob_setting": (("b_id",), MODEL.scenario.bob_setting, ()),
    "OutcomeDistribution.prob": (("outcome", "outcome"), TABLE.cell("a1", "b1").prob, (ValueError,)),
    "OutcomeDistribution.marginal_a": (("outcome",), TABLE.cell("a1", "b1").marginal_a, (ValueError,)),
    "OutcomeDistribution.marginal_b": (("outcome",), TABLE.cell("a1", "b1").marginal_b, (ValueError,)),
    "OutcomeDistribution.point": (("outcome", "outcome"), OutcomeDistribution.point, (ValueError,)),
    "behavior": (("tol",), lambda tol: behavior(MODEL, tol), ()),
    "validate_theory": (("tol",), lambda tol: validate_theory(MODEL, tol), ()),
    "parse_theory": (("spec",), parse_theory, ()),
    "load_theory": (("path",), load_theory, ()),
    "dump_theory": (("path",), lambda path: dump_theory(MODEL, path), (OSError,)),
    "make_planar_singlet": (("angles", "angles", "name"), make_planar_singlet, ()),
    "singlet_joint_prob": (("direction", "direction", "outcome", "outcome"), singlet_joint_prob, (ValueError,)),
    "check_anticorrelation": (("pairs", "tol"), lambda pairs, tol: check_anticorrelation(MODEL, pairs, tol), ()),
    "check_bell_locality": (("tol",), lambda tol: check_bell_locality(MODEL, tol), ()),
    "check_signal_locality": (("tol",), lambda tol: check_signal_locality(MODEL, tol), ()),
    "derive_instruction_sets": (("pairs", "tol"), lambda pairs, tol: derive_instruction_sets(MODEL, pairs, tol), ()),
    "InstructionSet": (("pairs",), lambda pairs: InstructionSet(pairs, {}, {}), ()),
    "realize_model": (("name",), lambda name: realize_model(INSTRUCTIONS, INSTRUCTIONS_SCENARIO, name), ()),
    "bell1964": (("pairs", "tol"), lambda pairs, tol: bell1964(TABLE, pairs, tol), ()),
    "chsh": (("a_id", "a_id", "b_id", "b_id", "tol"), lambda *args: chsh(TABLE, *args), ()),
    "correlator": (("a_id", "b_id"), lambda a, b: correlator(TABLE, a, b), ()),
    "local_polytope_membership": (("tol",), lambda tol: local_polytope_membership(TABLE, tol), ()),
    "FixedSequencePolicy": (("pairs",), lambda pairs: FixedSequencePolicy(pairs=pairs), ()),
    "simulate": (("count", "seed", "policy", "roles", "csv_path", "tol"),
                 lambda trials, seed, policy, roles, path, tol: simulate(MODEL, trials, seed, policy, roles, path,
                                                                         tol=tol), (OSError,)),
}

#: the public names that take no value the contract covers: the error
#: classes, the records (a model's values are `validate_theory`'s to
#: judge), and callables whose only argument is a model, table, scenario,
#: specification or instruction set
NO_VALUES = {
    "BellLabError", "InvalidModelError", "UnknownIdError", "SpecFormatError",
    "EnsembleEntry", "HiddenStateEnsemble", "Setting", "TheoryModel", "Violation", "SingletSpec",
    "AntiCorrelationReport", "LocalityReport", "SignalReport", "ClassPartition", "DerivationFailure",
    "Bell1964Result", "BellTestResult", "CHSHResult", "DeterministicStrategy", "MembershipCertificate",
    "ExperimentStats", "UniformSettingPolicy",
    "theory_to_dict", "make_quantum_theory", "classify_states", "enumerate_strategies",
}


@pytest.fixture(scope="module")
def sandbox(tmp_path_factory) -> Path:
    """The one directory the property's paths name files in."""
    return tmp_path_factory.mktemp("contract")


class TestValueContract:
    def test_the_rows_cover_every_public_name(self):
        covered = {name.split(".")[0] for name in ROWS} | NO_VALUES
        assert covered == set(bell_lab.__all__) - {"__version__"}

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_only_bell_lab_error_and_the_two_named_errors_escape(self, sandbox, data):
        name = data.draw(st.sampled_from(sorted(ROWS)), label="callable")
        arg_kinds, call, allowed = ROWS[name]
        strategies = kinds(sandbox)
        args = [data.draw(strategies[kind], label=kind) for kind in arg_kinds]
        try:
            call(*args)
        except (BellLabError, *allowed):
            return
        outcomes = [v for kind, v in zip(arg_kinds, args) if kind == "outcome"]
        # an outcome other than +1 or -1 is refused, never read as a zero
        assert all(v in (+1, -1) for v in outcomes), f"{name}{tuple(args)!r} returned"


class TestUnhashableIds:
    """An id that is not hashable names no cell: UnknownIdError, with the
    message any other unknown id gets."""

    @pytest.mark.parametrize("call, message", [
        (lambda ids: correlator(TABLE, *ids), "behavior has no cell for (a={!r}, b='b1')"),
        (lambda ids: chsh(TABLE, ids[0], "a2", "b1", "b2"), "behavior has no cell for (a={!r}, b='b1')"),
        (lambda ids: MODEL.kernel.cell(ids[0], "a1", "b1"), "kernel has no cell for (state={!r}, a='a1', b='b1')"),
    ], ids=["correlator", "chsh", "kernel.cell"])
    @pytest.mark.parametrize("bad", [[], {}, "zz"], ids=repr)
    def test_an_unhashable_id_is_an_unknown_id(self, call, message, bad):
        with pytest.raises(UnknownIdError) as info:
            call((bad, "b1"))
        assert str(info.value) == message.format(bad)

    @pytest.mark.parametrize("bad", [[], {1: 2}, {"a1"}])
    def test_an_unhashable_outcome_is_a_bad_outcome(self, bad):
        with pytest.raises(ValueError, match=r"must be \+1 or -1"):
            TABLE.cell("a1", "b1").prob(bad, +1)
        with pytest.raises(ValueError, match=r"must be \+1 or -1"):
            OutcomeDistribution.point(+1, bad)


class TestPathArguments:
    @pytest.mark.parametrize("bad", [5.5, [1], "a\0b", b"a\0b", "\ud800"], ids=repr)
    def test_simulate_refuses_a_csv_path_that_is_not_a_path(self, bad):
        with pytest.raises(BellLabError, match="csv_path must be a path"):
            simulate(MODEL, 3, 1, csv_path=bad)

    def test_a_descriptor_csv_path_is_refused_and_leaves_stdout_open(self):
        # open() takes an int as a file descriptor: csv_path=True would write
        # the CSV to stdout and close it, so this runs in a child
        code = ("import numpy\nfrom bell_lab import BellLabError, make_planar_singlet, simulate\n"
                "model = make_planar_singlet('a1=0', 'b1=0')\n"
                "for bad in (True, False, 1, 0, numpy.int64(1)):\n"
                "    try:\n        simulate(model, 3, 1, csv_path=bad)\n"
                "    except BellLabError as exc:\n        print(str(exc).startswith('csv_path must be a path'))\n"
                "print('stdout open')\n")
        done = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": SRC}, text=True, encoding="utf-8", timeout=60)
        assert (done.returncode, done.stderr, done.stdout) == (0, "", "True\n" * 5 + "stdout open\n")

    @pytest.mark.parametrize("bad", [None, True, 5.5, [1], b"spec.json", "a\0b"], ids=repr)
    def test_dump_theory_refuses_what_is_not_a_path(self, bad, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SpecFormatError, match="cannot write"):
            dump_theory(MODEL, bad)
        assert list(tmp_path.iterdir()) == []

    def test_load_theory_refuses_a_nul_byte(self):
        with pytest.raises(SpecFormatError, match="embedded null byte"):
            load_theory("a\0b")
