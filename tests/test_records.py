"""The result records are NamedTuples: frozen, equal to the plain tuple of
their fields, iterable, picklable, and printed as the frozen dataclasses
they replace printed them (each `repr` below is that text, pinned).

`TheoryModel`, `LocalityReport`, `InstructionSet` and the two setting
policies are `model.Record`s instead: the model and the locality report
cache values on first read, `cli.emit_json` must meet the report through
json's `default` hook (json writes a tuple as a list without calling it),
`InstructionSet` and `FixedSequencePolicy` check their fields when built,
and a policy with no fields would be an empty, falsy tuple.  A `Record`
behaves as the frozen dataclass it replaces: the same repr text (pinned
below), equality and hash by its fields within its own class, no
assignment or deletion, the dataclass's argument errors as TypeError,
and pickling and deepcopy, cached values included.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from importlib import import_module

import pytest

from bell_lab.audit import (AntiCorrelationReport, AxisCheck, LocalityReport, LocalityViolation,
                            SignalDelta, SignalReport)
from bell_lab.harness import (Bell1964Result, BellTestResult, CHSHResult, DeterministicStrategy,
                              MembershipCertificate, SeparatingFunctional)
from bell_lab.instructions import (ClassPartition, DerivationFailure, InstructionSet, InstructionSetError,
                                   PatternClass)
from bell_lab.model import (BehaviorTable, BellLabError, EnsembleEntry, HiddenStateEnsemble,
                            OutcomeDistribution, Record, ResponseKernel, Scenario, Setting, TheoryModel,
                            Violation, behavior)
from bell_lab.montecarlo import (Estimate, ExperimentStats, FixedSequencePolicy, NoSignalingDelta,
                                 UniformSettingPolicy)
from bell_lab.singlet import SingletSpec

MODULES = ("model", "specio", "singlet", "audit", "instructions", "harness", "montecarlo", "cli")
HALF = Fraction(1, 2)

setting = Setting(id="a1", direction=(0.0, 0.0, 1.0))
scenario = Scenario(alice_settings=(setting,), bob_settings=(Setting(id="b1"),))
cell = OutcomeDistribution(pp=Fraction(0), pm=HALF, mp=HALF, mm=Fraction(0))
delta = SignalDelta(side="alice", outcome=1, own_setting="a1", far_pair=("b1", "b2"),
                    delta=Fraction(1, 4))
check = AxisCheck(state_id="s1", a_id="a1", b_id="b1", same_plus=Fraction(0), same_minus=0.0,
                  ok=True)
strategy = DeterministicStrategy(alice=(("a1", 1),), bob=(("b1", -1),))
chsh = CHSHResult(roles=("a1", "a2", "b1", "b2"), correlators={("a1", "b1"): Fraction(-1)},
                  chsh_value=Fraction(2), local_bound=Fraction(2), violated=False, tolerance=0.0)
bell = Bell1964Result(axes=(("a1", "b1"), ("a2", "b2"), ("a3", "b3")), correlators={"E(1,2)": -0.5},
                      lhs=1.0, rhs=0.5, satisfied=False, tolerance=1e-9)
functional = SeparatingFunctional(kind="chsh", description="+E(a1,b1) <= 2",
                                  coefficients={("a1", "b1", 1, -1): Fraction(-1)},
                                  bound=Fraction(2), value=Fraction(5, 2))
certificate = MembershipCertificate(inside=True, weights={strategy: Fraction(1)}, functional=None,
                                    residual=Fraction(0), tolerance=0.0)
pattern = PatternClass(pattern=(1, -1), members=("s1",), weight=HALF)
estimate = Estimate(value=0.5, std_error=0.25)

#: one instance per record class, and the text its frozen dataclass printed
RECORDS = [
    (setting,
     "Setting(id='a1', direction=(0.0, 0.0, 1.0))"),
    (scenario,
     "Scenario(alice_settings=(Setting(id='a1', direction=(0.0, 0.0, 1.0)),), "
     "bob_settings=(Setting(id='b1', direction=None),))"),
    (EnsembleEntry(state_id="s1", weight=HALF),
     "EnsembleEntry(state_id='s1', weight=Fraction(1, 2))"),
    (HiddenStateEnsemble(entries=(EnsembleEntry(state_id="s1", weight=Fraction(1)),)),
     "HiddenStateEnsemble(entries=(EnsembleEntry(state_id='s1', weight=Fraction(1, 1)),))"),
    (cell,
     'OutcomeDistribution(pp=Fraction(0, 1), pm=Fraction(1, 2), mp=Fraction(1, 2), '
     'mm=Fraction(0, 1))'),
    (BehaviorTable(scenario=scenario, cells={("a1", "b1"): cell}),
     "BehaviorTable(scenario=Scenario(alice_settings=(Setting(id='a1', direction=(0.0, "
     "0.0, 1.0)),), bob_settings=(Setting(id='b1', direction=None),)), cells={('a1', "
     "'b1'): OutcomeDistribution(pp=Fraction(0, 1), pm=Fraction(1, 2), mp=Fraction(1, 2), "
     'mm=Fraction(0, 1))})'),
    (Violation(location="ensemble", message="weights must sum to 1 exactly, got 1/2"),
     "Violation(location='ensemble', message='weights must sum to 1 exactly, got 1/2')"),
    (delta,
     "SignalDelta(side='alice', outcome=1, own_setting='a1', far_pair=('b1', 'b2'), "
     'delta=Fraction(1, 4))'),
    (SignalReport(deltas=(delta,), tolerance=0.0),
     "SignalReport(deltas=(SignalDelta(side='alice', outcome=1, own_setting='a1', "
     "far_pair=('b1', 'b2'), delta=Fraction(1, 4)),), tolerance=0.0)"),
    (check,
     "AxisCheck(state_id='s1', a_id='a1', b_id='b1', same_plus=Fraction(0, 1), "
     'same_minus=0.0, ok=True)'),
    (AntiCorrelationReport(axes_checked=(("a1", "b1"),), checks=(check,), tolerance=1e-9),
     "AntiCorrelationReport(axes_checked=(('a1', 'b1'),), "
     "checks=(AxisCheck(state_id='s1', a_id='a1', b_id='b1', same_plus=Fraction(0, 1), "
     'same_minus=0.0, ok=True),), tolerance=1e-09)'),
    (strategy,
     "DeterministicStrategy(alice=(('a1', 1),), bob=(('b1', -1),))"),
    (chsh,
     "CHSHResult(roles=('a1', 'a2', 'b1', 'b2'), correlators={('a1', 'b1'): Fraction(-1, "
     '1)}, chsh_value=Fraction(2, 1), local_bound=Fraction(2, 1), violated=False, '
     'tolerance=0.0, convention="S = E(a,b) + E(a,b\') + E(a\',b) - E(a\',b\')")'),
    (bell,
     "Bell1964Result(axes=(('a1', 'b1'), ('a2', 'b2'), ('a3', 'b3')), "
     "correlators={'E(1,2)': -0.5}, lhs=1.0, rhs=0.5, satisfied=False, tolerance=1e-09)"),
    (functional,
     "SeparatingFunctional(kind='chsh', description='+E(a1,b1) <= 2', "
     "coefficients={('a1', 'b1', 1, -1): Fraction(-1, 1)}, bound=Fraction(2, 1), "
     'value=Fraction(5, 2))'),
    (certificate,
     "MembershipCertificate(inside=True, weights={DeterministicStrategy(alice=(('a1', "
     "1),), bob=(('b1', -1),)): Fraction(1, 1)}, functional=None, residual=Fraction(0, "
     '1), tolerance=0.0)'),
    (BellTestResult(correlators={("a1", "b1"): Fraction(-1)}, chsh=chsh, bell1964=None,
                   membership=None),
     "BellTestResult(correlators={('a1', 'b1'): Fraction(-1, 1)}, "
     "chsh=CHSHResult(roles=('a1', 'a2', 'b1', 'b2'), correlators={('a1', "
     "'b1'): Fraction(-1, 1)}, chsh_value=Fraction(2, 1), local_bound=Fraction(2, 1), "
     'violated=False, tolerance=0.0, '
     'convention="S = E(a,b) + E(a,b\') + E(a\',b) - E(a\',b\')"), bell1964=None, '
     'membership=None)'),
    (DerivationFailure(state_id="s1", axis=("a1", "b1"), side="bob", marginal=HALF,
                      reason="marginal strictly between 0 and 1: outcome not deterministic"),
     "DerivationFailure(state_id='s1', axis=('a1', 'b1'), side='bob', "
     'marginal=Fraction(1, 2), '
     "reason='marginal strictly between 0 and 1: outcome not deterministic')"),
    (pattern,
     "PatternClass(pattern=(1, -1), members=('s1',), weight=Fraction(1, 2))"),
    (ClassPartition(axes=(("a1", "b1"), ("a2", "b2")), classes=(pattern,)),
     "ClassPartition(axes=(('a1', 'b1'), ('a2', 'b2')), classes=(PatternClass(pattern=(1, "
     "-1), members=('s1',), weight=Fraction(1, 2)),))"),
    (estimate,
     'Estimate(value=0.5, std_error=0.25)'),
    (NoSignalingDelta(side="bob", outcome=-1, own_setting="b1", far_pair=("a1", "a2"), delta=0.125,
                     std_error=0.0625),
     "NoSignalingDelta(side='bob', outcome=-1, own_setting='b1', far_pair=('a1', 'a2'), "
     'delta=0.125, std_error=0.0625)'),
    (ExperimentStats(trials=4, seed=7, counts={("a1", "b1", 1, -1): 4},
                    pair_counts={("a1", "b1"): 4}, correlators={("a1", "b1"): Estimate(value=-1.0, std_error=0.0)}, chsh=estimate,
                    chsh_roles=("a1", "a2", "b1", "b2"), signal_deltas=()),
     "ExperimentStats(trials=4, seed=7, counts={('a1', 'b1', 1, -1): 4}, "
     "pair_counts={('a1', 'b1'): 4}, correlators={('a1', 'b1'): Estimate(value=-1.0, "
     "std_error=0.0)}, chsh=Estimate(value=0.5, std_error=0.25), chsh_roles=('a1', 'a2', "
     "'b1', 'b2'), signal_deltas=())"),
    (SingletSpec(alice=(setting,), bob=(Setting(id="b1", direction=(1.0, 0.0, 0.0)),)),
     "SingletSpec(alice=(Setting(id='a1', direction=(0.0, 0.0, 1.0)),), "
     "bob=(Setting(id='b1', direction=(1.0, 0.0, 0.0)),), name='quantum singlet')"),
]


@pytest.fixture(params=RECORDS, ids=lambda entry: type(entry[0]).__name__)
def record(request):
    return request.param


def test_every_record_class_is_pinned():
    """Each NamedTuple class the package defines has one instance above."""
    modules = [import_module(f"bell_lab.{name}") for name in MODULES]
    defined = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, tuple)
               and cls.__module__ == module.__name__}
    assert defined - {LocalityViolation} == {type(rec) for rec, _ in RECORDS}
    assert len(RECORDS) == 24


def test_the_stateful_classes_are_not_tuples():
    for cls in (TheoryModel, LocalityReport, InstructionSet, FixedSequencePolicy,
                UniformSettingPolicy):
        assert not issubclass(cls, tuple), cls
    assert UniformSettingPolicy() and UniformSettingPolicy() != ()


def test_repr_is_the_dataclass_text(record):
    rec, text = record
    assert repr(rec) == text


def test_fields_cannot_be_assigned(record):
    rec, _ = record
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
    with pytest.raises(AttributeError):
        rec.extra = None  # no instance dict either


def test_equals_and_iterates_as_the_tuple_of_its_fields(record):
    rec, _ = record
    values = tuple(getattr(rec, field) for field in rec._fields)
    assert rec == values and tuple(rec) == values
    assert [*rec] == list(values) and len(rec) == len(values) > 0


def test_pickle_round_trip(record):
    rec, text = record
    copy = pickle.loads(pickle.dumps(rec))
    assert type(copy) is type(rec) and copy == rec and repr(copy) == text



model = TheoryModel(name="one state", scenario=scenario,
                    ensemble=HiddenStateEnsemble(entries=(EnsembleEntry(state_id="s1", weight=Fraction(1)),)),
                    kernel=ResponseKernel({("s1", "a1", "b1"): cell}))

#: one instance per `Record` class, the same fields built again, and the
#: text its frozen dataclass printed
RECORD_CLASSES = [
    (model,
     lambda: TheoryModel("one state", scenario, HiddenStateEnsemble((EnsembleEntry("s1", Fraction(1)),)),
                         ResponseKernel({("s1", "a1", "b1"): cell})),
     "TheoryModel(name='one state', scenario=Scenario(alice_settings=(Setting(id='a1', direction=(0.0, "
     "0.0, 1.0)),), bob_settings=(Setting(id='b1', direction=None),)), ensemble=HiddenStateEnsemble("
     "entries=(EnsembleEntry(state_id='s1', weight=Fraction(1, 1)),)), kernel=ResponseKernel({('s1', "
     "'a1', 'b1'): OutcomeDistribution(pp=Fraction(0, 1), pm=Fraction(1, 2), mp=Fraction(1, 2), "
     "mm=Fraction(0, 1))}))"),
    (LocalityReport(ids=(("s1",), ("a1",), ("b1",)), failing=([0], [0], [0], [12]),
                    values=([Fraction(0)], [Fraction(1, 4)], [Fraction(1, 4)]),
                    worst_residual=Fraction(1, 4), tolerance=0.0),
     lambda: LocalityReport((("s1",), ("a1",), ("b1",)), ([0], [0], [0], [12]),
                            ([Fraction(0)], [Fraction(1, 4)], [Fraction(1, 4)]), Fraction(1, 4), 0.0),
     "LocalityReport(ids=(('s1',), ('a1',), ('b1',)), failing=([0], [0], [0], [12]), "
     "values=([Fraction(0, 1)], [Fraction(1, 4)], [Fraction(1, 4)]), worst_residual=Fraction(1, 4), "
     "tolerance=0.0)"),
    (InstructionSet(axes=(("a1", "b1"),), assignments={"s1": {("a1", "b1"): (1, -1)}}, weights={"s1": HALF}),
     lambda: InstructionSet((("a1", "b1"),), {"s1": {("a1", "b1"): (1, -1)}}, {"s1": HALF}),
     "InstructionSet(axes=(('a1', 'b1'),), assignments={'s1': {('a1', 'b1'): (1, -1)}}, "
     "weights={'s1': Fraction(1, 2)})"),
    (UniformSettingPolicy(), UniformSettingPolicy, "UniformSettingPolicy()"),
    (FixedSequencePolicy(pairs=(("a1", "b1"),)), lambda: FixedSequencePolicy([("a1", "b1")]),
     "FixedSequencePolicy(pairs=(('a1', 'b1'),))"),
]

#: a record of each class whose first field differs
CHANGED = {
    TheoryModel: lambda m: TheoryModel("another name", m.scenario, m.ensemble, m.kernel),
    LocalityReport: lambda r: LocalityReport((("s2",), *r.ids[1:]), r.failing, r.values, r.worst_residual,
                                             r.tolerance),
    InstructionSet: lambda s: InstructionSet((("a1", "b1"),), s.assignments, {"s1": Fraction(1)}),
    FixedSequencePolicy: lambda p: FixedSequencePolicy((("a1", "b1"), ("a1", "b1"))),
}


@pytest.fixture(params=RECORD_CLASSES, ids=lambda entry: type(entry[0]).__name__)
def built(request):
    return request.param


def test_every_record_base_class_is_pinned():
    modules = [import_module(f"bell_lab.{name}") for name in MODULES]
    defined = {cls for module in modules for cls in vars(module).values()
               if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record}
    assert defined == {type(rec) for rec, _, _ in RECORD_CLASSES}


def test_record_repr_is_the_dataclass_text(built):
    rec, again, text = built
    assert repr(rec) == repr(again()) == text


def test_record_equality_and_hash_follow_the_fields(built):
    rec, again, _ = built
    twin = again()
    assert twin is not rec and twin == rec and not twin != rec
    fields = tuple(getattr(rec, name) for name in type(rec)._fields)
    assert rec != fields and fields != rec and rec != list(fields)
    if type(rec) in CHANGED:
        other = CHANGED[type(rec)](rec)
        assert other != rec and rec != other
    if type(rec) in (LocalityReport, InstructionSet):  # fields hold lists or dicts, as the dataclass did
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec) == hash(fields) and len({rec, twin}) == 1


def test_a_record_equals_only_its_own_class():
    class Empty(Record):
        pass

    assert Empty() == Empty() and Empty() != UniformSettingPolicy() != Empty()
    assert UniformSettingPolicy() == UniformSettingPolicy() and not UniformSettingPolicy() != UniformSettingPolicy()


def test_record_fields_cannot_be_assigned_or_deleted(built):
    rec, _, text = built
    for name in (*type(rec)._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert repr(rec) == text


def test_record_arguments_are_checked(built):
    rec, _, _ = built
    cls, fields = type(rec), [getattr(rec, name) for name in type(rec)._fields]
    names = cls._fields
    with pytest.raises(TypeError):
        cls(*fields, None)  # one too many
    with pytest.raises(TypeError):
        cls(*fields, extra=None)  # unknown
    if names:
        with pytest.raises(TypeError):
            cls(*fields[:-1])  # missing
        with pytest.raises(TypeError):
            cls(*fields, **{names[0]: fields[0]})  # repeated
        assert cls(**dict(zip(names, fields))) == rec == cls(*fields[:1], **dict(zip(names[1:], fields[1:])))


def test_records_check_their_fields_when_built():
    with pytest.raises(InstructionSetError, match="duplicate axes"):
        InstructionSet((("a1", "b1"), ("a1", "b1")), {}, {})
    with pytest.raises(InstructionSetError, match="bob = -alice"):
        InstructionSet((("a1", "b1"),), {"s1": {("a1", "b1"): (1, 1)}}, {"s1": HALF})
    with pytest.raises(BellLabError, match="at least one pair"):
        FixedSequencePolicy(pairs=[])
    with pytest.raises(BellLabError, match=r"^setting pairs must be a list or tuple of \(a_id, b_id\)"):
        FixedSequencePolicy(pairs=(("a1",),))


@pytest.mark.parametrize("clone", [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
def test_a_model_round_trips_with_its_cached_values(clone):
    fresh = RECORD_CLASSES[0][1]()
    cached = RECORD_CLASSES[0][1]()
    table = behavior(cached)
    assert "tensor" in vars(cached) and "tensor" not in vars(fresh)
    assert cached == fresh and hash(cached) == hash(fresh)  # cached values are no fields
    twin = clone(cached)
    assert type(twin) is TheoryModel and twin == cached == fresh and hash(twin) == hash(fresh)
    assert repr(twin) == RECORD_CLASSES[0][2]
    assert "tensor" in vars(twin) and twin.tensor.K == cached.tensor.K and twin._valid_at == {0.0}
    assert behavior(twin) == table
    with pytest.raises(AttributeError):
        twin.name = "renamed"


def test_a_policy_and_a_report_round_trip(built):
    rec, _, text = built
    for twin in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(twin) is type(rec) and twin == rec and repr(twin) == text
