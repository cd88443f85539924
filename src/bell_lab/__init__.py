"""Audit toolkit for finite hidden-state theories of two-wing spin experiments.

Model a candidate theory as a finite weighted ensemble of hidden states
with per-state outcome kernels, then: audit Bell and signal locality,
check perfect anti-correlation, derive the deterministic instruction sets
those properties force, run CHSH and three-axis inequality tests against
brute-forced local bounds, decide local-polytope membership with exact
certificates, and simulate EPRB runs reproducibly.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .model import (
    BehaviorTable,
    BellLabError,
    EnsembleEntry,
    HiddenStateEnsemble,
    InvalidModelError,
    OutcomeDistribution,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
    UnknownIdError,
    Violation,
    behavior,
    validate_theory,
)
from .specio import SpecFormatError, dump_theory, load_theory, parse_theory, theory_to_dict
from .singlet import SingletSpec, make_planar_singlet, make_quantum_theory, singlet_joint_prob
from .audit import (
    AntiCorrelationReport,
    LocalityReport,
    SignalReport,
    check_anticorrelation,
    check_bell_locality,
    check_signal_locality,
)
from .instructions import (
    ClassPartition,
    DerivationFailure,
    InstructionSet,
    classify_states,
    derive_instruction_sets,
    realize_model,
)
from .harness import (
    Bell1964Result,
    BellTestResult,
    CHSHResult,
    DeterministicStrategy,
    MembershipCertificate,
    bell1964,
    chsh,
    correlator,
    enumerate_strategies,
    local_polytope_membership,
)
from .montecarlo import ExperimentStats, FixedSequencePolicy, UniformSettingPolicy, simulate

__all__ = [
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
