"""Audit toolkit for finite hidden-state theories of two-wing spin experiments.

Model a candidate theory as a finite weighted ensemble of hidden states
with per-state outcome kernels, then: audit Bell and signal locality,
check perfect anti-correlation, derive the deterministic instruction sets
those properties force, run CHSH and three-axis inequality tests against
brute-forced local bounds, decide local-polytope membership with exact
certificates, and simulate EPRB runs reproducibly.

`import bell_lab` loads no submodule: each public name is looked up in its
home module on first access (a PEP 562 module `__getattr__` over `_HOME`),
so `python -m bell_lab` loads only the modules its command uses.
"""

from __future__ import annotations

__version__ = "0.1.0"

#: each public name's home module, in `__all__` order
_HOME = {name: module for module, names in (
    ("model", "BehaviorTable BellLabError EnsembleEntry HiddenStateEnsemble InvalidModelError "
              "OutcomeDistribution ResponseKernel Scenario Setting TheoryModel UnknownIdError "
              "Violation behavior validate_theory"),
    ("specio", "SpecFormatError dump_theory load_theory parse_theory theory_to_dict"),
    ("singlet", "SingletSpec make_planar_singlet make_quantum_theory singlet_joint_prob"),
    ("audit", "AntiCorrelationReport LocalityReport SignalReport check_anticorrelation "
              "check_bell_locality check_signal_locality"),
    ("instructions", "ClassPartition DerivationFailure InstructionSet classify_states "
                     "derive_instruction_sets realize_model"),
    ("harness", "Bell1964Result BellTestResult CHSHResult DeterministicStrategy "
                "MembershipCertificate bell1964 chsh correlator enumerate_strategies "
                "local_polytope_membership"),
    ("montecarlo", "ExperimentStats FixedSequencePolicy UniformSettingPolicy simulate"),
) for name in names.split()}

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


def __getattr__(name: str):
    """A public name, read from its home module, which is imported on first use."""
    from importlib import import_module

    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
