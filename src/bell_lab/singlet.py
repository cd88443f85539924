"""Two-qubit singlet predictions via explicit 4-dimensional linear algebra.

Spin along a unit vector n is represented in the standard Pauli basis

    sigma(n) = [[nz, nx - i*ny], [nx + i*ny, -nz]]

with projectors P(s, n) = (I + s*sigma(n)) / 2 for s = +-1.  The singlet
vector in the (z+, z-) product basis is (0, 1, -1, 0)/sqrt(2).  Joint
probabilities are quadratic forms <psi| P(A,a) (x) P(B,b) |psi>, computed
here by building the 4x4 operator, not by quoting a formula; the matching
closed form (1 - A*B*a.b)/4 is held to this computation by the test-suite
oracle over randomized directions before anything relies on it.
`make_quantum_theory` validates the model it builds, so a duplicate id or
one holding '|' raises instead of yielding a spec `validate` refuses.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .model import (
    BellLabError,
    EnsembleEntry,
    HiddenStateEnsemble,
    JOINT_OUTCOMES,
    OutcomeDistribution,
    ResponseKernel,
    Scenario,
    Setting,
    TheoryModel,
    direction_fault,
    require_valid,
)

Direction = tuple[float, float, float]

#: Singlet amplitudes in the (++, +-, -+, --) product basis.
_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)

HIDDEN_STATE_ID = "psi"


class DirectionError(BellLabError):
    """A measurement direction is missing or not a unit vector."""


def _check_direction(direction: Direction, label: str) -> np.ndarray:
    if fault := direction_fault(direction):
        raise DirectionError(f"{label}: {fault}")
    return np.asarray(direction, dtype=float)


def spin_projector(direction: Direction, outcome: int) -> np.ndarray:
    """2x2 projector onto the `outcome` eigenspace of spin along `direction`."""
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    nx, ny, nz = _check_direction(direction, "spin_projector")
    sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]], dtype=complex)
    return (np.eye(2, dtype=complex) + outcome * sigma) / 2.0

def singlet_joint_prob(
    a_direction: Direction, b_direction: Direction, outcome_a: int, outcome_b: int
) -> float:
    """P(A, B | a, b) for the singlet, from the 4-dim projector quadratic form."""
    op = np.kron(
        spin_projector(a_direction, outcome_a), spin_projector(b_direction, outcome_b)
    )
    value = float(np.real(np.conj(_SINGLET) @ (op @ _SINGLET)))
    # clamp float dust just below 0; anything larger is a real bug
    if value < 0.0:
        if value < -1e-12:
            raise AssertionError(f"projector form produced {value!r} < 0")
        value = 0.0
    return value


def singlet_cell(a_direction: Direction, b_direction: Direction) -> OutcomeDistribution:
    return OutcomeDistribution(*(singlet_joint_prob(a_direction, b_direction, A, B) for A, B in JOINT_OUTCOMES))


def planar_direction(angle_degrees: float) -> Direction:
    """Unit vector at the given angle in the x-z plane (0 degrees = +z)."""
    r = math.radians(angle_degrees)
    return (math.sin(r), 0.0, math.cos(r))


def parse_planar_settings(text: str) -> list[Setting]:
    """Parse 'a1=0,a2=90' into settings with x-z plane unit vectors."""
    if not isinstance(text, str):
        raise DirectionError(f"planar settings must be a str of 'id=degrees' pairs, got {text!r}")
    settings = []
    for chunk in text.split(","):
        if "=" not in chunk:
            raise DirectionError(
                f"planar settings must look like 'id=degrees', got {chunk!r}"
            )
        sid, _, angle_text = chunk.partition("=")
        sid = sid.strip()
        try:
            angle = float(angle_text)
        except ValueError as exc:
            raise DirectionError(f"bad angle {angle_text!r} for setting {sid!r}") from exc
        if not math.isfinite(angle):
            raise DirectionError(f"angle {angle_text!r} for setting {sid!r} is not finite")
        if not sid:
            raise DirectionError(f"empty setting id in {chunk!r}")
        settings.append(Setting(id=sid, direction=planar_direction(angle)))
    return settings


class SingletSpec(NamedTuple):
    """Measurement directions for a singlet model, one list per wing;
    equals and iterates as the plain tuple of its fields."""

    alice: tuple[Setting, ...]
    bob: tuple[Setting, ...]
    name: str = "quantum singlet"


def make_quantum_theory(spec: SingletSpec) -> TheoryModel:
    """Single hidden state `psi` carrying the full quantum kernel.

    The hidden state is the quantum state itself, so the ensemble is a
    point mass; the kernel cells are the singlet joint distributions.  The
    model must pass `validate_theory`, else InvalidModelError is raised.
    """
    for s in (*spec.alice, *spec.bob):
        if s.direction is None:
            raise DirectionError(f"setting {s.id!r}: singlet models need a direction per setting")
    scenario = Scenario(alice_settings=tuple(spec.alice), bob_settings=tuple(spec.bob))
    cells = {
        (HIDDEN_STATE_ID, a.id, b.id): singlet_cell(a.direction, b.direction)
        for a in spec.alice
        for b in spec.bob
    }
    ensemble = HiddenStateEnsemble(
        entries=(EnsembleEntry(state_id=HIDDEN_STATE_ID, weight=Fraction(1)),)
    )
    model = TheoryModel(
        name=spec.name, scenario=scenario, ensemble=ensemble, kernel=ResponseKernel(cells)
    )
    require_valid(model)
    return model


def make_planar_singlet(alice_angles: str, bob_angles: str, name: str = "quantum singlet") -> TheoryModel:
    """Convenience wrapper: settings given as 'id=degrees' comma lists."""
    return make_quantum_theory(
        SingletSpec(
            alice=tuple(parse_planar_settings(alice_angles)),
            bob=tuple(parse_planar_settings(bob_angles)),
            name=name,
        )
    )
