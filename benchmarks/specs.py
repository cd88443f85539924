"""Seeded theory-spec generation for the benchmark workloads.

Everything here is written from the theory-spec format alone: no bell_lab
import.  Each builder returns the JSON-ready spec together with the facts
the oracles need (instruction patterns, exact weights, noise levels,
angles), so every check is computed from what the benchmark generated,
never from what the program printed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

JOINT = ((+1, +1), (+1, -1), (-1, +1), (-1, -1))
CELL_KEYS = ("++", "+-", "-+", "--")

#: Setting angles (degrees, x-z plane) of the shared-axis 3x3 scenario.
AXES_3 = (0.0, 60.0, 120.0)
#: CHSH roles on the 3x3 scenario with |S| = 5/2 for the singlet.
ROLES_3 = ("n1", "n3", "n2", "n1")
BELL1964_3 = "n1,n2,n3"

#: Certify singlet geometries (alice degrees, bob degrees); equal lists share ids.
SINGLET_GEOMETRIES = {
    "2x2": ((0.0, 90.0), (45.0, 135.0)),
    "3x3": (AXES_3, AXES_3),
    "4x4": ((0.0, 45.0, 90.0, 135.0), (22.5, 67.5, 112.5, 157.5)),
}
#: Axes of the exact certify mixture (shared ids, so derivation runs on them).
AXES_4 = (0.0, 45.0, 90.0, 135.0)

#: Decimal places kept in singlet cells, as a measured table would carry them.
#: Rounding makes the certify behaviours independent of the seed's frame
#: rotation down to the last digit (see README, "Inputs").
SINGLET_DIGITS = 12


def frac_text(f: Fraction) -> int | str:
    return f.numerator if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def planar(deg: float) -> list[float]:
    r = math.radians(deg)
    return [math.sin(r), 0.0, math.cos(r)]


def _settings(ids, angles):
    return [{"id": i, "vector": planar(a)} for i, a in zip(ids, angles)]


def _spec(name, alice, bob, ensemble, kernel):
    return {
        "name": name,
        "scenario": {"alice_settings": alice, "bob_settings": bob},
        "ensemble": ensemble,
        "kernel": kernel,
    }


def singlet_prob(A: int, B: int, c: float, visibility: float = 1.0) -> float:
    """Closed form P(A, B) = (1 - A*B*v*cos(theta_a - theta_b)) / 4."""
    return (1.0 - A * B * visibility * c) / 4.0


@dataclass
class Scenario:
    alice_ids: tuple[str, ...]
    bob_ids: tuple[str, ...]
    alice_deg: tuple[float, ...]
    bob_deg: tuple[float, ...]

    def pairs(self):
        return [(a, b) for a in self.alice_ids for b in self.bob_ids]

    def cos(self, a: str, b: str) -> float:
        da = self.alice_deg[self.alice_ids.index(a)]
        db = self.bob_deg[self.bob_ids.index(b)]
        return math.cos(math.radians(da - db))

    def json_settings(self):
        return _settings(self.alice_ids, self.alice_deg), _settings(self.bob_ids, self.bob_deg)


def shared_scenario(angles, offset: float) -> Scenario:
    ids = tuple(f"n{i + 1}" for i in range(len(angles)))
    degs = tuple(offset + a for a in angles)
    return Scenario(ids, ids, degs, degs)


# ---------------------------------------------------------------------------
# deterministic mixtures (exact)


@dataclass
class Mixture:
    """Convex mixture of deterministic local strategies, exact weights.

    `alice[k]` / `bob[k]` are state k's signs per setting in declaration
    order; anti-correlated instruction sets have bob == -alice.
    """

    scenario: Scenario
    state_ids: list[str]
    weights: list[Fraction]
    alice: list[tuple[int, ...]]
    bob: list[tuple[int, ...]]

    def behavior(self) -> dict[tuple[str, str], list[Fraction]]:
        sc = self.scenario
        out = {pair: [Fraction(0)] * 4 for pair in sc.pairs()}
        for w, sa, sb in zip(self.weights, self.alice, self.bob):
            for i, a in enumerate(sc.alice_ids):
                for j, b in enumerate(sc.bob_ids):
                    out[(a, b)][JOINT.index((sa[i], sb[j]))] += w
        return out

    def class_weights(self) -> dict[str, Fraction]:
        """Weight per Alice sign pattern, labelled like '+-+'."""
        n = len(self.scenario.alice_ids)
        out = {"".join("+" if s > 0 else "-" for s in p): Fraction(0)
               for p in itertools.product((+1, -1), repeat=n)}
        for w, sa in zip(self.weights, self.alice):
            out["".join("+" if s > 0 else "-" for s in sa)] += w
        return out

    def to_spec(self, name: str, exact_weights: bool = True) -> dict:
        sc = self.scenario
        alice, bob = sc.json_settings()
        ensemble, kernel = [], {}
        for sid, w, sa, sb in zip(self.state_ids, self.weights, self.alice, self.bob):
            ensemble.append({"id": sid, "weight": frac_text(w) if exact_weights else float(w)})
            kernel[sid] = {
                f"{a}|{b}": dict(zip(CELL_KEYS, (int((sa[i], sb[j]) == ab) for ab in JOINT)))
                for i, a in enumerate(sc.alice_ids)
                for j, b in enumerate(sc.bob_ids)
            }
        return _spec(name, alice, bob, ensemble, kernel)


def instruction_ensemble(rng: random.Random, n_states: int, offset: float) -> Mixture:
    """n_states anti-correlated instruction sets on the shared 3x3 axes,
    random patterns, equal weights 1/n_states.

    Equal weights keep the membership simplex's work steady from seed to
    seed (measured: random integer weights move its time by a factor of
    two), so run-to-run spread reflects the program, not the draw.
    """
    sc = shared_scenario(AXES_3, offset)
    alice = [tuple(rng.choice((1, -1)) for _ in AXES_3) for _ in range(n_states)]
    return Mixture(
        scenario=sc,
        state_ids=[f"s{k + 1}" for k in range(n_states)],
        weights=[Fraction(1, n_states)] * n_states,
        alice=alice,
        bob=[tuple(-s for s in pattern) for pattern in alice],
    )


def exact_mixture(rng: random.Random, n_axes: int, offset: float) -> Mixture:
    """Fixed certify mixture: the 2^(n-1) instruction sets with Alice's
    sign + on the first of n shared axes, weights k / sum(k).

    The seed draws the state labels and their order only, which leave the
    behaviour and so the simplex's path unchanged.
    """
    sc = shared_scenario(AXES_4[:n_axes], offset)
    patterns = [p for p in itertools.product((+1, -1), repeat=n_axes) if p[0] > 0]
    members = list(zip(patterns, range(1, len(patterns) + 1)))
    total = sum(k for _, k in members)
    rng.shuffle(members)
    tags = rng.sample(range(100, 1000), len(members))
    return Mixture(
        scenario=sc,
        state_ids=[f"i{t}" for t in tags],
        weights=[Fraction(k, total) for _, k in members],
        alice=[p for p, _ in members],
        bob=[tuple(-s for s in p) for p, _ in members],
    )


def decimal_local_2x2() -> Mixture:
    """Seed-independent decimal-weighted local mixture at 2x2 (weights
    0.1..0.4 on four strategies); see the fault list in README."""
    sc = Scenario(("a1", "a2"), ("b1", "b2"), (0.0, 90.0), (45.0, 135.0))
    return Mixture(
        scenario=sc,
        state_ids=["d1", "d2", "d3", "d4"],
        weights=[Fraction(0.1), Fraction(0.2), Fraction(0.3), Fraction(0.4)],
        alice=[(1, 1), (1, -1), (-1, 1), (-1, -1)],
        bob=[(1, -1), (-1, -1), (1, 1), (-1, 1)],
    )


# ---------------------------------------------------------------------------
# singlet-like behaviours (decimal)


@dataclass
class NoisyEnsemble:
    """States q_k carrying the singlet kernel at visibility 1 - eps_k."""

    scenario: Scenario
    state_ids: list[str]
    weights: list[float]
    eps: list[float]

    def mean_visibility(self) -> float:
        return sum(w * (1.0 - e) for w, e in zip(self.weights, self.eps))

    def behavior(self) -> dict[tuple[str, str], list[float]]:
        v = self.mean_visibility()
        return {
            (a, b): [singlet_prob(A, B, self.scenario.cos(a, b), v) for A, B in JOINT]
            for a, b in self.scenario.pairs()
        }

    def to_spec(self, name: str) -> dict:
        sc = self.scenario
        alice, bob = sc.json_settings()
        cos = {pair: sc.cos(*pair) for pair in sc.pairs()}
        ensemble, kernel = [], {}
        for sid, w, e in zip(self.state_ids, self.weights, self.eps):
            ensemble.append({"id": sid, "weight": w})
            kernel[sid] = {
                f"{a}|{b}": dict(zip(CELL_KEYS, (singlet_prob(A, B, cos[(a, b)], 1.0 - e) for A, B in JOINT)))
                for a, b in sc.pairs()
            }
        return _spec(name, alice, bob, ensemble, kernel)


def noisy_singlet_ensemble(rng: random.Random, n_states: int, offset: float) -> NoisyEnsemble:
    """Noise eps_k uniform in [0, 0.1], so the mixture stays outside the
    local polytope (the three-axis bound needs eps >= 1/3)."""
    raw = [rng.uniform(0.5, 1.5) for _ in range(n_states)]
    total = sum(raw)
    return NoisyEnsemble(
        scenario=shared_scenario(AXES_3, offset),
        state_ids=[f"q{k + 1}" for k in range(n_states)],
        weights=[x / total for x in raw],
        eps=[rng.uniform(0.0, 0.1) for _ in range(n_states)],
    )


@dataclass
class Singlet:
    scenario: Scenario
    roles: tuple[str, str, str, str]

    def behavior(self) -> dict[tuple[str, str], list[float]]:
        return {pair: self.cell(*pair) for pair in self.scenario.pairs()}

    def cell(self, a: str, b: str) -> list[float]:
        c = self.scenario.cos(a, b)
        return [round(singlet_prob(A, B, c), SINGLET_DIGITS) + 0.0 for A, B in JOINT]

    def to_spec(self, name: str) -> dict:
        alice, bob = self.scenario.json_settings()
        kernel = {"psi": {f"{a}|{b}": dict(zip(CELL_KEYS, self.cell(a, b)))
                          for a, b in self.scenario.pairs()}}
        return _spec(name, alice, bob, [{"id": "psi", "weight": 1}], kernel)


def best_chsh_roles(sc: Scenario) -> tuple[str, str, str, str]:
    """Roles with the largest singlet |S|, first in declaration order on ties."""
    best, best_val = None, -1.0
    for a, a2 in itertools.permutations(sc.alice_ids, 2):
        for b, b2 in itertools.permutations(sc.bob_ids, 2):
            e = lambda x, y: -sc.cos(x, y)
            val = abs(e(a, b) + e(a, b2) + e(a2, b) - e(a2, b2))
            if val > best_val + 1e-12:
                best, best_val = (a, a2, b, b2), val
    return best


def singlet(geometry: str, offset: float) -> Singlet:
    alice_deg, bob_deg = SINGLET_GEOMETRIES[geometry]
    if alice_deg == bob_deg:
        sc = shared_scenario(alice_deg, offset)
    else:
        sc = Scenario(
            tuple(f"a{i + 1}" for i in range(len(alice_deg))),
            tuple(f"b{i + 1}" for i in range(len(bob_deg))),
            tuple(offset + d for d in alice_deg),
            tuple(offset + d for d in bob_deg),
        )
    return Singlet(sc, best_chsh_roles(sc))


def roles_arg(roles) -> str:
    return f"{roles[0]},{roles[1]}:{roles[2]},{roles[3]}"


# ---------------------------------------------------------------------------
# bad-input specs (seed-independent)

_TWO_STATE_DUPLICATE = """{
  "name": "duplicate kernel key",
  "scenario": {"alice_settings": [{"id": "n1"}], "bob_settings": [{"id": "n1"}]},
  "ensemble": [{"id": "up", "weight": "1/2"}, {"id": "down", "weight": "1/2"}],
  "kernel": {
    "up": {},
    "up": {"n1|n1": {"++": 0, "+-": 1, "-+": 0, "--": 0}},
    "down": {"n1|n1": {"++": 0, "+-": 0, "-+": 1, "--": 0}}
  }
}
"""


def bad_inputs() -> dict[str, bytes]:
    """Specs the CLI must refuse with exit code 2 (bad input)."""
    return {
        "non_utf8": b'{"name": "caf\xe9", "scenario": {}}\n',
        "deep_nesting": b"[" * 100_000,
        "duplicate_key": _TWO_STATE_DUPLICATE.encode("utf-8"),
    }
