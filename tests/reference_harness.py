"""Test oracles for the Bell-test harness: deterministic-strategy behaviors
and the exhaustive CHSH maximum over the 16 strategies of a 2x2 scenario.

These were public in `bell_lab.harness` while only tests and the
acceptance gate called them; they are kept here unchanged, as is
`SeparatingFunctional.evaluate` (here a function).  Nothing in the
package calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from bell_lab.harness import (
    DeterministicStrategy,
    ScenarioShapeError,
    SeparatingFunctional,
    enumerate_strategies,
)
from bell_lab.model import (CHSH_CONVENTION, CHSH_SIGNS, BehaviorTable, OutcomeDistribution, Prob, Scenario,
                            _chsh_form, format_probability)


def strategy_behavior(strategy: DeterministicStrategy, scenario: Scenario) -> BehaviorTable:
    cells = {
        (a.id, b.id): OutcomeDistribution.point(strategy.alice_map[a.id], strategy.bob_map[b.id])
        for a in scenario.alice_settings
        for b in scenario.bob_settings
    }
    return BehaviorTable(scenario=scenario, cells=cells)


def evaluate(functional: SeparatingFunctional, table: BehaviorTable) -> Prob:
    total: Prob = Fraction(0)
    for (a_id, b_id, A, B), coeff in functional.coefficients.items():
        total = total + coeff * table.cell(a_id, b_id).prob(A, B)
    return total


@dataclass(frozen=True)
class LocalBoundResult:
    """Exhaustive |S| maximum over every deterministic strategy of a 2x2 scenario."""

    bound: Prob
    achievers: tuple[DeterministicStrategy, ...]
    values: dict[DeterministicStrategy, Prob]
    roles: tuple[str, str, str, str]
    convention: str = CHSH_CONVENTION

    def to_dict(self) -> dict:
        return {
            "convention": self.convention,
            "roles": {"a": self.roles[0], "a_prime": self.roles[1], "b": self.roles[2], "b_prime": self.roles[3]},
            "bound": format_probability(self.bound),
            "strategy_count": len(self.values),
            "achiever_count": len(self.achievers),
            "values": {s.label(): format_probability(v) for s, v in self.values.items()},
        }


def max_local_chsh(scenario: Scenario) -> LocalBoundResult:
    """max |S| over all 16 deterministic strategies of a two-setting scenario.

    Roles are taken in declaration order: (a, a') = Alice's settings,
    (b, b') = Bob's.
    """
    if len(scenario.alice_settings) != 2 or len(scenario.bob_settings) != 2:
        raise ScenarioShapeError(
            "CHSH bound needs exactly 2 settings per side, got "
            f"{len(scenario.alice_settings)}x{len(scenario.bob_settings)}"
        )
    a, a2 = scenario.alice_ids()
    b, b2 = scenario.bob_ids()
    values: dict[DeterministicStrategy, Prob] = {}
    for strat in enumerate_strategies(scenario):
        am, bm = strat.alice_map, strat.bob_map
        values[strat] = _chsh_form(CHSH_SIGNS, lambda x, y: am[x] * bm[y], a, a2, b, b2)
    bound = Fraction(max(abs(v) for v in values.values()))
    achievers = tuple(s for s, v in values.items() if abs(v) == bound)
    return LocalBoundResult(bound=bound, achievers=achievers, values=values, roles=(a, a2, b, b2))
