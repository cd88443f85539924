"""The scalar per-trial sampler, kept as a test oracle.

This is the Monte Carlo loop as it was before the engine was vectorised:
one `trial_uniform` call per draw, `bisect_right` on Python lists of
cumulative sums.  Tests hold `bell_lab.montecarlo.run_experiment` to the
same records, draw for draw.
"""

from __future__ import annotations

from bisect import bisect_right

from bell_lab.model import JOINT_OUTCOMES, TheoryModel
from bell_lab.montecarlo import (
    SLOT_ALICE,
    SLOT_BOB,
    SLOT_OUTCOME,
    SLOT_STATE,
    FixedSequencePolicy,
    SettingPolicy,
    TrialRecord,
    trial_uniform,
)


def _cumulative(values: list[float]) -> list[float]:
    total = 0.0
    out = []
    for v in values:
        total += max(0.0, v)
        out.append(total)
    return out


def _pick(cum: list[float], u: float) -> int:
    return min(bisect_right(cum, u), len(cum) - 1)


def reference_run(
    model: TheoryModel, trials: int, seed: int, policy: SettingPolicy
) -> list[TrialRecord]:
    seed &= (1 << 64) - 1
    state_ids = model.ensemble.state_ids()
    state_cum = _cumulative([float(e.weight) for e in model.ensemble.entries])
    alice_ids = model.scenario.alice_ids()
    bob_ids = model.scenario.bob_ids()
    outcome_cum = {
        key: _cumulative([float(p) for p in dist.values()])
        for key, dist in model.kernel.cells.items()
    }
    records = []
    for index in range(trials):
        state = state_ids[_pick(state_cum, trial_uniform(seed, index, SLOT_STATE))]
        if isinstance(policy, FixedSequencePolicy):
            a_id, b_id = policy.pairs[index % len(policy.pairs)]
        else:
            ua = trial_uniform(seed, index, SLOT_ALICE)
            ub = trial_uniform(seed, index, SLOT_BOB)
            a_id = alice_ids[min(int(ua * len(alice_ids)), len(alice_ids) - 1)]
            b_id = bob_ids[min(int(ub * len(bob_ids)), len(bob_ids) - 1)]
        cum = outcome_cum[(state, a_id, b_id)]
        outcome_a, outcome_b = JOINT_OUTCOMES[_pick(cum, trial_uniform(seed, index, SLOT_OUTCOME))]
        records.append(TrialRecord(index, state, a_id, b_id, outcome_a, outcome_b))
    return records
