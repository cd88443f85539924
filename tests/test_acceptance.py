"""Acceptance gate: one test and one printed verdict line per criterion.

Each test appends `ACCEPTANCE NN PASS/FAIL: ...` to RESULTS (echoed in the
terminal summary) and then asserts, so a red criterion is visible both in
the pytest output and in the summary block.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import genmodels
from bell_lab.audit import check_bell_locality, check_signal_locality
from bell_lab.harness import (
    bell1964,
    chsh,
    enumerate_strategies,
    local_polytope_membership,
    resolve_axes,
)
from bell_lab.instructions import (
    DerivationFailure,
    InstructionSet,
    classify_states,
    derive_instruction_sets,
    realize_model,
)
from bell_lab.model import JOINT_OUTCOMES, behavior, resolve_tolerance
from reference_harness import max_local_chsh, strategy_behavior
from bell_lab.montecarlo import FixedSequencePolicy, simulate
from bell_lab.singlet import make_planar_singlet
from bell_lab.specio import load_theory

RESULTS: list[str] = []

FIXTURES = Path(__file__).parent / "fixtures"
ROOT8 = 2.0 * math.sqrt(2.0)


def record(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def equal_axes_singlet():
    return make_planar_singlet("n1=0,n2=90", "n1=0,n2=90", name="singlet equal axes")


def chsh_singlet():
    return make_planar_singlet("a1=0,a2=90", "b1=45,b2=135", name="singlet chsh angles")


def three_axis_singlet():
    return make_planar_singlet(
        "n1=0,n2=60,n3=120", "n1=0,n2=60,n3=120", name="singlet three axes"
    )


def test_criterion_01_perfect_anticorrelation():
    start = time.perf_counter()
    model = equal_axes_singlet()
    table = behavior(model)
    worst_analytic = max(
        max(table.cell(n, n).pp, table.cell(n, n).mm) for n in ("n1", "n2")
    )

    policy = FixedSequencePolicy(pairs=(("n1", "n1"), ("n2", "n2")))
    stats = simulate(model, 100_000, seed=7, policy=policy)
    same = sum(n for (_, _, A, B), n in stats.counts.items() if A == B)
    elapsed = time.perf_counter() - start

    ok = worst_analytic <= 1e-12 and same == 0 and elapsed < 5.0
    record(
        1,
        ok,
        "equal-axes singlet: analytic same-outcome prob "
        f"{worst_analytic:.2e} (<=1e-12), {same} same-outcome events in "
        f"{stats.trials} forced-equal-axis trials, {elapsed:.2f}s (<5s)",
    )


def test_criterion_02_singlet_not_bell_local():
    report = check_bell_locality(equal_axes_singlet())
    residual = float(report.worst_residual)
    ok = report.verdict == "NotBellLocal" and abs(residual - 0.25) <= 1e-9
    record(
        2,
        ok,
        f"singlet locality audit: {report.verdict}, worst residual "
        f"{residual:.12f} (0.25 +/- 1e-9)",
    )


def test_criterion_03_derivation_dichotomy():
    rng = np.random.default_rng(2024)
    total = 0
    round_trips = 0
    for _ in range(500):
        n_axes = int(rng.integers(1, 4))
        n_states = int(rng.integers(1, 7))
        instr = genmodels.random_anticorr_instructions(rng, n_axes, n_states)
        scenario = genmodels.shared_axis_scenario(n_axes)
        model = realize_model(instr, scenario)
        derived = derive_instruction_sets(model)
        total += 1
        if (
            isinstance(derived, InstructionSet)
            and derived.assignments == instr.assignments
            and derived.weights == instr.weights
            and realize_model(derived, scenario).kernel.cells == model.kernel.cells
        ):
            round_trips += 1

    failure = derive_instruction_sets(equal_axes_singlet())
    singlet_blocked = (
        isinstance(failure, DerivationFailure)
        and abs(float(failure.marginal) - 0.5) <= 1e-9
    )

    ok = total == 500 and round_trips == 500 and singlet_blocked
    detail = (
        f"{round_trips}/{total} random anti-correlated mixtures derive and "
        "round-trip exactly; singlet blocked by marginal "
    )
    detail += (
        f"{float(failure.marginal):.3f}" if isinstance(failure, DerivationFailure) else "(not blocked)"
    )
    record(3, ok, detail)


def test_criterion_04_eight_class_partition():
    model = load_theory(FIXTURES / "eight_pattern.json")
    zero_tol = resolve_tolerance(model, None) == 0.0
    derived = derive_instruction_sets(model)
    ok = model.is_exact and zero_tol and isinstance(derived, InstructionSet)
    n_classes = weights_exact = 0
    if isinstance(derived, InstructionSet):
        part = classify_states(derived)
        nonempty = part.nonempty_classes()
        n_classes = len(nonempty)
        weights_exact = sum(
            1 for c in nonempty if isinstance(c.weight, Fraction) and c.weight == Fraction(1, 8)
        )
        ok = ok and len(part.classes) == 8 and n_classes == 8 and weights_exact == 8
        ok = ok and part.total_weight() == Fraction(1)
    record(
        4,
        ok,
        f"eight-pattern fixture: {n_classes}/8 nonempty classes, "
        f"{weights_exact}/8 with exact weight 1/8, zero tolerance {zero_tol}",
    )


def test_criterion_05_local_bound_is_two():
    scenario = chsh_singlet().scenario
    result = max_local_chsh(scenario)
    ok = (
        result.bound == Fraction(2)
        and isinstance(result.bound, Fraction)
        and len(result.values) == 16
        and len(enumerate_strategies(scenario)) == 16
    )
    record(
        5,
        ok,
        f"brute force over {len(result.values)} deterministic strategies: "
        f"max |S| = {result.bound} (exactly 2)",
    )


def test_criterion_06_quantum_chsh_violation():
    start = time.perf_counter()
    model = chsh_singlet()
    table = behavior(model)
    analytic = chsh(table, "a2", "a1", "b1", "b2")
    analytic_gap = abs(abs(float(analytic.chsh_value)) - ROOT8)

    stats = simulate(model, 100_000, seed=42, chsh_roles=("a2", "a1", "b1", "b2"))
    mc_gap = abs(abs(stats.chsh.value) - ROOT8)
    sigmas = mc_gap / stats.chsh.std_error
    elapsed = time.perf_counter() - start

    ok = (
        analytic_gap <= 1e-9
        and analytic.violated
        and sigmas <= 3.0
        and elapsed < 10.0
    )
    record(
        6,
        ok,
        f"CHSH at (0,90;45,135): analytic |S|-2sqrt2 = {analytic_gap:.2e} "
        f"(<=1e-9), Monte Carlo at 1e5 trials off by {sigmas:.2f} sigma (<=3), "
        f"{elapsed:.2f}s (<10s)",
    )


def test_criterion_07_bell_1964():
    model = three_axis_singlet()
    table = behavior(model)
    axes = resolve_axes(model.scenario, ["n1", "n2", "n3"])
    result = bell1964(table, (axes[0], axes[1], axes[2]))
    singlet_ok = (
        abs(float(result.lhs) - 1.0) <= 1e-9
        and abs(float(result.rhs) - 0.5) <= 1e-9
        and result.violated
    )

    rng = np.random.default_rng(1964)
    satisfied = 0
    total = 500
    local_axes = (("n1", "n1"), ("n2", "n2"), ("n3", "n3"))
    for _ in range(total):
        mixture = genmodels.random_anticorr_mixture(rng, 3, int(rng.integers(1, 7)))
        if bell1964(behavior(mixture), local_axes).satisfied:
            satisfied += 1

    ok = singlet_ok and satisfied == total
    record(
        7,
        ok,
        f"three axes at (0,60,120): lhs {float(result.lhs):.9f} vs rhs "
        f"{float(result.rhs):.9f}, violated {result.violated}; "
        f"{satisfied}/{total} local anti-correlated mixtures satisfy it",
    )


def test_criterion_08_signal_locality():
    analytic_deltas = []
    for model in (equal_axes_singlet(), chsh_singlet(), three_axis_singlet()):
        report = check_signal_locality(model, tol=1e-12)
        analytic_deltas.append(float(report.max_delta))
    for name in ("eight_pattern.json", "two_state.json"):
        report = check_signal_locality(load_theory(FIXTURES / name))
        analytic_deltas.append(float(report.max_delta))
    worst_analytic = max(analytic_deltas)

    model = chsh_singlet()
    stats = simulate(model, 100_000, seed=8)
    worst_sigma = max(
        (d.delta / d.std_error if d.std_error > 0 else 0.0) for d in stats.signal_deltas
    )

    ok = worst_analytic <= 1e-12 and worst_sigma <= 4.0
    record(
        8,
        ok,
        f"worst analytic marginal shift {worst_analytic:.2e} (<=1e-12) over "
        "singlet and local fixtures; worst simulated shift "
        f"{worst_sigma:.2f} sigma (<=4) at 1e5 trials",
    )


def test_criterion_09_polytope_membership():
    model = chsh_singlet()
    table = behavior(model)
    outside = local_polytope_membership(table)
    f = outside.functional
    outside_ok = (
        not outside.inside
        and f is not None
        and f.kind == "chsh"
        and float(f.bound) == 2.0
        and abs(float(f.value) - ROOT8) <= 1e-9
    )

    inside_checked = inside_ok_count = 0
    rng = np.random.default_rng(9)
    fixture = load_theory(FIXTURES / "eight_pattern.json")
    candidates = [fixture]
    for _ in range(20):
        candidates.append(genmodels.random_anticorr_mixture(rng, 2, int(rng.integers(1, 6))))
    for candidate in candidates:
        tbl = behavior(candidate)
        cert = local_polytope_membership(tbl)
        inside_checked += 1
        if not (cert.inside and cert.residual == 0):
            continue
        recon: dict = {}
        for strat, w in cert.weights.items():
            stbl = strategy_behavior(strat, candidate.scenario)
            for key, dist in stbl.cells.items():
                for A, B in JOINT_OUTCOMES:
                    recon[(key, A, B)] = recon.get((key, A, B), Fraction(0)) + w * dist.prob(A, B)
        if all(
            recon[(key, A, B)] == dist.prob(A, B)
            for key, dist in tbl.cells.items()
            for A, B in JOINT_OUTCOMES
        ):
            inside_ok_count += 1

    ok = outside_ok and inside_checked == inside_ok_count == 21
    value_text = f"{float(f.value):.6f}" if f is not None else "none"
    record(
        9,
        ok,
        f"singlet behavior outside (separating functional bound 2, value {value_text}); "
        f"{inside_ok_count}/{inside_checked} instruction-set behaviors inside with "
        "exactly reproducing weights",
    )


def test_criterion_10_bell_local_implies_signal_local():
    rng = np.random.default_rng(10)
    total = 0
    bell_local_count = 0
    counterexamples = 0
    for i in range(500):
        kind = i % 3
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        n_states = int(rng.integers(1, 5))
        if kind == 0:
            model = genmodels.random_product_model(rng, na, nb, n_states)
        elif kind == 1:
            model = genmodels.random_arbitrary_model(rng, na, nb, n_states)
        else:
            model = genmodels.random_anticorr_mixture(rng, int(rng.integers(1, 4)), n_states)
        total += 1
        if check_bell_locality(model).bell_local:
            bell_local_count += 1
            if not check_signal_locality(model).signal_local:
                counterexamples += 1

    ok = total == 500 and counterexamples == 0 and bell_local_count > 0
    record(
        10,
        ok,
        f"{total} random models, {bell_local_count} Bell Local, "
        f"{counterexamples} counterexamples to Bell Local => Signal Local",
    )
