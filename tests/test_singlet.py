"""Quantum singlet predictions, held to an independent linear-algebra oracle.

The oracle below builds its own spin projectors and singlet vector from
scratch and never imports the production helpers it checks; a second
route through explicit eigenvectors cross-checks the oracle itself.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bell_lab.model import BellLabError, behavior, validate_theory
from bell_lab.singlet import (
    DirectionError,
    SingletSpec,
    make_planar_singlet,
    make_quantum_theory,
    parse_planar_settings,
    planar_direction,
    singlet_joint_prob,
)
from bell_lab.harness import correlator

SINGLET_VEC = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def oracle_joint_prob(a_dir, b_dir, outcome_a: int, outcome_b: int) -> float:
    """Independent route: explicit 2x2 projectors, 4x4 tensor, quadratic form."""

    def projector(n, s):
        nx, ny, nz = n
        sigma = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]], dtype=complex)
        return (np.eye(2, dtype=complex) + s * sigma) / 2.0

    op = np.kron(projector(a_dir, outcome_a), projector(b_dir, outcome_b))
    return float(np.real(np.conj(SINGLET_VEC) @ (op @ SINGLET_VEC)))


def eigenvector_joint_prob(a_dir, b_dir, outcome_a: int, outcome_b: int) -> float:
    """Second independent route: amplitude against explicit spin eigenvectors."""

    def chi(n, s):
        theta = math.acos(max(-1.0, min(1.0, n[2])))
        phi = math.atan2(n[1], n[0])
        if s == +1:
            return np.array([math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)])
        return np.array([-math.sin(theta / 2) * np.exp(-1j * phi), math.cos(theta / 2)])

    amp = np.conj(np.kron(chi(a_dir, outcome_a), chi(b_dir, outcome_b))) @ SINGLET_VEC
    return float(np.abs(amp) ** 2)


def random_unit(rng) -> tuple[float, float, float]:
    v = rng.normal(size=3)
    v = v / np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


class TestOracle:
    """The closed form is earned, not assumed."""

    def test_library_matches_projector_oracle_on_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            a, b = random_unit(rng), random_unit(rng)
            for A in (+1, -1):
                for B in (+1, -1):
                    assert singlet_joint_prob(a, b, A, B) == pytest.approx(
                        oracle_joint_prob(a, b, A, B), abs=1e-12
                    )

    def test_closed_form_matches_projector_oracle_on_random_pairs(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            a, b = random_unit(rng), random_unit(rng)
            cos_theta = sum(x * y for x, y in zip(a, b))
            for A in (+1, -1):
                for B in (+1, -1):
                    closed = (1.0 - A * B * cos_theta) / 4.0
                    assert oracle_joint_prob(a, b, A, B) == pytest.approx(closed, abs=1e-12)

    def test_two_oracle_routes_agree(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            a, b = random_unit(rng), random_unit(rng)
            for A in (+1, -1):
                for B in (+1, -1):
                    assert oracle_joint_prob(a, b, A, B) == pytest.approx(
                        eigenvector_joint_prob(a, b, A, B), abs=1e-12
                    )

    def test_equal_axes_kill_same_outcomes(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            n = random_unit(rng)
            assert singlet_joint_prob(n, n, +1, +1) <= 1e-12
            assert singlet_joint_prob(n, n, -1, -1) <= 1e-12
            assert singlet_joint_prob(n, n, +1, -1) == pytest.approx(0.5, abs=1e-12)
            assert singlet_joint_prob(n, n, -1, +1) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_axes_give_quarter_cells(self):
        a = planar_direction(0.0)
        b = planar_direction(90.0)
        for A in (+1, -1):
            for B in (+1, -1):
                assert singlet_joint_prob(a, b, A, B) == pytest.approx(0.25, abs=1e-12)

    def test_cells_normalize_and_marginals_are_uniform(self):
        rng = np.random.default_rng(46)
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            cells = {
                (A, B): singlet_joint_prob(a, b, A, B) for A in (+1, -1) for B in (+1, -1)
            }
            assert sum(cells.values()) == pytest.approx(1.0, abs=1e-12)
            assert cells[(+1, +1)] + cells[(+1, -1)] == pytest.approx(0.5, abs=1e-12)
            assert cells[(+1, +1)] + cells[(-1, +1)] == pytest.approx(0.5, abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            a, b = random_unit(rng), random_unit(rng)
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            if np.linalg.det(q) < 0:
                q[:, 0] = -q[:, 0]
            ra = tuple(float(x) for x in q @ np.array(a))
            rb = tuple(float(x) for x in q @ np.array(b))
            for A in (+1, -1):
                for B in (+1, -1):
                    assert singlet_joint_prob(ra, rb, A, B) == pytest.approx(
                        singlet_joint_prob(a, b, A, B), abs=1e-12
                    )

    def test_rejects_non_unit_directions(self):
        for direction in ((0.0, 0.0, 2.0), (math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)):
            with pytest.raises(DirectionError):
                singlet_joint_prob(direction, (0.0, 0.0, 1.0), +1, +1)

    def test_rejects_bad_outcomes(self):
        with pytest.raises(ValueError):
            singlet_joint_prob((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 0, +1)


class TestSingletModel:
    def test_model_is_valid_and_behavior_equals_kernel(self, singlet_chsh):
        assert validate_theory(singlet_chsh) == []
        table = behavior(singlet_chsh)
        for (a_id, b_id), dist in table.cells.items():
            a = singlet_chsh.scenario.alice_setting(a_id).direction
            b = singlet_chsh.scenario.bob_setting(b_id).direction
            for A in (+1, -1):
                for B in (+1, -1):
                    assert dist.prob(A, B) == pytest.approx(
                        oracle_joint_prob(a, b, A, B), abs=1e-12
                    )

    def test_correlator_is_minus_cosine(self):
        for deg in (0.0, 30.0, 45.0, 60.0, 90.0, 120.0, 180.0):
            model = make_planar_singlet("a1=0", f"b1={deg}")
            table = behavior(model)
            expected = -math.cos(math.radians(deg))
            assert correlator(table, "a1", "b1") == pytest.approx(expected, abs=1e-12)

    def test_planar_direction_lives_in_xz_plane(self):
        x, y, z = planar_direction(35.0)
        assert y == 0.0
        assert x == pytest.approx(math.sin(math.radians(35.0)))
        assert z == pytest.approx(math.cos(math.radians(35.0)))
        assert x * x + z * z == pytest.approx(1.0, abs=1e-12)

    def test_parse_planar_settings(self):
        settings = parse_planar_settings("a1=0, a2=90")
        assert [s.id for s in settings] == ["a1", "a2"]
        assert settings[1].direction == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)

    def test_parse_planar_settings_rejects_garbage(self):
        with pytest.raises(DirectionError):
            parse_planar_settings("a1")
        with pytest.raises(DirectionError):
            parse_planar_settings("a1=north")
        with pytest.raises(DirectionError):
            parse_planar_settings("=45")
        for angle in ("nan", "inf", "-inf", "1e400"):
            with pytest.raises(DirectionError, match="not finite"):
                parse_planar_settings(f"a1=0,a2={angle}")
        with pytest.raises(BellLabError, match="lone surrogate"):
            make_planar_singlet("\udcff=0", "b1=0")
        with pytest.raises(BellLabError, match="lone surrogate"):
            make_planar_singlet("a1=0", "b1=0", name="n\udcff")

    @pytest.mark.parametrize("alice, bob", [(None, "b1=0"), ("a1=0", 5), (b"a1=0", "b1=0"), (["a1=0"], "b1=0")])
    def test_settings_that_are_not_text_are_refused(self, alice, bob):
        bad = bob if isinstance(alice, str) else alice
        with pytest.raises(DirectionError) as info:
            make_planar_singlet(alice, bob)
        assert str(info.value) == f"planar settings must be a str of 'id=degrees' pairs, got {bad!r}"

    def test_quantum_theory_requires_directions(self):
        from bell_lab.model import Setting

        spec = SingletSpec(alice=(Setting(id="a1"),), bob=(Setting(id="b1", direction=(0.0, 0.0, 1.0)),))
        with pytest.raises(DirectionError):
            make_quantum_theory(spec)

    def test_model_is_decimal_not_exact(self, singlet_chsh):
        assert not singlet_chsh.is_exact
