import dataclasses

import numpy as np
import pytest

from liftguard import (
    ContinuousPlant,
    StateSpace,
    build_lifted,
    check_assumptions,
    check_minimal,
    choose_m,
    has_zero_at,
    shift_consistency_check,
    ss_response,
    transmission_zeros,
)
from liftguard.errors import DimensionError, ModelError
from liftguard.lift import SHIFT_CONSISTENCY_TOL, block_difference_matrix, observability_stack

from helpers import (
    assert_sets_close,
    random_continuous,
    random_tall_continuous,
    triple_integrator,
)


class TestBuildLifted:
    def test_smallest_case_formulas(self):
        plant = random_continuous(np.random.default_rng(1), n=2, n_u=1, n_y=1)
        L = build_lifted(plant, 1.0, 2)
        f = L.fast_plant
        np.testing.assert_allclose(L.A, f.A @ f.A, atol=1e-13)
        np.testing.assert_allclose(L.B, f.B + f.A @ f.B, atol=1e-13)
        np.testing.assert_allclose(L.C, np.vstack([f.C, f.C @ f.A]), atol=1e-13)
        np.testing.assert_allclose(L.D, np.vstack([f.D, f.C @ f.B + f.D]), atol=1e-13)

    def test_lifted_step_equals_substeps(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            plant = random_continuous(rng)
            m = int(rng.integers(2, 5))
            L = build_lifted(plant, 1.0, m)
            f = L.fast_plant
            x0 = rng.standard_normal(f.n)
            u = rng.standard_normal(f.n_u)
            y_fast, x_fast = ss_response(f, np.tile(u, (m, 1)), x0=x0, return_states=True)
            np.testing.assert_allclose(
                L.C @ x0 + L.D @ u, y_fast.reshape(-1), atol=1e-11
            )
            np.testing.assert_allclose(L.A @ x0 + L.B @ u, x_fast[-1], atol=1e-11)

    def test_triple_integrator_lifted_zero_free_outside_disc(self):
        L = build_lifted(triple_integrator(), 1.0, 4)
        report = transmission_zeros(L)
        for rec in report.zeros:
            if rec.z_value is not None:
                assert abs(rec.z_value) <= 1.0 + 1e-7 or abs(rec.z_value - 1.0) <= 1e-6

    def test_zeros_with_rank_deficient_observability_stack(self):
        # Below full column rank of C, CA, ..., CA^{m-2} the lifted pencil
        # has zeros the small delta pencil lacks, so they must still be
        # found: compare with the same quadruple as a plain system.
        rng = np.random.default_rng(37)
        off_one = 0
        for _ in range(20):
            plant = random_continuous(rng, n=int(rng.integers(3, 6)), n_u=2, n_y=1)
            L = build_lifted(plant, 1.0, 2)
            assert not check_assumptions(L).obs_full_rank
            if not check_minimal(L).minimal:
                continue
            plain = StateSpace(A=L.A, B=L.B, C=L.C, D=L.D)
            got, want = (
                [r.z_value for r in transmission_zeros(s).zeros if r.z_value is not None]
                for s in (L, plain)
            )
            assert_sets_close(got, want, 1e-6, "lifted zeros")
            off_one += int(any(abs(z - 1.0) > 1e-6 for z in want))
        assert off_one >= 3

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            build_lifted(triple_integrator(), 1.0, 1)

    def test_lifted_is_state_space(self):
        L = build_lifted(triple_integrator(), 1.0, 4)
        assert isinstance(L, StateSpace)
        assert (L.n, L.n_u, L.n_y) == (3, 1, 4)

    def test_hand_built_wrong_shape_rejected(self):
        L = build_lifted(triple_integrator(), 1.0, 4)
        with pytest.raises(DimensionError):
            dataclasses.replace(L, D=np.zeros((3, 1)))
        with pytest.raises(DimensionError):
            dataclasses.replace(L, B=np.full((3, 1), np.inf))


class TestStructuralIdentities:
    def test_difference_and_stack_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            plant = random_continuous(rng)
            m = int(rng.integers(2, 6))
            L = build_lifted(plant, float(rng.uniform(0.3, 1.5)), m)
            f = L.fast_plant
            X = block_difference_matrix(m, f.n_y)
            O = observability_stack(f.A, f.C, m)
            I = np.eye(f.n)
            assert np.max(np.abs(X @ L.C - O @ (I - f.A))) <= 1e-12
            assert np.max(np.abs(X @ L.D + O @ f.B)) <= 1e-12
            assert np.max(np.abs((I - f.A) @ L.B - (I - L.A) @ f.B)) <= 1e-12


class TestAssumptions:
    def test_m_equal_n_plus_one_suffices(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            plant = random_continuous(rng)
            L = build_lifted(plant, 1.0, plant.n + 1)
            assert check_assumptions(L).obs_full_rank

    def test_duplicated_input_column(self):
        rng = np.random.default_rng(13)
        b = rng.standard_normal((3, 1))
        plant = ContinuousPlant(
            Ac=rng.standard_normal((3, 3)),
            Bc=np.hstack([b, b]),
            Cc=rng.standard_normal((3, 3)),
            Dc=np.zeros((3, 2)),
        )
        L = build_lifted(plant, 1.0, 2)
        rep = check_assumptions(L)
        assert not rep.b_full_rank

    def test_siso_triple_integrator_m2_insufficient(self):
        L = build_lifted(triple_integrator(), 1.0, 2)
        rep = check_assumptions(L)
        assert not rep.obs_full_rank
        assert rep.obs_rank.rank == 1  # single output row against three states


class TestChooseM:
    def test_triple_integrator_needs_four(self):
        assert choose_m(triple_integrator(), 1.0) == 4

    def test_full_row_output_gives_two(self):
        rng = np.random.default_rng(17)
        plant = ContinuousPlant(
            Ac=rng.standard_normal((3, 3)),
            Bc=rng.standard_normal((3, 1)),
            Cc=np.eye(3),
            Dc=np.zeros((3, 1)),
        )
        assert choose_m(plant, 1.0) == 2

    def test_rank_deficient_input_matrix_fails(self):
        rng = np.random.default_rng(19)
        b = rng.standard_normal((3, 1))
        plant = ContinuousPlant(
            Ac=rng.standard_normal((3, 3)),
            Bc=np.hstack([b, b]),
            Cc=rng.standard_normal((3, 3)),
            Dc=np.zeros((3, 2)),
        )
        with pytest.raises(ModelError):
            choose_m(plant, 1.0)

    @pytest.mark.parametrize("T", [1.0, 0.1])
    def test_matches_search_over_lifted_systems(self, T, monkeypatch):
        rng = np.random.default_rng(71)
        plants = [random_continuous(rng) for _ in range(40)]
        expected = [_choose_m_by_building(p, T) for p in plants]
        assert sum(m is not None for m in expected) >= 30

        def no_lifting(*args, **kwargs):
            raise AssertionError("choose_m assembled a lifted system")

        monkeypatch.setattr("liftguard.lift.build_lifted", no_lifting)
        for plant, m in zip(plants, expected):
            if m is None:
                with pytest.raises(ModelError):
                    choose_m(plant, T)
            else:
                assert choose_m(plant, T) == m


class TestShiftConsistency:
    def test_random_lifted_consistent(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            plant = random_continuous(rng)
            m = int(rng.integers(2, 5))
            L = build_lifted(plant, 1.0, m)
            result = shift_consistency_check(L, trials=4, n_steps=30, rng=rng)
            assert result.consistent, f"max error {result.max_error}"

    def test_zero_input_trivially_consistent(self):
        L = build_lifted(triple_integrator(), 1.0, 3)
        y = ss_response(L, np.zeros((10, 1)))
        assert not np.any(y)

    def test_corrupted_block_caught(self):
        # negative control: the check itself must flag a broken invariant
        L = build_lifted(triple_integrator(), 1.0, 4)
        corrupted = dataclasses.replace(L, D=L.D + 1e-3)
        result = shift_consistency_check(corrupted, trials=3, n_steps=20)
        assert not result.consistent

    def test_matches_per_trial_loop(self):
        rng = np.random.default_rng(73)
        flagged = 0
        for k in range(8):
            plant = random_continuous(rng)
            L = build_lifted(plant, 1.0, int(rng.integers(2, 5)))
            if k % 2:
                # corrupted blocks give errors far above rounding, so the
                # per-trial scale decides which trial is the worst
                L = dataclasses.replace(L, D=L.D + 1e-3 * rng.standard_normal(L.D.shape))
            seed = int(rng.integers(2**31))
            ref_rng, rng_used = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = _shift_consistency_per_trial(L, 4, 12, ref_rng)
            result = shift_consistency_check(L, trials=4, n_steps=12, rng=rng_used)
            np.testing.assert_allclose(result.max_error, expected, rtol=1e-12, atol=1e-12)
            assert result.consistent == (expected <= SHIFT_CONSISTENCY_TOL)
            flagged += int(not result.consistent)
            # the same draws: the generator is left where the loop leaves it
            assert rng_used.random() == ref_rng.random()
        assert flagged >= 3


class TestFrequencyOneEquivalence:
    def test_tall_lifted_zero_at_one_iff_fast_plant(self):
        rng = np.random.default_rng(29)
        hits = 0
        for trial in range(25):
            if trial % 2 == 0:
                plant = _plant_with_blocking_zero_at_origin(rng)
                if plant is None:
                    continue
            else:
                plant = random_tall_continuous(rng)
            m = choose_m(plant, 1.0)
            L = build_lifted(plant, 1.0, m)
            fast = L.fast_plant
            if not (check_minimal(L).minimal and check_minimal(fast).minimal):
                continue
            fast_has = has_zero_at(fast, 1.0)
            lifted_has = has_zero_at(L, 1.0)
            assert fast_has == lifted_has
            hits += int(fast_has)
        assert hits >= 5  # the construction must actually exercise the "yes" branch

    def test_fat_plant_always_has_zero_at_one(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            plant = random_continuous(rng, n=3, n_u=2, n_y=1)
            m = int(rng.integers(2, 4))
            L = build_lifted(plant, 1.0, m)
            assert has_zero_at(L, 1.0)


def _plant_with_blocking_zero_at_origin(rng, tries=20):
    """Random tall plant whose transfer vanishes at zero continuous frequency."""
    from liftguard.errors import LiftguardError

    for _ in range(tries):
        n = int(rng.integers(2, 4))
        n_y = int(rng.integers(1, 3))
        Ac = rng.standard_normal((n, n))
        if abs(np.linalg.det(Ac)) < 1e-3:
            continue
        Bc = rng.standard_normal((n, 1))
        Cc = rng.standard_normal((n_y, n))
        Dc = Cc @ np.linalg.solve(Ac, Bc)  # forces zero DC gain
        try:
            return ContinuousPlant(Ac=Ac, Bc=Bc, Cc=Cc, Dc=Dc)
        except LiftguardError:
            continue
    return None


def _choose_m_by_building(plant, T):
    """Search m by assembling each candidate's lifted system."""
    for m in range(2, plant.n + 2):
        if check_assumptions(build_lifted(plant, T, m)).satisfied:
            return m
    return None


def _shift_consistency_per_trial(L, trials, n_steps, rng):
    """Largest scaled error, one trial and one sub-step at a time."""
    fast = L.fast_plant
    m, n_u = L.m, L.n_u
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal((n_steps, n_u))
        u_delayed = np.vstack([np.zeros((1, n_u)), u[:-1]])
        y_lifted = ss_response(L, u_delayed)
        y_fast = ss_response(fast, np.repeat(u, m, axis=0))
        y_fast_delayed = np.vstack([np.zeros((m, fast.n_y)), y_fast[:-m]])
        y_stacked = y_fast_delayed.reshape(n_steps, m * fast.n_y)
        scale = max(1.0, float(np.max(np.abs(y_stacked))))
        worst = max(worst, float(np.max(np.abs(y_lifted - y_stacked))) / scale)
    return worst
