import dataclasses
import operator

import numpy as np
import pytest

from liftguard import (
    ContinuousPlant,
    DiscretePlant,
    StateSpace,
    build_lifted,
    check_assumptions,
    check_minimal,
    choose_m,
    discretize,
    shift_consistency_check,
    spectral_radius,
    transmission_zeros,
)
from liftguard import linalg
from liftguard.errors import DimensionError, ModelError
from liftguard.lift import SHIFT_CONSISTENCY_TOL, block_difference_matrix, observability_stack

from helpers import (
    assert_sets_close,
    has_zero_at,
    random_continuous,
    random_tall_continuous,
    ss_response,
    triple_integrator,
)

_quadruple = operator.attrgetter("A", "B", "C", "D")


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

    @pytest.mark.parametrize("T, m", [(1.0, 4), (0.01, 3)])
    def test_lifted_is_a_plant_at_the_hold_period(self, T, m):
        L = build_lifted(triple_integrator(), T, m)
        assert isinstance(L, DiscretePlant)
        assert L.period == T and L.m == m and L.fast_plant.period == T / m

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
            A=rng.standard_normal((3, 3)),
            B=np.hstack([b, b]),
            C=rng.standard_normal((3, 3)),
            D=np.zeros((3, 2)),
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
            A=rng.standard_normal((3, 3)),
            B=rng.standard_normal((3, 1)),
            C=np.eye(3),
            D=np.zeros((3, 1)),
        )
        assert choose_m(plant, 1.0) == 2

    def test_rank_deficient_input_matrix_fails(self):
        rng = np.random.default_rng(19)
        b = rng.standard_normal((3, 1))
        plant = ContinuousPlant(
            A=rng.standard_normal((3, 3)),
            B=np.hstack([b, b]),
            C=rng.standard_normal((3, 3)),
            D=np.zeros((3, 2)),
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


    def test_search_keeps_its_samples(self):
        plant = triple_integrator()
        samples = {}
        assert choose_m(plant, 1.0, samples) == 4
        assert sorted(samples) == [4]  # m = 2, 3 give fewer than n = 3 stacked rows
        for m, fast in samples.items():
            ref = discretize(plant, 1.0 / m)
            assert fast.period == ref.period
            for got, want in zip(_quadruple(fast), _quadruple(ref)):
                assert got.tobytes() == want.tobytes()

    def test_automatic_m_samples_each_fast_period_once(self, monkeypatch):
        calls = []
        expm = linalg.expm
        monkeypatch.setattr(linalg, "expm", lambda M: calls.append(M.shape) or expm(M))
        plant = triple_integrator()
        lifted = build_lifted(plant, 1.0)
        assert lifted.m == 4 and len(calls) == 1  # the search starts at m = 4
        explicit = build_lifted(plant, 1.0, 4)
        assert len(calls) == 2
        for got, want in zip(_quadruple(lifted), _quadruple(explicit)):
            assert got.tobytes() == want.tobytes()


class TestShiftConsistency:
    def test_random_lifted_consistent(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            plant = random_continuous(rng)
            m = int(rng.integers(2, 5))
            L = build_lifted(plant, 1.0, m)
            result = shift_consistency_check(L)
            assert result.consistent, f"max error {result.max_error}"

    def test_zero_input_trivially_consistent(self):
        L = build_lifted(triple_integrator(), 1.0, 3)
        y = ss_response(L, np.zeros((10, 1)))
        assert not np.any(y)

    def test_corrupted_block_caught(self):
        # negative control: the check itself must flag a broken invariant
        L = build_lifted(triple_integrator(), 1.0, 4)
        corrupted = dataclasses.replace(L, D=L.D + 1e-3)
        result = shift_consistency_check(corrupted)
        assert not result.consistent

    @pytest.mark.parametrize("T", [1.0, 0.01, 1e-3])
    def test_clean_build_certifies_to_rounding(self, T):
        rng = np.random.default_rng(83)
        for _ in range(30):
            plant = random_continuous(rng)
            L = build_lifted(plant, T, int(rng.integers(2, 6)))
            result = shift_consistency_check(L)
            assert result.max_error <= 1e-14, f"max error {result.max_error:.3e}"
            assert result.consistent and result.tolerance == SHIFT_CONSISTENCY_TOL

    def test_corruption_caught_on_unstable_lifted_system(self):
        # Growth of the lifted state must not hide a corrupted block.
        rng = np.random.default_rng(89)
        for _ in range(20):
            plant = _unstable_plant(random_continuous(rng), 3.0)
            L = build_lifted(plant, 1.0, int(rng.integers(2, 5)))
            assert spectral_radius(L.A) >= 10.0
            corrupted = dataclasses.replace(L, D=L.D + 1e-3 * rng.standard_normal(L.D.shape))
            result = shift_consistency_check(corrupted)
            assert not result.consistent, f"max error {result.max_error:.3e}"

    @pytest.mark.parametrize("block", ["A", "B", "C", "D"])
    def test_each_block_certified(self, block):
        L = build_lifted(_unstable_plant(triple_integrator(), 2.5), 1.0, 4)
        M = getattr(L, block).copy()
        M[-1, -1] *= 1.0 + 1e-8
        assert not shift_consistency_check(dataclasses.replace(L, **{block: M})).consistent

    def test_build_lifted_rejects_wrong_blocks(self, monkeypatch):
        from liftguard import lift

        assemble = lift._lifted_blocks

        def corrupted(*args):
            A, B, C, D = assemble(*args)
            return A, B, C, D + 1e-6

        monkeypatch.setattr(lift, "_lifted_blocks", corrupted)
        with pytest.raises(ModelError, match="disagree with the fast plant"):
            build_lifted(triple_integrator(), 1.0, 4)


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
        A = rng.standard_normal((n, n))
        if abs(np.linalg.det(A)) < 1e-3:
            continue
        B = rng.standard_normal((n, 1))
        C = rng.standard_normal((n_y, n))
        D = C @ np.linalg.solve(A, B)  # forces zero DC gain
        try:
            return ContinuousPlant(A, B, C, D)
        except LiftguardError:
            continue
    return None


def _choose_m_by_building(plant, T):
    """Search m by assembling each candidate's lifted system."""
    for m in range(2, plant.n + 2):
        if check_assumptions(build_lifted(plant, T, m)).satisfied:
            return m
    return None


def _unstable_plant(plant, rightmost):
    """The plant with its continuous poles shifted so the rightmost real part
    equals ``rightmost``; a shift of A keeps the realization minimal."""
    shift = rightmost - np.max(np.linalg.eigvals(plant.A).real)
    return ContinuousPlant(
        A=plant.A + shift * np.eye(plant.n), B=plant.B, C=plant.C, D=plant.D
    )
