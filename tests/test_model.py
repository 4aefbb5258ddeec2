import numpy as np
import pytest

from liftguard import (
    ContinuousPlant,
    DiscretePlant,
    StateSpace,
    check_minimal,
    check_pathological,
    discretize,
    load_plant,
    plant_to_dict,
    ss_response,
)
from liftguard.errors import DimensionError, ModelError
from liftguard.linalg import spectral_radius
from liftguard.model import abcd

from helpers import double_integrator, random_continuous, triple_integrator


class TestDiscretize:
    def test_integrator(self):
        plant = ContinuousPlant(Ac=[[0.0]], Bc=[[1.0]], Cc=[[1.0]], Dc=[[0.0]])
        P = discretize(plant, 1.0)
        np.testing.assert_allclose(P.A, [[1.0]], atol=1e-14)
        np.testing.assert_allclose(P.B, [[1.0]], atol=1e-14)

    @pytest.mark.parametrize("T", [0.1, 1.0, 2.5])
    def test_double_integrator_closed_form(self, T):
        P = discretize(double_integrator(), T)
        np.testing.assert_allclose(P.A, [[1.0, T], [0.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(P.B, [[T * T / 2.0], [T]], atol=1e-12)
        np.testing.assert_array_equal(P.C, [[1.0, 0.0]])

    def test_scalar_integral(self):
        plant = ContinuousPlant(Ac=[[-1.0]], Bc=[[1.0]], Cc=[[1.0]], Dc=[[0.0]])
        P = discretize(plant, np.log(2.0))
        np.testing.assert_allclose(P.A, [[0.5]], rtol=1e-12)
        np.testing.assert_allclose(P.B, [[0.5]], rtol=1e-12)

    def test_nonpositive_period(self):
        with pytest.raises(ValueError):
            discretize(double_integrator(), 0.0)

    def test_semigroup_random(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            plant = random_continuous(rng)
            T = float(rng.uniform(0.2, 1.5))
            full = discretize(plant, T)
            half = discretize(plant, T / 2.0)
            scale = max(1.0, np.max(np.abs(full.A)), np.max(np.abs(full.B)))
            assert np.max(np.abs(full.A - half.A @ half.A)) <= 1e-9 * scale
            assert np.max(np.abs(full.B - (half.A @ half.B + half.B))) <= 1e-9 * scale

    def test_stable_plant_stays_stable(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            n = int(rng.integers(1, 5))
            Ac = rng.standard_normal((n, n))
            Ac = Ac - (np.max(np.linalg.eigvals(Ac).real) + 0.2) * np.eye(n)
            try:
                plant = ContinuousPlant(
                    Ac=Ac, Bc=rng.standard_normal((n, 1)), Cc=rng.standard_normal((1, n)), Dc=[[0.0]]
                )
            except ModelError:
                continue
            T = float(rng.uniform(0.1, 3.0))
            assert spectral_radius(discretize(plant, T).A) < 1.0

    def test_substep_composition_matches_one_step(self):
        rng = np.random.default_rng(31)
        plant = random_continuous(rng, n=3, n_u=1, n_y=1)
        T, m = 0.8, 4
        coarse = discretize(plant, T)
        fine = discretize(plant, T / m)
        u = np.ones((1, 1))
        y1, x1 = ss_response(coarse, u, return_states=True)
        _, xf = ss_response(fine, np.ones((m, 1)), return_states=True)
        assert np.max(np.abs(x1[-1] - xf[-1])) <= 1e-9 * max(1.0, np.max(np.abs(x1[-1])))


class TestPathological:
    def test_distinct_real_parts(self):
        plant = ContinuousPlant(Ac=[[-1.0, 0.0], [0.0, -2.0]], Bc=[[1.0], [1.0]], Cc=[[1.0, 1.0]], Dc=[[0.0]])
        assert not check_pathological(plant, 1.7).pathological

    def test_rotation_at_half_period(self):
        w = 3.0
        plant = ContinuousPlant(Ac=[[0.0, w], [-w, 0.0]], Bc=[[0.0], [1.0]], Cc=[[1.0, 0.0]], Dc=[[0.0]])
        rep = check_pathological(plant, np.pi / w)
        assert rep.pathological
        assert len(rep.pairs) == 1

    def test_single_eigenvalue(self):
        plant = ContinuousPlant(Ac=[[0.0]], Bc=[[1.0]], Cc=[[1.0]], Dc=[[0.0]])
        assert not check_pathological(plant, 5.0).pathological

    def test_discretize_warns(self):
        w = 2.0
        plant = ContinuousPlant(Ac=[[0.0, w], [-w, 0.0]], Bc=[[0.0], [1.0]], Cc=[[1.0, 0.0]], Dc=[[0.0]])
        with pytest.warns(UserWarning, match="pathological"):
            discretize(plant, np.pi / w)


class TestMinimality:
    def test_integrator_chain_minimal(self):
        # companion-form chain with position measurement is a known minimal form
        rep = check_minimal(triple_integrator())
        assert rep.minimal

    def test_decoupled_mode(self):
        sys = DiscretePlant(
            A=[[1.0, 0.0], [0.0, 2.0]], B=[[1.0], [0.0]], C=[[1.0, 0.0]], D=[[0.0]], period=1.0
        )
        rep = check_minimal(sys)
        assert not rep.controllable
        assert not rep.observable
        assert rep.controllability.rank == 1

    def test_discretized_minimal_plant_stays_minimal(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            plant = random_continuous(rng)
            T = float(rng.uniform(0.2, 2.0))
            if check_pathological(plant, T).pathological:
                continue
            assert check_minimal(discretize(plant, T)).minimal

    def test_nonminimal_continuous_rejected_at_load(self):
        with pytest.raises(ModelError):
            ContinuousPlant(
                Ac=[[1.0, 0.0], [0.0, 2.0]], Bc=[[1.0], [0.0]], Cc=[[1.0, 0.0]], Dc=[[0.0]]
            )


class TestResponse:
    def test_zero_input_zero_state(self):
        sys = DiscretePlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], period=1.0)
        y = ss_response(sys, np.zeros((10, 1)))
        np.testing.assert_array_equal(y, np.zeros((10, 1)))

    def test_impulse_geometric_series(self):
        # exact recursion: y(0)=0, then y(k) = C A^{k-1} B = 0.5^{k-1}
        sys = DiscretePlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], period=1.0)
        u = np.zeros((5, 1))
        u[0, 0] = 1.0
        y = ss_response(sys, u)[:, 0]
        np.testing.assert_allclose(y, [0.0, 1.0, 0.5, 0.25, 0.125], rtol=1e-14)

    def test_superposition(self):
        rng = np.random.default_rng(13)
        sys = DiscretePlant(
            A=rng.standard_normal((3, 3)) * 0.3,
            B=rng.standard_normal((3, 2)),
            C=rng.standard_normal((2, 3)),
            D=rng.standard_normal((2, 2)),
            period=1.0,
        )
        u1 = rng.standard_normal((40, 2))
        u2 = rng.standard_normal((40, 2))
        y = ss_response(sys, u1 + u2)
        y_sum = ss_response(sys, u1) + ss_response(sys, u2)
        np.testing.assert_allclose(y, y_sum, atol=1e-12)

    def test_batched_runs_match_column_runs(self):
        rng = np.random.default_rng(41)
        sys = DiscretePlant(
            A=rng.standard_normal((4, 4)) * 0.4,
            B=rng.standard_normal((4, 2)),
            C=rng.standard_normal((3, 4)),
            D=rng.standard_normal((3, 2)),
            period=1.0,
        )
        U = rng.standard_normal((25, 2, 6))
        x0 = rng.standard_normal(4)
        Y, X = ss_response(sys, U, x0=x0, return_states=True)
        assert Y.shape == (25, 3, 6) and X.shape == (26, 4, 6)
        for j in range(U.shape[2]):
            y, x = ss_response(sys, U[:, :, j], x0=x0, return_states=True)
            np.testing.assert_allclose(Y[:, :, j], y, rtol=1e-13, atol=1e-13 * np.max(np.abs(y)))
            np.testing.assert_allclose(X[:, :, j], x, rtol=1e-13, atol=1e-13 * np.max(np.abs(x)))
        np.testing.assert_array_equal(ss_response(sys, U[:, :, :0]), np.empty((25, 3, 0)))

    @pytest.mark.parametrize("with_x0", [False, True])
    def test_single_run_is_the_plain_recursion(self, with_x0):
        rng = np.random.default_rng(43)
        sys = DiscretePlant(
            A=rng.standard_normal((3, 3)) * 0.5,
            B=rng.standard_normal((3, 2)),
            C=rng.standard_normal((2, 3)),
            D=rng.standard_normal((2, 2)),
            period=1.0,
        )
        U = rng.standard_normal((30, 2))
        x0 = rng.standard_normal(3) if with_x0 else None
        # The recursion one sample at a time, exactly as a single run steps it.
        x = np.zeros(3) if x0 is None else x0
        Y_ref, X_ref = np.empty((30, 2)), np.empty((31, 3))
        for k in range(30):
            X_ref[k] = x
            Y_ref[k] = sys.C @ x + sys.D @ U[k]
            x = sys.A @ x + sys.B @ U[k]
        X_ref[30] = x
        Y, X = ss_response(sys, U, x0=x0, return_states=True)
        np.testing.assert_array_equal(Y, Y_ref)
        np.testing.assert_array_equal(X, X_ref)

    def test_dimension_mismatch(self):
        sys = DiscretePlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], period=1.0)
        with pytest.raises(DimensionError):
            ss_response(sys, np.zeros((5, 2)))
        with pytest.raises(DimensionError):
            ss_response(sys, np.zeros((5, 1)), x0=[1.0, 2.0])


class TestStateSpaceBase:
    def test_discrete_plant_is_state_space(self):
        P = discretize(triple_integrator(), 1.0)
        assert isinstance(P, StateSpace)
        assert (P.n, P.n_u, P.n_y) == (3, 1, 1)
        assert all(a is b for a, b in zip(abcd(P), (P.A, P.B, P.C, P.D)))

    def test_discrete_plant_validated_before_period(self):
        with pytest.raises(DimensionError, match="D has 2 rows"):
            DiscretePlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0], [0.0]], period=-1.0)
        with pytest.raises(ValueError, match="period"):
            DiscretePlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], period=0.0)

    def test_continuous_plant_messages_name_its_fields(self):
        with pytest.raises(DimensionError, match="Ac must be square"):
            ContinuousPlant(Ac=[[0.0, 1.0]], Bc=[[1.0]], Cc=[[1.0]], Dc=[[0.0]])
        with pytest.raises(DimensionError, match="Dc has 1 columns, expected 2"):
            ContinuousPlant(Ac=[[0.0]], Bc=[[1.0, 0.0]], Cc=[[1.0]], Dc=[[0.0]])
        with pytest.raises(DimensionError, match="Cc contains non-finite"):
            ContinuousPlant(Ac=[[0.0]], Bc=[[1.0]], Cc=[[np.nan]], Dc=[[0.0]])

    def test_abcd_rejects_other_objects(self):
        with pytest.raises(TypeError):
            abcd(object())
        with pytest.raises(TypeError):
            abcd(([[1.0]], [[1.0]], [[1.0]]))
        with pytest.raises(TypeError):
            abcd(([[1.0]], [[1.0]], [[1.0]], [[0.0]]))


class TestPlantIO:
    def test_round_trip(self, tmp_path):
        plant = triple_integrator()
        doc = plant_to_dict(plant, T=0.5, m=4)
        path = tmp_path / "plant.json"
        import json

        path.write_text(json.dumps(doc))
        loaded, T, m = load_plant(str(path))
        assert T == 0.5 and m == 4
        np.testing.assert_array_equal(loaded.Ac, plant.Ac)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            load_plant({"Ac": [[0.0]], "Bc": [[1.0]], "Cc": [[1.0]], "Dc": [[0.0]]})

    def test_bad_dimensions(self):
        with pytest.raises(DimensionError):
            load_plant(
                {"Ac": [[0.0, 1.0]], "Bc": [[1.0]], "Cc": [[1.0]], "Dc": [[0.0]], "T": 1.0}
            )
