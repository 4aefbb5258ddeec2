import numpy as np
import pytest

from liftguard import (
    DiscretePlant,
    build_lifted,
    classify_vulnerability,
    coprime_factorize,
    discretize,
    has_zero_at,
    multiplicity_at_one,
    poles,
    transmission_zeros,
)
from liftguard.errors import ModelError
from liftguard.model import StateSpace
from liftguard.zeros import pencil_matrix

from helpers import (
    assert_sets_close,
    double_integrator,
    random_discrete,
    triple_integrator,
    unstable_scalar,
)


def finite_zeros(report):
    return [r.z_value for r in report.zeros if r.z_value is not None]


def double_zero_at_one_plant():
    """SISO plant with transfer (z-1)^2 / z^2: a double zero on the boundary."""
    return DiscretePlant(
        A=[[0.0, 1.0], [0.0, 0.0]], B=[[-3.0], [1.0]], C=[[1.0, 1.0]], D=[[1.0]], period=1.0
    )


class TestKnownZeroLocations:
    @pytest.mark.parametrize("T", [0.25, 1.0, 3.0])
    def test_double_integrator_boundary_zero(self, T):
        # oracle: hold-equivalent transfer numerator is T^2 (z+1)/2
        report = transmission_zeros(discretize(double_integrator(), T))
        zs = finite_zeros(report)
        assert len(zs) == 1
        assert abs(zs[0] - (-1.0)) <= 1e-8
        assert report.zeros[0].classification == "boundary_simple"

    @pytest.mark.parametrize("T", [0.25, 1.0, 3.0])
    def test_triple_integrator_zeros(self, T):
        # oracle: numerator z^2 + 4z + 1 has roots -2 +/- sqrt(3)
        expected = [-2.0 - np.sqrt(3.0), -2.0 + np.sqrt(3.0)]
        report = transmission_zeros(discretize(triple_integrator(), T))
        assert_sets_close(finite_zeros(report), expected, 1e-8, "triple integrator zeros")
        by_class = {r.classification for r in report.zeros if r.z_value is not None}
        assert by_class == {"nmp_strict", "minimum_phase"}

    def test_scalar_biproper(self):
        sys = DiscretePlant(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[1.0]], period=1.0)
        report = transmission_zeros(sys)
        (rec,) = report.zeros
        assert abs(rec.z_value - (-0.5)) <= 1e-10
        assert abs(rec.lambda_value - (-2.0)) <= 1e-9
        assert rec.classification == "minimum_phase"
        assert report.n_zeros_at_lambda_zero == 0

    def test_relative_degree_counted_separately(self):
        report = transmission_zeros(discretize(double_integrator(), 1.0))
        assert report.n_zeros_at_lambda_zero == 1
        at0 = [r for r in report.zeros if r.classification == "at_lambda_zero"]
        assert len(at0) == 1
        assert at0[0].z_value is None
        assert at0[0].lambda_value == 0j

    def test_zero_at_origin_maps_to_lambda_infinity(self):
        # transfer z / ((z-0.5)(z-0.25)): numerator root exactly at the origin
        sys = DiscretePlant(
            A=[[0.75, -0.125], [1.0, 0.0]], B=[[1.0], [0.0]], C=[[1.0, 0.0]], D=[[0.0]], period=1.0
        )
        report = transmission_zeros(sys)
        zs = finite_zeros(report)
        assert len(zs) == 1 and abs(zs[0]) <= 1e-9
        (rec,) = [r for r in report.zeros if r.z_value is not None]
        assert rec.lambda_value is None  # "lambda-infinity"

    def test_residuals_certify_rank_drop(self):
        report = transmission_zeros(discretize(triple_integrator(), 1.0))
        for rec in report.zeros:
            if rec.z_value is None:
                continue
            M = pencil_matrix(discretize(triple_integrator(), 1.0), rec.z_value)
            assert rec.residual <= 1e-6 * np.linalg.norm(M, 2)

    def test_lambda_z_reciprocal(self):
        report = transmission_zeros(discretize(triple_integrator(), 1.0))
        for rec in report.zeros:
            if rec.z_value is not None and rec.z_value != 0:
                assert abs(rec.lambda_value * rec.z_value - 1.0) <= 4 * np.finfo(float).eps


class TestPoles:
    def test_integrator_boundary(self):
        plant = double_integrator()
        recs = poles(discretize(plant, 1.0))
        assert all(p.classification == "boundary" for p in recs)

    def test_unstable_scalar(self):
        recs = poles(discretize(unstable_scalar(), 1.0))
        assert len(recs) == 1
        assert abs(recs[0].value - 2.0) <= 1e-12
        assert recs[0].classification == "unstable"

    def test_stable_scalar(self):
        from liftguard import ContinuousPlant

        plant = ContinuousPlant(Ac=[[-1.0]], Bc=[[1.0]], Cc=[[1.0]], Dc=[[0.0]])
        recs = poles(discretize(plant, 1.0))
        assert abs(recs[0].value - np.exp(-1.0)) <= 1e-12
        assert recs[0].classification == "stable"


class TestSquaringAndInvariance:
    def test_similarity_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            sys = random_discrete(rng)
            base = finite_zeros(transmission_zeros(sys))
            S = rng.standard_normal((sys.n, sys.n)) + 2.0 * np.eye(sys.n)
            sim = DiscretePlant(
                A=S @ sys.A @ np.linalg.inv(S),
                B=S @ sys.B,
                C=sys.C @ np.linalg.inv(S),
                D=sys.D,
                period=1.0,
            )
            assert_sets_close(
                finite_zeros(transmission_zeros(sim)), base, 1e-6, "similarity"
            )

    def test_tall_constructed_zero_found_and_scan_confirmed(self):
        # plant built to have a zero exactly at z0; the squaring method must
        # find it and every reported zero must survive a local rank scan.
        rng = np.random.default_rng(101)
        for _ in range(12):
            n, n_y = 3, 2
            z0 = complex(rng.uniform(-1.6, 1.6), 0.0)
            A = rng.standard_normal((n, n)) * 0.6
            C = rng.standard_normal((n_y, n))
            xi = rng.standard_normal(n)
            B = ((z0.real * np.eye(n) - A) @ xi).reshape(-1, 1)
            D = (-C @ xi).reshape(-1, 1)
            sys = DiscretePlant(A=A, B=B, C=C, D=D, period=1.0)
            from liftguard import check_minimal

            if not check_minimal(sys).minimal:
                continue
            report = transmission_zeros(sys)
            zs = finite_zeros(report)
            assert any(abs(z - z0) <= 1e-6 for z in zs), f"constructed zero {z0} missed: {zs}"
            # slow oracle: the smallest pencil singular value dips at each zero
            for z in zs:
                center, _ = _min_sigma(sys, z)
                for delta in (1e-3, 1e-3j, -1e-3, -1e-3j):
                    around, _ = _min_sigma(sys, z + delta)
                    assert center < around

    def test_fat_system_squares_down_input_side(self):
        rng = np.random.default_rng(55)
        sys = random_discrete(rng, n=3, n_u=2, n_y=1)
        report = transmission_zeros(sys)
        assert report.system_shape == "fat"
        for rec in report.zeros:
            if rec.z_value is not None:
                assert has_zero_at(sys, rec.z_value)


def _scalar_pencil(sys, z):
    """The pencil at one point, built entry by entry in the scalar form."""
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n = A.shape[0]
    z = complex(z)
    if abs(z) <= 1.0:
        top, bot = np.hstack([z * np.eye(n) - A, -B]), np.hstack([C, D])
    else:
        w = 1.0 / z
        top, bot = np.hstack([np.eye(n) - w * A, -B]), np.hstack([w * C, D])
    return np.vstack([top, bot]).astype(complex)


class TestPencilMatrix:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2)])
    def test_array_of_points_equals_stacked_scalar_pencils(self, shape):
        rng = np.random.default_rng(61)
        sys = random_discrete(rng, n=3, n_u=shape[0], n_y=shape[1])
        pts = np.concatenate([
            [0.0, 1.0, -1.0, 1j, 0.3 - 0.4j, 0.6 + 0.8j, 1.0 + 1e-12, 2.0, -7.5 + 3.1j],
            np.exp(1j * rng.uniform(0, 2 * np.pi, 40)) * rng.uniform(0.05, 20.0, 40),
        ])
        stacked = pencil_matrix(sys, pts)
        assert stacked.shape == (len(pts), 3 + shape[1], 3 + shape[0])
        np.testing.assert_array_equal(stacked, np.stack([pencil_matrix(sys, z) for z in pts]))
        np.testing.assert_array_equal(stacked, np.stack([_scalar_pencil(sys, z) for z in pts]))
        assert pencil_matrix(sys, []).shape == (0, 3 + shape[1], 3 + shape[0])


def _min_sigma(sys, z):
    M = pencil_matrix(sys, z)
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1], s[0]


class TestMultiplicityAtOne:
    def test_lifted_triple_integrator_not_multiple(self):
        L = build_lifted(triple_integrator(), 1.0, 4)
        factors = coprime_factorize(L)
        assert multiplicity_at_one(factors.Nl) in ("not_a_zero", "simple")

    def test_continuous_zero_at_origin_gives_simple(self):
        # transfer s/((s+1)(s+2)): blocking zero at s=0 maps to frequency one
        from liftguard import ContinuousPlant

        plant = ContinuousPlant(
            Ac=[[0.0, 1.0], [-2.0, -3.0]], Bc=[[0.0], [1.0]], Cc=[[0.0, 1.0]], Dc=[[0.0]]
        )
        L = build_lifted(plant, 1.0, 3)
        factors = coprime_factorize(L)
        assert multiplicity_at_one(factors.Nl) == "simple"

    def test_double_zero_at_one_is_multiple(self):
        # oracle: the numerator polynomial in the reciprocal variable is
        # (1 - w)^2 = 1 - 2w + w^2, whose roots are both at 1.
        sys = double_zero_at_one_plant()
        np.testing.assert_allclose(np.roots([1.0, -2.0, 1.0]), [1.0, 1.0])
        # the plant is stable, so it serves as its own stable numerator (H = 0)
        assert multiplicity_at_one(StateSpace(sys.A, sys.B, sys.C, sys.D)) == "multiple"

    def test_unstable_state_matrix_rejected(self):
        with pytest.raises(ModelError):
            multiplicity_at_one(StateSpace([[1.5]], [[1.0]], [[1.0]], [[0.0]]))


class TestClassifyVulnerability:
    def test_triple_integrator_actuator_yes(self):
        report = transmission_zeros(discretize(triple_integrator(), 1.0))
        verdict = classify_vulnerability(report)
        assert verdict.actuator == "yes"
        assert verdict.actuator_mechanism == "nmp_zero"
        assert abs(verdict.actuator_witness.lambda_value - (-0.2679491924311227)) <= 1e-6

    def test_double_integrator_actuator_no(self):
        # only a simple boundary zero: no unbounded stealthy plan exists
        report = transmission_zeros(discretize(double_integrator(), 1.0))
        verdict = classify_vulnerability(report)
        assert verdict.actuator == "no"

    def test_unstable_plant_sensor_yes(self):
        report = transmission_zeros(discretize(unstable_scalar(), 1.0))
        verdict = classify_vulnerability(report)
        assert verdict.sensor == "yes"
        assert abs(verdict.sensor_witness.value - 2.0) <= 1e-9

    def test_fat_plant_always_actuator_yes(self):
        rng = np.random.default_rng(77)
        sys = random_discrete(rng, n=3, n_u=2, n_y=1)
        verdict = classify_vulnerability(transmission_zeros(sys))
        assert verdict.actuator == "yes"
        assert verdict.actuator_mechanism == "fat_plant"

    def test_double_zero_at_one_decided_by_null_chain(self):
        sys = double_zero_at_one_plant()
        report = transmission_zeros(sys)
        multi = [r for r in report.zeros if r.classification == "boundary_multiple"]
        assert len(multi) == 2
        verdict = classify_vulnerability(
            report, left_numerator=StateSpace(sys.A, sys.B, sys.C, sys.D)
        )
        assert verdict.actuator == "yes"
        assert verdict.actuator_mechanism == "multiple_zero_at_one"
        # without the numerator the verdict must stay undecided, not guess
        assert classify_vulnerability(report).actuator == "undecided"

    def test_boundary_pole_simple_sensor_no(self):
        from liftguard import ContinuousPlant

        integ = ContinuousPlant(Ac=[[0.0]], Bc=[[1.0]], Cc=[[1.0]], Dc=[[0.0]])
        verdict = classify_vulnerability(transmission_zeros(discretize(integ, 1.0)))
        assert verdict.sensor == "no"


class TestNonMinimalRejected:
    def test_model_error(self):
        sys = DiscretePlant(
            A=[[0.5, 0.0], [0.0, 0.25]], B=[[1.0], [0.0]], C=[[1.0, 0.0]], D=[[0.0]], period=1.0
        )
        with pytest.raises(ModelError):
            transmission_zeros(sys)


class TestMultisetMatcher:
    @pytest.mark.parametrize(
        "actual, expected",
        [([np.nan], [0.5]), ([0.5, np.nan], [0.5, 0.5]), ([complex(np.nan, 0.0)], [0.5])],
    )
    def test_nan_matches_nothing(self, actual, expected):
        with pytest.raises(AssertionError):
            assert_sets_close(actual, expected, 1e-6)

    def test_close_values_match(self):
        assert_sets_close([0.5 + 1e-9, -2.0], [-2.0, 0.5], 1e-6)
