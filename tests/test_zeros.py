import numpy as np
import pytest

from liftguard import (
    ContinuousPlant,
    DiscretePlant,
    build_lifted,
    check_assumptions,
    classify_vulnerability,
    coprime_factorize,
    discretize,
    poles,
    transmission_zeros,
    zero_values,
)
from liftguard import linalg
from liftguard.errors import ModelError, NumericError
from liftguard.model import load_plant
from liftguard.zeros import _multiple_at, _null_directions, pencil_matrix

from helpers import (
    assert_sets_close,
    bench_module,
    double_integrator,
    has_zero_at,
    light_oscillator,
    multiplicity_at_one,
    random_continuous,
    random_discrete,
    reference_confirmed_zeros,
    reference_rank_systems,
    reference_sensor_verdict,
    sampled,
    stable_two_state,
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
        plant = ContinuousPlant(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
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


def zero_at_origin_plant():
    """Transfer s/((s+1)(s+2)): its blocking zero at s = 0 maps to
    frequency one."""
    return ContinuousPlant(
        A=[[0.0, 1.0], [-2.0, -3.0]], B=[[0.0], [1.0]], C=[[0.0, 1.0]], D=[[0.0]]
    )


class TestMultiplicityAtOne:
    def test_lifted_triple_integrator_not_multiple(self):
        L = build_lifted(triple_integrator(), 1.0, 4)
        assert _multiple_at(L, 1.0) in ("not_a_zero", "simple")

    def test_continuous_zero_at_origin_gives_simple(self):
        assert _multiple_at(build_lifted(zero_at_origin_plant(), 1.0, 3), 1.0) == "simple"

    def test_double_zero_at_one_is_multiple(self):
        # oracle: the numerator polynomial in the reciprocal variable is
        # (1 - w)^2 = 1 - 2w + w^2, whose roots are both at 1.
        np.testing.assert_allclose(np.roots([1.0, -2.0, 1.0]), [1.0, 1.0])
        assert _multiple_at(double_zero_at_one_plant(), 1.0) == "multiple"


def _population(shape):
    """The first six benchmark population plants of ``shape``, each sampled
    at its drawn period and lifted at its smallest admissible m."""
    random_plant = bench_module("workloads").random_plant
    rng = np.random.default_rng([0, 7])
    out = []
    for _ in range(6):
        doc = random_plant(rng, shape)
        plant = ContinuousPlant(doc["Ac"], doc["Bc"], doc["Cc"], doc["Dc"])
        out += [discretize(plant, doc["T"]), build_lifted(plant, doc["T"])]
    return out


_AGREEMENT_CASES = {
    "double_zero_at_one": (lambda: [double_zero_at_one_plant()], "multiple"),
    "lifted_zero_at_origin": (lambda: [build_lifted(zero_at_origin_plant(), 1.0, 3)], "simple"),
    # transfer (1 - z)/z on both channels: two independent simple zeros
    "two_zeros_at_one": (
        lambda: [DiscretePlant(np.zeros((2, 2)), np.eye(2), np.eye(2), -np.eye(2), period=1.0)],
        "simple",
    ),
    "population_tall": (lambda: _population("tall"), None),
    "population_square": (lambda: _population("square"), None),
    "population_fat": (lambda: _population("fat"), None),
}


@pytest.mark.parametrize("case", sorted(_AGREEMENT_CASES))
def test_pencil_chain_test_agrees_with_left_factor_oracle(case):
    # The left numerator's pencil is the system pencil times the constant
    # unimodular [[I, -H], [0, I]], so both see the same null chains.
    make, expected = _AGREEMENT_CASES[case]
    for sys in make():
        got = _multiple_at(sys, 1.0)
        assert got == multiplicity_at_one(coprime_factorize(sys).Nl)
        assert expected in (None, got)


def test_population_fat_includes_lifted_zero_pair_at_one():
    # the case the agreement test must cover: lifted fat plants whose two
    # zeros at one are labelled boundary_multiple and decided simple
    pairs = 0
    for sys in _population("fat")[1::2]:
        at_one = [r for r in transmission_zeros(sys).zeros
                  if r.z_value is not None and abs(r.z_value - 1.0) <= 1e-6]
        if [r.classification for r in at_one] == ["boundary_multiple"] * 2:
            assert _multiple_at(sys, 1.0) == "simple"
            pairs += 1
    assert pairs >= 2


class TestClassifyVulnerability:
    def test_triple_integrator_actuator_yes(self):
        P = discretize(triple_integrator(), 1.0)
        verdict = classify_vulnerability(transmission_zeros(P), P)
        assert verdict.actuator == "yes"
        assert verdict.actuator_mechanism == "nmp_zero"
        assert abs(verdict.actuator_witness.lambda_value - (-0.2679491924311227)) <= 1e-6

    def test_double_integrator_actuator_no(self):
        # only a simple boundary zero: no unbounded stealthy plan exists
        P = discretize(double_integrator(), 1.0)
        verdict = classify_vulnerability(transmission_zeros(P), P)
        assert verdict.actuator == "no"

    def test_unstable_plant_sensor_yes(self):
        P = discretize(unstable_scalar(), 1.0)
        verdict = classify_vulnerability(transmission_zeros(P), P)
        assert verdict.sensor == "yes"
        assert abs(verdict.sensor_witness.z_value - 2.0) <= 1e-9

    def test_fat_plant_always_actuator_yes(self):
        rng = np.random.default_rng(77)
        sys = random_discrete(rng, n=3, n_u=2, n_y=1)
        verdict = classify_vulnerability(transmission_zeros(sys), sys)
        assert verdict.actuator == "yes"
        assert verdict.actuator_mechanism == "fat_plant"

    def test_double_zero_at_one_decided_by_null_chain(self):
        sys = double_zero_at_one_plant()
        report = transmission_zeros(sys)
        multi = [r for r in report.zeros if r.classification == "boundary_multiple"]
        assert len(multi) == 2
        verdict = classify_vulnerability(report, system=sys)
        assert verdict.actuator == "yes"
        assert verdict.actuator_mechanism == "multiple_zero_at_one"

    def test_boundary_pole_simple_sensor_no(self):
        integ = ContinuousPlant(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        P = discretize(integ, 1.0)
        verdict = classify_vulnerability(transmission_zeros(P), P)
        assert verdict.sensor == "no"


def _sensor_rule_agrees_with_poles(sys):
    """The sensor verdict and witness modulus (within 1e-9 relative) of
    ``classify_vulnerability`` on ``sys`` are those of its eigenvalues."""
    verdict = classify_vulnerability(transmission_zeros(sys), sys)
    want, modulus = reference_sensor_verdict(sys)
    assert verdict.sensor == want
    if modulus is None:
        assert verdict.sensor_witness is None
    else:
        assert abs(abs(verdict.sensor_witness.z_value) - modulus) <= 1e-9 * modulus
    return want


_FIXED_PLANTS = {
    "triple_integrator": triple_integrator,
    "double_integrator": double_integrator,
    "unstable_scalar": unstable_scalar,
    "light_oscillator": light_oscillator,
    "stable_two_state": stable_two_state,
}


class TestSensorRuleAgainstPoles:
    """The sensor set's pencil ``(A, 0, C, I)`` gives the verdict the
    eigenvalues of A give."""

    @pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
    @pytest.mark.parametrize("plant", sorted(_FIXED_PLANTS))
    def test_fixed_plants(self, plant, mode):
        for T in (1.0, 0.5, 0.1, 0.01, 1e-3):
            _sensor_rule_agrees_with_poles(sampled(_FIXED_PLANTS[plant](), T, mode))

    @pytest.mark.parametrize("shape", ["tall", "square", "fat"])
    def test_population(self, shape):
        for sys in _population(shape):
            _sensor_rule_agrees_with_poles(sys)

    @pytest.mark.parametrize("mode", ["single_rate", "dual_rate"])
    @pytest.mark.parametrize("T", [27.0, 40.0, 60.0])
    def test_slowly_sampled_pole_keeps_its_verdicts(self, T, mode):
        # the pole at 2**T dwarfs B and C: the equilibrated probes keep the
        # normal rank full, and past the z-infinity cutoff the sensor
        # pencil, of full rank at z-infinity, keeps its zero
        sys = sampled(unstable_scalar(), T, mode)
        report = transmission_zeros(sys)
        assert report.normal_rank == sys.n + sys.n_u
        assert classify_vulnerability(report, sys).actuator == "no"
        assert _sensor_rule_agrees_with_poles(sys) == "yes"


class TestNonMinimalRejected:
    def test_model_error(self):
        sys = DiscretePlant(
            A=[[0.5, 0.0], [0.0, 0.25]], B=[[1.0], [0.0]], C=[[1.0, 0.0]], D=[[0.0]], period=1.0
        )
        with pytest.raises(ModelError):
            transmission_zeros(sys)


# (n, n_u, n_y) per shape; the square plant has two sampling zeros.
_SHAPES = {"tall": (3, 1, 2), "square": (3, 1, 1), "fat": (3, 2, 1)}


def _equivalence_system(shape, T, mode):
    """A sampled random plant of ``shape`` at ``T``: the ZOH plant, the
    lifted one with the smallest admissible m, or (``lifted_m2``) the
    fat plant lifted at m = 2, whose one-row observability stack C is rank
    deficient, so it has no small pencil."""
    n, n_u, n_y = _SHAPES[shape]
    plant = random_continuous(np.random.default_rng([n, n_u, n_y, round(1 / T)]), n, n_u, n_y)
    return build_lifted(plant, T, m=2) if mode == "lifted_m2" else sampled(plant, T, mode)


_EQUIVALENCE_CASES = [
    (shape, T, mode)
    for shape in _SHAPES
    for T in (1.0, 0.1, 0.01)
    for mode in ("single_rate", "dual_rate")
] + [("fat", T, "lifted_m2") for T in (1.0, 0.1, 0.01)]


class TestStackedConfirmation:
    """One stacked SVD on the deciding pencil finds the normal rank and the
    zeros of the two-pass confirmation on every pencil, kept as an oracle in
    ``tests/helpers.py``."""

    @pytest.mark.parametrize("shape, T, mode", _EQUIVALENCE_CASES)
    def test_matches_two_pass_oracle(self, shape, T, mode):
        sys = _equivalence_system(shape, T, mode)
        rank, found = reference_confirmed_zeros(sys)
        report = transmission_zeros(sys)
        assert report.normal_rank == rank
        finite = [r for r in report.zeros if r.z_value is not None]
        assert [r.z_value for r in finite] == [z for z, _ in found]
        # the oracle's residual is the last pencil's, the lifted one; a
        # lifted zero's residual is the deciding small pencil's
        deciding = reference_rank_systems(sys)[0]
        sigma = [linalg.rank_svd(pencil_matrix(deciding, r.z_value)).singular_values[rank - 1]
                 for r in finite]
        assert [r.residual for r in finite] == sigma
        assert zero_values(sys) == [z for z, _ in found]

    @pytest.mark.parametrize("T", [1.0, 0.1, 0.01])
    def test_lifted_m2_has_no_small_pencil_and_keeps_its_zeros(self, T):
        L = _equivalence_system("fat", T, "lifted_m2")
        assert not check_assumptions(L).obs_full_rank
        assert len(zero_values(L)) == 2

    def test_cases_confirm_zeros_of_every_rank_system_count(self):
        # Zeros confirmed through one pencil and through two (the small
        # lifted pencil first), so the equivalence is not vacuous.
        confirmed = {1: 0, 2: 0}
        for case in _EQUIVALENCE_CASES:
            sys = _equivalence_system(*case)
            confirmed[len(reference_rank_systems(sys))] += len(reference_confirmed_zeros(sys)[1])
        assert confirmed[1] >= 6 and confirmed[2] >= 3

    def test_zero_values_rejects_non_minimal_as_transmission_zeros_does(self):
        sys = DiscretePlant(
            A=[[0.5, 0.0], [0.0, 0.25]], B=[[1.0], [0.0]], C=[[1.0, 0.0]], D=[[0.0]], period=1.0
        )
        with pytest.raises(ModelError) as full:
            transmission_zeros(sys)
        with pytest.raises(ModelError) as values:
            zero_values(sys)
        assert str(values.value) == str(full.value)


class TestClusterDirections:
    """The records of a coincidence cluster take their directions from the
    null space at one point of the cluster."""

    def test_pair_at_one_spans_its_null_space(self):
        # plant-population seed 1 iteration 10: a fat plant whose lifted
        # system has two independent zeros at one; each record's own last
        # singular vector left the two directions nearly parallel (singular
        # value ratio 0.0095)
        doc = bench_module("workloads")._population_plants(1, 10)["fat"]
        plant, T, _ = load_plant(doc)
        report = transmission_zeros(build_lifted(plant, T, 6))
        pair = [r.input_direction for r in report.zeros if r.classification == "boundary_multiple"]
        assert len(pair) == 2
        s = np.linalg.svd(np.array(pair), compute_uv=False)
        assert s[-1] >= 0.5 * s[0]

    def test_null_chain_repeats_its_null_vector(self):
        # channel 1 is (z - 0.5)^2 / z^2, channel 2 a unit gain: a double zero
        # at 0.5 with one null vector, computed as two points 1e-8 apart
        sys = DiscretePlant(
            A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0, 0.0], [1.0, 0.0]],
            C=[[0.25, -1.0], [0.0, 0.0]], D=np.eye(2), period=1.0,
        )
        zs = finite_zeros(transmission_zeros(sys))
        assert len(zs) == 2 and abs(zs[0] - zs[1]) <= 1e-6
        for z, (xi, nu) in zip(zs, _null_directions(sys, zs)):
            assert np.linalg.norm(pencil_matrix(sys, z) @ np.concatenate([xi, nu])) <= 1e-6


class TestNonFinitePoint:
    @pytest.mark.parametrize("z", [np.nan, complex(0.5, np.nan)])
    def test_numeric_error(self, z):
        with pytest.raises(NumericError):
            has_zero_at(discretize(triple_integrator(), 1.0), z)


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
