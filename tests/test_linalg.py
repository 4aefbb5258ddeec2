import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from liftguard.errors import DimensionError, ModelError, NumericError
from liftguard.linalg import dare_gain, eig, expm, rank_of, rank_svd, spectral_radius


class TestExpm:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        E = expm(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(E, np.diag([np.e, 1.0 / np.e]), rtol=1e-12)

    @pytest.mark.parametrize("t", [0.1, 1.0, 7.3])
    def test_nilpotent_closed_form(self, t):
        E = expm(np.array([[0.0, 1.0], [0.0, 0.0]]) * t)
        np.testing.assert_allclose(E, [[1.0, t], [0.0, 1.0]], rtol=0, atol=1e-14 * max(1, t))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            expm(np.ones((2, 3)))

    def test_overflow_rejected(self):
        from liftguard.errors import NumericError

        with pytest.raises(NumericError):
            expm(np.diag([1e6, 1e6]))

    def test_inverse_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            M = rng.standard_normal((n, n))
            M *= 5.0 / max(np.linalg.norm(M), 1e-12)
            E = expm(M) @ expm(-M)
            assert np.max(np.abs(E - np.eye(n))) <= 1e-9 * np.linalg.norm(expm(M))

    @settings(max_examples=25, deadline=None)
    @given(
        s=st.floats(0.0, 1.0),
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_semigroup(self, s, t, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((3, 3))
        left = expm((s + t) * M)
        right = expm(s * M) @ expm(t * M)
        assert np.max(np.abs(left - right)) <= 1e-9 * max(1.0, np.max(np.abs(left)))


class TestRank:
    def test_identity(self):
        assert rank_svd(np.eye(4)).rank == 4

    def test_outer_product(self):
        assert rank_svd([[1.0, 1.0], [1.0, 1.0]]).rank == 1

    def test_zero_matrix(self):
        assert rank_svd(np.zeros((3, 2))).rank == 0

    def test_random_full_rank_gram_oracle(self):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((5, 3))
        # oracle: a nonzero Gram determinant certifies full column rank
        assert abs(np.linalg.det(M.T @ M)) > 1e-12
        assert rank_svd(M).rank == 3

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            rank_svd(np.zeros((0, 3)))

    @pytest.mark.parametrize("stack", [np.zeros((0, 3, 3)), np.zeros((2, 0, 3))])
    def test_empty_stack_rejected(self, stack):
        with pytest.raises(DimensionError):
            rank_svd(stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_stack_rejected(self, bad):
        stack = np.ones((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = bad
        with pytest.raises(NumericError):
            rank_svd(stack)

    def test_tolerance_range_checked(self):
        with pytest.raises(ValueError):
            rank_svd(np.eye(2), rel_tol=1.5)

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
    def test_scale_range_checked(self, scale):
        with pytest.raises(ValueError):
            rank_svd(np.eye(2), scale=scale)

    @pytest.mark.parametrize("scale", [None, 1.0])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_stack_equals_per_matrix_calls(self, dtype, scale):
        rng = np.random.default_rng(19)
        stack = rng.standard_normal((6, 5, 4)).astype(dtype)
        if dtype is complex:
            stack += 1j * rng.standard_normal((6, 5, 4))
        stack[1, :, 3] = stack[1, :, 0] - stack[1, :, 2]  # rank 3
        stack[2] *= 1e-12  # below an absolute scale of 1
        stack[3] = 0.0
        results = rank_svd(stack, scale=scale)
        assert len(results) == len(stack)
        for M, r in zip(stack, results):
            one = rank_svd(M, scale=scale)
            assert r.rank == one.rank
            assert r.tolerance_used == one.tolerance_used
            np.testing.assert_array_equal(r.singular_values, one.singular_values)
        assert [r.rank for r in results][:4] == ([4, 3, 4, 0] if scale is None else [4, 3, 0, 0])

    @pytest.mark.parametrize("rel_tol", [1e-9, 1e-3])
    @pytest.mark.parametrize("scale", [None, 1.0])
    def test_rank_of_is_rank_svd_rule(self, rel_tol, scale):
        M = np.diag([1.0, 1e-2, 1e-6, 1e-12])
        s = rank_svd(M).singular_values
        r, one = rank_of(s, rel_tol, scale), rank_svd(M, rel_tol, scale)
        assert (r.rank, r.tolerance_used) == (one.rank, one.tolerance_used)
        assert rank_of(np.zeros(3), rel_tol, scale).rank == 0

    def test_scale_replaces_largest_singular_value(self):
        # relative to itself the matrix has rank 2; against scale 1 only
        # sigma = 1e-6 clears the threshold 1e-9
        M = np.diag([1e-6, 1e-12])
        assert rank_svd(M).rank == 2
        r = rank_svd(M, scale=1.0)
        assert r.rank == 1
        assert r.tolerance_used == 1e-9
        assert rank_svd(np.zeros((2, 3)), scale=1.0).rank == 0
        assert rank_svd(np.diag([1e-12, 1e-13]), scale=1.0).rank == 0

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            M = rng.standard_normal((4, 6))
            M[2] = M[0] + M[1]  # forced rank deficiency
            Q1, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            Q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            assert rank_svd(Q1 @ M @ Q2).rank == rank_svd(M).rank

    def test_gap_reported(self):
        r = rank_svd(np.diag([1.0, 1e-3, 1e-15]))
        assert r.rank == 2
        assert r.gap > 1e10
        assert r.singular_values[0] >= r.singular_values[1]


class TestEig:
    def test_diagonal(self):
        w = sorted(eig(np.diag([2.0, 0.5])), key=abs)
        np.testing.assert_allclose(w, [0.5, 2.0])

    def test_rotation(self):
        w = sorted(eig([[0.0, 1.0], [-1.0, 0.0]]), key=lambda z: z.imag)
        np.testing.assert_allclose(w, [-1j, 1j], atol=1e-12)

    def test_companion_quadratic_oracle(self):
        # roots of z^2 + 4z + 1 via the quadratic formula
        expected = sorted([-2.0 + np.sqrt(3.0), -2.0 - np.sqrt(3.0)])
        companion = np.array([[0.0, -1.0], [1.0, -4.0]])
        w = sorted(np.real(eig(companion)))
        np.testing.assert_allclose(w, expected, atol=1e-10)

    def test_eigenvalue_residual(self):
        # each eigenvalue makes M - w I singular to round-off
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 6))
        w = eig(M)
        assert w.shape == (6,)
        for wk in w:
            smallest = np.linalg.svd(M - wk * np.eye(6), compute_uv=False)[-1]
            assert smallest <= 1e-8 * np.linalg.norm(M)


class TestDareGain:
    def test_already_stable_scalar(self):
        F = dare_gain(np.array([[0.5]]), np.array([[1.0]]))
        assert abs(0.5 + F[0, 0]) < 1.0

    def test_scalar_hand_solution(self):
        # P solves P = 4P - 4P^2/(1+P) + 1, i.e. P^2 - 4P - 1 = 0, so
        # P = 2 + sqrt(5) and F = -2P/(1+P) = -(1+sqrt(5))/2.
        F = dare_gain(np.array([[2.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(F[0, 0], -(1.0 + np.sqrt(5.0)) / 2.0, rtol=1e-9)
        np.testing.assert_allclose(abs(2.0 + F[0, 0]), (3.0 - np.sqrt(5.0)) / 2.0, rtol=1e-9)

    def test_double_integrator_like(self):
        A = np.array([[1.0, 1.0], [0.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        F = dare_gain(A, B)
        assert spectral_radius(A + B @ F) < 1.0

    def test_random_stabilizable(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            A = rng.standard_normal((n, n))
            B = rng.standard_normal((n, max(1, n // 2)))
            F = dare_gain(A, B)
            assert spectral_radius(A + B @ F) < 1.0

    def test_unstabilizable_pair(self):
        with pytest.raises(ModelError):
            dare_gain(np.array([[2.0]]), np.array([[0.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            dare_gain(np.eye(2), np.ones((3, 1)))

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            dare_gain(np.eye(2), np.ones((2, 1)), R=np.array([[-1.0]]))

    def test_supplied_weight_is_checked(self):
        A, B = np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1.0]])
        for kwargs, message in (
            ({"Q": np.array([[1.0, 1.0], [0.0, 1.0]])}, "Q must be symmetric"),
            ({"Q": np.diag([1.0, -1.0])}, "Q must be positive semidefinite"),
            ({"R": np.array([[0.0]])}, "R must be positive definite"),
        ):
            with pytest.raises(ValueError, match=message):
                dare_gain(A, B, **kwargs)
        with pytest.raises(DimensionError):
            dare_gain(A, B, Q=np.eye(3))
        F = dare_gain(A, B, Q=np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert spectral_radius(A + B @ F) < 1.0

    def test_inaccurate_solution_rejected(self, monkeypatch):
        solve = scipy.linalg.solve_discrete_are
        monkeypatch.setattr(
            scipy.linalg, "solve_discrete_are", lambda *args: solve(*args) * (1.0 + 1e-4)
        )
        with pytest.raises(NumericError):
            dare_gain(np.array([[2.0]]), np.array([[1.0]]))
