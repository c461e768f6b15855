import numpy as np
import pytest

from groupeffect import linalg
from groupeffect.errors import DimensionMismatchError, RankDeficientError

from conftest import cramer_least_squares
from oracles import (
    NonSquareError,
    NotPositiveDefiniteError,
    sym_inverse_2x2,
    sym_inverse_2x2_lower_right,
    trace,
)


class TestQrLeastSquares:
    def test_identity_design(self):
        x = linalg.qr_least_squares(np.eye(2), [3.0, 5.0])
        np.testing.assert_allclose(x, [3.0, 5.0])

    def test_exact_collinearity_raises(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])  # second column equals first
        with pytest.raises(RankDeficientError) as err:
            linalg.qr_least_squares(a, [1.0, 2.0])
        assert err.value.column == 1

    def test_line_fit_matches_hand_solution(self):
        # normal equations solved by hand: A'A=[[3,6],[6,14]], A'b=[7,17]
        a = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
        x = linalg.qr_least_squares(a, [1.0, 2.0, 4.0])
        np.testing.assert_allclose(x, [-2.0 / 3.0, 1.5], rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.qr_least_squares(np.eye(3), [1.0, 2.0])

    def test_more_columns_than_rows(self):
        with pytest.raises(RankDeficientError):
            linalg.qr_least_squares(np.ones((2, 3)), [1.0, 2.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            linalg.qr_least_squares(np.array([[1.0, np.nan], [0.0, 1.0]]), [1.0, 2.0])
        with pytest.raises(ValueError):
            linalg.qr_least_squares(np.eye(2), [np.inf, 0.0])

    def test_matches_cramer_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(2, 4))
            a = rng.standard_normal((n, k))
            b = rng.standard_normal(n)
            x = linalg.qr_least_squares(a, b)
            expected = cramer_least_squares(a, b)
            np.testing.assert_allclose(x, expected, rtol=1e-9, atol=1e-12)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(6, 60))
            k = int(rng.integers(1, 6))
            a = rng.standard_normal((n, k))
            b = rng.standard_normal(n)
            x = linalg.qr_least_squares(a, b)
            resid = b - a @ x
            bound = 1e-8 * np.max(np.abs(a.T @ b))
            assert np.max(np.abs(a.T @ resid)) < bound


class TestProjector:
    def test_ones_vector_gives_averaging_matrix(self):
        p = linalg.projector(np.ones((4, 1)))
        np.testing.assert_allclose(p, np.full((4, 4), 0.25), atol=1e-14)

    def test_group_design_complement_is_block_centering(self):
        # intercept + dummy with two rows per group: I - P has per-group
        # centering blocks I_2 - ones/2 on the diagonal
        x1 = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        m = np.eye(4) - linalg.projector(x1)
        block = np.eye(2) - np.full((2, 2), 0.5)
        expected = np.zeros((4, 4))
        expected[:2, :2] = block
        expected[2:, 2:] = block
        np.testing.assert_allclose(m, expected, atol=1e-12)

    def test_full_rank_square_gives_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        np.testing.assert_allclose(linalg.projector(a), np.eye(5), atol=1e-10)

    def test_symmetry_idempotency_and_range(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            n = int(rng.integers(4, 50))
            k = int(rng.integers(1, min(n, 8)))
            a = rng.standard_normal((n, k))
            p = linalg.projector(a)
            assert np.max(np.abs(p @ p - p)) < 1e-10
            assert np.max(np.abs(p.T - p)) < 1e-12
            assert np.max(np.abs(p @ a - a)) < 1e-9

    def test_rank_deficient_raises(self):
        a = np.column_stack([np.ones(5), np.ones(5)])
        with pytest.raises(RankDeficientError):
            linalg.projector(a)


class TestSymInverse2x2:
    def test_diagonal(self):
        assert sym_inverse_2x2_lower_right(np.diag([4.0, 2.0])) == pytest.approx(0.5)

    def test_group_design_without_covariates(self):
        # X1'X1 for group sizes (3, 6): [[9, 6], [6, 6]]; the lower-right of
        # the inverse is (n1+n2)/(n1*n2) = 0.5
        s = np.array([[9.0, 6.0], [6.0, 6.0]])
        assert sym_inverse_2x2_lower_right(s) == pytest.approx(0.5, rel=1e-12)

    def test_student_data_scaled_covariance(self):
        inv = np.array([[0.019062813, -0.001591796],
                        [-0.001591796, 0.006438624]])
        s = np.linalg.inv(inv)
        assert sym_inverse_2x2_lower_right(s) == pytest.approx(
            0.006438624, rel=1e-6
        )

    def test_full_inverse_matches_numpy(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            b = rng.standard_normal((2, 2))
            s = b @ b.T + 2 * np.eye(2)
            np.testing.assert_allclose(
                sym_inverse_2x2(s), np.linalg.inv(s), rtol=1e-10
            )

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            sym_inverse_2x2_lower_right(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            sym_inverse_2x2_lower_right(np.array([[-1.0, 0.0], [0.0, 2.0]]))

    def test_wrong_shape(self):
        with pytest.raises(DimensionMismatchError):
            sym_inverse_2x2_lower_right(np.eye(3))


class TestTrace:
    def test_identity(self):
        assert trace(np.eye(5)) == 5.0

    def test_nonsquare_raises(self):
        with pytest.raises(NonSquareError):
            trace(np.ones((3, 2)))

    def test_group_annihilator_trace(self):
        # per-group centering loses one degree of freedom per group
        n1, n2 = 3, 4
        x1 = np.column_stack([np.ones(n1 + n2), np.r_[np.zeros(n1), np.ones(n2)]])
        m1 = np.eye(n1 + n2) - linalg.projector(x1)
        assert trace(m1) == pytest.approx(n1 + n2 - 2, abs=1e-12)

    def test_residual_quadratic_matrix_trace(self):
        # L from the two-block design, built from raw formulas: trace equals
        # n - 2 - w
        rng = np.random.default_rng(41)
        n, w = 8, 2
        x1 = np.column_stack([np.ones(n), np.r_[np.zeros(4), np.ones(4)]])
        x2 = rng.standard_normal((n, w))
        m1 = np.eye(n) - x1 @ np.linalg.inv(x1.T @ x1) @ x1.T
        core = m1 @ x2 @ np.linalg.inv(x2.T @ m1 @ x2) @ x2.T @ m1
        ell = m1 - core
        assert trace(ell) == pytest.approx(n - 2 - w, abs=1e-9)
