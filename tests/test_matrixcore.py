import numpy as np
import pytest

from nistab.errors import DimensionError, NonSymmetricError, NotPSDError
from nistab.matrixcore import (
    DefinitenessKind,
    classify_definiteness,
    full_rank_factor,
    nullspace_contained,
    numerical_rank,
    psd_sqrt,
    symmetrize,
)

N2_PAPER = np.array([[0.0, 0.0], [0.0, -0.182252]])


class TestClassifyDefiniteness:
    def test_identity_pd(self):
        d = classify_definiteness(np.eye(2), tol=1e-9)
        assert d.kind is DefinitenessKind.POSITIVE_DEFINITE
        assert d.is_psd and d.is_pd

    def test_zero_matrix(self):
        d = classify_definiteness(np.zeros((3, 3)), tol=1e-9)
        assert d.kind is DefinitenessKind.ZERO
        assert d.is_psd and d.is_nsd

    def test_case_study_reduction_is_nsd(self):
        d = classify_definiteness(N2_PAPER, tol=1e-6)
        assert d.kind is DefinitenessKind.NEGATIVE_SEMIDEFINITE
        assert d.min_eig == pytest.approx(-0.182252, abs=1e-12)

    def test_indefinite(self):
        d = classify_definiteness(np.diag([1.0, -1.0]))
        assert d.kind is DefinitenessKind.INDEFINITE

    def test_negation_maps_kinds(self, rng):
        mapping = {
            DefinitenessKind.POSITIVE_DEFINITE: DefinitenessKind.NEGATIVE_DEFINITE,
            DefinitenessKind.POSITIVE_SEMIDEFINITE: DefinitenessKind.NEGATIVE_SEMIDEFINITE,
            DefinitenessKind.NEGATIVE_DEFINITE: DefinitenessKind.POSITIVE_DEFINITE,
            DefinitenessKind.NEGATIVE_SEMIDEFINITE: DefinitenessKind.POSITIVE_SEMIDEFINITE,
            DefinitenessKind.INDEFINITE: DefinitenessKind.INDEFINITE,
            DefinitenessKind.ZERO: DefinitenessKind.ZERO,
        }
        for _ in range(30):
            m = rng.integers(1, 5)
            W = rng.normal(size=(m, m))
            M = 0.5 * (W + W.T)
            if rng.random() < 0.3:
                v = rng.normal(size=(m, 1))
                M = v @ v.T * np.sign(rng.normal())
            d = classify_definiteness(M)
            dn = classify_definiteness(-M)
            assert dn.kind is mapping[d.kind]

    def test_asymmetric_rejected(self):
        with pytest.raises(NonSymmetricError):
            classify_definiteness(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionError):
            classify_definiteness(np.zeros((2, 3)))


class TestPsdSqrt:
    def test_diagonal(self):
        S = psd_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(S, np.diag([2.0, 3.0]), atol=1e-12)

    def test_case_study_block(self):
        # sqrt of -N2: the only nonzero entry is sqrt(0.182252)
        S = psd_sqrt(-N2_PAPER)
        np.testing.assert_allclose(
            S, [[0.0, 0.0], [0.0, 0.42691],], atol=5e-6)
        np.testing.assert_allclose(S @ S, -N2_PAPER, atol=1e-14)

    def test_zero(self):
        np.testing.assert_array_equal(psd_sqrt(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_not_psd(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_square_reconstructs(self, rng):
        for _ in range(25):
            m = rng.integers(1, 6)
            W = rng.normal(size=(m, m + 1))
            M = W @ W.T
            S = psd_sqrt(M)
            assert np.linalg.norm(S @ S - M) <= 1e-10 * max(1.0, np.linalg.norm(M))
            np.testing.assert_allclose(S, S.T, atol=1e-12 * max(1, np.linalg.norm(M)))


class TestFullRankFactor:
    def test_case_study_g2(self):
        f = full_rank_factor(np.array([[0.14, 0.0], [0.0, 0.0]]))
        assert f.rank == 1
        np.testing.assert_allclose(f.J, [[np.sqrt(0.14)], [0.0]], atol=1e-12)
        # the benchmark prints 0.3751 for this factor; consistent to 1e-2
        assert abs(f.J[0, 0] - 0.3751) < 1e-2

    def test_identity(self):
        f = full_rank_factor(np.eye(2))
        assert f.rank == 2
        np.testing.assert_allclose(f.J @ f.J.T, np.eye(2), atol=1e-12)

    def test_rank_one_reconstruction(self, rng):
        for _ in range(20):
            v = rng.normal(size=(4, 1))
            M = v @ v.T
            f = full_rank_factor(M)
            assert f.rank == 1
            assert np.linalg.norm(f.J @ f.J.T - M) <= 1e-12 * np.linalg.norm(M)

    def test_rank_matches_numerical_rank(self, rng):
        for _ in range(20):
            m, r = rng.integers(2, 6), rng.integers(1, 3)
            W = rng.normal(size=(m, r))
            M = W @ W.T
            f = full_rank_factor(M)
            assert f.rank == numerical_rank(M)
            assert f.residual <= 1e-10 * max(1.0, np.linalg.norm(M))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            full_rank_factor(np.diag([1.0, -0.5]))


def test_numerical_rank_of_empty_and_zero_matrices():
    assert numerical_rank(np.zeros((0, 3))) == 0
    assert numerical_rank(np.zeros((3, 2))) == 0
    assert numerical_rank(np.ones((3, 2))) == 1


class TestNullspaceContained:
    def test_shared_nullspace(self):
        assert nullspace_contained(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))

    def test_not_contained(self):
        assert not nullspace_contained(np.diag([1.0, 0.0]), np.eye(2))

    def test_zero_target_contains_everything(self):
        assert nullspace_contained(np.diag([1.0, 0.0]), np.zeros((2, 2)))

    def test_full_rank_source_vacuous(self):
        assert nullspace_contained(np.eye(3), np.ones((3, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            nullspace_contained(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_reflexive_transitive(self, rng):
        # exact-arithmetic style: diagonal projections with nested supports
        M1 = np.diag([1.0, 1.0, 0.0, 0.0])
        M2 = np.diag([1.0, 0.0, 0.0, 0.0])
        M3 = np.zeros((4, 4))
        for M in (M1, M2, M3):
            assert nullspace_contained(M, M)
        assert nullspace_contained(M1, M2) and nullspace_contained(M2, M3)
        assert nullspace_contained(M1, M3)


def test_symmetrize_returns_average():
    M = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    S = symmetrize(M)
    np.testing.assert_allclose(S, S.T)
