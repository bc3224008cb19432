import numpy as np
import pytest

from glmmselect.cholesky import (
    CholeskyFactors,
    assemble_covariance,
    decompose_covariance,
    gamma_matrix,
    pack_gamma,
    project_constraints,
    tril_pairs,
)
from glmmselect.errors import ConfigurationError, DecompositionError
from glmmselect.model import block_predictor

from oracles import doolittle_cholesky, factors_from_cholesky

ACTIVE_BLOCK = np.array(
    [[0.08, 0.04, 0.02], [0.04, 0.15, 0.09], [0.02, 0.09, 0.06]]
)


def effect_vector(factors, include, xi):
    """Lambda_eff Gamma_eff xi through the model's block term: one group, Z = I."""
    lam_eff, gamma = project_constraints(factors, include)
    q = lam_eff.shape[0]
    return block_predictor(np.eye(q), np.zeros(q, dtype=np.int64), xi[None, :], lam_eff[:, None] * gamma)


def random_spd(rng, q, lo=0.05, hi=4.0):
    a = rng.standard_normal((q, q))
    qmat, _ = np.linalg.qr(a)
    eig = rng.uniform(lo, hi, q)
    return (qmat * eig) @ qmat.T


class TestPacking:
    def test_row_major_order(self):
        rows, cols = tril_pairs(4)
        assert list(zip(rows, cols)) == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]

    def test_gamma_roundtrip(self):
        rng = np.random.default_rng(0)
        r = rng.standard_normal(6)
        g = gamma_matrix(4, r)
        assert np.array_equal(pack_gamma(g), r)
        assert np.all(np.diag(g) == 1.0)
        assert np.all(np.triu(g, 1) == 0.0)

    def test_bad_length(self):
        with pytest.raises(ConfigurationError):
            gamma_matrix(3, np.zeros(2))


class TestProjectConstraints:
    def test_all_included_copies_raw(self):
        rng = np.random.default_rng(1)
        f = CholeskyFactors(lam=np.array([0.5, 1.0, 2.0]), r=rng.standard_normal(3))
        lam_eff, gamma = project_constraints(f, np.ones(3))
        assert np.array_equal(pack_gamma(gamma), f.r)
        assert np.array_equal(lam_eff, f.lam)

    def test_middle_exclusion_zeroes_row_and_column(self):
        f = CholeskyFactors(lam=np.array([0.5, 1.0, 2.0]), r=np.array([0.3, 0.7, -0.2]))
        lam_eff, gamma = project_constraints(f, np.array([1, 0, 1]))
        # packed order (2,1), (3,1), (3,2): entries touching effect 2 vanish
        assert gamma[1, 0] == 0.0
        assert gamma[2, 1] == 0.0
        assert gamma[2, 0] == 0.7
        assert lam_eff[1] == 0.0

    def test_all_excluded_gives_identity(self):
        f = CholeskyFactors(lam=np.array([0.5, 1.0]), r=np.array([0.9]))
        lam_eff, gamma = project_constraints(f, np.zeros(2))
        assert np.array_equal(gamma, np.eye(2))
        assert np.array_equal(lam_eff, np.zeros(2))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.integers(1, 6)
            f = CholeskyFactors(
                lam=rng.uniform(0, 2, q), r=rng.standard_normal(q * (q - 1) // 2)
            )
            inc = rng.integers(0, 2, q)
            lam1, gamma1 = project_constraints(f, inc)
            lam2, gamma2 = project_constraints(CholeskyFactors(lam=lam1, r=pack_gamma(gamma1)), np.ones(q))
            assert np.array_equal(gamma2, gamma1)
            assert np.array_equal(lam2, lam1)


class TestAssemble:
    def test_identity(self):
        eff = project_constraints(CholeskyFactors(lam=np.ones(3), r=np.zeros(3)), np.ones(3))
        assert np.array_equal(assemble_covariance(*eff), np.eye(3))

    def test_reference_block(self):
        # factors taken from a plain Cholesky of the reference matrix
        L = doolittle_cholesky(ACTIVE_BLOCK)
        lam, r = factors_from_cholesky(L)
        eff = project_constraints(CholeskyFactors(lam=lam, r=r), np.ones(3))
        np.testing.assert_allclose(assemble_covariance(*eff), ACTIVE_BLOCK, atol=1e-14)

    def test_excluded_row_exactly_zero(self):
        f = CholeskyFactors(lam=np.array([0.5, 1.0, 2.0]), r=np.array([0.3, 0.7, -0.2]))
        omega = assemble_covariance(*project_constraints(f, np.array([1, 0, 1])))
        assert np.all(omega[1, :] == 0.0)
        assert np.all(omega[:, 1] == 0.0)

    def test_bitwise_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.integers(2, 7)
            f = CholeskyFactors(
                lam=rng.uniform(0, 2, q), r=rng.standard_normal(q * (q - 1) // 2)
            )
            omega = assemble_covariance(*project_constraints(f, rng.integers(0, 2, q)))
            assert np.array_equal(omega, omega.T)


class TestDecompose:
    def test_identity(self):
        f = decompose_covariance(np.eye(4))
        assert np.array_equal(f.lam, np.ones(4))
        assert np.array_equal(f.r, np.zeros(6))

    def test_reference_block_matches_oracle(self):
        f = decompose_covariance(ACTIVE_BLOCK)
        lam_o, r_o = factors_from_cholesky(doolittle_cholesky(ACTIVE_BLOCK))
        np.testing.assert_allclose(f.lam, lam_o, atol=1e-12)
        np.testing.assert_allclose(f.r, r_o, atol=1e-12)

    def test_diagonal_with_zero(self):
        f = decompose_covariance(np.diag([0.08, 0.0, 0.06]))
        np.testing.assert_allclose(f.lam, [np.sqrt(0.08), 0.0, np.sqrt(0.06)])
        assert np.array_equal(f.r, np.zeros(3))

    def test_roundtrip_random_spd(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = int(rng.integers(1, 7))
            omega = random_spd(rng, q)
            f = decompose_covariance(omega)
            np.testing.assert_allclose(assemble_covariance(*project_constraints(f, np.ones(q))), omega, atol=1e-10)

    def test_factor_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = int(rng.integers(2, 7))
            lam = rng.uniform(0.05, 2.0, q)
            r = rng.standard_normal(q * (q - 1) // 2)
            eff = project_constraints(CholeskyFactors(lam=lam, r=r), np.ones(q))
            back = decompose_covariance(assemble_covariance(*eff))
            np.testing.assert_allclose(back.lam, lam, atol=1e-10)
            np.testing.assert_allclose(back.r, r, atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(DecompositionError):
            decompose_covariance(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(DecompositionError):
            decompose_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_zero_diag_with_covariance(self):
        with pytest.raises(DecompositionError):
            decompose_covariance(np.array([[0.0, 0.5], [0.5, 1.0]]))


class TestRandomEffectVector:
    def test_zero_latent(self):
        f = CholeskyFactors(lam=np.ones(3), r=np.zeros(3))
        assert np.array_equal(effect_vector(f, np.ones(3), np.zeros(3)), np.zeros(3))

    def test_scalar_case(self):
        f = CholeskyFactors(lam=np.array([0.3]), r=np.zeros(0))
        assert effect_vector(f, np.ones(1), np.array([2.0]))[0] == pytest.approx(0.6)

    def test_reference_block_ones(self):
        L = doolittle_cholesky(ACTIVE_BLOCK)
        lam, r = factors_from_cholesky(L)
        rho = effect_vector(CholeskyFactors(lam=lam, r=r), np.ones(3), np.ones(3))
        np.testing.assert_allclose(rho, L @ np.ones(3), atol=1e-14)

    def test_excluded_component_exact_zero(self):
        f = CholeskyFactors(lam=np.array([0.5, 1.0, 2.0]), r=np.array([0.3, 0.7, -0.2]))
        rho = effect_vector(f, np.array([1, 0, 1]), np.array([1.0, 5.0, -2.0]))
        assert rho[1] == 0.0

    def test_sample_covariance_converges(self):
        rng = np.random.default_rng(6)
        lam_eff, gamma = project_constraints(decompose_covariance(ACTIVE_BLOCK), np.ones(3))
        n = 100_000
        xi = rng.standard_normal((n, 3))
        draws = xi @ (lam_eff[:, None] * gamma).T
        cov = np.cov(draws.T)
        se = np.sqrt((np.outer(np.diag(ACTIVE_BLOCK), np.diag(ACTIVE_BLOCK)) + ACTIVE_BLOCK**2) / n)
        assert np.all(np.abs(cov - ACTIVE_BLOCK) < 3.5 * se)
