import numpy as np
import pytest

from glmmselect.cholesky import decompose_covariance, effect_loadings, mask_factors, tril_pairs
from glmmselect.errors import DecompositionError
from glmmselect.model import block_predictor

from oracles import doolittle_cholesky, factors_from_cholesky

ACTIVE_BLOCK = np.array(
    [[0.08, 0.04, 0.02], [0.04, 0.15, 0.09], [0.02, 0.09, 0.06]]
)


def covariance(lam, r, include):
    """Omega = LG LG' for the masked loadings LG = Lambda_eff Gamma_eff."""
    lam_eff, gamma = mask_factors(np.asarray(lam, dtype=float), np.asarray(r, dtype=float), np.asarray(include))
    lg = lam_eff[:, None] * gamma
    return lg @ lg.T


def packed(gamma):
    return gamma[tril_pairs(gamma.shape[0])]


def effect_vector(lam, r, include, xi):
    """Lambda_eff Gamma_eff xi through the model's block term: one group, Z = I."""
    lam_eff, gamma = mask_factors(np.asarray(lam, dtype=float), np.asarray(r, dtype=float), np.asarray(include))
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
        _, g = mask_factors(np.ones(4), r, np.ones(4))
        assert np.array_equal(packed(g), r)
        assert np.all(np.diag(g) == 1.0)
        assert np.all(np.triu(g, 1) == 0.0)


class TestProjectConstraints:
    """The membership constraints as :func:`mask_factors` applies them."""

    def test_all_included_copies_raw(self):
        rng = np.random.default_rng(1)
        lam, r = np.array([0.5, 1.0, 2.0]), rng.standard_normal(3)
        lam_eff, gamma = mask_factors(lam, r, np.ones(3))
        assert np.array_equal(packed(gamma), r)
        assert np.array_equal(lam_eff, lam)

    def test_middle_exclusion_zeroes_row_and_column(self):
        lam_eff, gamma = mask_factors(np.array([0.5, 1.0, 2.0]), np.array([0.3, 0.7, -0.2]), np.array([1, 0, 1]))
        # packed order (2,1), (3,1), (3,2): entries touching effect 2 vanish
        assert gamma[1, 0] == 0.0
        assert gamma[2, 1] == 0.0
        assert gamma[2, 0] == 0.7
        assert lam_eff[1] == 0.0

    def test_all_excluded_gives_identity(self):
        lam_eff, gamma = mask_factors(np.array([0.5, 1.0]), np.array([0.9]), np.zeros(2))
        assert np.array_equal(gamma, np.eye(2))
        assert np.array_equal(lam_eff, np.zeros(2))

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = rng.integers(1, 6)
            lam, r = rng.uniform(0, 2, q), rng.standard_normal(q * (q - 1) // 2)
            inc = rng.integers(0, 2, q)
            lam1, gamma1 = mask_factors(lam, r, inc)
            lam2, gamma2 = mask_factors(lam1, packed(gamma1), np.ones(q))
            assert np.array_equal(gamma2, gamma1)
            assert np.array_equal(lam2, lam1)


class TestEffectLoadings:
    def test_row_and_column_k_equal_the_masked_loadings_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            q = int(rng.integers(1, 6))
            lam = rng.uniform(0.0, 2.0, q) * (rng.random(q) < 0.8)  # some lam exactly 0
            r = rng.standard_normal(q * (q - 1) // 2) * (rng.random(q * (q - 1) // 2) < 0.6)
            if trial % 5 == 0:
                r[:] = -0.0  # the identity rule: no r terms, not even signed zeros
            include = rng.integers(0, 2, q)
            for k in range(q):
                on = include.copy()
                on[k] = 1
                lam_eff, gamma = mask_factors(lam, r, on)
                loadings = lam_eff[:, None] * gamma
                row, col = effect_loadings(lam, r, include, k)
                assert row.tobytes() == loadings[k].tobytes(), (trial, k)
                assert col.tobytes() == loadings[:, k].tobytes(), (trial, k)


class TestAssemble:
    """The covariance LG LG' of the masked loadings."""

    def test_identity(self):
        assert np.array_equal(covariance(np.ones(3), np.zeros(3), np.ones(3)), np.eye(3))

    def test_reference_block(self):
        # factors taken from a plain Cholesky of the reference matrix
        lam, r = factors_from_cholesky(doolittle_cholesky(ACTIVE_BLOCK))
        np.testing.assert_allclose(covariance(lam, r, np.ones(3)), ACTIVE_BLOCK, atol=1e-14)

    def test_excluded_row_exactly_zero(self):
        omega = covariance([0.5, 1.0, 2.0], [0.3, 0.7, -0.2], [1, 0, 1])
        assert np.all(omega[1, :] == 0.0)
        assert np.all(omega[:, 1] == 0.0)


class TestDecompose:
    def test_identity(self):
        lam, gamma = decompose_covariance(np.eye(4))
        assert np.array_equal(lam, np.ones(4))
        assert np.array_equal(gamma, np.eye(4))

    def test_reference_block_matches_oracle(self):
        lam, gamma = decompose_covariance(ACTIVE_BLOCK)
        lam_o, r_o = factors_from_cholesky(doolittle_cholesky(ACTIVE_BLOCK))
        np.testing.assert_allclose(lam, lam_o, atol=1e-12)
        np.testing.assert_allclose(packed(gamma), r_o, atol=1e-12)

    def test_diagonal_with_zero(self):
        lam, gamma = decompose_covariance(np.diag([0.08, 0.0, 0.06]))
        np.testing.assert_allclose(lam, [np.sqrt(0.08), 0.0, np.sqrt(0.06)])
        assert np.array_equal(gamma, np.eye(3))

    def test_roundtrip_random_spd(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = int(rng.integers(1, 7))
            omega = random_spd(rng, q)
            lam, gamma = decompose_covariance(omega)
            lg = lam[:, None] * gamma
            np.testing.assert_allclose(lg @ lg.T, omega, atol=1e-10)

    def test_factor_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = int(rng.integers(2, 7))
            lam = rng.uniform(0.05, 2.0, q)
            r = rng.standard_normal(q * (q - 1) // 2)
            back_lam, back_gamma = decompose_covariance(covariance(lam, r, np.ones(q)))
            np.testing.assert_allclose(back_lam, lam, atol=1e-10)
            np.testing.assert_allclose(packed(back_gamma), r, atol=1e-10)

    def test_pair_is_its_own_masked_form(self):
        # simulate_dataset multiplies the pair into its loadings unmasked: masking must not change a bit
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = int(rng.integers(1, 7))
            omega = random_spd(rng, q)
            dead = rng.random(q) < 0.3
            omega[dead, :] = 0.0
            omega[:, dead] = 0.0
            lam, gamma = decompose_covariance(omega)
            lam_eff, gamma_eff = mask_factors(lam, packed(gamma), np.ones(q))
            assert np.array_equal(lam_eff, lam)
            assert np.array_equal(gamma_eff, gamma)

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
        assert np.array_equal(effect_vector(np.ones(3), np.zeros(3), np.ones(3), np.zeros(3)), np.zeros(3))

    def test_scalar_case(self):
        assert effect_vector([0.3], np.zeros(0), np.ones(1), np.array([2.0]))[0] == pytest.approx(0.6)

    def test_reference_block_ones(self):
        L = doolittle_cholesky(ACTIVE_BLOCK)
        lam, r = factors_from_cholesky(L)
        rho = effect_vector(lam, r, np.ones(3), np.ones(3))
        np.testing.assert_allclose(rho, L @ np.ones(3), atol=1e-14)

    def test_excluded_component_exact_zero(self):
        rho = effect_vector([0.5, 1.0, 2.0], [0.3, 0.7, -0.2], np.array([1, 0, 1]), np.array([1.0, 5.0, -2.0]))
        assert rho[1] == 0.0

    def test_sample_covariance_converges(self):
        rng = np.random.default_rng(6)
        lam, gamma = decompose_covariance(ACTIVE_BLOCK)
        n = 100_000
        xi = rng.standard_normal((n, 3))
        draws = xi @ (lam[:, None] * gamma).T
        cov = np.cov(draws.T)
        se = np.sqrt((np.outer(np.diag(ACTIVE_BLOCK), np.diag(ACTIVE_BLOCK)) + ACTIVE_BLOCK**2) / n)
        assert np.all(np.abs(cov - ACTIVE_BLOCK) < 3.5 * se)
