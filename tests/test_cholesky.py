import numpy as np
import pytest

from glmmselect.cholesky import decompose_covariance, live_pairs, mask_factors, tril_pairs
from glmmselect.errors import DecompositionError
from glmmselect.model import BlockData, block_term

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
    q = len(lam)
    bdata = BlockData(Z=np.eye(q), groups=np.zeros(q, dtype=np.int64), n_groups=1)
    return block_term(bdata, np.asarray(lam, dtype=float), np.asarray(r, dtype=float), np.asarray(include), xi[None, :])


def zeroing_mask_factors(lam, r, include):
    """The row/column-zeroing form of the membership rule: fill every r, then zero the dead rows and columns."""
    q = lam.shape[0]
    lam_eff = np.where(include, lam, 0.0)
    gamma = np.zeros((q, q))
    if np.count_nonzero(r):
        gamma[tril_pairs(q)] = r
        dead = lam_eff == 0.0
        gamma[dead] = 0.0
        gamma[:, dead] = 0.0
    gamma.reshape(q * q)[:: q + 1] = 1.0
    return lam_eff, gamma


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


class TestLivePairs:
    def test_matches_a_loop_over_the_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            q = int(rng.integers(1, 7))
            lam_eff = np.where(rng.random(q) < 0.4, 0.0, rng.uniform(0.1, 2.0, q))
            want = [lam_eff[u] != 0.0 and lam_eff[v] != 0.0 for u, v in zip(*tril_pairs(q))]
            got = live_pairs(lam_eff)
            assert got.dtype == bool
            assert got.tolist() == want

    def test_negative_zero_is_dead(self):
        assert live_pairs(np.array([1.0, -0.0, 2.0])).tolist() == [False, True, False]


class TestProjectConstraints:
    """The membership constraints as :func:`mask_factors` applies them."""

    def test_bit_identical_to_row_column_zeroing(self):
        rng = np.random.default_rng(9)
        for i in range(10_000):
            q = int(rng.integers(1, 8))
            n_r = q * (q - 1) // 2
            lam = np.where(rng.random(q) < 0.2, rng.choice([0.0, -0.0], q), rng.uniform(0.0, 2.0, q))
            if i % 4 == 0:
                r = np.zeros(n_r)
            else:
                r = rng.standard_normal(n_r)
                r[rng.random(n_r) < 0.2] = 0.0
                r[rng.random(n_r) < 0.2] = -0.0
            include = rng.integers(0, 2, q).astype(float)
            lam_eff, gamma = mask_factors(lam, r, include)
            want_lam, want_gamma = zeroing_mask_factors(lam, r, include)
            assert same_bits(lam_eff, want_lam)
            assert same_bits(gamma, want_gamma)

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
        lam, r = decompose_covariance(np.eye(4))
        assert np.array_equal(lam, np.ones(4))
        assert same_bits(r, np.zeros(6))

    def test_reference_block_matches_oracle(self):
        lam, r = decompose_covariance(ACTIVE_BLOCK)
        lam_o, r_o = factors_from_cholesky(doolittle_cholesky(ACTIVE_BLOCK))
        np.testing.assert_allclose(lam, lam_o, atol=1e-12)
        np.testing.assert_allclose(r, r_o, atol=1e-12)

    def test_diagonal_with_zero(self):
        lam, r = decompose_covariance(np.diag([0.08, 0.0, 0.06]))
        np.testing.assert_allclose(lam, [np.sqrt(0.08), 0.0, np.sqrt(0.06)])
        assert same_bits(r, np.zeros(3))

    def test_dead_effect_has_zero_r(self):
        omega = np.zeros((3, 3))
        omega[np.ix_([0, 2], [0, 2])] = [[0.08, 0.02], [0.02, 0.06]]
        lam, r = decompose_covariance(omega)
        # packed order (2,1), (3,1), (3,2): only (3,1) joins two live effects
        assert r[0] == 0.0 and r[2] == 0.0
        # r(3,1) = L[3,1] / L[3,3] for the Cholesky factor L of the live 2x2 block
        assert r[1] == pytest.approx(0.02 / np.sqrt(0.08) / np.sqrt(0.06 - 0.02**2 / 0.08))
        assert lam[1] == 0.0

    def test_one_effect_has_no_r(self):
        lam, r = decompose_covariance(np.array([[0.25]]))
        assert lam[0] == 0.5
        assert r.shape == (0,)

    def test_roundtrip_random_spd(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            q = int(rng.integers(1, 7))
            omega = random_spd(rng, q)
            lam, r = decompose_covariance(omega)
            np.testing.assert_allclose(covariance(lam, r, np.ones(q)), omega, atol=1e-10)

    def test_factor_roundtrip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            q = int(rng.integers(2, 7))
            lam = rng.uniform(0.05, 2.0, q)
            r = rng.standard_normal(q * (q - 1) // 2)
            back_lam, back_r = decompose_covariance(covariance(lam, r, np.ones(q)))
            np.testing.assert_allclose(back_lam, lam, atol=1e-10)
            np.testing.assert_allclose(back_r, r, atol=1e-10)

    def test_pair_is_its_own_masked_form(self):
        # simulate_dataset forms its term through block_term with every effect included:
        # that must equal the unmasked product of the decomposed factors bit for bit
        rng = np.random.default_rng(7)
        for _ in range(100):
            q = int(rng.integers(1, 7))
            omega = random_spd(rng, q)
            dead = rng.random(q) < 0.3
            omega[dead, :] = 0.0
            omega[:, dead] = 0.0
            lam, r = decompose_covariance(omega)
            gamma = np.eye(q)
            gamma[tril_pairs(q)] = r
            n_groups = int(rng.integers(1, 5))
            bdata = BlockData(Z=rng.standard_normal((12, q)), groups=np.arange(12) % n_groups, n_groups=n_groups)
            xi = rng.standard_normal((n_groups, q))
            rho = xi @ (lam[:, None] * gamma).T
            want = np.einsum("ij,ij->i", bdata.Z, rho[bdata.groups])
            assert same_bits(block_term(bdata, lam, r, np.ones(q), xi), want)

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
        lam, gamma = mask_factors(*decompose_covariance(ACTIVE_BLOCK), np.ones(3))
        n = 100_000
        xi = rng.standard_normal((n, 3))
        draws = xi @ (lam[:, None] * gamma).T
        cov = np.cov(draws.T)
        se = np.sqrt((np.outer(np.diag(ACTIVE_BLOCK), np.diag(ACTIVE_BLOCK)) + ACTIVE_BLOCK**2) / n)
        assert np.all(np.abs(cov - ACTIVE_BLOCK) < 3.5 * se)
