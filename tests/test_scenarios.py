import mpmath
import numpy as np
import pytest

from snrloss.errors import DegenerateQ, NotPositiveDefinite
from snrloss.linalg import cholesky, cholesky_solve, solve_triangular
from snrloss.mismatch import build_omega
from snrloss.sampling import RngStream
from snrloss.scenarios import (
    ArrayScenario,
    Covariance,
    ScenarioPair,
    eigenvalue_mismatch,
    ger_blockdiag_mismatch,
    interference_covariance,
    inverse_wishart_mismatch,
    mpdr_mismatch,
    no_mismatch,
    random_ger_blockdiag_mismatch,
    sample_uniform_db,
    steering_vector,
    surprise_interference,
)


@pytest.fixture(scope="module")
def ula16():
    scenario = ArrayScenario(n_elements=16)
    sigma = interference_covariance(scenario)
    v = steering_vector(scenario.soi_angle_deg, scenario.n_elements)
    return sigma, v


def collinearity_angle(sigma, sigma_t, v):
    # angle via the orthogonal residual (arcsin form), stable near zero
    a = cholesky_solve(cholesky(sigma), v)
    b = cholesky_solve(cholesky(sigma_t), v)
    a_hat = a / np.linalg.norm(a)
    b_perp = b - (a_hat.conj() @ b) * a_hat
    return np.arcsin(min(np.linalg.norm(b_perp) / np.linalg.norm(b), 1.0))


class TestSteeringVector:
    def test_broadside(self):
        v = steering_vector(0.0, 16)
        assert np.allclose(v, 0.25)

    def test_endfire_two_elements(self):
        v = steering_vector(90.0, 2)
        assert np.allclose(v, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)

    @pytest.mark.parametrize("angle", [-71.0, -12.0, 0.0, 9.3, 25.0, 88.0])
    def test_unit_norm(self, angle):
        assert abs(np.linalg.norm(steering_vector(angle, 16)) - 1.0) < 1e-14


class TestInterferenceCovariance:
    def test_no_interferers(self):
        scenario = ArrayScenario(n_elements=8, interference_angles_deg=(), interference_powers_db=())
        assert np.array_equal(interference_covariance(scenario), np.eye(8))

    def test_single_interferer_spectrum(self):
        scenario = ArrayScenario(n_elements=8, interference_angles_deg=(20.0,), interference_powers_db=(13.0,))
        cov = interference_covariance(scenario)
        eigs = np.sort(np.linalg.eigvalsh(cov))
        assert eigs[-1] == pytest.approx(1.0 + 10 ** 1.3, rel=1e-12)
        assert np.allclose(eigs[:-1], 1.0, atol=1e-12)

    def test_default_trace(self, ula16):
        sigma, _ = ula16
        expected = 16 + 10 ** 3.5 + 10 ** 2.5 + 10 ** 3.0
        assert np.trace(sigma).real == pytest.approx(expected, rel=1e-12)


class TestArrayScenarioValidation:
    def test_mismatched_lists(self):
        with pytest.raises(ValueError):
            ArrayScenario(n_elements=4, interference_angles_deg=(1.0,), interference_powers_db=())

    def test_too_few_training(self):
        with pytest.raises(ValueError):
            ArrayScenario(n_elements=8, n_training=7)


class TestMpdrMismatch:
    def test_no_soi_no_scaling(self, ula16):
        sigma, v = ula16
        pair = mpdr_mismatch(Covariance(sigma, v), soi_power=0.0, gamma=1.0)
        assert np.allclose(pair.training.sigma, sigma)

    def test_pure_scaling(self, ula16):
        sigma, v = ula16
        pair = mpdr_mismatch(Covariance(sigma, v), soi_power=0.0, gamma=2.0)
        assert np.allclose(pair.training.sigma, 2.0 * sigma)

    def test_soi_power_convention(self, ula16):
        # P chosen so that P * v^H sigma^-1 v equals 10 (10 dB)
        sigma, v = ula16
        v_sigma_v = (v.conj() @ cholesky_solve(cholesky(sigma), v)).real
        power = 10.0 / v_sigma_v
        pair = mpdr_mismatch(Covariance(sigma, v), soi_power=power, gamma=1.0)
        assert pair.params["soi_power"] == pytest.approx(power)
        assert pair.params["gamma"] == 1.0
        stored = (pair.params["soi_power"] * v_sigma_v)
        assert stored == pytest.approx(10.0, rel=1e-12)


class TestSurpriseInterference:
    def test_zero_q(self, ula16):
        sigma, v = ula16
        pair = surprise_interference(Covariance(sigma, v), np.zeros(16), enforce_ger=True)
        assert np.allclose(pair.operating.sigma, pair.training.sigma)

    def test_enforced_orthogonality(self, ula16):
        sigma_t, v = ula16
        q_raw = 10 ** (10 / 20) * steering_vector(14.0, 16)
        pair = surprise_interference(Covariance(sigma_t, v), q_raw, enforce_ger=True)
        q = pair.params["q"]
        sigma_inv_v = cholesky_solve(cholesky(pair.operating.sigma), v)
        assert abs(q.conj() @ sigma_inv_v) <= 1e-10 * np.linalg.norm(q) * np.linalg.norm(sigma_inv_v)

    def test_unenforced_keeps_raw_q(self, ula16):
        sigma_t, v = ula16
        q_raw = steering_vector(14.0, 16)
        pair = surprise_interference(Covariance(sigma_t, v), q_raw, enforce_ger=False)
        assert np.allclose(pair.params["q"], q_raw)

    @pytest.mark.parametrize("n", [2, 3])
    def test_enforced_orthogonality_where_the_projection_underflows(self, n):
        # three interferers at 3000 dB: |sigma_t^-1 v| is about 3e-301, so
        # its squared norm underflows to 0 unless it is scaled first
        scenario = ArrayScenario(n_elements=n, interference_powers_db=(3000.0,) * 3, n_training=4 * n)
        v = steering_vector(0.0, n)
        pair = surprise_interference(Covariance(interference_covariance(scenario), v),
                                     10 ** (10 / 20) * steering_vector(14.0, n), enforce_ger=True)
        q = pair.params["q"]
        assert np.all(np.isfinite(q)) and np.linalg.norm(q) > 0
        s = pair.training.white_v.conj() @ solve_triangular(pair.training.chol, q, lower=True)  # v^H sigma_t^-1 q
        assert abs(s) <= 1e-10 * np.linalg.norm(q) * np.sqrt(pair.training.v_sigma_v)
        assert build_omega(pair)[0].omega_2_1 == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_projection(self, ula16):
        sigma_t, v = ula16
        s = cholesky_solve(cholesky(sigma_t), v)
        with pytest.raises(DegenerateQ):
            surprise_interference(Covariance(sigma_t, v), s, enforce_ger=True)


class TestGerBlockdiag:
    def test_identity_blocks_reproduce_sigma(self, ula16):
        sigma, v = ula16
        pair = ger_blockdiag_mismatch(Covariance(sigma, v), np.eye(15), 1.0)
        assert np.allclose(pair.training.sigma, sigma, atol=1e-10 * np.abs(sigma).max())

    def test_scaled_soi_block_collinearity(self, ula16):
        sigma, v = ula16
        pair = ger_blockdiag_mismatch(Covariance(sigma, v), np.eye(15), 3.0)
        assert collinearity_angle(pair.operating.sigma, pair.training.sigma, v) < 1e-10

    def test_w11_is_the_factor_product(self, ula16):
        # W11 = L11 L11^H: lam are its eigenvalues, and sigma_t is
        # X blockdiag(W11^-1, 1/w22) X^H with X = G U, checked against that
        # product in 50-digit mpmath from the same G.  (A check of the
        # eigenvalues of sigma_t^-1 sigma would measure sigma_t's condition
        # number, 5.9e8, not the construction.)
        sigma, v = ula16
        low = np.tril(np.arange(1.0, 226.0).reshape(15, 15) % 7 + 1.0) + 0.5j * np.tril(np.ones((15, 15)), -1)
        w11 = low @ low.conj().T
        base = Covariance(sigma, v)
        pair = ger_blockdiag_mismatch(base, low, 2.0)
        assert np.allclose(pair.whitened.lam[0], np.linalg.eigvalsh(w11)[::-1], rtol=1e-10)
        with mpmath.workdps(50):
            g = mpmath.matrix(base.chol.tolist())
            u = mpmath.lu_solve(g, mpmath.matrix(v.tolist()))
            u /= mpmath.norm(u)
            w = u.copy()
            w[15] += u[15] / abs(u[15])
            x = g * (mpmath.eye(16) - 2 * w * w.H / (w.H * w)[0])
            low_mp = mpmath.matrix(low.tolist())
            w11_inverse = mpmath.inverse(low_mp * low_mp.H)
            inner = mpmath.zeros(16)
            for i in range(15):
                for j in range(15):
                    inner[i, j] = w11_inverse[i, j]
            inner[15, 15] = mpmath.mpf(1) / 2
            want = x * inner * x.H
            error = mpmath.mnorm(mpmath.matrix(pair.training.sigma.tolist()) - want, "f") / mpmath.mnorm(want, "f")
        assert error <= 1e-14

    @pytest.mark.parametrize("factor", [np.ones((15, 15)), np.eye(14), np.eye(15)[None, :14]],
                             ids=["not_triangular", "wrong_size", "not_square"])
    def test_rejects_a_malformed_factor(self, ula16, factor):
        sigma, v = ula16
        with pytest.raises(ValueError):
            ger_blockdiag_mismatch(Covariance(sigma, v), factor, 1.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pair_collinearity(self, ula16, seed):
        sigma, v = ula16
        rng = RngStream(seed, 77)
        gamma = 10 ** (rng.generator.uniform(-6, 6) / 10)
        pair = random_ger_blockdiag_mismatch(Covariance(sigma, v), gamma, rng)
        assert collinearity_angle(pair.operating.sigma, pair.training.sigma, v) < 1e-8


class TestEigenvalueMismatch:
    def test_alpha_ones(self, ula16):
        sigma, v = ula16
        pair = eigenvalue_mismatch(Covariance(sigma, v), alpha=np.ones(16))
        assert np.allclose(pair.training.sigma, sigma, atol=1e-10 * np.abs(sigma).max())

    def test_uniform_alpha_scales(self, ula16):
        sigma, v = ula16
        pair = eigenvalue_mismatch(Covariance(sigma, v), alpha=np.full(16, 2.5))
        assert np.allclose(pair.training.sigma, 2.5 * sigma, atol=1e-9 * np.abs(sigma).max())

    def test_spectrum_of_ratio(self, ula16):
        sigma, v = ula16
        pair = eigenvalue_mismatch(Covariance(sigma, v), sample_uniform_db(RngStream(21), size=16))
        alpha = pair.params["alpha"]
        ratio_eigs = np.sort(np.linalg.eigvals(np.linalg.solve(pair.training.sigma, pair.operating.sigma)).real)
        assert np.allclose(ratio_eigs, np.sort(1.0 / alpha), rtol=1e-8)


class TestInverseWishartMismatch:
    def test_construction_law(self, ula16):
        # with W = gamma * I the congruence collapses to sigma / gamma
        sigma, _ = ula16
        g = cholesky(sigma)
        gamma = 3.0
        sigma_t = g @ np.linalg.solve(gamma * np.eye(16), g.conj().T)
        assert np.allclose(sigma_t, sigma / gamma)

    def test_seeded_draw_valid(self, ula16):
        sigma, v = ula16
        pair = inverse_wishart_mismatch(Covariance(sigma, v), gamma=1.5, rng=RngStream(3, 9))
        sigma_t = pair.training.sigma
        assert np.abs(sigma_t - sigma_t.conj().T).max() < 1e-12 * np.abs(sigma_t).max()
        assert np.all(np.linalg.eigvalsh(sigma_t) > 0)

    def test_deterministic(self, ula16):
        sigma, v = ula16
        a = inverse_wishart_mismatch(Covariance(sigma, v), gamma=0.8, rng=RngStream(5, 1))
        b = inverse_wishart_mismatch(Covariance(sigma, v), gamma=0.8, rng=RngStream(5, 1))
        assert np.array_equal(a.training.sigma, b.training.sigma)


class TestScenarioPairValidation:
    def test_rejects_non_unit_signature(self, ula16):
        sigma, _ = ula16
        with pytest.raises(ValueError):
            Covariance(sigma, np.ones(16))

    def test_rejects_sides_with_different_signatures(self, ula16):
        sigma, v = ula16
        with pytest.raises(ValueError):
            ScenarioPair(operating=Covariance(sigma, v), training=Covariance(sigma, steering_vector(9.0, 16)))

    def test_no_mismatch_constructor(self, ula16):
        sigma, v = ula16
        pair = no_mismatch(Covariance(sigma, v))
        assert pair.kind == "none"
        assert pair.operating is pair.training


class TestCovariance:
    def test_factors_once_on_first_read(self, ula16):
        sigma, v = ula16
        base = Covariance(sigma, v)
        assert not {"sigma", "chol", "white_v", "v_sigma_v"} & set(vars(base))
        assert np.allclose(base.chol @ base.chol.conj().T, sigma, rtol=0, atol=1e-12 * np.abs(sigma).max())
        assert np.allclose(base.chol @ base.white_v, v, rtol=0, atol=1e-12)
        assert base.v_sigma_v == pytest.approx((v.conj() @ cholesky_solve(cholesky(sigma), v)).real, rel=1e-12)

    def test_rejects_a_signature_of_another_dimension(self, ula16):
        sigma, _ = ula16
        covariance = Covariance(sigma, steering_vector(0.0, 8))
        with pytest.raises(ValueError):
            covariance.chol

    def test_rejects_a_matrix_below_the_pivot_floor(self, ula16):
        _, v = ula16
        covariance = Covariance(np.outer(v, v.conj()), v)
        with pytest.raises(NotPositiveDefinite):
            covariance.chol

    @pytest.mark.parametrize("make", [Covariance, Covariance.deferred])
    def test_checks_the_signature_on_construction(self, ula16, make):
        # v's unit norm needs nothing of sigma, so it is checked before sigma is read
        def build():
            raise AssertionError("sigma was read")

        with pytest.raises(ValueError, match="unit norm"):
            make(build, np.ones(16))

    def test_factored_fields_are_not_arguments(self, ula16):
        sigma, v = ula16
        with pytest.raises(TypeError):
            Covariance(sigma, v, chol=np.eye(16))

    def test_a_deferred_covariance_is_formed_once_on_first_read(self, ula16):
        sigma, v = ula16
        calls = []

        def build():
            calls.append(1)
            return sigma

        deferred = Covariance.deferred(build, v)
        assert np.array_equal(deferred.v, v) and calls == []
        eager = Covariance(sigma, v)
        for field in ("chol", "sigma", "white_v", "v_sigma_v"):
            assert np.array_equal(getattr(deferred, field), getattr(eager, field)), field
        assert calls == [1]

    def test_a_deferred_covariance_that_fails_raises_at_each_read(self, ula16):
        # below the pivot floor: sigma is formed, but fails to factor
        _, v = ula16
        deferred = Covariance.deferred(lambda: np.outer(v, v.conj()), v)
        assert np.array_equal(deferred.sigma, np.outer(v, v.conj()))
        for _ in range(2):
            with pytest.raises(NotPositiveDefinite):
                deferred.chol
        with pytest.raises(AttributeError):
            deferred.not_a_field


class TestDeferredTraining:
    """A family's derived covariance is formed only when read, by the same
    expression as when it was formed on construction."""

    @pytest.fixture(scope="class")
    def base(self, ula16):
        return Covariance(*ula16)

    def _pairs(self, base):
        power = 10.0 / base.v_sigma_v
        return [
            mpdr_mismatch(base, power, 0.5),
            random_ger_blockdiag_mismatch(base, 1.3, RngStream(11)),
            eigenvalue_mismatch(base, sample_uniform_db(RngStream(12), size=16)),
            inverse_wishart_mismatch(base, 0.7, RngStream(13)),
        ]

    def test_construction_forms_no_training_covariance(self, base):
        for pair in self._pairs(base):
            assert "sigma" not in vars(pair.training), pair.kind

    def test_the_training_covariance_reproduces_the_family_law(self, base):
        mpdr, ger, eigen, wishart = self._pairs(base)
        sigma, v = base.sigma, base.v
        np.testing.assert_allclose(mpdr.training.sigma, 0.5 * sigma + mpdr.params["soi_power"] * np.outer(v, v.conj()),
                                   rtol=0, atol=1e-12 * np.abs(sigma).max())
        assert collinearity_angle(sigma, ger.training.sigma, v) < 1e-8
        ratio = np.sort(np.linalg.eigvals(np.linalg.solve(eigen.training.sigma, sigma)).real)
        np.testing.assert_allclose(ratio, np.sort(1.0 / eigen.params["alpha"]), rtol=1e-8)
        assert np.all(np.linalg.eigvalsh(wishart.training.sigma) > 0)
