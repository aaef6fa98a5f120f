import numpy as np
import pytest

from snrloss.errors import InsufficientSamples, InvalidFit, NotPositiveDefinite
from snrloss.linalg import cholesky, cholesky_solve
from snrloss.mismatch import (
    GER_TOL,
    OmegaDecomposition,
    QuadraticFormSpec,
    build_omega,
    c_coefficients,
    cumulants_q,
    inverse_chi2_moment,
    to_quadratic_form,
)
from snrloss.sampling import RngStream
from snrloss.scenarios import (
    DEFAULT_INTERFERENCE_POWERS_DB,
    ArrayScenario,
    Covariance,
    ScenarioPair,
    eigenvalue_mismatch,
    interference_covariance,
    inverse_wishart_mismatch,
    mpdr_mismatch,
    no_mismatch,
    random_ger_blockdiag_mismatch,
    sample_uniform_db,
    steering_vector,
    surprise_interference,
)

import oracles
from oracles import NotGer, ger_cs, surprise_spec


@pytest.fixture(scope="module")
def ula16():
    scenario = ArrayScenario(n_elements=16)
    sigma = interference_covariance(scenario)
    v = steering_vector(0.0, 16)
    return sigma, v


def v_sigma_inv_v(sigma, v):
    return (v.conj() @ cholesky_solve(cholesky(sigma), v)).real


class TestBuildOmega:
    def test_no_mismatch_is_identity(self, ula16):
        sigma, v = ula16
        omega = build_omega(no_mismatch(Covariance(sigma, v)))
        # for Hermitian omega11, |omega11 - I|_F^2 = sum_i (lam_i - 1)^2, and
        # |omega12|^2 = sum_i lam_i^2 delta_i
        assert np.linalg.norm(omega.lam - 1.0) < 1e-10
        assert np.sqrt(np.sum(omega.lam**2 * omega.delta)) < 1e-10
        assert omega.omega22 == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(omega.lam, 1.0, atol=1e-10)
        assert np.allclose(omega.delta, 0.0, atol=1e-12)
        assert to_quadratic_form(omega[0], 32).is_ger is True

    def test_mpdr_block_diagonal(self, ula16):
        sigma, v = ula16
        gamma = 2.0
        power = 10.0 / v_sigma_inv_v(sigma, v)
        pair = mpdr_mismatch(Covariance(sigma, v), soi_power=power, gamma=gamma)
        omega = build_omega(pair)
        # |omega11 - I/gamma|_2 = max_i |lam_i - 1/gamma| bounds every entry's error
        assert np.max(np.abs(omega.lam - 1 / gamma)) <= 1e-10
        expected_22 = (1 / gamma) / (1.0 + (1 / gamma) * 10.0)
        assert omega.omega22 == pytest.approx(expected_22, rel=1e-10)
        assert to_quadratic_form(omega[0], 32).is_ger is True

    def test_partially_homogeneous_without_soi(self, ula16):
        # P = 0 and any gamma: the orthogonal block is gamma^-1 I
        sigma, v = ula16
        for gamma in (0.5, 2.0, 4.0):
            omega = build_omega(mpdr_mismatch(Covariance(sigma, v), soi_power=0.0, gamma=gamma))
            assert np.max(np.abs(omega.lam - 1 / gamma)) <= 1e-10 / gamma

    def test_surprise_spectrum(self, ula16):
        sigma_t, v = ula16
        q_raw = 10 ** (10 / 20) * steering_vector(14.0, 16)
        pair = surprise_interference(Covariance(sigma_t, v), q_raw, enforce_ger=True)
        omega = build_omega(pair)[0]
        q_power = pair.params["q_power"]
        spec, exact = to_quadratic_form(omega, 32), surprise_spec(q_power, 32, 16)
        assert spec.is_ger is True
        assert omega.omega_2_1 == pytest.approx(1.0, rel=1e-10)
        assert omega.lam[0] == pytest.approx(1.0 + q_power, rel=1e-9)
        assert np.allclose(omega.lam[1:], 1.0, atol=1e-9)
        # Omega's spec is the oracle's two-eigenvalue representation
        np.testing.assert_allclose(spec.lam, exact.lam, rtol=1e-9, atol=0)
        np.testing.assert_allclose(spec.delta, exact.delta, rtol=0, atol=1e-12)
        assert spec.p == exact.p
        assert spec.scale == pytest.approx(exact.scale, rel=1e-10)

    def test_generic_mismatch_not_ger(self, ula16):
        sigma, v = ula16
        pair = eigenvalue_mismatch(Covariance(sigma, v), sample_uniform_db(RngStream(3), size=16))
        assert to_quadratic_form(build_omega(pair)[0], 32).is_ger is False

    def test_mpdr_block_is_exact_where_the_generic_whitening_rounds_it_away(self, ula16):
        # at gamma = 350 dB the generic whitening rounds the block (~1e-35) to a
        # smallest eigenvalue <= 0; the family's closed form is exactly 1/gamma
        sigma, v = ula16
        gamma = 10.0**35
        pair = mpdr_mismatch(Covariance(sigma, v), soi_power=10.0 / v_sigma_inv_v(sigma, v), gamma=gamma)
        with pytest.raises(NotPositiveDefinite):
            oracles.build_omega(pair)
        assert np.array_equal(build_omega(pair).lam, np.full((1, 15), 1.0 / gamma))

    def test_mpdr_schur_complement_is_exact_at_high_dynamic_range(self):
        # interferers 90 dB above the default, gamma = 1 and a 10 dB SoI: the
        # generic whitening was 3.0e-6 off 1/(gamma + P v^H sigma^-1 v)
        scenario = ArrayScenario(n_elements=16, n_training=32,
                                 interference_powers_db=tuple(p + 90.0 for p in DEFAULT_INTERFERENCE_POWERS_DB))
        base = Covariance(interference_covariance(scenario), steering_vector(0.0, 16))
        power = 10.0 / base.v_sigma_v
        omega = build_omega(mpdr_mismatch(base, soi_power=power, gamma=1.0))
        assert omega.omega_2_1[0] == pytest.approx(1.0 / (1.0 + power * base.v_sigma_v), rel=1e-12, abs=0)

    @pytest.mark.parametrize("gamma_db", [0.0, 100.0, 160.0, 300.0])
    def test_a_pure_scaling_keeps_its_eigenrelation(self, ula16, gamma_db):
        # sigma_t = gamma sigma: every eigenvalue of sigma_t^-1 sigma is 1/gamma;
        # the generic whitening was 4.1e-7 off at 160 dB and 1.39 at 300 dB
        sigma, v = ula16
        gamma = 10.0 ** (gamma_db / 10.0)
        omega = build_omega(mpdr_mismatch(Covariance(sigma, v), 0.0, gamma))
        assert np.max(np.abs(omega.lam * gamma - 1.0)) <= 1e-12
        assert abs(omega.omega_2_1[0] * gamma - 1.0) <= 1e-12

    def test_a_pair_of_covariances_alone_has_no_whitened_form(self, ula16):
        sigma, v = ula16
        with pytest.raises(ValueError, match="no whitened form"):
            build_omega(ScenarioPair(operating=Covariance(sigma, v), training=Covariance(2.0 * sigma, v)))


class TestOmegaInvariants:
    def make_pairs(self, sigma, v):
        power = 10.0 / v_sigma_inv_v(sigma, v)
        base = Covariance(sigma, v)
        return [
            no_mismatch(base),
            mpdr_mismatch(base, soi_power=power, gamma=0.5),
            surprise_interference(base, 3.0 * steering_vector(14.0, 16), enforce_ger=True),
            random_ger_blockdiag_mismatch(base, 1.3, RngStream(11)),
            eigenvalue_mismatch(base, sample_uniform_db(RngStream(12), size=16)),
            inverse_wishart_mismatch(base, gamma=0.7, rng=RngStream(13)),
        ]

    def test_schur_complement_identity(self, ula16):
        # omega_2_1 equals (v^H sigma_t^-1 v)/(v^H sigma^-1 v) for every family
        sigma, v = ula16
        for pair in self.make_pairs(sigma, v):
            omega = build_omega(pair)
            ratio = v_sigma_inv_v(pair.training.sigma, v) / v_sigma_inv_v(pair.operating.sigma, v)
            assert omega.omega_2_1 == pytest.approx(ratio, rel=1e-12), pair.kind

    @pytest.mark.parametrize("raise_db", [55.0, 90.0])
    def test_no_mismatch_ratio_exact_at_high_dynamic_range(self, raise_db):
        scenario = ArrayScenario(
            n_elements=16,
            n_training=32,
            interference_powers_db=tuple(p + raise_db for p in DEFAULT_INTERFERENCE_POWERS_DB),
        )
        pair = no_mismatch(Covariance(interference_covariance(scenario), steering_vector(0.0, 16)))
        omega = build_omega(pair)
        assert omega.omega_2_1 == 1.0
        assert to_quadratic_form(omega[0], 32).is_ger is True
        assert np.max(np.abs(omega.lam - 1.0)) <= 1e-12

    def test_ger_flags_by_construction(self, ula16):
        sigma, v = ula16
        pairs = self.make_pairs(sigma, v)
        expectations = [True, True, True, True, False, False]
        for pair, expected in zip(pairs, expectations):
            assert to_quadratic_form(build_omega(pair)[0], 32).is_ger is expected, pair.kind

    def test_ger_spectrum_matches_ratio_eigenvalues(self, ula16):
        sigma, v = ula16
        for pair in self.make_pairs(sigma, v):
            omega = build_omega(pair)[0]
            if not to_quadratic_form(omega, 32).is_ger:
                continue
            full = np.sort(np.concatenate([omega.lam, [omega.omega_2_1]]))
            ratio = np.sort(np.linalg.eigvals(cholesky_solve(cholesky(pair.training.sigma), pair.operating.sigma)).real)
            assert np.allclose(full, ratio, rtol=1e-8, atol=1e-10), pair.kind

    @pytest.mark.parametrize("seed", range(3))
    def test_unitary_invariance(self, ula16, seed):
        sigma, v = ula16
        pair = eigenvalue_mismatch(Covariance(sigma, v), sample_uniform_db(RngStream(seed, 5), size=16))
        omega = build_omega(pair)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        t, _ = np.linalg.qr(z)
        v_rot = (t @ v) / np.linalg.norm(t @ v)
        rotated = ScenarioPair(
            operating=Covariance(t @ pair.operating.sigma @ t.conj().T, v_rot),
            training=Covariance(t @ pair.training.sigma @ t.conj().T, v_rot),
            kind=pair.kind,
        )
        omega_rot = oracles.build_omega(rotated)  # a pair of covariances alone: the generic whitening
        assert np.allclose(np.sort(omega.lam), np.sort(omega_rot.lam), rtol=1e-8)
        assert omega_rot.omega_2_1 == pytest.approx(omega.omega_2_1, rel=1e-8)
        # deltas are basis-dependent under eigenvalue ties; compare the
        # invariant sums entering the cumulants instead
        for power in (1, 2, 3):
            a = np.sum(omega.lam**power * omega.delta)
            b = np.sum(omega_rot.lam**power * omega_rot.delta)
            assert a == pytest.approx(b, rel=1e-7, abs=1e-10)


class TestToQuadraticForm:
    def test_no_mismatch_parameters(self, ula16):
        sigma, v = ula16
        spec = to_quadratic_form(build_omega(no_mismatch(Covariance(sigma, v))), 32)
        assert spec.lam.size == 15
        assert np.allclose(spec.lam, 1.0, atol=1e-10)
        assert spec.p == 36.0
        assert np.allclose(spec.delta, 0.0, atol=1e-12)

    def test_mpdr_scale(self, ula16):
        sigma, v = ula16
        power = 10.0 / v_sigma_inv_v(sigma, v)
        spec = to_quadratic_form(build_omega(mpdr_mismatch(Covariance(sigma, v), power, 1.0)), 32)
        assert spec.scale == pytest.approx(11.0, rel=1e-10)

    def test_ger_pair_deltas_vanish(self, ula16):
        sigma, v = ula16
        pair = random_ger_blockdiag_mismatch(Covariance(sigma, v), 2.0, RngStream(8))
        spec = to_quadratic_form(build_omega(pair), 32)
        assert np.max(spec.delta) < 1e-16

    def test_insufficient_samples(self, ula16):
        sigma, v = ula16
        omega = build_omega(no_mismatch(Covariance(sigma, v)))
        with pytest.raises(InsufficientSamples):
            to_quadratic_form(omega, 15)

    @pytest.mark.parametrize("n,k", [(2, 2), (4, 10), (8, 20), (16, 16), (16, 32)])
    def test_denominator_dof_takes_n_from_omega(self, n, k):
        # p = 2(K - N + 2), with N = len(lam) + 1 the dimension of Omega
        sigma = interference_covariance(ArrayScenario(n_elements=n, n_training=k))
        omega = build_omega(no_mismatch(Covariance(sigma, steering_vector(0.0, n))))
        assert omega.lam.size == n - 1
        assert to_quadratic_form(omega, k).p == 2.0 * (k - n + 2)

    def test_lam_and_delta_shapes_must_match(self):
        # equal sizes are not enough: (2, 3) against (3, 2) would fail later in a broadcast
        with pytest.raises(ValueError, match="same shape"):
            QuadraticFormSpec(lam=np.ones((2, 3)), delta=np.zeros((3, 2)), p=36.0, scale=np.ones(2))

    @pytest.mark.parametrize("scale", [np.ones(5), 1.0], ids=["five", "scalar"])
    def test_scale_holds_one_multiplier_per_row(self, scale):
        # a stack of two realizations needs two multipliers, one for each row
        with pytest.raises(ValueError, match="one multiplier per row"):
            QuadraticFormSpec(lam=np.ones((2, 3)), delta=np.zeros((2, 3)), p=36.0, scale=scale)


class TestGerFlag:
    # p = 32 gives m = p/2 = 16, a power of two, so m * sum(delta) lands on
    # GER_TOL and 2 GER_TOL without rounding
    def test_the_rule_holds_at_its_bound_and_fails_at_twice_it(self):
        edge = QuadraticFormSpec(lam=np.ones(2), delta=np.full(2, GER_TOL / 32), p=32.0, scale=np.float64(1.0))
        twice = QuadraticFormSpec(lam=np.ones(2), delta=np.full(2, GER_TOL / 16), p=32.0, scale=np.float64(1.0))
        assert edge.p / 2 * edge.delta.sum() == GER_TOL
        assert edge.is_ger is True
        assert twice.is_ger is False

    def test_a_stack_gives_an_array_and_a_row_a_bool(self):
        # N = 3 and K = 17 give p = 32
        delta = np.array([[GER_TOL / 32, GER_TOL / 32], [GER_TOL / 16, GER_TOL / 16], [0.0, 0.0]])
        omega = OmegaDecomposition(omega22=np.ones(3), omega_2_1=np.ones(3), lam=np.ones((3, 2)), delta=delta)
        spec = to_quadratic_form(omega, 17)
        assert spec.p == 32.0
        assert isinstance(spec.is_ger, np.ndarray)
        assert spec.is_ger.tolist() == [True, False, True]
        flags = [to_quadratic_form(omega[i], 17).is_ger for i in range(3)]
        assert flags == [True, False, True]
        assert all(type(flag) is bool for flag in flags)


class TestGerCs:
    def test_no_mismatch_constant(self, ula16):
        sigma, v = ula16
        for order in (1, 2, 3):
            assert ger_cs(sigma, sigma, v, order, 32) == pytest.approx(30.0, rel=1e-10)

    def test_scaled_covariance(self, ula16):
        sigma, v = ula16
        for order in (1, 2, 3):
            expected = 2.0 * 15 / 2.0**order
            assert ger_cs(sigma, 2.0 * sigma, v, order, 32) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_trace_form_equals_spectral_sum(self, ula16, seed):
        sigma, v = ula16
        pair = random_ger_blockdiag_mismatch(Covariance(sigma, v), 1.7, RngStream(seed, 2))
        omega = build_omega(pair)
        for order in (1, 2, 3):
            spectral = 2.0 * np.sum(omega.lam**order)
            assert ger_cs(pair.operating.sigma, pair.training.sigma, v, order, 32) == pytest.approx(spectral, rel=1e-8)

    def test_not_ger_raises(self, ula16):
        sigma, v = ula16
        pair = eigenvalue_mismatch(Covariance(sigma, v), sample_uniform_db(RngStream(9), size=16))
        with pytest.raises(NotGer):
            ger_cs(pair.operating.sigma, pair.training.sigma, v, 1, 32)


class TestCCoefficients:
    def test_matches_definition(self):
        lam = np.array([2.0, 1.0, 0.5])
        delta = np.array([0.3, 0.0, 1.1])
        c1, c2, c3 = c_coefficients(lam, delta)
        assert c1 == pytest.approx(np.sum(lam * (2 + delta)))
        assert c2 == pytest.approx(np.sum(lam**2 * (2 + 2 * delta)))
        assert c3 == pytest.approx(np.sum(lam**3 * (2 + 3 * delta)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCumulantsQ:
    def test_no_mismatch_k1(self):
        spec = QuadraticFormSpec(lam=np.ones(15), delta=np.zeros(15), p=36.0, scale=1.0)
        kappa = cumulants_q(spec)
        assert kappa.k1 == pytest.approx(30.0 / 34.0, rel=1e-12)
        expected_k2 = (2 * 30 + 900) / (34.0 * 32.0) - 900 / 34.0**2
        assert kappa.k2 == pytest.approx(expected_k2, rel=1e-12)

    def test_empty_spectrum_degenerates_to_zero(self):
        spec = QuadraticFormSpec(lam=np.array([]), delta=np.array([]), p=36.0, scale=1.0)
        kappa = cumulants_q(spec)
        assert kappa.k1 == 0.0
        assert kappa.k2 == 0.0
        assert kappa.k3 == 0.0

    def test_overflow_raises_invalid_fit(self):
        # sum(2 lam)^3 overflows a float
        spec = QuadraticFormSpec(lam=np.full(3, 1e110), delta=np.zeros(3), p=36.0, scale=1.0)
        with pytest.raises(InvalidFit):
            cumulants_q(spec)

    def test_requires_p_above_six(self):
        spec = QuadraticFormSpec(lam=np.ones(3), delta=np.zeros(3), p=6.0, scale=1.0)
        with pytest.raises(InsufficientSamples):
            cumulants_q(spec)

    def test_inverse_moment_formula(self):
        assert inverse_chi2_moment(36.0, 1) == pytest.approx(1 / 34)
        assert inverse_chi2_moment(36.0, 2) == pytest.approx(1 / (34 * 32))
        assert inverse_chi2_moment(36.0, 3) == pytest.approx(1 / (34 * 32 * 30))
        with pytest.raises(InsufficientSamples):
            inverse_chi2_moment(6.0, 3)

    def test_against_monte_carlo(self):
        # brute-force sample cumulants are the standing oracle here
        lam = np.array([2.0, 1.0, 0.5])
        delta = np.array([0.3, 0.0, 1.1])
        spec = QuadraticFormSpec(lam=lam, delta=delta, p=20.0, scale=1.0)
        kappa = cumulants_q(spec)

        rng = np.random.default_rng(2024)
        n = 2_000_000
        v = rng.chisquare(20.0, n)
        z1 = rng.standard_normal((n, 3))
        z2 = rng.standard_normal((n, 3))
        terms = (z1 + np.sqrt(v[:, None] * delta)) ** 2 + z2**2
        q = (terms * lam).sum(axis=1) / v
        mean = q.mean()
        centered = q - mean
        m2 = np.mean(centered**2)
        m3 = np.mean(centered**3)
        m4 = np.mean(centered**4)
        m6 = np.mean(centered**6)
        se1 = np.sqrt(m2 / n)
        se2 = np.sqrt((m4 - m2**2) / n)
        se3 = np.sqrt((m6 - m3**2 - 6 * m2 * m4 + 9 * m2**3) / n)
        assert abs(kappa.k1 - mean) < 4 * se1
        assert abs(kappa.k2 - m2) < 4 * se2
        assert abs(kappa.k3 - m3) < 4 * se3


class TestBlocks:
    """A random family given a sequence of streams builds their block: one
    pair whose training side stacks one covariance per stream.  Each
    covariance, its factors and its Omega decomposition equal, bit for bit,
    those of the pair built from that stream alone."""

    STREAMS = 5

    @pytest.fixture(scope="class")
    def base(self, ula16):
        return Covariance(*ula16)

    def _families(self, base):
        gammas = np.array([0.5, 1.0, 2.0, 1.5, 0.8])
        alphas = np.random.default_rng(1).uniform(0.5, 2.0, (self.STREAMS, 16))
        return {
            "inverse_wishart": lambda index: inverse_wishart_mismatch(
                base, gammas if index is None else gammas[index], self._rng(index)),
            "ger_blockdiag": lambda index: random_ger_blockdiag_mismatch(
                base, gammas if index is None else gammas[index], self._rng(index)),
            "eigenvalue": lambda index: eigenvalue_mismatch(base, alphas if index is None else alphas[index]),
        }

    def _rng(self, index):
        return [RngStream(23, i) for i in range(self.STREAMS)] if index is None else RngStream(23, index)

    @pytest.mark.parametrize("kind", ["inverse_wishart", "ger_blockdiag", "eigenvalue"])
    def test_block_equals_its_pairs(self, base, kind):
        build = self._families(base)[kind]
        block = build(None)
        omegas = build_omega(block)
        assert len(omegas) == self.STREAMS
        for index in range(self.STREAMS):
            pair = build(index)
            for field in ("sigma", "chol", "white_v"):
                assert np.array_equal(getattr(block.training, field)[index], getattr(pair.training, field))
            assert block.training.v_sigma_v[index] == pair.training.v_sigma_v
            single = build_omega(pair)[0]
            for field in ("omega22", "omega_2_1", "lam", "delta"):
                assert np.array_equal(getattr(omegas[index], field), getattr(single, field)), field
            for key, value in pair.params.items():  # arrays per realization, shared ints as they are
                blocked = block.params[key]
                assert np.array_equal(blocked[index] if np.ndim(blocked) else blocked, value), key

    def test_a_stack_indexes_as_its_realizations(self, base):
        omega = build_omega(self._families(base)["ger_blockdiag"](None))
        assert len(omega) == self.STREAMS
        row = omega[2]
        assert (type(row.omega22), type(row.omega_2_1)) == (float, float)
        for field in ("omega22", "omega_2_1", "lam", "delta"):
            assert np.array_equal(getattr(row, field), getattr(omega, field)[2]), field

    def test_a_failing_realization_fails_the_block(self, base):
        alphas = np.ones((3, 16))
        alphas[1] = np.logspace(0.0, -30.0, 16)  # a 300 dB spread: Omega's block rounds to a negative eigenvalue
        block = eigenvalue_mismatch(base, alphas)
        with pytest.raises(NotPositiveDefinite) as failure:
            build_omega(block)
        assert failure.value.rows.tolist() == [1]
        with pytest.raises(NotPositiveDefinite):  # sigma_t too falls below the Cholesky floor, once formed
            block.training.chol
