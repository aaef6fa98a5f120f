import numpy as np
import pytest

from snrloss.approximation import assemble_loss
from snrloss import montecarlo
from snrloss.errors import SingularSCM, TooFewSamples
from snrloss.mismatch import QuadraticFormSpec, build_omega, cumulants_q, to_quadratic_form
from snrloss.montecarlo import (
    SampleSet,
    _batched_cholesky_solve,
    empirical_summary,
    ks_statistic,
    pair_digest,
    simulate_loss_direct,
    simulate_loss_representation,
    two_sample_ks,
)
from snrloss.sampling import RngStream
from snrloss.scenarios import (
    ArrayScenario,
    ScenarioPair,
    eigenvalue_mismatch,
    interference_covariance,
    no_mismatch,
    random_ger_blockdiag_mismatch,
    steering_vector,
)

from oracles import _dense_cholesky_solve, simulate_loss_scm


@pytest.fixture(scope="module")
def nomismatch16():
    scenario = ArrayScenario(n_elements=16)
    sigma = interference_covariance(scenario)
    v = steering_vector(0.0, 16)
    return no_mismatch(sigma, v)


def no_mismatch_spec(n_elements=16, n_training=32):
    m = n_elements - 1
    return QuadraticFormSpec(lam=np.ones(m), h=np.full(m, 2.0), delta=np.zeros(m),
                             p=2.0 * (n_training - n_elements + 2), scale=1.0)


class TestDirectSampler:
    def test_no_mismatch_matches_beta(self, nomismatch16):
        samples = simulate_loss_direct(nomismatch16, 32, 100_000, RngStream(1))
        d = assemble_loss(None, None, 32, 16, "exact_beta")
        assert ks_statistic(samples.values, d) < 0.006

    def test_two_by_two_identity_mean(self):
        pair = ScenarioPair(sigma=np.eye(2, dtype=complex), sigma_t=np.eye(2, dtype=complex),
                            v=np.array([1.0, 0.0], dtype=complex))
        samples = simulate_loss_direct(pair, 2, 60_000, RngStream(2))
        # loss ~ Beta(2, 1): mean 2/3
        assert samples.values.mean() == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_deterministic(self, nomismatch16):
        a = simulate_loss_direct(nomismatch16, 32, 2_000, RngStream(3, 4))
        b = simulate_loss_direct(nomismatch16, 32, 2_000, RngStream(3, 4))
        assert np.array_equal(a.values, b.values)
        assert a.scenario_digest == b.scenario_digest

    def test_batching_invariance(self, nomismatch16):
        a = simulate_loss_direct(nomismatch16, 32, 5_000, RngStream(5), batch_size=512)
        b = simulate_loss_direct(nomismatch16, 32, 5_000, RngStream(5), batch_size=4096)
        assert np.array_equal(a.values, b.values)

    def test_batching_invariance_across_gamma_blocks(self, nomismatch16, monkeypatch):
        monkeypatch.setattr(montecarlo, "_GAMMA_BLOCK", 1_000)
        a = simulate_loss_direct(nomismatch16, 32, 2_500, RngStream(5), batch_size=300)
        b = simulate_loss_direct(nomismatch16, 32, 2_500, RngStream(5), batch_size=4096)
        assert np.array_equal(a.values, b.values)

    def test_values_strictly_inside_unit_interval(self, nomismatch16):
        samples = simulate_loss_direct(nomismatch16, 32, 20_000, RngStream(6))
        assert samples.values.min() > 0.0
        assert samples.values.max() < 1.0

    def test_square_scm_matches_beta(self):
        # K = N: the last Bartlett diagonal is sqrt(Gamma(1)); loss ~ Beta(2, N - 1)
        sigma = interference_covariance(ArrayScenario(n_elements=4, n_training=4))
        pair = no_mismatch(sigma, steering_vector(0.0, 4))
        samples = simulate_loss_direct(pair, 4, 100_000, RngStream(15))
        d = assemble_loss(None, None, 4, 4, "exact_beta")
        assert ks_statistic(samples.values, d) < 0.006

    def test_non_positive_diagonal_raises(self, nomismatch16):
        class ZeroGammaStream:
            seed = 0

            class generator:
                @staticmethod
                def standard_gamma(shape, size):
                    return np.zeros(size)

        with pytest.raises(SingularSCM):
            simulate_loss_direct(nomismatch16, 32, 10, ZeroGammaStream())

    def test_metadata(self, nomismatch16):
        samples = simulate_loss_direct(nomismatch16, 32, 1_000, RngStream(7))
        assert samples.sampler == "direct_scm"
        assert samples.trials == 1_000
        assert samples.seed == 7
        assert samples.scenario_digest == pair_digest(nomismatch16)


def _ula_sigma_v(n_elements, n_training):
    sigma = interference_covariance(ArrayScenario(n_elements=n_elements, n_training=n_training))
    return sigma, steering_vector(0.0, n_elements)


def _none_pair():
    return no_mismatch(*_ula_sigma_v(8, 16))


def _eigenvalue_pair():
    return eigenvalue_mismatch(*_ula_sigma_v(16, 32), rng=RngStream(31))


def _ger_blockdiag_pair():
    return random_ger_blockdiag_mismatch(*_ula_sigma_v(32, 96), gamma=1.5, rng=RngStream(32))


class TestSnapshotOracle:
    """The Bartlett draw against the literal snapshot sampler X, X X^H,
    chol(S) of ``tests/oracles.py``."""

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_packed_solve_matches_dense_substitution(self, n):
        gen = np.random.default_rng(n)
        diag = np.sqrt(gen.gamma(n + 3.0 - np.arange(n), size=(64, n)))
        rows, cols = np.tril_indices(n, -1)
        below = gen.standard_normal((64, rows.size)) + 1j * gen.standard_normal((64, rows.size))
        low = np.zeros((64, n, n), dtype=complex)
        low[:, rows, cols] = below
        low[:, np.arange(n), np.arange(n)] = diag
        w = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        np.testing.assert_allclose(_batched_cholesky_solve(diag, below, w),
                                   _dense_cholesky_solve(low, w), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("build,n_training,trials,is_ger", [
        (_none_pair, 16, 40_000, True),
        (_eigenvalue_pair, 32, 20_000, False),
        (_ger_blockdiag_pair, 96, 10_000, True),
    ], ids=["none-8x16", "eigenvalue-16x32", "ger_blockdiag-32x96"])
    def test_two_sample_ks_against_snapshots(self, build, n_training, trials, is_ger):
        pair = build()
        assert build_omega(pair).is_ger == is_ger
        bartlett = simulate_loss_direct(pair, n_training, trials, RngStream(21))
        snapshots = simulate_loss_scm(pair, n_training, trials, RngStream(22))
        _, pvalue = two_sample_ks(bartlett.values, snapshots.values)
        assert pvalue > 0.001


class TestRepresentationSampler:
    def test_matches_direct_no_mismatch(self, nomismatch16):
        direct = simulate_loss_direct(nomismatch16, 32, 50_000, RngStream(8))
        spec = to_quadratic_form(build_omega(nomismatch16), 32, 16)
        rep = simulate_loss_representation(spec, 50_000, RngStream(9))
        _, pvalue = two_sample_ks(direct.values, rep.values)
        assert pvalue > 0.001

    def test_matches_exact_mpdr_pdf(self):
        spec = QuadraticFormSpec(lam=np.ones(15), h=np.full(15, 2.0), delta=np.zeros(15),
                                 p=36.0, scale=11.0)
        rep = simulate_loss_representation(spec, 100_000, RngStream(10))
        d = assemble_loss(None, None, 32, 16, "exact_mpdr", gamma=1.0, soi_power=10.0)
        assert ks_statistic(rep.values, d) < 0.006

    def test_plain_ratio_case(self):
        spec = no_mismatch_spec()
        rep = simulate_loss_representation(spec, 100_000, RngStream(11))
        d = assemble_loss(None, None, 32, 16, "exact_beta")
        assert ks_statistic(rep.values, d) < 0.006

    def test_deterministic(self):
        spec = no_mismatch_spec()
        a = simulate_loss_representation(spec, 1_000, RngStream(12, 1))
        b = simulate_loss_representation(spec, 1_000, RngStream(12, 1))
        assert np.array_equal(a.values, b.values)


class TestSharding:
    def test_shards_bit_reproducible_and_equivalent(self, nomismatch16):
        spec = to_quadratic_form(build_omega(nomismatch16), 32, 16)
        shards = [RngStream(99, i) for i in range(4)]
        parts = [simulate_loss_representation(spec, 25_000, s) for s in shards]
        again = [simulate_loss_representation(spec, 25_000, RngStream(99, i)) for i in range(4)]
        for p, q in zip(parts, again):
            assert np.array_equal(p.values, q.values)
        combined = np.concatenate([p.values for p in parts])
        single = simulate_loss_representation(spec, 100_000, RngStream(17)).values
        _, pvalue = two_sample_ks(combined, single)
        assert pvalue > 0.001


class TestEmpiricalSummary:
    def test_uniform_calibration(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(1e-9, 1 - 1e-9, 50_000)

        class UniformRef:
            def cdf(self, x):
                return np.clip(x, 0.0, 1.0)

        assert ks_statistic(values, UniformRef()) < 3 * 1.36 / np.sqrt(values.size)
        summary = empirical_summary(values)
        # uniform cumulants: 1/2, 1/12, 0
        assert abs(summary.k1 - 0.5) < 4 * summary.k1_se
        assert abs(summary.k2 - 1.0 / 12.0) < 4 * summary.k2_se
        assert abs(summary.k3) < 4 * summary.k3_se

    def test_no_mismatch_against_beta(self, nomismatch16):
        spec = to_quadratic_form(build_omega(nomismatch16), 32, 16)
        samples = simulate_loss_representation(spec, 100_000, RngStream(13))
        d = assemble_loss(None, None, 32, 16, "exact_beta")
        assert ks_statistic(samples.values, d) < 1.36 / np.sqrt(samples.trials) * 1.4

    def test_k_statistics_match_analytic_cumulants(self):
        # k-statistics of raw Q draws against the analytic triple
        spec = no_mismatch_spec()
        kappa = cumulants_q(spec)
        gen = RngStream(14).generator
        n = 400_000
        v = 2.0 * gen.standard_gamma(0.5 * spec.p, n)
        z1 = gen.standard_normal((n, 15))
        z2 = gen.standard_normal((n, 15))
        q = ((z1**2 + z2**2) * spec.lam).sum(axis=1) / v
        summary = empirical_summary(q)
        assert abs(summary.k1 - kappa.k1) < 4 * summary.k1_se
        assert abs(summary.k2 - kappa.k2) < 4 * summary.k2_se
        assert abs(summary.k3 - kappa.k3) < 4 * summary.k3_se

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            empirical_summary(np.full(10, 0.5))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError):
            SampleSet(values=np.array([0.5, 1.0]), sampler="representation", seed=0,
                      trials=2, scenario_digest="x")
