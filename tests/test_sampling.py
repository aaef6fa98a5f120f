import numpy as np
import pytest
from scipy.special import digamma, polygamma

from snrloss.errors import NotPositiveDefinite
from snrloss.montecarlo import two_sample_ks
from snrloss.sampling import RngStream, sample_wishart_factor

from oracles import sample_chi2, sample_wishart_snapshots


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 5).generator.standard_normal(16)
        b = RngStream(123, 5).generator.standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator.standard_normal(16)
        b = RngStream(123, 1).generator.standard_normal(16)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("stream_id", [0, 7, 2**64 + 3])
    def test_is_philox_keyed_by_seed_and_stream_modulo_two_to_the_64(self, seed, stream_id):
        key = np.array([seed % 2**64, stream_id % 2**64], dtype=np.uint64)
        got = RngStream(seed, stream_id).generator.bit_generator.random_raw(100_000)
        assert np.array_equal(got, np.random.Philox(key=key).random_raw(100_000))


def _wishart(dim, dof, scale, rng):
    low = sample_wishart_factor(dim, dof, scale, rng)
    return low @ low.conj().T


class TestWishart:
    """W = L L^H from the Bartlett factor ``sample_wishart_factor`` draws."""

    def test_mean(self):
        rng = RngStream(3)
        acc = np.zeros((3, 3), dtype=complex)
        draws = 10_000
        for _ in range(draws):
            acc += _wishart(3, 6, 1.0, rng)
        mean = acc / draws
        assert np.allclose(mean, 6 * np.eye(3), atol=0.05 * 6)

    def test_scale_multiplies_mean(self):
        rng = RngStream(1)
        draws = 10_000
        acc = np.zeros((2, 2), dtype=complex)
        for _ in range(draws):
            acc += _wishart(2, 5, 3.5, rng)
        mean = acc / draws
        assert np.allclose(mean, 5 * 3.5 * np.eye(2), atol=0.05 * 5 * 3.5)

    def test_scalar_case_is_chi_square_mean(self):
        rng = RngStream(4)
        draws = np.array([_wishart(1, 5, 1.0, rng)[0, 0].real for _ in range(20_000)])
        # 1x1 complex Wishart with n dof has mean n
        assert draws.mean() == pytest.approx(5.0, rel=0.02)

    def test_inverse_mean(self):
        # E[W^-1] = scale^-1 / (dof - dim)
        p, n = 2, 8
        rng = RngStream(5)
        acc = np.zeros((p, p), dtype=complex)
        draws = 100_000
        for _ in range(draws):
            acc += np.linalg.inv(_wishart(p, n, 1.0, rng))
        mean = acc / draws
        assert np.allclose(mean, np.eye(p) / (n - p), rtol=0.05, atol=0.05 / (n - p))

    def test_hermitian_pd(self):
        # L is lower triangular with a real positive diagonal: W's Cholesky factor
        low = sample_wishart_factor(4, 6, 1.0, RngStream(6))
        assert np.array_equal(low, np.tril(low))
        assert np.all(np.diag(low).imag == 0) and np.all(np.diag(low).real > 0)
        w = low @ low.conj().T
        assert np.all(np.linalg.eigvalsh(w) > 0)
        assert np.allclose(np.linalg.cholesky(w), low)

    def test_deterministic(self):
        w1 = sample_wishart_factor(3, 5, 0.4, RngStream(9, 3))
        w2 = sample_wishart_factor(3, 5, 0.4, RngStream(9, 3))
        assert np.array_equal(w1, w2)

    def test_rejects_singular_spec(self):
        with pytest.raises(ValueError):
            sample_wishart_factor(4, 3, 1.0, RngStream(0))

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_scale(self, scale):
        # a positive scale that rounded to 0 or inf is a numerical breakdown
        # (typed, so sweep skips it); a negative or NaN one a wrong argument
        with pytest.raises(NotPositiveDefinite if scale in (0.0, np.inf) else ValueError):
            sample_wishart_factor(2, 4, scale, RngStream(0))

    def test_block_draws_each_matrix_from_its_own_stream(self):
        streams = [RngStream(9, index) for index in range(3)]
        scales = np.array([0.4, 1.0, 2.5])
        block = sample_wishart_factor(3, 5, scales, streams)
        for index, scale in enumerate(scales):
            assert np.array_equal(block[index], sample_wishart_factor(3, 5, scale, RngStream(9, index)))

    def test_block_rejects_one_bad_scale(self):
        with pytest.raises(NotPositiveDefinite) as failure:
            sample_wishart_factor(2, 4, np.array([1.0, 0.0]), [RngStream(0, 0), RngStream(0, 1)])
        assert failure.value.rows.tolist() == [1]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_has_the_law_of_the_snapshot_draw(self, seed):
        # two-sample KS of tr W and log det W against W = X X^H from snapshots
        dim, dof, scale, draws = 3, 5, 0.7, 4000
        factor_rng, snapshot_rng = RngStream(seed, 0), RngStream(seed, 1)
        factors = np.array([sample_wishart_factor(dim, dof, scale, factor_rng) for _ in range(draws)])
        snapshots = np.array([sample_wishart_snapshots(dim, dof, scale, snapshot_rng) for _ in range(draws)])
        statistics = [
            (np.trace(factors @ factors.conj().swapaxes(-1, -2), axis1=-2, axis2=-1).real,
             np.trace(snapshots, axis1=-2, axis2=-1).real),
            (2.0 * np.log(np.diagonal(factors, axis1=-2, axis2=-1).real).sum(axis=-1),
             np.linalg.slogdet(snapshots)[1]),
        ]
        for of_factors, of_snapshots in statistics:
            assert two_sample_ks(of_factors, of_snapshots)[1] > 1e-3

    def test_mean_log_det_is_exact(self):
        # log det W = sum_i log(scale Gamma(dof - i)): its mean is
        # dim log scale + sum_i psi(dof - i), its variance sum_i psi'(dof - i)
        dim, dof, scale, draws = 3, 5, 2.5, 20_000
        shapes = dof - np.arange(dim)
        block = sample_wishart_factor(dim, dof, scale, [RngStream(12, index) for index in range(draws)])
        log_det = 2.0 * np.log(np.diagonal(block, axis1=-2, axis2=-1).real).sum(axis=-1)
        standard_error = np.sqrt(polygamma(1, shapes).sum() / draws)
        assert abs(log_det.mean() - (dim * np.log(scale) + digamma(shapes).sum())) < 4 * standard_error


class TestChi2:
    """The chi-square sampler of ``tests/oracles.py``, which the shifted-fit
    oracle draws through."""

    def test_exponential_case(self):
        draws = sample_chi2(2.0, RngStream(7), size=100_000)
        assert draws.mean() == pytest.approx(2.0, rel=0.02)

    def test_moments_dof_30(self):
        draws = sample_chi2(30.0, RngStream(8), size=100_000)
        assert draws.mean() == pytest.approx(30.0, rel=0.02)
        assert draws.var() == pytest.approx(60.0, rel=0.05)

    def test_fractional_dof(self):
        draws = sample_chi2(0.7, RngStream(9), size=200_000)
        assert draws.mean() == pytest.approx(0.7, rel=0.03)

    def test_deterministic(self):
        a = sample_chi2(3.0, RngStream(10, 2), size=8)
        b = sample_chi2(3.0, RngStream(10, 2), size=8)
        assert np.array_equal(a, b)

    def test_invalid_dof(self):
        with pytest.raises(ValueError):
            sample_chi2(0.0, RngStream(0))
