import numpy as np
import pytest

from snrloss.errors import NotPositiveDefinite
from snrloss.sampling import RngStream, sample_wishart

from oracles import sample_chi2


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 5).generator.standard_normal(16)
        b = RngStream(123, 5).generator.standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator.standard_normal(16)
        b = RngStream(123, 1).generator.standard_normal(16)
        assert not np.allclose(a, b)


class TestWishart:
    def test_mean(self):
        rng = RngStream(3)
        acc = np.zeros((3, 3), dtype=complex)
        draws = 10_000
        for _ in range(draws):
            acc += sample_wishart(3, 6, 1.0, rng)
        mean = acc / draws
        assert np.allclose(mean, 6 * np.eye(3), atol=0.05 * 6)

    def test_scale_multiplies_mean(self):
        rng = RngStream(1)
        draws = 10_000
        acc = np.zeros((2, 2), dtype=complex)
        for _ in range(draws):
            acc += sample_wishart(2, 5, 3.5, rng)
        mean = acc / draws
        assert np.allclose(mean, 5 * 3.5 * np.eye(2), atol=0.05 * 5 * 3.5)

    def test_scalar_case_is_chi_square_mean(self):
        rng = RngStream(4)
        draws = np.array([sample_wishart(1, 5, 1.0, rng)[0, 0].real for _ in range(20_000)])
        # 1x1 complex Wishart with n dof has mean n
        assert draws.mean() == pytest.approx(5.0, rel=0.02)

    def test_inverse_mean(self):
        # E[W^-1] = scale^-1 / (dof - dim)
        p, n = 2, 8
        rng = RngStream(5)
        acc = np.zeros((p, p), dtype=complex)
        draws = 100_000
        for _ in range(draws):
            acc += np.linalg.inv(sample_wishart(p, n, 1.0, rng))
        mean = acc / draws
        assert np.allclose(mean, np.eye(p) / (n - p), rtol=0.05, atol=0.05 / (n - p))

    def test_hermitian_pd(self):
        rng = RngStream(6)
        w = sample_wishart(4, 6, 1.0, rng)
        assert np.allclose(w, w.conj().T)
        assert np.all(np.linalg.eigvalsh(w) > 0)

    def test_deterministic(self):
        w1 = sample_wishart(3, 5, 0.4, RngStream(9, 3))
        w2 = sample_wishart(3, 5, 0.4, RngStream(9, 3))
        assert np.array_equal(w1, w2)

    def test_rejects_singular_spec(self):
        with pytest.raises(ValueError):
            sample_wishart(4, 3, 1.0, RngStream(0))

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_scale(self, scale):
        # a positive scale that rounded to 0 or inf is a numerical breakdown
        # (typed, so sweep skips it); a negative or NaN one a wrong argument
        with pytest.raises(NotPositiveDefinite if scale in (0.0, np.inf) else ValueError):
            sample_wishart(2, 4, scale, RngStream(0))

    def test_block_draws_each_matrix_from_its_own_stream(self):
        streams = [RngStream(9, index) for index in range(3)]
        scales = np.array([0.4, 1.0, 2.5])
        block = sample_wishart(3, 5, scales, streams)
        for index, scale in enumerate(scales):
            assert np.array_equal(block[index], sample_wishart(3, 5, scale, RngStream(9, index)))

    def test_block_rejects_one_bad_scale(self):
        with pytest.raises(NotPositiveDefinite):
            sample_wishart(2, 4, np.array([1.0, 0.0]), [RngStream(0, 0), RngStream(0, 1)])


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
