import numpy as np
import pytest

from snrloss.errors import InvalidDof, NotPositiveDefinite
from snrloss.sampling import (
    RngStream,
    WishartSpec,
    make_streams,
    sample_chi2,
    sample_complex_gaussian_matrix,
    sample_wishart,
)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 5).generator.standard_normal(16)
        b = RngStream(123, 5).generator.standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator.standard_normal(16)
        b = RngStream(123, 1).generator.standard_normal(16)
        assert not np.allclose(a, b)

    def test_make_streams_ids(self):
        streams = make_streams(7, 4)
        assert [s.stream_id for s in streams] == [0, 1, 2, 3]
        assert all(s.seed == 7 for s in streams)


class TestComplexGaussianMatrix:
    def test_identity_second_moment(self):
        rng = RngStream(1)
        x = sample_complex_gaussian_matrix(4, 100_000 // 4, np.eye(4), rng)
        second = np.mean(np.abs(x) ** 2)
        assert second == pytest.approx(1.0, abs=0.02)

    def test_diagonal_covariance(self):
        rng = RngStream(2)
        cov = np.diag([2.0, 5.0])
        x = sample_complex_gaussian_matrix(2, 100_000, cov, rng)
        second = np.mean(np.abs(x) ** 2, axis=1)
        assert np.allclose(second, [2.0, 5.0], rtol=0.02)

    def test_deterministic(self):
        cov = np.eye(3)
        x1 = sample_complex_gaussian_matrix(3, 5, cov, RngStream(9, 3))
        x2 = sample_complex_gaussian_matrix(3, 5, cov, RngStream(9, 3))
        assert np.array_equal(x1, x2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            sample_complex_gaussian_matrix(2, 2, np.diag([1.0, -1.0]), RngStream(0))


class TestWishart:
    def test_mean(self):
        spec = WishartSpec(dim=3, dof=6, scale=np.eye(3, dtype=complex))
        rng = RngStream(3)
        acc = np.zeros((3, 3), dtype=complex)
        draws = 10_000
        for _ in range(draws):
            acc += sample_wishart(spec, rng)
        mean = acc / draws
        assert np.allclose(mean, 6 * np.eye(3), atol=0.05 * 6)

    def test_scalar_case_is_chi_square_mean(self):
        spec = WishartSpec(dim=1, dof=5, scale=np.eye(1, dtype=complex))
        rng = RngStream(4)
        draws = np.array([sample_wishart(spec, rng)[0, 0].real for _ in range(20_000)])
        # 1x1 complex Wishart with n dof has mean n
        assert draws.mean() == pytest.approx(5.0, rel=0.02)

    def test_inverse_mean(self):
        # E[W^-1] = scale^-1 / (dof - dim)
        p, n = 2, 8
        spec = WishartSpec(dim=p, dof=n, scale=np.eye(p, dtype=complex))
        rng = RngStream(5)
        acc = np.zeros((p, p), dtype=complex)
        draws = 100_000
        for _ in range(draws):
            acc += np.linalg.inv(sample_wishart(spec, rng))
        mean = acc / draws
        assert np.allclose(mean, np.eye(p) / (n - p), rtol=0.05, atol=0.05 / (n - p))

    def test_hermitian_pd(self):
        spec = WishartSpec(dim=4, dof=6, scale=np.eye(4, dtype=complex))
        rng = RngStream(6)
        w = sample_wishart(spec, rng)
        assert np.allclose(w, w.conj().T)
        assert np.all(np.linalg.eigvalsh(w) > 0)

    def test_rejects_singular_spec(self):
        with pytest.raises(ValueError):
            WishartSpec(dim=4, dof=3, scale=np.eye(4, dtype=complex))


class TestChi2:
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
        with pytest.raises(InvalidDof):
            sample_chi2(0.0, RngStream(0))
