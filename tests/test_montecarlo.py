import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from snrloss.approximation import LossDistribution, analyze
from snrloss import montecarlo
from snrloss.cli import build_base, build_pair
from snrloss.errors import OutOfSupport, SingularSCM, TooFewSamples
from snrloss.mismatch import QuadraticFormSpec, build_omega, cumulants_q, to_quadratic_form
from snrloss.montecarlo import (
    _batched_cholesky_solve,
    empirical_summary,
    ks_statistic,
    simulate_loss_direct,
    simulate_loss_representation,
    two_sample_ks,
)
from snrloss.sampling import RngStream
from snrloss.scenarios import (
    ArrayScenario,
    Covariance,
    ScenarioPair,
    eigenvalue_mismatch,
    interference_covariance,
    no_mismatch,
    random_ger_blockdiag_mismatch,
    sample_uniform_db,
    steering_vector,
)

from oracles import (
    _dense_cholesky_solve,
    bartlett_factors,
    direct_loss_mp,
    ks_statistic_all_points,
    prob_outside_square_mp,
    simulate_loss_scm,
)


@pytest.fixture(scope="module")
def nomismatch16():
    scenario = ArrayScenario(n_elements=16)
    sigma = interference_covariance(scenario)
    v = steering_vector(0.0, 16)
    return no_mismatch(Covariance(sigma, v))


def no_mismatch_spec(n_elements=16, n_training=32):
    m = n_elements - 1
    return QuadraticFormSpec(lam=np.ones(m), delta=np.zeros(m),
                             p=2.0 * (n_training - n_elements + 2), scale=1.0)


class TestDirectSampler:
    def test_no_mismatch_matches_beta(self, nomismatch16):
        samples = simulate_loss_direct(nomismatch16, 32, 100_000, RngStream(1))
        d = LossDistribution(1.0, 30.0, 36.0)
        assert ks_statistic(samples, d) < 0.006

    def test_two_by_two_identity_mean(self):
        base = Covariance(np.eye(2, dtype=complex), np.array([1.0, 0.0], dtype=complex))
        pair = ScenarioPair(operating=base, training=base)
        samples = simulate_loss_direct(pair, 2, 60_000, RngStream(2))
        # loss ~ Beta(2, 1): mean 2/3
        assert samples.mean() == pytest.approx(2.0 / 3.0, abs=0.01)

    def test_deterministic(self, nomismatch16):
        a = simulate_loss_direct(nomismatch16, 32, 2_000, RngStream(3, 4))
        b = simulate_loss_direct(nomismatch16, 32, 2_000, RngStream(3, 4))
        assert np.array_equal(a, b)

    def test_values_strictly_inside_unit_interval(self, nomismatch16):
        samples = simulate_loss_direct(nomismatch16, 32, 20_000, RngStream(6))
        assert type(samples) is np.ndarray
        assert samples.dtype == np.float64 and samples.shape == (20_000,)
        assert samples.min() > 0.0
        assert samples.max() < 1.0

    def test_square_scm_matches_beta(self):
        # K = N: the last Bartlett diagonal is sqrt(Gamma(1)); loss ~ Beta(2, N - 1)
        sigma = interference_covariance(ArrayScenario(n_elements=4, n_training=4))
        pair = no_mismatch(Covariance(sigma, steering_vector(0.0, 4)))
        samples = simulate_loss_direct(pair, 4, 100_000, RngStream(15))
        d = LossDistribution(1.0, 6.0, 4.0)
        assert ks_statistic(samples, d) < 0.006

    def test_non_positive_diagonal_raises(self, nomismatch16):
        class ZeroGammaStream:
            class generator:
                @staticmethod
                def standard_gamma(shape, size):
                    return np.zeros(size)

        with pytest.raises(SingularSCM):
            simulate_loss_direct(nomismatch16, 32, 10, ZeroGammaStream())


_B = montecarlo._BLOCK


class RecordingStream:
    """An RngStream whose generator logs each draw's kind, size and thread
    and keeps a copy of every draw."""

    def __init__(self, seed, gamma_hook=None):
        self.calls, self.draws = [], []
        self._generator = seed.generator if isinstance(seed, RngStream) else RngStream(seed).generator
        self._gamma_hook = gamma_hook
        self.generator = self

    def standard_gamma(self, shape, size):
        self.calls.append(("gamma", size, threading.get_ident()))
        draw = self._generator.standard_gamma(shape, size)
        if self._gamma_hook is not None:
            draw = self._gamma_hook(len(self.calls), draw)
        self.draws.append(draw.copy())
        return draw

    def standard_normal(self, size):
        self.calls.append(("normal", size, threading.get_ident()))
        draw = self._generator.standard_normal(size)
        self.draws.append(draw.copy())
        return draw

    def blocks(self):
        """The recorded (gammas, normals) pairs, one a block."""
        return list(zip(self.draws[::2], self.draws[1::2]))


def _mismatched_pair(n):
    return eigenvalue_mismatch(Covariance(*_ula_sigma_v(n, 2 * n)), sample_uniform_db(RngStream(31), size=n))


class TestBlockedDirectSampler:
    """Blocks of ``_BLOCK`` trials, each drawn trial-last and solved on the
    calling thread before the next is drawn."""

    def test_stream_layout(self):
        stream = RecordingStream(44)
        simulate_loss_direct(_mismatched_pair(16), 32, 2 * _B + 5, stream)
        layout = []
        for block in (_B, _B, 5):
            layout += [("gamma", (16, block)), ("normal", (120, block, 2))]
        assert [(kind, size) for kind, size, _ in stream.calls] == layout
        assert {thread for _, _, thread in stream.calls} == {threading.get_ident()}

    @pytest.mark.parametrize("n", [2, 16])
    @pytest.mark.parametrize("trials", [1, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1, 4 * _B + 3])
    def test_matches_dense_solve(self, n, trials):
        # S = G_t L L^H G_t^H, so G_t L is the Cholesky factor of S: the loss
        # definition evaluated by dense substitution on it, as the snapshot
        # oracle does, from the draws the sampler received
        pair = _mismatched_pair(n)
        stream = RecordingStream(41)
        got = simulate_loss_direct(pair, 2 * n, trials, stream)
        low = np.concatenate([bartlett_factors(*block) for block in stream.blocks()])
        assert low.shape == (trials, n, n)
        v, sigma = pair.operating.v, pair.operating.sigma
        u = _dense_cholesky_solve(pair.training.chol @ low, v)  # S^-1 v
        num = np.einsum("i,bi->b", v.conj(), u).real ** 2
        den = np.vdot(v, np.linalg.solve(sigma, v)).real * np.einsum("bi,ij,bj->b", u.conj(), sigma, u).real
        np.testing.assert_allclose(got, num / den, rtol=1e-12, atol=0)

    def test_singular_later_block_raises(self, nomismatch16):
        def second_block_zero(call, draw):
            return np.zeros_like(draw) if call > 1 else draw

        stream = RecordingStream(46, second_block_zero)
        with pytest.raises(SingularSCM):
            simulate_loss_direct(nomismatch16, 32, 2 * _B + 5, stream)
        # raised at the second block's gammas, before its normals are drawn
        assert [kind for kind, _, _ in stream.calls] == ["gamma", "normal", "gamma"]

    def test_starts_no_thread(self, nomismatch16, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        simulate_loss_direct(nomismatch16, 32, 3 * _B, RngStream(45))
        assert started == []

    @pytest.mark.parametrize("seed", range(1, 25))
    def test_draws_round_onto_one_as_their_exact_values_do(self, seed, monkeypatch):
        # at N = 2 the loss is Beta(K, 1) and 1 - loss is about 1/K, so at
        # K = 10^13 about one draw in two thousand lies within half an ulp
        # of 1; the sampler's values are those of `simulate --seed <seed>`
        config = {"array": {"n_elements": 2, "n_training": 10**13}, "mismatch": {"kind": "none"}}
        scenario, base = build_base(config)
        pair = build_pair(config, base, RngStream(seed, 0))
        checked = []
        monkeypatch.setattr(montecarlo, "_check_support", lambda values, sampler: checked.append(values))
        stream = RecordingStream(RngStream(seed, 1))
        simulate_loss_direct(pair, scenario.n_training, 1_000, stream)
        (values,), ((gammas, normals),) = checked, stream.blocks()
        exact = np.array([float(value) for value in direct_loss_mp(gammas, normals, pair)])
        assert np.count_nonzero(values >= 1.0) == np.count_nonzero(exact >= 1.0)


def _ula_sigma_v(n_elements, n_training):
    sigma = interference_covariance(ArrayScenario(n_elements=n_elements, n_training=n_training))
    return sigma, steering_vector(0.0, n_elements)


def _none_pair():
    return no_mismatch(Covariance(*_ula_sigma_v(8, 16)))


def _eigenvalue_pair():
    return eigenvalue_mismatch(Covariance(*_ula_sigma_v(16, 32)), sample_uniform_db(RngStream(31), size=16))


def _ger_blockdiag_pair():
    return random_ger_blockdiag_mismatch(Covariance(*_ula_sigma_v(32, 96)), gamma=1.5, rng=RngStream(32))


class TestSnapshotOracle:
    """The Bartlett draw against the literal snapshot sampler X, X X^H,
    chol(S) of ``tests/oracles.py``."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16])
    def test_packed_solve_matches_dense_substitution(self, n):
        gen = np.random.default_rng(n)
        diag = np.sqrt(gen.gamma(n + 3.0 - np.arange(n), size=(64, n)))
        rows, cols = np.tril_indices(n, -1)
        below = gen.standard_normal((64, rows.size)) + 1j * gen.standard_normal((64, rows.size))
        low = np.zeros((64, n, n), dtype=complex)
        low[:, rows, cols] = below
        low[:, np.arange(n), np.arange(n)] = diag
        w = gen.standard_normal(n) + 1j * gen.standard_normal(n)
        u, wu = _batched_cholesky_solve(diag.T.copy(), below.T.copy(), w)
        want = _dense_cholesky_solve(low, w)
        np.testing.assert_allclose(u.T, want, rtol=1e-12, atol=0)
        np.testing.assert_allclose(u.T, np.linalg.solve(low @ low.conj().transpose(0, 2, 1), w), rtol=1e-12, atol=0)
        # the numerator from the forward solve is w^H u, real and positive
        assert wu.dtype == np.float64 and (wu > 0).all()
        np.testing.assert_allclose(wu, np.einsum("i,bi->b", w.conj(), want), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("build,n_training,trials,is_ger", [
        (_none_pair, 16, 40_000, True),
        (_eigenvalue_pair, 32, 20_000, False),
        (_ger_blockdiag_pair, 96, 10_000, True),
    ], ids=["none-8x16", "eigenvalue-16x32", "ger_blockdiag-32x96"])
    def test_two_sample_ks_against_snapshots(self, build, n_training, trials, is_ger):
        pair = build()
        assert to_quadratic_form(build_omega(pair)[0], n_training).is_ger is is_ger
        bartlett = simulate_loss_direct(pair, n_training, trials, RngStream(21))
        snapshots = simulate_loss_scm(pair, n_training, trials, RngStream(22))
        _, pvalue = two_sample_ks(bartlett, snapshots)
        assert pvalue > 0.001


class TestRepresentationSampler:
    def test_matches_direct_no_mismatch(self, nomismatch16):
        direct = simulate_loss_direct(nomismatch16, 32, 50_000, RngStream(8))
        spec = to_quadratic_form(build_omega(nomismatch16)[0], 32)
        rep = simulate_loss_representation(spec, 50_000, RngStream(9))
        _, pvalue = two_sample_ks(direct, rep)
        assert pvalue > 0.001

    def test_matches_exact_mpdr_pdf(self):
        spec = QuadraticFormSpec(lam=np.ones(15), delta=np.zeros(15),
                                 p=36.0, scale=11.0)
        rep = simulate_loss_representation(spec, 100_000, RngStream(10))
        d = LossDistribution(11.0, 30.0, 36.0)
        assert ks_statistic(rep, d) < 0.006

    def test_plain_ratio_case(self):
        spec = no_mismatch_spec()
        rep = simulate_loss_representation(spec, 100_000, RngStream(11))
        d = LossDistribution(1.0, 30.0, 36.0)
        assert ks_statistic(rep, d) < 0.006

    def test_deterministic(self):
        spec = no_mismatch_spec()
        a = simulate_loss_representation(spec, 1_000, RngStream(12, 1))
        b = simulate_loss_representation(spec, 1_000, RngStream(12, 1))
        assert type(a) is np.ndarray
        assert a.dtype == np.float64 and a.shape == (1_000,)
        assert np.array_equal(a, b)

    def test_in_place_arithmetic_is_the_plain_formula(self):
        spec = to_quadratic_form(build_omega(_eigenvalue_pair())[0], 32)
        gen = RngStream(19).generator
        v = 2.0 * gen.standard_gamma(0.5 * spec.p, 2_000)
        z1 = gen.standard_normal((2_000, spec.lam.size))
        z2 = gen.standard_normal((2_000, spec.lam.size))
        noncentral = (z1 + np.sqrt(v[:, None] * spec.delta[None, :])) ** 2 + z2**2
        q = (noncentral * spec.lam[None, :]).sum(axis=1) / v
        want = 1.0 / (1.0 + spec.scale * q)
        assert np.array_equal(simulate_loss_representation(spec, 2_000, RngStream(19)), want)

    def test_stack_spec_raises_value_error(self):
        spec = QuadraticFormSpec(lam=np.ones((3, 15)), delta=np.zeros((3, 15)), p=36.0, scale=np.ones(3))
        with pytest.raises(ValueError, match="one realization's spec"):
            simulate_loss_representation(spec, 5, RngStream(18))
        row = QuadraticFormSpec(lam=spec.lam[1], delta=spec.delta[1], p=spec.p, scale=1.0)
        assert simulate_loss_representation(row, 5, RngStream(18)).shape == (5,)


class TestSamplerMemory:
    """tracemalloc counts the bytes numpy asks for, so the peak of one call
    does not move with heap layout as the resident size does.  At 16x32 the
    direct sampler holds its result (8 bytes a trial) and one block of 1,024
    trials: the block's normals (1.9 MiB), its diagonals and the solve's
    trials x N arrays (at most 0.25 MiB each), so its peak grows only with
    the result.  The representation sampler holds two trials x 15 arrays of
    2.3 MiB at 20,000 trials.  Each bound is below one more block or array
    than that."""

    @staticmethod
    def _peak_mib(draw, trials=20_000):
        draw(1_000)  # the first call's lazy imports
        tracemalloc.start()
        try:
            draw(trials)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_direct_sampler_peak(self):
        pair = _eigenvalue_pair()
        assert self._peak_mib(lambda trials: simulate_loss_direct(pair, 32, trials, RngStream(20))) < 6.5

    def test_direct_sampler_peak_at_100000_trials(self):
        pair = _eigenvalue_pair()
        assert self._peak_mib(lambda trials: simulate_loss_direct(pair, 32, trials, RngStream(20)), 100_000) < 6.5

    def test_representation_sampler_peak(self):
        spec = to_quadratic_form(build_omega(_eigenvalue_pair())[0], 32)
        assert self._peak_mib(lambda trials: simulate_loss_representation(spec, trials, RngStream(20))) < 6.5


class TestSharding:
    def test_shards_bit_reproducible_and_equivalent(self, nomismatch16):
        spec = to_quadratic_form(build_omega(nomismatch16)[0], 32)
        shards = [RngStream(99, i) for i in range(4)]
        parts = [simulate_loss_representation(spec, 25_000, s) for s in shards]
        again = [simulate_loss_representation(spec, 25_000, RngStream(99, i)) for i in range(4)]
        for p, q in zip(parts, again):
            assert np.array_equal(p, q)
        combined = np.concatenate([p for p in parts])
        single = simulate_loss_representation(spec, 100_000, RngStream(17))
        _, pvalue = two_sample_ks(combined, single)
        assert pvalue > 0.001


class UniformRef:
    def cdf(self, x):
        return np.clip(x, 0.0, 1.0)


class CountingRef:
    """A reference that counts the points its cdf is evaluated at."""

    def __init__(self, ref):
        self.ref = ref
        self.points = 0

    def cdf(self, x):
        self.points += np.size(x)
        return self.ref.cdf(x)


# the mismatch families validate runs, as CLI configs at 16x32
_MISMATCHES = {
    "none": {"kind": "none"},
    "mpdr": {"kind": "mpdr", "gamma_db": 1.0, "soi_power_db": 10.0},
    "surprise": {"kind": "surprise", "angle_deg": 14.0, "power_db": 10.0},
    "ger_blockdiag": {"kind": "ger_blockdiag", "gamma_range_db": [-6, 6]},
    "eigenvalue": {"kind": "eigenvalue", "alpha_range_db": [-6, 6]},
    "inverse_wishart": {"kind": "inverse_wishart", "gamma_range_db": [-6, 6]},
}


def _validate_draws(kind, seed, trials):
    """The refs and both samplers' draws of ``validate --seed seed`` on a
    16x32 config of this mismatch family."""
    config = {"array": {"n_elements": 16, "n_training": 32}, "mismatch": _MISMATCHES[kind]}
    scenario, base = build_base(config)
    pair = build_pair(config, base, RngStream(seed, 0))
    result = analyze(pair, scenario.n_training)
    direct = simulate_loss_direct(pair, scenario.n_training, trials, RngStream(seed, 1))
    represented = simulate_loss_representation(result.spec, trials, RngStream(seed, 2))
    return result.refs, direct, represented


@pytest.fixture(scope="module")
def ger_draws():
    """The ``validate`` refs of the ger_blockdiag config and 10^5 direct draws, seed 1."""
    refs, direct, _ = _validate_draws("ger_blockdiag", 1, 100_000)
    return refs, direct


class TestKsStatistic:
    """The bracketed statistic against the all-points oracle, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 7])
    @pytest.mark.parametrize("kind", list(_MISMATCHES))
    def test_equals_all_points_on_every_validate_ref(self, kind, seed):
        refs, direct, represented = _validate_draws(kind, seed, 20_000)
        for values in (direct, represented):
            for ref in refs.values():
                assert ks_statistic(values, ref) == ks_statistic_all_points(values, ref)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 20_000, 100_000])
    def test_equals_all_points_at_every_size(self, ger_draws, n):
        refs, direct = ger_draws
        for ref in refs.values():
            assert ks_statistic(direct[:n], ref) == ks_statistic_all_points(direct[:n], ref)
        uniform = np.random.default_rng(n).uniform(size=n)
        assert ks_statistic(uniform, UniformRef()) == ks_statistic_all_points(uniform, UniformRef())

    def test_equals_all_points_with_ties(self, ger_draws):
        refs, direct = ger_draws
        for values in (np.round(direct[:20_000], 3), np.repeat(direct[:300], 7)):
            assert np.unique(values).size < values.size
            for ref in refs.values():
                assert ks_statistic(values, ref) == ks_statistic_all_points(values, ref)

    def test_equals_all_points_against_a_wrong_ref(self, ger_draws):
        _, direct = ger_draws
        wrong = LossDistribution(4.0, 30.0, 36.0)
        distance = ks_statistic(direct, wrong)
        assert distance > 0.3
        assert distance == ks_statistic_all_points(direct, wrong)

    def test_nan_draw_gives_nan(self, ger_draws):
        refs, direct = ger_draws
        values = np.append(direct[:1_000], np.nan)
        for ref in refs.values():
            assert np.isnan(ks_statistic(values, ref))
            assert np.isnan(ks_statistic_all_points(values, ref))

    def test_no_draws_raise(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), UniformRef())

    @pytest.mark.parametrize("bad", [-0.5, 1.5])
    def test_out_of_support_draw_raises(self, ger_draws, bad):
        refs, direct = ger_draws
        values = np.append(direct[:1_000], bad)
        for ref in refs.values():
            with pytest.raises(OutOfSupport):
                ks_statistic(values, ref)

    def test_validate_evaluates_a_tenth_of_the_draws(self):
        # the draws validate --seed 1 makes on the ger_blockdiag config
        refs, direct, _ = _validate_draws("ger_blockdiag", 1, 20_000)
        _assert_evaluated_share(refs, direct, 0.10)

    def test_evaluates_three_percent_of_a_large_sample(self, ger_draws):
        _assert_evaluated_share(*ger_draws, 0.03)


def _assert_evaluated_share(refs, values, share):
    for ref in refs.values():
        counting = CountingRef(ref)
        assert ks_statistic(values, counting) == ks_statistic_all_points(values, ref)
        assert counting.points <= share * values.size


class TestTwoSampleKs:
    """``two_sample_ks`` against ``scipy.stats.ks_2samp``, which the package
    no longer imports, and against a 50-digit sum of the same series."""

    @pytest.mark.parametrize("n", [1, 2, 100, 10_000])
    @pytest.mark.parametrize("seed", range(4))
    def test_is_ks_2samp_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(n)
        b = rng.standard_normal(n) + 0.02 * seed
        rounded = np.round(a, 1), np.round(b, 1)  # ties within and across the samples
        for x, y in ((a, b), rounded, (a, a.copy()), (a, a + 10.0), (a + 10.0, a)):
            expected = stats.ks_2samp(x, y)
            assert two_sample_ks(x, y) == (float(expected.statistic), float(expected.pvalue))

    @pytest.mark.parametrize("n,disjoint", [(1, 1.0), (100, 2 / math.comb(200, 100)), (10_000, 0.0)])
    def test_identical_and_disjoint_samples(self, n, disjoint):
        # P(D = 1) = 2 / C(2n, n), which underflows at n = 10^4
        a = np.random.default_rng(3).standard_normal(n)
        assert two_sample_ks(a, a[::-1]) == (0.0, 1.0)
        statistic, pvalue = two_sample_ks(a, a + 10.0)
        assert statistic == 1.0
        assert pvalue == pytest.approx(disjoint, rel=1e-13, abs=0)

    def test_interleaved_samples_have_pvalue_one(self):
        # D = 1/n: the series sums to exactly 1, its Horner form to 1 + 2 ulp
        a = np.arange(10_000) * 2.0
        assert two_sample_ks(a, a + 1.0) == (1e-4, 1.0)

    @pytest.mark.parametrize("n,h", [(10**5, 30), (10**5, 300), (10**5, 600), (10**5, 1000), (10**5, 1500),
                                     (10**6, 300), (10**6, 1000), (10**6, 2000), (10**6, 3000), (10**6, 4000)])
    def test_matches_the_series_in_50_digits(self, n, h):
        # b is a shifted by h - 1/2, so the statistic is exactly h/n
        a = np.arange(n, dtype=float)
        statistic, pvalue = two_sample_ks(a, a + (h - 0.5))
        assert statistic == h / n
        assert pvalue == pytest.approx(prob_outside_square_mp(n, h), rel=1e-12, abs=0)

    def test_an_underflowing_pvalue_is_zero_without_a_warning(self):
        a = np.arange(10**6, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert two_sample_ks(a, a + 10.0**6) == (1.0, 0.0)

    @pytest.mark.parametrize("h", [3072, 3200, 3333])
    def test_is_ks_2samp_bit_for_bit_where_the_pvalue_is_subnormal(self, h):
        # the terms pass through subnormal values and stall at one ulp
        a = np.arange(10_000, dtype=float)
        b = a + (h - 0.5)
        expected = stats.ks_2samp(a, b)
        assert two_sample_ks(a, b) == (float(expected.statistic), float(expected.pvalue))

    @pytest.mark.parametrize("a,b", [(np.zeros(3), np.zeros(4)), (np.zeros(0), np.zeros(0)),
                                     (np.zeros(0), np.zeros(1)), (np.zeros((2, 2)), np.zeros((2, 2))),
                                     (np.zeros(()), np.zeros(()))])
    def test_rejects_unequal_or_empty_samples(self, a, b):
        with pytest.raises(ValueError, match="non-empty samples of one size"):
            two_sample_ks(a, b)

    @pytest.mark.parametrize("a,b", [(np.array([0.5, np.nan]), np.array([0.5, 0.7])),
                                     (np.array([0.5, 0.7]), np.array([np.nan, 0.7]))])
    def test_rejects_a_nan_draw(self, a, b):
        # ks_2samp returns (nan, nan) here, which validate's p > 0.001 fails
        assert np.isnan(stats.ks_2samp(a, b).pvalue)
        with pytest.raises(ValueError, match="without NaN"):
            two_sample_ks(a, b)


class TestEmpiricalSummary:
    def test_uniform_calibration(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(1e-9, 1 - 1e-9, 50_000)
        assert ks_statistic(values, UniformRef()) < 3 * 1.36 / np.sqrt(values.size)
        summary = empirical_summary(values)
        assert set(summary) == {"k1", "k2", "k3", "k1_se", "k2_se", "k3_se"}
        # uniform cumulants: 1/2, 1/12, 0
        assert abs(summary["k1"] - 0.5) < 4 * summary["k1_se"]
        assert abs(summary["k2"] - 1.0 / 12.0) < 4 * summary["k2_se"]
        assert abs(summary["k3"]) < 4 * summary["k3_se"]

    def test_no_mismatch_against_beta(self, nomismatch16):
        spec = to_quadratic_form(build_omega(nomismatch16)[0], 32)
        samples = simulate_loss_representation(spec, 100_000, RngStream(13))
        d = LossDistribution(1.0, 30.0, 36.0)
        assert ks_statistic(samples, d) < 1.36 / np.sqrt(samples.size) * 1.4

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
        assert abs(summary["k1"] - kappa.k1) < 4 * summary["k1_se"]
        assert abs(summary["k2"] - kappa.k2) < 4 * summary["k2_se"]
        assert abs(summary["k3"] - kappa.k3) < 4 * summary["k3_se"]

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            empirical_summary(np.full(10, 0.5))
