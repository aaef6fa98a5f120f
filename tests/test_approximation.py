import dataclasses
import math

import numpy as np
import pytest

from snrloss.approximation import (
    LossDistribution,
    analyze,
    loss_mean,
    pearson_cumulants,
    pearson_three_moment,
    scaled_chi2_two_moment,
    scaled_f_cumulants,
    scaled_f_fit,
    scaled_f_laws,
)
from snrloss.errors import (
    DegenerateCumulants,
    InvalidFit,
    NonPositiveCumulant,
    OutOfSupport,
    SnrLossError,
)
from snrloss.mismatch import CumulantTriple, QuadraticFormSpec, build_omega, c_coefficients, cumulants_q
from snrloss.montecarlo import simulate_loss_representation
from snrloss.sampling import RngStream
from snrloss.scenarios import (
    ArrayScenario,
    Covariance,
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
from oracles import closed_quantile, loss_cdf, loss_quantile, pearson_cdf, pearson_sample


def no_mismatch_kappa(n_elements=16, n_training=32):
    spec = QuadraticFormSpec(
        lam=np.ones(n_elements - 1),
        delta=np.zeros(n_elements - 1),
        p=2.0 * (n_training - n_elements + 2),
        scale=1.0,
    )
    return cumulants_q(spec)


class TestPearsonThreeMoment:
    def test_no_mismatch_recovers_exact(self):
        fit = pearson_three_moment(30.0, 30.0, 30.0)
        assert fit.a1 == pytest.approx(1.0)
        assert fit.a2 == pytest.approx(0.0, abs=1e-12)
        assert fit.dof == pytest.approx(30.0)

    def test_uniform_half_weights(self):
        c = [2 * 15 / 2.0**s for s in (1, 2, 3)]
        fit = pearson_three_moment(*c)
        assert fit.a1 == pytest.approx(0.5)
        assert fit.dof == pytest.approx(30.0)
        assert fit.a2 == pytest.approx(0.0, abs=1e-12)

    def test_two_eigenvalue_spectrum(self):
        # weights {2, 1 x 14}, two real dof each: c = (32, 36, 44)
        fit = pearson_three_moment(32.0, 36.0, 44.0)
        assert fit.a1 == pytest.approx(44 / 36)
        assert fit.a2 == pytest.approx(32 - 36**2 / 44)
        assert fit.dof == pytest.approx(36**3 / 44**2)

    def test_cumulant_match_invariant(self):
        for c in [(30.0, 30.0, 30.0), (32.0, 36.0, 44.0), (15.0, 7.5, 3.75)]:
            fit = pearson_three_moment(*c)
            k1, k2, k3 = pearson_cumulants(fit)
            assert k1 == pytest.approx(c[0], rel=1e-10)
            assert k2 == pytest.approx(2 * c[1], rel=1e-10)
            assert k3 == pytest.approx(8 * c[2], rel=1e-10)

    def test_sample_cumulant_oracle(self):
        # draws of 2*chi2(2) + chi2(28) must have cumulants (c1, 2c2, 8c3)
        rng = np.random.default_rng(77)
        n = 2_000_000
        q = 2.0 * rng.chisquare(2, n) + rng.chisquare(28, n)
        mean = q.mean()
        centered = q - mean
        k2 = centered.var()
        k3 = np.mean(centered**3)
        assert mean == pytest.approx(32.0, rel=0.005)
        assert k2 == pytest.approx(2 * 36.0, rel=0.01)
        assert k3 == pytest.approx(8 * 44.0, rel=0.05)

    def test_overflow_raises_invalid_fit(self):
        with pytest.raises(InvalidFit):
            pearson_three_moment(1.0, 1e110, 1.0)  # c2^3

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveCumulant):
            pearson_three_moment(1.0, 0.0, 1.0)
        with pytest.raises(NonPositiveCumulant):
            pearson_three_moment(1.0, 1.0, -1.0)


class TestScaledChi2TwoMoment:
    def test_no_mismatch(self):
        fit = scaled_chi2_two_moment(30.0, 30.0)
        assert fit.a == pytest.approx(1.0)
        assert fit.dof == pytest.approx(30.0)

    def test_plug_in(self):
        fit = scaled_chi2_two_moment(32.0, 36.0)
        assert fit.a == pytest.approx(1.125)
        assert fit.dof == pytest.approx(256 / 9)

    @pytest.mark.parametrize("c", [0.5, 7.0, 123.0])
    def test_scale_free_family(self, c):
        fit = scaled_chi2_two_moment(c, c)
        assert fit.a == pytest.approx(1.0)
        assert fit.dof == pytest.approx(c)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveCumulant):
            scaled_chi2_two_moment(-1.0, 1.0)


class TestScaledFFit:
    def test_no_mismatch_forced_parameters(self):
        fit = scaled_f_fit(no_mismatch_kappa())
        assert fit.a == pytest.approx(1.0, abs=1e-8)
        assert fit.num_dof == pytest.approx(30.0, rel=1e-8)
        assert fit.den_dof == pytest.approx(36.0, rel=1e-8)

    @pytest.mark.parametrize("target", [(2.5, 7.0, 19.0), (1.0, 30.0, 36.0), (0.3, 2.2, 8.5), (11.0, 30.0, 36.0)])
    def test_synthetic_round_trip(self, target):
        a, nu, mu = target
        fit = scaled_f_fit(scaled_f_cumulants(a, nu, mu))
        assert fit.a == pytest.approx(a, rel=1e-8)
        assert fit.num_dof == pytest.approx(nu, rel=1e-8)
        assert fit.den_dof == pytest.approx(mu, rel=1e-8)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        a = float(rng.uniform(0.05, 20.0))
        nu = float(rng.uniform(0.5, 80.0))
        mu = float(rng.uniform(6.5, 80.0))
        fit = scaled_f_fit(scaled_f_cumulants(a, nu, mu))
        assert fit.a == pytest.approx(a, rel=1e-8)
        assert fit.num_dof == pytest.approx(nu, rel=1e-8)
        assert fit.den_dof == pytest.approx(mu, rel=1e-8)

    def test_homogeneity(self):
        kappa = no_mismatch_kappa()
        t = 3.7
        scaled = CumulantTriple(k1=t * kappa.k1, k2=t**2 * kappa.k2, k3=t**3 * kappa.k3)
        base = scaled_f_fit(kappa)
        fit = scaled_f_fit(scaled)
        assert fit.a == pytest.approx(t * base.a, rel=1e-9)
        assert fit.num_dof == pytest.approx(base.num_dof, rel=1e-9)
        assert fit.den_dof == pytest.approx(base.den_dof, rel=1e-9)

    def test_degenerate_cumulants(self):
        # k1*k3 == 2*k2^2 exactly
        with pytest.raises(DegenerateCumulants):
            scaled_f_fit(CumulantTriple(k1=1.0, k2=1.0, k3=2.0))

    def test_overflow_raises_invalid_fit(self):
        with pytest.raises(InvalidFit):
            scaled_f_fit(CumulantTriple(k1=1e100, k2=1e200, k3=1e300))  # k2^2

    def test_invalid_region(self):
        with pytest.raises(InvalidFit):
            scaled_f_fit(CumulantTriple(k1=1.0, k2=1.0, k3=1.0))

    def test_closed_form_matches_linear_solve(self):
        from snrloss.approximation import _scaled_f_linear_solve

        for target in [(2.5, 7.0, 19.0), (0.7, 12.0, 9.0), (5.0, 3.0, 40.0)]:
            kappa = scaled_f_cumulants(*target)
            fit = scaled_f_fit(kappa)
            a_lin, nu_lin, mu_lin = _scaled_f_linear_solve(kappa)
            assert fit.a == pytest.approx(a_lin, rel=1e-9)
            assert fit.num_dof == pytest.approx(nu_lin, rel=1e-9)
            assert fit.den_dof == pytest.approx(mu_lin, rel=1e-9)

    def test_feasibility_of_fitted_cumulants(self):
        fit = scaled_f_fit(no_mismatch_kappa())
        check = scaled_f_cumulants(fit.a, fit.num_dof, fit.den_dof)
        assert check.k1 * check.k3 > 2 * check.k2**2


class TestBlockFit:
    """The cumulants and the scaled-F fit of a stack: each row agrees with
    the one-realization Python-float arithmetic of ``tests/oracles.py`` to
    1e-13 relative, and a stack with one failing row fails, where that row
    alone raises the oracle's error."""

    @staticmethod
    def _stack(rng, b, n, noncentral):
        """Spectra of b realizations at N = n, with K from N + 2 to 4N and
        each row redrawn until the oracle fits it."""
        p = 2.0 * (int(rng.integers(n + 2, 4 * n + 1)) - n + 2)
        rows = []
        while len(rows) < b:
            lam = np.exp(rng.uniform(-3.0, 3.0, n - 1))
            delta = rng.exponential(0.5, n - 1) if noncentral else np.zeros(n - 1)
            try:
                oracles.scaled_f_fit_one(oracles.cumulants_q_one(
                    QuadraticFormSpec(lam=lam, delta=delta, p=p, scale=1.0)))
            except SnrLossError:
                continue
            rows.append((lam, delta))
        lam, delta = (np.array(part) for part in zip(*rows))
        return lam, delta, p

    @pytest.mark.parametrize("b", [1, 7, 16])
    @pytest.mark.parametrize("n", [2, 3, 9, 16, 32])
    @pytest.mark.parametrize("noncentral", [False, True])
    def test_rows_match_the_one_realization_fit(self, b, n, noncentral):
        lam, delta, p = self._stack(np.random.default_rng([b, n, noncentral]), b, n, noncentral)
        kappa = cumulants_q(QuadraticFormSpec(lam=lam, delta=delta, p=p, scale=np.ones(b)))
        fit = scaled_f_fit(kappa)
        for i in range(b):
            want = oracles.cumulants_q_one(
                QuadraticFormSpec(lam=lam[i], delta=delta[i], p=p, scale=1.0))
            got = (kappa.k1[i], kappa.k2[i], kappa.k3[i])
            assert got == pytest.approx((want.k1, want.k2, want.k3), rel=1e-13, abs=0.0)
            got = (fit.a[i], fit.num_dof[i], fit.den_dof[i])
            assert got == pytest.approx(oracles.scaled_f_fit_one(want), rel=1e-13, abs=0.0)

    def test_one_term_cumulants_match_the_spec_route(self):
        rng = np.random.default_rng(11)
        a, nu, mu = rng.uniform(0.05, 20.0, 16), rng.uniform(0.5, 80.0, 16), rng.uniform(6.5, 80.0, 16)
        kappa = scaled_f_cumulants(a, nu, mu)
        for i in range(16):
            want = oracles.scaled_f_cumulants_by_spec(a[i], nu[i], mu[i])
            got = (kappa.k1[i], kappa.k2[i], kappa.k3[i])
            assert got == pytest.approx((want.k1, want.k2, want.k3), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("bad,error", [
        ((1.0, 1.0, 2.0), DegenerateCumulants),  # k1*k3 == 2*k2^2
        ((4.0, 80.0, -1920.0), InvalidFit),  # formally 1*chi2(10)/chi2(4.5): mu <= 6
        ((1e100, 1e200, 1e300), InvalidFit),  # k2^2 overflows
        ((2343.6137901294974, 1229.6793730882928, 1983.1671905517578), InvalidFit),  # fails the revalidation
    ])
    def test_a_failing_row_fails_the_stack(self, bad, error):
        lam, delta, p = self._stack(np.random.default_rng(5), 7, 16, True)
        kappa = cumulants_q(QuadraticFormSpec(lam=lam, delta=delta, p=p, scale=np.ones(7)))
        rows = np.array([kappa.k1, kappa.k2, kappa.k3])
        rows[:, 3] = bad
        with pytest.raises(error) as oracle:
            oracles.scaled_f_fit_one(CumulantTriple(*bad))
        with pytest.raises(SnrLossError) as failure:
            scaled_f_fit(CumulantTriple(*rows))
        assert failure.value.rows.tolist() == [3]
        with pytest.raises(SnrLossError) as alone:
            scaled_f_fit(CumulantTriple(*rows[:, 3:4]))
        assert type(alone.value) is type(oracle.value)
        assert str(alone.value).split(" ")[:3] == str(oracle.value).split(" ")[:3]  # raised by the same check
        assert scaled_f_fit(CumulantTriple(*np.delete(rows, 3, axis=1))).a.shape == (6,)

    def test_an_overflowing_row_fails_the_cumulants(self):
        lam, delta, p = self._stack(np.random.default_rng(6), 7, 4, False)
        lam[2] = 1e110  # sum(2 lam)^3 overflows
        spec = QuadraticFormSpec(lam=lam, delta=delta, p=p, scale=np.ones(7))
        with pytest.raises(InvalidFit):
            cumulants_q(spec)
        with pytest.raises(InvalidFit):
            oracles.cumulants_q_one(QuadraticFormSpec(lam=lam[2], delta=delta[2], p=p, scale=1.0))
        row = QuadraticFormSpec(lam=lam[1], delta=delta[1], p=p, scale=1.0)
        assert cumulants_q(row).k1 == oracles.cumulants_q_one(row).k1

    @pytest.mark.parametrize("kind", ["inverse_wishart", "ger_blockdiag", "eigenvalue"])
    def test_a_block_is_analyzed_as_its_realizations(self, kind):
        # bit for bit: the stack's law of realization i is analyze's of that pair
        base = Covariance(interference_covariance(ArrayScenario(n_elements=16)), steering_vector(0.0, 16))
        build = {
            "inverse_wishart": lambda rng: inverse_wishart_mismatch(base, 1.5, rng),
            "ger_blockdiag": lambda rng: random_ger_blockdiag_mismatch(base, 1.5, rng),
            "eigenvalue": lambda rng: eigenvalue_mismatch(base, sample_uniform_db(rng, size=16)),
        }[kind]
        laws = scaled_f_laws(build_omega(build([RngStream(31, i) for i in range(7)])), 32)
        assert laws.a.shape == (7,) and laws.shift is None
        for index in range(7):
            alone = analyze(build(RngStream(31, index)), 32)
            ref = alone.refs["scaled_f"]  # both hold a over omega_2_1
            row = (laws.a[index], laws.num_dof[index], laws.den_dof[index], laws.divisor[index])
            assert row == (ref.a, ref.num_dof, ref.den_dof, ref.divisor) and ref.shift is None
            assert ("pearson" in alone.refs) == (kind == "ger_blockdiag")

    def test_ger_fits_of_a_stack(self):
        c = np.array([[30.0, 30.0, 30.0], [32.0, 36.0, 44.0], [60.0, 75.0, 120.0]])
        chi2, pearson = scaled_chi2_two_moment(c[:, 0], c[:, 1]), pearson_three_moment(*c.T)
        for i, row in enumerate(c):
            assert (chi2.a[i], chi2.dof[i]) == dataclasses.astuple(scaled_chi2_two_moment(*row[:2]))
            assert (pearson.a1[i], pearson.dof[i], pearson.a2[i]) == dataclasses.astuple(pearson_three_moment(*row))
        for bad, error in (((1.0, 0.0, 1.0), NonPositiveCumulant), ((1.0, 1e110, 1.0), InvalidFit)):
            c[1] = bad
            with pytest.raises(error):
                pearson_three_moment(*c.T)
            with pytest.raises(error):
                pearson_three_moment(*bad)

def beta_log_pdf(x, p, q):
    # reference beta density with complex-dof parameters (q along x)
    return (
        (q - 1) * math.log(x)
        + (p - 1) * math.log1p(-x)
        + math.lgamma(p + q)
        - math.lgamma(p)
        - math.lgamma(q)
    )


def incomplete_beta_series(a, b, x, max_iter=500, tol=1e-14):
    """Regularized incomplete beta by the continued-fraction expansion."""
    if x in (0.0, 1.0):
        return float(x)
    if x > (a + 1) / (a + b + 2):
        return 1.0 - incomplete_beta_series(b, a, 1.0 - x)
    log_front = a * math.log(x) + b * math.log1p(-x) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    # Lentz's algorithm for the continued fraction
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, max_iter):
        num = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / (c if abs(c) > tiny else tiny)
        frac *= d * c
        num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / (c if abs(c) > tiny else tiny)
        delta = d * c
        frac *= delta
        if abs(delta - 1.0) < tol:
            break
    return math.exp(log_front) * frac / a


@pytest.mark.parametrize("field,value", [
    ("a_eff", 0.0), ("a_eff", np.inf), ("a_eff", np.nan), ("num_dof", np.inf), ("den_dof", -2.0), ("den_dof", np.nan),
    ("divisor", 0.0), ("divisor", np.inf),
])
def test_loss_distribution_rejects_invalid_parameters(field, value):
    params = {"a": 1.0, "num_dof": 30.0, "den_dof": 36.0, {"a_eff": "a"}.get(field, field): value}
    with pytest.raises(InvalidFit):
        LossDistribution(**params)


@pytest.mark.parametrize("a, divisor", [(1e300, 1e-300), (1e-300, 1e300)])
def test_loss_distribution_rejects_an_a_eff_that_overflows_or_rounds_to_zero(a, divisor):
    # analyze has no other check of a_eff = a / omega_2_1
    with pytest.raises(InvalidFit):
        LossDistribution(a, 30.0, 36.0, divisor)


class TestLossPdf:
    def test_reduces_to_beta_density(self):
        d = LossDistribution(1.0, 30.0, 36.0)
        xs = np.linspace(0.01, 0.99, 99)
        ours = d.pdf(xs)
        reference = np.exp([beta_log_pdf(x, p=15, q=18) for x in xs])
        assert np.allclose(ours, reference, rtol=1e-12)

    def test_normalization_mpdr(self):
        from scipy.integrate import quad

        d = LossDistribution(11.0, 30.0, 36.0)
        total, _ = quad(d.pdf, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_histogram_oracle(self):
        # representation draws of the exact MPDR loss vs the closed-form pdf
        d = LossDistribution(11.0, 30.0, 36.0)
        spec = QuadraticFormSpec(
            lam=np.ones(15), delta=np.zeros(15), p=36.0, scale=11.0
        )
        trials = 1_000_000
        samples = simulate_loss_representation(spec, trials, RngStream(42))
        edges = np.linspace(0.0, 1.0, 201)
        counts, _ = np.histogram(samples, bins=edges)
        probs = np.diff(d.cdf(edges))
        expected = trials * probs
        sigma = np.sqrt(trials * probs * (1.0 - probs))
        discrepancy = np.abs(counts - expected)
        assert np.all(discrepancy <= 4.0 * sigma + 1e-9)

    def test_out_of_support(self):
        d = LossDistribution(1.0, 30.0, 36.0)
        with pytest.raises(OutOfSupport):
            d.pdf(1.5)
        with pytest.raises(OutOfSupport):
            d.pdf(0.0)


class TestLossCdfQuantileMean:
    def test_cdf_against_series_oracle(self):
        d = LossDistribution(1.0, 30.0, 36.0)
        # loss ~ Beta with parameters (K-N+2, N-1) = (18, 15)
        expected = incomplete_beta_series(18.0, 15.0, 0.5)
        assert loss_cdf(d, 0.5) == pytest.approx(expected, abs=1e-8)

    def test_closed_form_cdf_matches_quadrature(self):
        d = LossDistribution(11.0, 30.0, 36.0)
        for x in (0.05, 0.2, 0.5, 0.9):
            assert d.cdf(x) == pytest.approx(loss_cdf(d, x), abs=1e-9)

    def test_quantile_round_trip(self):
        # grid kept inside the bulk of the distribution, where the inversion
        # is well conditioned
        d = LossDistribution(1.0, 30.0, 36.0)
        for x in np.linspace(0.35, 0.75, 9):
            prob = loss_cdf(d, x)
            assert loss_quantile(d, prob) == pytest.approx(x, abs=1e-7)
        d6 = LossDistribution(6.0, 30.0, 36.0)
        for prob in (0.05, 0.25, 0.5, 0.75, 0.95):
            assert loss_cdf(d6, loss_quantile(d6, prob)) == pytest.approx(prob, abs=1e-7)

    def test_closed_form_quantile(self):
        d = LossDistribution(11.0, 30.0, 36.0)
        probs = np.array([0.05, 0.5, 0.95])
        xs = closed_quantile(d, probs)
        assert np.allclose(d.cdf(xs), probs, atol=1e-12)

    def test_mean_beta_identity(self):
        d = LossDistribution(1.0, 30.0, 36.0)
        assert loss_mean(d) == pytest.approx(18.0 / 33.0, rel=1e-15, abs=0.0)

    def test_mpdr_mean_monotonic_in_a_eff(self):
        means = []
        for soi_power in (0.0, 2.0, 5.0, 10.0, 20.0):
            d = LossDistribution(1.0 + soi_power, 30.0, 36.0)
            means.append(loss_mean(d))
        assert all(m1 > m2 for m1, m2 in zip(means, means[1:]))


class TestExactSurprise:
    """The two-eigenvalue spec of ``oracles.surprise_spec``."""

    def test_zero_power_reduces_to_beta(self):
        fit = scaled_f_fit(cumulants_q(oracles.surprise_spec(0.0, 32, 16)))
        assert fit.a == pytest.approx(1.0, abs=1e-8)
        assert fit.num_dof == pytest.approx(30.0, rel=1e-8)
        assert fit.den_dof == pytest.approx(36.0, rel=1e-8)

    def test_compound_numerator_mean(self):
        q_power = 3.0
        spec = oracles.surprise_spec(q_power, 32, 16)
        numerator_mean = np.sum(spec.lam * 2.0)
        assert numerator_mean == pytest.approx(2 * 14 + 2 * (1 + q_power))

    def test_pearson_c1(self):
        q_power = 3.0
        spec = oracles.surprise_spec(q_power, 32, 16)
        c1, _, _ = c_coefficients(spec.lam, spec.delta)
        assert c1 == pytest.approx(2 * 14 + 2 * (1 + q_power))


_ORACLE_SIZES = ((4, 6), (16, 18), (8, 16), (16, 32), (32, 96), (8, 400))
_ORACLE_PROBS = [1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999, 1 - 1e-6]


def _no_mismatch_refs():
    sigma = interference_covariance(ArrayScenario(n_elements=8))
    return analyze(no_mismatch(Covariance(sigma, steering_vector(0.0, 8))), 20).refs


def _ger_refs(n, k, seed):
    sigma = interference_covariance(ArrayScenario(n_elements=n))
    return analyze(random_ger_blockdiag_mismatch(Covariance(sigma, steering_vector(0.0, n)), 1.5, RngStream(seed)),
                   k).refs


class TestMonotoneCdf:
    @pytest.mark.parametrize("seed", range(5))
    def test_cdfs_step_down_only_by_rounding(self, seed):
        # montecarlo.ks_statistic bounds each cell by its end values and
        # covers a downward step with a 1e-9 margin
        xs = np.unique(np.concatenate([np.linspace(0.0, 1.0, 50_001), np.logspace(-300, -1, 1_000),
                                       1.0 - np.logspace(-16, -1, 1_000)]))
        refs = _ger_refs(16, 32, seed)
        # both cdf routes: the shifted fit's count sum and the others' incomplete beta
        assert {key: ref.shift is None for key, ref in refs.items()} == {"scaled_f": True, "scaled_chi2": True,
                                                                          "pearson": False}
        for ref in refs.values():
            assert -np.diff(ref.cdf(xs)).min() <= 1e-13


def _shifted(a1, dof, a2, lam, den_dof):
    """The shifted fit a1 chi2(dof) + a2 over lam chi2(den_dof)."""
    return LossDistribution(a1, dof, den_dof, lam, a2)


class TestPearsonLossDistribution:
    """The shifted (Pearson) law and its count-sum route."""

    def test_exact_case_matches_beta(self):
        fit = pearson_three_moment(30.0, 30.0, 30.0)
        p = _shifted(fit.a1, fit.dof, fit.a2, 1.0, 36.0)
        d = LossDistribution(1.0, 30.0, 36.0)
        xs = np.linspace(0.01, 0.99, 197)
        assert np.abs(p.cdf(xs) - d.cdf(xs)).max() < 1e-5
        assert np.abs(p.pdf(xs) - d.pdf(xs)).max() < 1e-4 * d.pdf(xs).max()

    def test_cdf_matches_sampler(self):
        fit = pearson_three_moment(32.0, 36.0, 44.0)
        p = _shifted(fit.a1, fit.dof, fit.a2, 1.2, 36.0)
        samples = pearson_sample(p, 400_000, RngStream(9))
        samples = samples[(samples > 0) & (samples < 1)]
        xs = np.linspace(0.02, 0.98, 97)
        empirical = np.searchsorted(np.sort(samples), xs) / samples.size
        assert np.abs(p.cdf(xs) - empirical).max() < 4 * 1.36 / np.sqrt(samples.size)

    def test_pdf_integrates_to_cdf_mass(self):
        fit = pearson_three_moment(32.0, 36.0, 44.0)
        p = _shifted(fit.a1, fit.dof, fit.a2, 1.0, 36.0)
        xs = np.linspace(1e-4, 1 - 1e-4, 4001)
        total = np.trapezoid(p.pdf(xs), xs)
        assert total == pytest.approx(p.cdf(1.0 - 1e-4) - p.cdf(1e-4), abs=1e-4)

    @pytest.mark.parametrize("n,k,seed", [(n, k, seed) for n, k in _ORACLE_SIZES for seed in range(4)])
    def test_cdf_matches_quadrature_oracle(self, n, k, seed):
        refs = _ger_refs(n, k, seed)
        xs = closed_quantile(refs["scaled_chi2"], _ORACLE_PROBS)
        p = refs["pearson"]
        assert np.abs(p.cdf(xs) - [pearson_cdf(p, x) for x in xs]).max() < 1e-10

    def test_surprise_cdf_matches_quadrature_oracle(self):
        refs = analyze(_pair("surprise"), 32).refs
        xs = closed_quantile(refs["scaled_chi2"], _ORACLE_PROBS)
        p = refs["pearson"]
        assert np.abs(p.cdf(xs) - [pearson_cdf(p, x) for x in xs]).max() < 1e-10

    @pytest.mark.parametrize("n,k,seed", [(4, 6, 2), (16, 32, 0), (8, 400, 1)])
    def test_pdf_is_cdf_derivative(self, n, k, seed):
        refs = _ger_refs(n, k, seed)
        xs = closed_quantile(refs["scaled_chi2"], [0.01, 0.25, 0.5, 0.75, 0.99])
        p, h = refs["pearson"], 1e-6
        slope = (p.cdf(xs + h) - p.cdf(xs - h)) / (2 * h)
        np.testing.assert_allclose(p.pdf(xs), slope, rtol=1e-6)

    def test_no_mismatch_matches_exact_beta_in_the_tails(self):
        refs = _no_mismatch_refs()
        p, exact = refs["pearson"], refs["exact"]
        xs = np.concatenate([closed_quantile(exact, [1e-12, 1e-6, 1e-3, 0.5, 0.999, 1 - 1e-6]), [1 / 17, 3 / 17]])
        np.testing.assert_allclose(p.cdf(xs), exact.cdf(xs), rtol=1e-10, atol=0)
        np.testing.assert_allclose(p.pdf(xs), exact.pdf(xs), rtol=1e-10, atol=0)
        assert (p.cdf(0.0), p.cdf(1.0)) == (0.0, 1.0)
        assert p.pdf(1e-310) == 0.0

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1), (2, 3)])
    def test_evaluators_keep_the_input_shape(self, shape):
        # a float only for 0-d input, an array of the input's shape otherwise
        refs = _no_mismatch_refs()
        p, exact = refs["pearson"], refs["exact"]
        xs = np.linspace(0.1, 0.9, max(1, math.prod(shape))).reshape(shape)
        for got, want in ((p.cdf(xs), exact.cdf(xs)), (p.pdf(xs), exact.pdf(xs))):
            assert np.shape(got) == np.shape(want) == shape
            assert isinstance(got, float) == (shape == ())
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("field,value", [
        ("a1", 0.0), ("a1", -1.0), ("a1", np.inf), ("a1", np.nan),
        ("dof", 0.0), ("dof", np.inf),
        ("lam", 0.0), ("lam", np.nan),
        ("a2", -1e-6), ("a2", np.nan), ("a2", np.inf),
        ("den_dof", 0.0), ("den_dof", 35.0), ("den_dof", 36.5), ("den_dof", np.inf),
    ])
    def test_rejects_invalid_parameters(self, field, value):
        params = {"a1": 1.2, "dof": 25.0, "a2": 2.0, "lam": 1.0, "den_dof": 36.0, field: value}
        with pytest.raises(InvalidFit):
            _shifted(**params)

    def test_cdf_never_exceeds_one(self):
        # the raw finite sum rounds to one ulp above 1 at some of these points
        d = _shifted(a1=1.2, dof=25.0, a2=2.0, lam=1.0, den_dof=36.0)
        xs = 1.0 - np.logspace(-1, -16, 200)
        assert d.cdf(xs[xs < 1.0]).max() <= 1.0

    def test_rounding_level_negative_shift_evaluates_as_zero(self):
        xs = np.linspace(0.05, 0.95, 7)
        rounded = _shifted(a1=1.0, dof=30.0, a2=-1e-14, lam=1.0, den_dof=36.0)
        zero = _shifted(a1=1.0, dof=30.0, a2=0.0, lam=1.0, den_dof=36.0)
        assert np.array_equal(rounded.cdf(xs), zero.cdf(xs))
        assert np.array_equal(rounded.pdf(xs), zero.pdf(xs))


def _pair(kind):
    sigma = interference_covariance(ArrayScenario(n_elements=16))
    v = steering_vector(0.0, 16)
    base = Covariance(sigma, v)
    q_raw = 3.0 * steering_vector(14.0, 16)
    rng = RngStream(5)
    return {
        "none": lambda: no_mismatch(base),
        "mpdr": lambda: mpdr_mismatch(base, soi_power=0.4, gamma=1.3),
        "surprise": lambda: surprise_interference(base, q_raw),
        # at 14 degrees the unprojected interferer leaves m sum(delta) = 1.2e-5, a
        # law the mass rule counts as GER; at 30 degrees it leaves 0.041
        "surprise_not_ger": lambda: surprise_interference(base, 3.0 * steering_vector(30.0, 16), enforce_ger=False),
        "ger_blockdiag": lambda: random_ger_blockdiag_mismatch(base, 1.5, rng),
        "eigenvalue": lambda: eigenvalue_mismatch(base, sample_uniform_db(rng, size=16)),
        "inverse_wishart": lambda: inverse_wishart_mismatch(base, 1.5, rng),
    }[kind]()


class TestAssembleLoss:
    """The laws analyze assembles from the fits and the exact closed forms."""

    def test_exact_beta(self):
        d = analyze(_pair("none"), 32).refs["exact"]
        assert d == LossDistribution(1.0, 30.0, 36.0)

    def test_exact_mpdr_ten_db(self):
        # a_eff = 1 + P v^H sigma^-1 v / gamma, with P v^H sigma^-1 v = 10
        base = _pair("none").operating
        v = base.v
        v_sigma_v = (v.conj() @ np.linalg.solve(base.sigma, v)).real
        for gamma, a_eff in ((1.0, 11.0), (2.0, 6.0)):
            pair = mpdr_mismatch(base, soi_power=10.0 / v_sigma_v, gamma=gamma)
            d = analyze(pair, 32).refs["exact"]
            assert (d.num_dof, d.den_dof, d.divisor, d.shift) == (30.0, 36.0, 1.0, None)
            assert d.a_eff == pytest.approx(a_eff, rel=1e-12)

    def test_fitted_ger_divides_schur_complement(self):
        result = analyze(_pair("ger_blockdiag"), 32)
        d, fit = result.refs["scaled_chi2"], result.fits["scaled_chi2"]
        assert result.omega.omega_2_1 != 1.0
        assert d.a_eff == fit.a / result.omega.omega_2_1
        assert (d.a, d.num_dof, d.den_dof, d.divisor, d.shift) == (fit.a, fit.dof, 36.0, result.omega.omega_2_1, None)


class TestAnalyze:
    @pytest.mark.parametrize("kind,ref_keys", [
        ("none", {"scaled_f", "scaled_chi2", "pearson", "exact"}),
        ("mpdr", {"scaled_f", "scaled_chi2", "pearson", "exact"}),
        ("surprise", {"scaled_f", "scaled_chi2", "pearson"}),
        ("surprise_not_ger", {"scaled_f"}),
        ("ger_blockdiag", {"scaled_f", "scaled_chi2", "pearson"}),
        ("eigenvalue", {"scaled_f"}),
        ("inverse_wishart", {"scaled_f"}),
    ])
    def test_refs_and_fits_agree(self, kind, ref_keys):
        result = analyze(_pair(kind), 32)
        omega, refs = result.omega, result.refs
        assert set(refs) == ref_keys
        assert set(result.fits) == ref_keys - {"exact"}
        assert result.spec.is_ger is ("pearson" in ref_keys)
        assert result.spec.p == 36.0 and result.spec.scale == 1.0 / omega.omega_2_1
        for key in ("scaled_f", "scaled_chi2"):
            if key in result.fits:
                assert refs[key].a_eff == result.fits[key].a / omega.omega_2_1
        assert refs["scaled_f"].den_dof == result.fits["scaled_f"].den_dof
        if "pearson" in result.fits:  # the GER fits keep the exact denominator dof
            fit, ref = result.fits["pearson"], refs["pearson"]
            assert (ref.a, ref.num_dof, ref.shift, ref.divisor, ref.den_dof) == (fit.a1, fit.dof, fit.a2, omega.omega_2_1, 36.0)
            assert refs["scaled_chi2"].den_dof == 36.0
