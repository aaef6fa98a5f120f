"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Defaults run 10^5-trial Monte Carlo budgets; set SNRLOSS_ACCEPTANCE_FULL=1
to run the 10^6-trial budgets with the tighter thresholds where the
criterion defines them.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import os
import time

import numpy as np
import pytest

from snrloss.approximation import (
    LossDistribution,
    analyze,
    loss_mean,
    pearson_cumulants,
    pearson_three_moment,
    scaled_f_cumulants,
    scaled_f_fit,
)
from snrloss.approximation import _scaled_f_linear_solve
from snrloss.linalg import cholesky, cholesky_solve
from snrloss.mismatch import build_omega, cumulants_q, to_quadratic_form
from snrloss.montecarlo import (
    ks_statistic,
    simulate_loss_direct,
    simulate_loss_representation,
    two_sample_ks,
)
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

from oracles import surprise_spec

FULL = os.environ.get("SNRLOSS_ACCEPTANCE_FULL", "") == "1"
N_ELEMENTS = 16
N_TRAINING = 32
# the no-mismatch law Beta(K - N + 2, N - 1) = Beta(18, 15), as [1 + chi2(30) / chi2(36)]^-1
BETA_EXACT = LossDistribution(1.0, 30.0, 36.0)


def mpdr_exact(gamma, soi_power=10.0):
    """Exact MPDR law, a_eff = 1 + soi_power / gamma, with soi_power = P v^H sigma^-1 v."""
    return LossDistribution(1.0 + soi_power / gamma, BETA_EXACT.num_dof, BETA_EXACT.den_dof)


def check(criterion, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion:2d}: {description}  {detail}")
    assert ok, f"criterion {criterion}: {description}  {detail}"


@pytest.fixture(scope="module")
def ula():
    scenario = ArrayScenario(n_elements=N_ELEMENTS, n_training=N_TRAINING)
    sigma = interference_covariance(scenario)
    v = steering_vector(scenario.soi_angle_deg, N_ELEMENTS)
    return sigma, v


def v_sigma_inv_v(sigma, v):
    return (v.conj() @ cholesky_solve(cholesky(sigma), v)).real


def soi_power_linear(sigma, v, soi_db=10.0):
    return 10.0 ** (soi_db / 10.0) / v_sigma_inv_v(sigma, v)


def family_pairs(sigma, v, base_seed=500):
    """One seeded pair per mismatch family."""
    base = Covariance(sigma, v)
    return [
        mpdr_mismatch(base, soi_power=soi_power_linear(sigma, v), gamma=10 ** (-3 / 10)),
        surprise_interference(base, 10 ** (10 / 20) * steering_vector(14.0, N_ELEMENTS), enforce_ger=True),
        random_ger_blockdiag_mismatch(base, 10 ** (4 / 10), RngStream(base_seed, 1)),
        eigenvalue_mismatch(base, sample_uniform_db(RngStream(base_seed, 2), size=N_ELEMENTS)),
        inverse_wishart_mismatch(base, gamma=10 ** (-4 / 10), rng=RngStream(base_seed, 3)),
    ]


def fitted_general(pair):
    result = analyze(pair, N_TRAINING)
    return result.omega, result.spec, result.refs["scaled_f"]


def test_criterion_01_no_mismatch_exactness(ula):
    sigma, v = ula
    start = time.perf_counter()
    samples = simulate_loss_direct(no_mismatch(Covariance(sigma, v)), N_TRAINING, 100_000, RngStream(101))
    elapsed = time.perf_counter() - start
    distance = ks_statistic(samples, BETA_EXACT)
    check(1, "no-mismatch loss matches Beta(18, 15)",
          distance < 0.006 and elapsed < 60.0,
          f"KS={distance:.4f} (<0.006), runtime={elapsed:.1f}s (<60s)")


def test_criterion_02_mpdr_exact_pdf(ula):
    sigma, v = ula
    trials, threshold = (1_000_000, 0.01) if FULL else (100_000, 0.02)
    power = soi_power_linear(sigma, v)
    worst = 0.0
    for idx, gamma_db in enumerate((-3.0, 0.0, 3.0)):
        gamma = 10.0 ** (gamma_db / 10.0)
        pair = mpdr_mismatch(Covariance(sigma, v), soi_power=power, gamma=gamma)
        samples = simulate_loss_direct(pair, N_TRAINING, trials, RngStream(102, idx))
        worst = max(worst, ks_statistic(samples, mpdr_exact(gamma)))
    check(2, "SoI-contaminated training matches its closed-form pdf",
          worst < threshold,
          f"worst KS={worst:.4f} (<{threshold}) at {trials} trials, gamma in {{-3,0,3}} dB")


def test_criterion_03_surprise_exact_representation(ula):
    sigma_t, v = ula
    q_raw = 10 ** (10 / 20) * steering_vector(14.0, N_ELEMENTS)
    pair = surprise_interference(Covariance(sigma_t, v), q_raw, enforce_ger=True)
    direct = simulate_loss_direct(pair, N_TRAINING, 100_000, RngStream(103, 0))
    exact = surprise_spec(pair.params["q_power"], N_TRAINING, N_ELEMENTS)
    represented = simulate_loss_representation(exact, 100_000, RngStream(103, 1))
    _, pvalue = two_sample_ks(direct, represented)
    check(3, "surprise-interference compound representation is exact",
          pvalue > 0.001, f"two-sample KS p={pvalue:.4f} (>0.001)")


def test_criterion_04_ger_fits(ula):
    sigma, v = ula
    worst_chi2, worst_pearson = 0.0, 0.0
    for idx in range(20):
        rng = RngStream(104, idx)
        gamma = 10.0 ** (rng.generator.uniform(-6.0, 6.0) / 10.0)
        pair = random_ger_blockdiag_mismatch(Covariance(sigma, v), gamma, rng)
        result = analyze(pair, N_TRAINING)
        assert result.spec.is_ger
        samples = simulate_loss_direct(pair, N_TRAINING, 100_000, RngStream(204, idx))
        worst_chi2 = max(worst_chi2, ks_statistic(samples, result.refs["scaled_chi2"]))
        worst_pearson = max(worst_pearson, ks_statistic(samples, result.refs["pearson"]))
    check(4, "both eigenrelation fits track 20 random block-diagonal pairs",
          worst_chi2 < 0.02 and worst_pearson < 0.02,
          f"worst KS: scaled-chi2={worst_chi2:.4f}, shifted={worst_pearson:.4f} (<0.02)")


def test_criterion_05_general_fit(ula):
    sigma, v = ula
    worst = 0.0
    for idx in range(20):
        pair = eigenvalue_mismatch(Covariance(sigma, v), sample_uniform_db(RngStream(105, idx), size=N_ELEMENTS))
        _, _, dist = fitted_general(pair)
        samples = simulate_loss_direct(pair, N_TRAINING, 100_000, RngStream(205, idx))
        worst = max(worst, ks_statistic(samples, dist))
    for idx in range(20):
        rng = RngStream(305, idx)
        gamma = 10.0 ** (rng.generator.uniform(-6.0, 6.0) / 10.0)
        pair = inverse_wishart_mismatch(Covariance(sigma, v), gamma, rng)
        _, _, dist = fitted_general(pair)
        samples = simulate_loss_direct(pair, N_TRAINING, 100_000, RngStream(405, idx))
        worst = max(worst, ks_statistic(samples, dist))
    check(5, "scaled-F fit tracks 40 random general-mismatch pairs",
          worst < 0.02, f"worst KS={worst:.4f} (<0.02)")


def test_criterion_06_cumulant_correctness(ula):
    sigma, v = ula
    pairs = [no_mismatch(Covariance(sigma, v))] + family_pairs(sigma, v)
    trials = 1_000_000
    worst_ratio = 0.0
    for idx, pair in enumerate(pairs):
        omega = build_omega(pair)[0]
        spec = to_quadratic_form(omega, N_TRAINING)
        kappa = cumulants_q(spec)
        samples = simulate_loss_representation(spec, trials, RngStream(106, idx))
        q = (1.0 / samples - 1.0) / spec.scale
        mean = q.mean()
        centered = q - mean
        n = q.size
        m2 = np.mean(centered**2)
        m3 = np.mean(centered**3)
        m4 = np.mean(centered**4)
        m6 = np.mean(centered**6)
        k2 = n / (n - 1) * m2
        k3 = n**2 / ((n - 1) * (n - 2)) * m3
        se = (
            np.sqrt(m2 / n),
            np.sqrt((m4 - m2**2) / n),
            np.sqrt((m6 - m3**2 - 6 * m2 * m4 + 9 * m2**3) / n),
        )
        for analytic, estimate, stderr in zip((kappa.k1, kappa.k2, kappa.k3), (mean, k2, k3), se):
            worst_ratio = max(worst_ratio, abs(analytic - estimate) / stderr)
    check(6, "analytic cumulants match k-statistics over every family",
          worst_ratio < 4.0, f"worst |error|/SE={worst_ratio:.2f} (<4) at 10^6 draws")


def test_criterion_07_fit_round_trips():
    worst_param = 0.0
    targets = [(1.0, 30.0, 36.0), (2.5, 7.0, 19.0), (0.4, 3.3, 11.0), (11.0, 30.0, 36.0)]
    for a, nu, mu in targets:
        fit = scaled_f_fit(scaled_f_cumulants(a, nu, mu))
        for got, want in ((fit.a, a), (fit.num_dof, nu), (fit.den_dof, mu)):
            worst_param = max(worst_param, abs(got - want) / want)
    worst_linear = 0.0
    for a, nu, mu in targets:
        kappa = scaled_f_cumulants(a, nu, mu)
        fit = scaled_f_fit(kappa)
        a_lin, nu_lin, mu_lin = _scaled_f_linear_solve(kappa)
        for got, want in ((fit.a, a_lin), (fit.num_dof, nu_lin), (fit.den_dof, mu_lin)):
            worst_linear = max(worst_linear, abs(got - want) / max(1.0, abs(want)))
    worst_pearson = 0.0
    for c in [(30.0, 30.0, 30.0), (32.0, 36.0, 44.0), (60.0, 75.0, 120.0)]:
        k1, k2, k3 = pearson_cumulants(pearson_three_moment(*c))
        for got, want in ((k1, c[0]), (k2, 2 * c[1]), (k3, 8 * c[2])):
            worst_pearson = max(worst_pearson, abs(got - want) / abs(want))
    check(7, "fit round trips at machine precision",
          worst_param < 1e-8 and worst_linear < 1e-9 and worst_pearson < 1e-10,
          f"param={worst_param:.1e} (<1e-8), closed-vs-linear={worst_linear:.1e} (<1e-9), "
          f"shifted-fit cumulants={worst_pearson:.1e} (<1e-10)")


def test_criterion_08_pdf_normalization_and_reduction(ula):
    from scipy.integrate import quad

    sigma, v = ula
    surprise = scaled_f_fit(cumulants_q(surprise_spec(3.0, N_TRAINING, N_ELEMENTS)))
    distributions = [BETA_EXACT, mpdr_exact(1.0), mpdr_exact(0.5),
                     LossDistribution(surprise.a, surprise.num_dof, surprise.den_dof)]
    for pair in family_pairs(sigma, v, base_seed=108):
        distributions.append(fitted_general(pair)[2])
    worst_norm = 0.0
    for dist in distributions:
        total, _ = quad(dist.pdf, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
        worst_norm = max(worst_norm, abs(total - 1.0))

    import math

    xs = np.linspace(0.005, 0.995, 199)
    reference = np.exp(
        (N_TRAINING - N_ELEMENTS + 2 - 1) * np.log(xs)
        + (N_ELEMENTS - 1 - 1) * np.log1p(-xs)
        + math.lgamma(N_TRAINING + 1)
        - math.lgamma(N_TRAINING - N_ELEMENTS + 2)
        - math.lgamma(N_ELEMENTS - 1)
    )
    reduction_err = np.max(np.abs(BETA_EXACT.pdf(xs) - reference) / reference)
    check(8, "densities normalize and collapse to the beta law at a_eff=1",
          worst_norm < 1e-6 and reduction_err < 1e-12,
          f"worst |integral-1|={worst_norm:.1e} (<1e-6), beta mismatch={reduction_err:.1e} (<1e-12)")


def test_criterion_09_sampler_equivalence(ula):
    sigma, v = ula
    worst_p = 1.0
    for idx, pair in enumerate(family_pairs(sigma, v, base_seed=609)):
        omega = build_omega(pair)[0]
        spec = to_quadratic_form(omega, N_TRAINING)
        direct = simulate_loss_direct(pair, N_TRAINING, 100_000, RngStream(109, idx))
        represented = simulate_loss_representation(spec, 100_000, RngStream(209, idx))
        _, pvalue = two_sample_ks(direct, represented)
        worst_p = min(worst_p, pvalue)
    check(9, "direct and representation samplers agree across all families",
          worst_p > 0.001, f"smallest two-sample KS p={worst_p:.4f} (>0.001)")


def test_criterion_10_mean_loss_degradation(ula):
    sigma, v = ula
    no_mismatch_mean = loss_mean(BETA_EXACT)
    below = 0
    worst_gap = 0.0
    for idx in range(100):
        rng = RngStream(110, idx)
        if idx % 2 == 0:
            pair = eigenvalue_mismatch(Covariance(sigma, v), sample_uniform_db(rng, size=N_ELEMENTS))
        else:
            gamma = 10.0 ** (rng.generator.uniform(-6.0, 6.0) / 10.0)
            pair = inverse_wishart_mismatch(Covariance(sigma, v), gamma, rng)
        omega, spec, dist = fitted_general(pair)
        fitted_mean = loss_mean(dist)
        if fitted_mean < no_mismatch_mean:
            below += 1
        samples = simulate_loss_representation(spec, 100_000, RngStream(210, idx))
        worst_gap = max(worst_gap, abs(fitted_mean - samples.mean()))
    check(10, "general mismatch strictly degrades the mean loss",
          below >= 99 and worst_gap < 0.01,
          f"{below}/100 below no-mismatch mean {no_mismatch_mean:.4f} (>=99), "
          f"worst |fitted-empirical| mean gap={worst_gap:.4f} (<0.01)")
