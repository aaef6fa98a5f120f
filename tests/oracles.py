"""Slow reference implementations the tests compare the package against.

* :func:`loss_cdf` and :func:`loss_quantile` evaluate the loss law by
  adaptive quadrature of its density and by bisection, independently of the
  closed-form incomplete-beta evaluators in ``LossDistribution``.
* :func:`closed_quantile` inverts that closed-form cdf through the inverse
  incomplete beta function; the tests use it to place evaluation points.
* :func:`pearson_cdf` evaluates the shifted-fit loss cdf as an adaptive
  integral over the numerator chi-square, independently of the finite
  Poisson/negative-binomial sum in ``PearsonLossDistribution``.
* :func:`simulate_loss_scm` is the literal snapshot sampler: it draws the
  N x K training matrix X, forms S = X X^H and factors every S, where the
  package's direct sampler draws the Bartlett factor of the whitened S.
* :func:`ger_cs` computes the c_s coefficients of a GER pair from the trace
  form instead of the Omega spectrum; it raises :class:`NotGer` otherwise.
"""

import numpy as np
from scipy import integrate
from scipy.special import betaincinv, gammainc, gammaln

from snrloss.approximation import LossDistribution, PearsonLossDistribution, loss_pdf
from snrloss.errors import OutOfSupport, SingularSCM, SnrLossError
from snrloss.linalg import solve_hermitian
from snrloss.mismatch import build_omega
from snrloss.montecarlo import SampleSet, pair_digest
from snrloss.sampling import RngStream
from snrloss.scenarios import ScenarioPair

_QUAD_TOL = 1e-10
_QUANTILE_TOL = 1e-9


class NotGer(SnrLossError):
    code = "not_ger"


def loss_cdf(dist: LossDistribution, x) -> float:
    """cdf by adaptive quadrature of :func:`loss_pdf` (tolerance 1e-9)."""
    x = float(x)
    if x < 0 or x > 1:
        raise OutOfSupport("loss lives on [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    value, _ = integrate.quad(lambda t: loss_pdf(dist, t), 0.0, x,
                              epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    return min(max(value, 0.0), 1.0)


def loss_quantile(dist: LossDistribution, prob) -> float:
    """Quantile by bisection on :func:`loss_cdf` to 1e-9."""
    prob = float(prob)
    if not 0.0 < prob < 1.0:
        raise OutOfSupport("probability must lie in (0, 1)")
    lo, hi = 0.0, 1.0
    while hi - lo > _QUANTILE_TOL:
        mid = 0.5 * (lo + hi)
        if loss_cdf(dist, mid) < prob:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def closed_quantile(dist: LossDistribution, prob):
    """Closed-form quantile by inverting the incomplete beta function."""
    prob = np.asarray(prob, dtype=float)
    if np.any(prob <= 0) or np.any(prob >= 1):
        raise OutOfSupport("probability must lie in (0, 1)")
    t = betaincinv(0.5 * dist.den_dof, 0.5 * dist.num_dof, prob)
    return t / (dist.a_eff - (dist.a_eff - 1.0) * t)


def pearson_cdf(dist: PearsonLossDistribution, x) -> float:
    """Shifted-fit cdf E_U[P(chi2(p) <= (a1 U + a2) / (lam r))] with
    U ~ chi2(dof), r = (1 - x)/x, by adaptive quadrature over U (absolute
    tolerance 1e-14).  Uses max(a2, 0) like the evaluator."""
    x = float(x)
    if x < 0 or x > 1:
        raise OutOfSupport("loss lives on [0, 1]")
    if x in (0.0, 1.0):
        return x
    half, a2 = 0.5 * dist.dof, max(dist.a2, 0.0)
    scale = x / (2.0 * dist.lam * (1.0 - x))

    def integrand(u):
        log_chi2_pdf = (half - 1.0) * np.log(u) - 0.5 * u - gammaln(half) - half * np.log(2.0)
        return np.exp(log_chi2_pdf) * gammainc(0.5 * dist.den_dof, scale * (dist.a1 * u + a2))

    # the chi2(dof) mass beyond mean + 60 sd + 200 is below 1e-30
    top = dist.dof + 60.0 * np.sqrt(2.0 * dist.dof) + 200.0
    value, _ = integrate.quad(integrand, 0.0, top, points=(dist.dof,), epsabs=1e-14, epsrel=1e-13, limit=400)
    return value


def ger_cs(sigma, sigma_t, v, order) -> float:
    """c_s for a GER pair from the trace form
    2 (Tr[(sigma_t^-1 sigma)^s] - omega_2_1^s); equals the spectral sum
    sum_i lam_i^s * 2 because every delta_i vanishes under the GER."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    omega = build_omega(ScenarioPair(sigma=sigma, sigma_t=sigma_t, v=v))
    if not omega.is_ger:
        raise NotGer("pair does not satisfy the generalized eigenrelation")
    t = solve_hermitian(sigma_t, sigma)
    return float(2.0 * (np.trace(np.linalg.matrix_power(t, order)).real - omega.omega_2_1**order))


def simulate_loss_scm(pair: ScenarioPair, n_training, trials, rng: RngStream,
                      batch_size=2048) -> SampleSet:
    """Direct loss draws from literal training snapshots.

    Per trial: X ~ complex Gaussian (N x K, covariance sigma_t),
    S = X X^H, and

        loss = (v^H S^-1 v)^2 / [(v^H sigma^-1 v)(v^H S^-1 sigma S^-1 v)],

    with S factored by a batched Cholesky and solved by dense substitution.
    Trial-major draws make the results independent of batch_size.
    """
    n = pair.n_elements
    if n_training < n:
        raise ValueError("need n_training >= n_elements")
    g_scaled = np.sqrt(0.5) * pair.chol_t  # white entries drawn with unit-variance parts
    v = pair.v
    gen = rng.generator

    out = np.empty(trials)
    done = 0
    while done < trials:
        b = min(batch_size, trials - done)
        z = gen.standard_normal((b, n, n_training, 2)).view(np.complex128)[..., 0]
        x = g_scaled @ z
        scm = x @ x.conj().transpose(0, 2, 1)
        try:
            low = np.linalg.cholesky(scm)
        except np.linalg.LinAlgError as exc:
            raise SingularSCM("sample covariance matrix was not positive definite") from exc
        u = _dense_cholesky_solve(low, v)
        num = np.einsum("i,bi->b", v.conj(), u).real ** 2
        den = pair.v_sigma_v * np.einsum("bi,ij,bj->b", u.conj(), pair.sigma, u).real
        out[done : done + b] = num / den
        done += b
    return SampleSet(values=out, sampler="scm_snapshots", seed=rng.seed, trials=trials,
                     scenario_digest=pair_digest(pair))


def _dense_cholesky_solve(low, v):
    """Solve (L L^H) u = v for a batch of dense lower-triangular factors by
    forward/back substitution vectorized over the batch."""
    b, n = low.shape[0], low.shape[1]
    y = np.empty((b, n), dtype=complex)
    y[:, 0] = v[0] / low[:, 0, 0]
    for i in range(1, n):
        acc = v[i] - np.einsum("bj,bj->b", low[:, i, :i], y[:, :i])
        y[:, i] = acc / low[:, i, i]
    u = np.empty((b, n), dtype=complex)
    u[:, n - 1] = y[:, n - 1] / low[:, n - 1, n - 1].conj()
    for i in range(n - 2, -1, -1):
        acc = y[:, i] - np.einsum("bj,bj->b", low[:, i + 1 :, i].conj(), u[:, i + 1 :])
        u[:, i] = acc / low[:, i, i].conj()
    return u
