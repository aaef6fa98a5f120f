"""Slow reference implementations the tests compare the package against.

* :func:`loss_cdf` and :func:`loss_quantile` evaluate the loss law by
  adaptive quadrature of its density and by bisection, independently of the
  closed-form incomplete-beta evaluators in ``LossDistribution``.
* :func:`closed_quantile` inverts that closed-form cdf through the inverse
  incomplete beta function; the tests use it to place evaluation points.
* :func:`pearson_cdf` evaluates the shifted-fit loss cdf as an adaptive
  integral over the numerator chi-square, independently of the finite
  Poisson/negative-binomial sum that ``LossDistribution`` evaluates for a
  law with a shift; :func:`pearson_sample` draws from that law, and
  :func:`shifted_mean_mp` integrates x f(x) under its count-sum density in
  mpmath, independently of the Laplace identity ``loss_mean`` sums.
* :func:`simulate_loss_scm` is the literal snapshot sampler: it draws the
  N x K training matrix X, forms S = X X^H and factors every S, where the
  package's direct sampler draws the Bartlett factor of the whitened S.
* :func:`bartlett_factors` rebuilds the dense Bartlett factor of each trial
  from the direct sampler's recorded draws, for a dense solve against the
  sampler's packed one; :func:`direct_loss_mp` evaluates the sampler's loss
  from the same draws in 50-digit mpmath, to count the draws whose exact
  value rounds onto 1.
* :func:`build_omega` is the generic Omega decomposition: it whitens by
  G_t = chol(sigma_t) and solves for G_t^-1 G, where the package's
  ``build_omega`` reads the whitened form each mismatch family knows and
  never forms sigma_t.  It takes any pair of covariances.
* :func:`ger_cs` computes the c_s coefficients of a GER pair from the trace
  form instead of the Omega spectrum; it raises :class:`NotGer` otherwise.
* :func:`ks_statistic_all_points` is the one-sample KS distance with the
  reference cdf evaluated at every draw, where ``ks_statistic`` evaluates it
  only where the supremum can be.
* :func:`orth_complement_one` builds the Householder basis of one unit
  vector with numpy scalars throughout, for :func:`build_omega`, so that the
  generic whitening shares no reflector code with the package.
* :func:`cumulants_q_one`, :func:`scaled_f_fit_one` and
  :func:`scaled_f_cumulants_by_spec` fit one realization with Python-float
  arithmetic, as the package did before it fitted stacks; the revalidation
  builds a one-term ``QuadraticFormSpec`` and runs :func:`cumulants_q_one`
  on it again, with the fitted, fractional dof for the term.
* :func:`surprise_spec` is the exact two-eigenvalue representation of the
  loss under a surprise interferer absent from training.
* :func:`sample_wishart_snapshots` is the literal Wishart draw W = X X^H
  from dof snapshots, where ``sample_wishart_factor`` draws W's Bartlett
  factor.
* :func:`sample_chi2` draws central real chi-squares, fractional dof
  allowed.
* :func:`prob_outside_square_mp` sums the alternating binomial series of
  the equal-size two-sample KS p-value in 50-digit mpmath arithmetic, where
  ``two_sample_ks`` evaluates its Horner form in floats.
"""

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import betaincinv, gammainc, gammaln

from snrloss.approximation import LossDistribution
from snrloss.errors import (
    DegenerateCumulants,
    InsufficientSamples,
    InvalidFit,
    NotPositiveDefinite,
    OutOfSupport,
    SingularSCM,
    SnrLossError,
)
from snrloss.linalg import cholesky, cholesky_solve, herm_eig, solve_triangular
from snrloss.mismatch import CumulantTriple, OmegaDecomposition, QuadraticFormSpec, to_quadratic_form
from snrloss.sampling import RngStream
from snrloss.scenarios import Covariance, ScenarioPair

_QUAD_TOL = 1e-10
_QUANTILE_TOL = 1e-9


class NotGer(SnrLossError):
    code = "not_ger"


def loss_cdf(dist: LossDistribution, x) -> float:
    """cdf by adaptive quadrature of the closed-form density (tolerance 1e-9)."""
    x = float(x)
    if x < 0 or x > 1:
        raise OutOfSupport("loss lives on [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    value, _ = integrate.quad(dist.pdf, 0.0, x,
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


def pearson_cdf(dist: LossDistribution, x) -> float:
    """Shifted-fit cdf E_U[P(chi2(p) <= (a1 U + a2) / (lam r))] with
    U ~ chi2(dof), r = (1 - x)/x, a1 = dist.a, a2 = dist.shift and
    lam = dist.divisor, by adaptive quadrature over U (absolute tolerance
    1e-14).  Uses max(a2, 0) like the evaluator."""
    x = float(x)
    if x < 0 or x > 1:
        raise OutOfSupport("loss lives on [0, 1]")
    if x in (0.0, 1.0):
        return x
    dof = dist.num_dof
    half, a2 = 0.5 * dof, max(dist.shift, 0.0)
    scale = x / (2.0 * dist.divisor * (1.0 - x))

    def integrand(u):
        log_chi2_pdf = (half - 1.0) * np.log(u) - 0.5 * u - gammaln(half) - half * np.log(2.0)
        return np.exp(log_chi2_pdf) * gammainc(0.5 * dist.den_dof, scale * (dist.a * u + a2))

    # the chi2(dof) mass beyond mean + 60 sd + 200 is below 1e-30
    top = dof + 60.0 * np.sqrt(2.0 * dof) + 200.0
    value, _ = integrate.quad(integrand, 0.0, top, points=(dof,), epsabs=1e-14, epsrel=1e-13, limit=400)
    return value


def pearson_sample(dist: LossDistribution, trials, rng: RngStream):
    """Draws of [1 + (a chi2(num_dof) + shift) / (divisor chi2(den_dof))]^-1."""
    num = dist.a * sample_chi2(dist.num_dof, rng, trials) + dist.shift
    den = dist.divisor * sample_chi2(dist.den_dof, rng, trials)
    return 1.0 / (1.0 + num / den)


def shifted_mean_mp(dist: LossDistribution, digits=50):
    """Mean of a shifted law, the integral of x f(x) over (0, 1) with
    f(x) = m / (x (1 - x)) P(T = m) its count-sum density (the class
    docstring of ``LossDistribution``), by mpmath's tanh-sinh quadrature in
    ``digits``-digit arithmetic.  Returns the mean and the quadrature's
    error estimate as mpmath numbers.  Uses max(shift, 0) like the
    evaluator."""
    with mpmath.workdps(digits):
        m = int(dist.den_dof) // 2
        r = mpmath.mpf(dist.num_dof) / 2
        a, lam, shift = (mpmath.mpf(v) for v in (dist.a, dist.divisor, max(dist.shift, 0.0)))

        def x_density(x):
            s = x / (2 * lam * (1 - x))
            rate, theta = s * shift, 2 * s * a
            nb = [(1 + theta) ** -r]  # NB(r, 1/(1 + theta)) pmf at 0, 1, ..., m
            for k in range(1, m + 1):
                nb.append(nb[-1] * theta / (1 + theta) * (k - 1 + r) / k)
            pois = [mpmath.exp(-rate)]  # Poisson(rate) pmf at 0, 1, ..., m
            for j in range(1, m + 1):
                pois.append(pois[-1] * rate / j)
            return m / (1 - x) * mpmath.fsum(pois[j] * nb[m - j] for j in range(m + 1))

        return mpmath.quad(x_density, [0, 0.25, 0.5, 0.75, 1], error=True)


def build_omega(pair: ScenarioPair) -> OmegaDecomposition:
    """Omega decomposition of any pair of covariances, by generic whitening.

    With G_t = chol(sigma_t), w = G_t^-1 v the training side's ``white_v``
    and M = G_t^-1 G, G = chol(sigma): u = w/|w| and U = [V, u], with V the
    basis :func:`orth_complement_one` builds for each u, give
    T = U^H G_t^-1, which whitens sigma_t and sends v to |w| e_N, so
    Omega = U^H M M^H U and, with A = V^H M,

        omega11 = A A^H,  omega12 = A (M^H u),  omega22 = |M^H u|^2,
        omega_2_1 = |w|^2 / (v^H sigma^-1 v).

    A pair whose training side stacks B covariances gives a stack of B.
    """
    training = pair.training
    n = training.v.size
    chol_t = training.chol.reshape(-1, n, n)
    w = training.white_v.reshape(-1, n)
    w_norm_sq = np.reshape(training.v_sigma_v, -1)
    # M as I + G_t^-1 (G - G_t): the solve rounds only the mismatch, so M is
    # exactly I without it
    m = np.eye(n) + solve_triangular(chol_t, pair.operating.chol - chol_t, lower=True)
    u = w / np.sqrt(w_norm_sq)[:, None]
    a = np.array([orth_complement_one(row) for row in u]).conj().swapaxes(-1, -2) @ m
    m_u = (m.conj().swapaxes(-1, -2) @ u[..., None])[..., 0]
    omega11 = a @ a.conj().swapaxes(-1, -2)
    omega12 = (a @ m_u[..., None])[..., 0]

    eig = herm_eig(omega11)
    lam = eig.values
    if not (lam[:, -1] > 0).all():
        raise NotPositiveDefinite(f"whitened block has smallest eigenvalue {lam[:, -1].min():.3g}")
    delta = np.abs((eig.vectors.conj().swapaxes(-1, -2) @ omega12[..., None])[..., 0]) ** 2 / lam**2
    omega22 = np.array([np.vdot(x, x).real for x in m_u])
    return OmegaDecomposition(omega22=omega22, omega_2_1=w_norm_sq / pair.operating.v_sigma_v, lam=lam, delta=delta)


def ger_cs(sigma, sigma_t, v, order, n_training) -> float:
    """c_s for a GER pair from the trace form
    2 (Tr[(sigma_t^-1 sigma)^s] - omega_2_1^s); equals the spectral sum
    sum_i lam_i^s * 2 because every delta_i vanishes under the GER.  The
    pair counts as GER when its spec for n_training samples reads
    ``is_ger``."""
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    omega = build_omega(ScenarioPair(operating=Covariance(sigma, v), training=Covariance(sigma_t, v)))[0]
    if not to_quadratic_form(omega, n_training).is_ger:
        raise NotGer("pair does not satisfy the generalized eigenrelation")
    t = cholesky_solve(cholesky(sigma_t), sigma)
    return float(2.0 * (np.trace(np.linalg.matrix_power(t, order)).real - omega.omega_2_1**order))


def simulate_loss_scm(pair: ScenarioPair, n_training, trials, rng: RngStream,
                      batch_size=2048) -> np.ndarray:
    """Direct loss draws from literal training snapshots, as an array.

    Per trial: X ~ complex Gaussian (N x K, covariance sigma_t),
    S = X X^H, and

        loss = (v^H S^-1 v)^2 / [(v^H sigma^-1 v)(v^H S^-1 sigma S^-1 v)],

    with S factored by a batched Cholesky and solved by dense substitution.
    Trial-major draws make the results independent of batch_size.
    """
    n = pair.operating.v.size
    if n_training < n:
        raise ValueError("need n_training >= n_elements")
    g_scaled = np.sqrt(0.5) * pair.training.chol  # white entries drawn with unit-variance parts
    v = pair.operating.v
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
        den = pair.operating.v_sigma_v * np.einsum("bi,ij,bj->b", u.conj(), pair.operating.sigma, u).real
        out[done : done + b] = num / den
        done += b
    return out


def bartlett_factors(gammas, normals) -> np.ndarray:
    """The b x N x N Bartlett factors L of a block of direct draws, rebuilt
    one trial at a time from the draws as the sampler received them:
    ``gammas`` (N x b), ``normals`` (N(N-1)/2 x b x 2), trial axis last.
    L_ii = sqrt(gamma_i) and L_ij = (x + i y) / sqrt(2), with the normals
    taken row by row below the diagonal."""
    n, b = gammas.shape
    rows, cols = np.tril_indices(n, -1)
    low = np.zeros((b, n, n), dtype=complex)
    for t in range(b):
        low[t, np.arange(n), np.arange(n)] = np.sqrt(gammas[:, t])
        low[t, rows, cols] = (normals[:, t, 0] + 1j * normals[:, t, 1]) / np.sqrt(2.0)
    return low


def direct_loss_mp(gammas, normals, pair: ScenarioPair, dps=50) -> list:
    """The direct sampler's loss of each trial of one block of draws (laid
    out as for :func:`bartlett_factors`), in ``dps``-digit mpmath arithmetic
    on the same float inputs the sampler reads: a = G^-1 v, w = G_t^-1 v and
    M^H = (G_t^-1 G)^H.  With u = (L L^H)^-1 w and b = M^H u the loss is
    |a^H b|^2 / (|a|^2 |b|^2), the squared cosine of the angle between a and
    b; float(value) is where the exact loss rounds to."""
    n, trials = gammas.shape
    mh = solve_triangular(pair.training.chol, pair.operating.chol, lower=True).conj().T
    rows, cols = np.tril_indices(n, -1)
    with mpmath.workdps(dps):
        a = [mpmath.mpc(x) for x in pair.operating.white_v]
        w = [mpmath.mpc(x) for x in pair.training.white_v]
        m = [[mpmath.mpc(x) for x in row] for row in mh]
        aa = sum(abs(x) ** 2 for x in a)
        values = []
        for t in range(trials):
            low = [[mpmath.mpc(0)] * n for _ in range(n)]
            for i in range(n):
                low[i][i] = mpmath.sqrt(mpmath.mpf(gammas[i, t]))
            for k, (i, j) in enumerate(zip(rows, cols)):
                low[i][j] = mpmath.mpc(normals[k, t, 0], normals[k, t, 1]) / mpmath.sqrt(2)
            y = []
            for i in range(n):
                y.append((w[i] - sum(low[i][j] * y[j] for j in range(i))) / low[i][i])
            u = [None] * n
            for i in reversed(range(n)):
                u[i] = (y[i] - sum(mpmath.conj(low[j][i]) * u[j] for j in range(i + 1, n))) / low[i][i]
            b = [sum(m[k][i] * u[i] for i in range(n)) for k in range(n)]
            ab = sum(mpmath.conj(p) * q for p, q in zip(a, b))
            values.append(abs(ab) ** 2 / (aa * sum(abs(x) ** 2 for x in b)))
        return values


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


def ks_statistic_all_points(values, ref) -> float:
    """One-sample Kolmogorov-Smirnov distance sup |F_hat - F_ref|, with
    ``ref.cdf`` evaluated once on the whole sorted sample."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    f = np.asarray(ref.cdf(values), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def prob_outside_square_mp(n, h, dps=50) -> float:
    """P(D >= h/n) for two samples of size n, h >= 1, as the series

        2 sum_{k>=1} (-1)^(k-1) C(2n, n - k h) / C(2n, n)

    at ``dps`` digits, stopped once a term falls below 10^-dps."""
    with mpmath.workdps(dps):
        centre = mpmath.binomial(2 * n, n)
        total = mpmath.mpf(0)
        for k in range(1, n // h + 1):
            term = mpmath.binomial(2 * n, n - k * h) / centre
            total += term if k % 2 else -term
            if term < mpmath.mpf(10) ** -dps:
                break
        return float(2 * total)


def orth_complement_one(v) -> np.ndarray:
    """Orthonormal complement of one unit vector, the reflector's scalars
    computed as numpy scalars (``abs`` of a complex scalar, ``np.float64 ** 2``)."""
    v = np.asarray(v, dtype=complex).ravel()
    n = v.size
    phase = np.angle(v[-1]) if v[-1] != 0 else 0.0
    vt = np.exp(-1j * phase) * v
    tail_sq = np.linalg.norm(vt[:-1]) ** 2
    if tail_sq == 0.0:
        return np.eye(n, dtype=complex)[:, : n - 1]
    w = vt.copy()
    w[-1] = -tail_sq / (1.0 + abs(v[-1]))
    beta = 2.0 / (tail_sq + w[-1].real ** 2)
    h = np.eye(n, dtype=complex) - beta * np.outer(w, w.conj())
    return h[:, : n - 1]


def sample_wishart_snapshots(dim, dof, scale, rng: RngStream) -> np.ndarray:
    """W = X X^H with X a dim x dof complex Gaussian matrix whose columns are
    i.i.d. CN(0, scale * I), from one stream: the snapshot draw that
    ``sample_wishart_factor`` replaces with W's Bartlett factor."""
    z = rng.generator.standard_normal((2, dim, dof))
    x = np.sqrt(scale) * (np.sqrt(0.5) * (z[0] + 1j * z[1]))
    return x @ x.conj().T


def sample_chi2(dof, rng: RngStream, size=None):
    """Central real chi-square draw(s); fractional dof allowed."""
    if not dof > 0:
        raise ValueError(f"chi-square dof must be positive, got {dof}")
    return 2.0 * rng.generator.standard_gamma(0.5 * dof, size)


def _inverse_chi2_moment_one(p, k) -> float:
    """E[V^-k] for V ~ chi2(p): 1 / prod_{i=1..k} (p - 2i)."""
    if p <= 2 * k:
        raise InsufficientSamples(f"E[V^-{k}] infinite for p = {p}")
    out = 1.0
    for i in range(1, k + 1):
        out /= p - 2.0 * i
    return out


def cumulants_q_one(spec: QuadraticFormSpec, dof=2.0) -> CumulantTriple:
    """First three cumulants of Q for the spec of one realization, its power
    sums taken as Python floats, with ``dof`` real degrees of freedom in
    every term (a term of the loss's Q has 2)."""
    if spec.p <= 6:
        raise InsufficientSamples("third cumulant needs p > 6, i.e. n_training > n_elements + 1")
    e1 = _inverse_chi2_moment_one(spec.p, 1)
    e2 = _inverse_chi2_moment_one(spec.p, 2)
    e3 = _inverse_chi2_moment_one(spec.p, 3)
    lam, h, delta = spec.lam, dof, spec.delta
    with np.errstate(over="ignore", invalid="ignore"):
        s_lh = float(np.sum(lam * h))
        s_ld = float(np.sum(lam * delta))
        s_l2h = float(np.sum(lam**2 * h))
        s_l2d = float(np.sum(lam**2 * delta))
        s_l3h = float(np.sum(lam**3 * h))
        s_l3d = float(np.sum(lam**3 * delta))

    try:
        s_lh_2, s_lh_3 = s_lh**2, s_lh**3
    except OverflowError:
        s_lh_2 = s_lh_3 = np.inf  # then k2 is not finite

    k1 = s_ld + e1 * s_lh
    k2 = (2.0 * s_l2h + s_lh_2) * e2 + 4.0 * e1 * s_l2d - s_lh_2 * e1**2
    k3 = (
        (8.0 * s_l3h + s_lh_3 + 6.0 * s_lh * s_l2h) * e3
        + (24.0 * s_l3d + 12.0 * s_lh * s_l2d) * e2
        - 3.0 * (s_lh_3 + 2.0 * s_lh * s_l2h) * e1 * e2
        - 12.0 * s_lh * s_l2d * e1**2
        + 2.0 * s_lh_3 * e1**3
    )
    if not np.isfinite([k1, k2, k3]).all():
        raise InvalidFit("a cumulant of Q overflows a float")
    return CumulantTriple(k1=float(k1), k2=float(k2), k3=float(k3))


def scaled_f_cumulants_by_spec(a, num_dof, den_dof) -> CumulantTriple:
    """Cumulants of a * chi2(num_dof) / chi2(den_dof) as those of a one-term Q."""
    return cumulants_q_one(QuadraticFormSpec(lam=[a], delta=[0.0], p=den_dof, scale=1.0), num_dof)


def surprise_spec(q_power, n_training, n_elements) -> QuadraticFormSpec:
    """Exact quadratic form of the loss under a surprise interferer of
    training-whitened power ``q_power``:
    [1 + ((1 + q_power) chi2(2) + chi2(2(N-2))) / chi2(2(K-N+2))]^-1, i.e.
    lam = (1 + q_power, 1, ..., 1) with N - 2 ones, every delta 0, scale 1."""
    lam = np.concatenate([[1.0 + q_power], np.ones(n_elements - 2)])
    return QuadraticFormSpec(lam=lam, delta=np.zeros(lam.size), p=2.0 * (n_training - n_elements + 2), scale=1.0)


def _scaled_f_linear_solve_one(kappa: CumulantTriple) -> tuple[float, float, float]:
    """(a, nu, mu) from the 3x3 linear system in (mu, a*nu, a)."""
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    m2 = k2 + k1**2
    m3 = k3 + 3.0 * k1 * k2 + k1**3
    a_mat = np.array([[k1, -1.0, 0.0], [m2, -k1, -2.0 * k1], [m3, -m2, -4.0 * m2]])
    b = np.array([2.0 * k1, 4.0 * m2, 6.0 * m3])
    mu, a_nu, a = np.linalg.solve(a_mat, b)
    return float(a), float(a_nu / a), float(mu)


def scaled_f_fit_one(kappa: CumulantTriple) -> tuple[float, float, float]:
    """(a, nu, mu) of the scaled-F fit to one cumulant triple, with the
    package's checks in the package's order."""
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    try:
        k1_sq, k2_sq = k1**2, k2**2
    except OverflowError as exc:
        raise InvalidFit("scaled-F fit overflows a float") from exc
    det = k1 * k3 - 2.0 * k2_sq
    if abs(det) <= 1e-10 * max(abs(k1 * k3), k2_sq):
        raise DegenerateCumulants("k1*k3 - 2*k2^2 vanishes")
    denom_a = k2 * k3 + 4.0 * k1 * k2_sq - k1_sq * k3
    a = denom_a / det
    nu = 4.0 * k1 * (k1 * k3 + k1_sq * k2 - k2_sq) / denom_a
    mu = 2.0 + 4.0 * (k1 * k3 + k1_sq * k2 - k2_sq) / det

    a_lin, nu_lin, mu_lin = _scaled_f_linear_solve_one(kappa)
    for closed, linear in ((a, a_lin), (nu, nu_lin), (mu, mu_lin)):
        if abs(closed - linear) > 1e-9 * max(1.0, abs(closed)):
            raise InvalidFit("closed form and linear solve disagree")
    if not (a > 0 and nu > 0):
        raise InvalidFit(f"fit left the valid region: a={a}, nu={nu}")
    if not mu > 6:
        raise InvalidFit(f"fitted denominator dof must exceed 6, got {mu}")
    check = scaled_f_cumulants_by_spec(a, nu, mu)
    if check.k1 * check.k3 <= 2.0 * check.k2**2:
        raise InvalidFit("fitted cumulants violate k1*k3 > 2*k2^2")
    for got, want in ((check.k1, k1), (check.k2, k2), (check.k3, k3)):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise InvalidFit("scaled-F fit failed its cumulant-match revalidation")
    return float(a), float(nu), float(mu)
