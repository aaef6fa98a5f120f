"""Moment-matching fits and evaluators for the SNR-loss distribution.

Three fitted families:

* three-moment shifted chi-square a1 * chi2(dof) + a2 (matches the first
  three cumulants of a weighted chi-square sum),
* two-moment scaled chi-square a * chi2(dof),
* three-cumulant scaled F, Q_a = a * chi2(nu) / chi2(mu), with a unique
  closed-form solution whenever k1*k3 != 2*k2^2.

A fitted (or exact) loss distribution is

    loss =d [1 + a_eff * chi2(nu) / chi2(mu)]^-1

whose density has the closed form implemented by :func:`loss_pdf`.  Degrees
of freedom are stored in the real-dof convention and may be fractional; the
density uses the half dofs nu/2 and mu/2, which is what makes the
no-mismatch case (a_eff = 1) collapse to the beta density with parameters
(K - N + 2, N - 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaincinv, betaln, gammainc, gammaln
from scipy.special import gammaincc  # noqa: F401  (the bench tracer counts calls through this name)

from .errors import DegenerateCumulants, InvalidFit, NegativePower, NonPositiveCumulant, OutOfSupport
from .linalg import solve_hermitian
from .mismatch import (
    CumulantTriple,
    OmegaDecomposition,
    QuadraticFormSpec,
    build_omega,
    c_coefficients,
    cumulants_q,
    to_quadratic_form,
)
from .scenarios import ScenarioPair

__all__ = [
    "Analysis",
    "LossDistribution",
    "PearsonFit",
    "PearsonLossDistribution",
    "ScaledChi2Fit",
    "ScaledFFit",
    "analyze",
    "assemble_loss",
    "assemble_pearson_loss",
    "exact_surprise_distribution",
    "loss_mean",
    "loss_pdf",
    "pearson_cumulants",
    "pearson_three_moment",
    "scaled_chi2_two_moment",
    "scaled_f_cumulants",
    "scaled_f_fit",
]

LOSS_KINDS = frozenset({"exact_beta", "exact_mpdr", "exact_surprise", "fitted_ger", "fitted_general"})

_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class PearsonFit:
    """Three-moment fit a1 * chi2(dof) + a2 to a weighted chi-square sum."""

    a1: float
    dof: float
    a2: float


@dataclass(frozen=True)
class ScaledChi2Fit:
    """Two-moment fit a * chi2(dof)."""

    a: float
    dof: float


@dataclass(frozen=True)
class ScaledFFit:
    """Three-cumulant fit a * chi2(num_dof) / chi2(den_dof)."""

    a: float
    num_dof: float
    den_dof: float


def pearson_three_moment(c1, c2, c3) -> PearsonFit:
    """Best three-moment shifted chi-square approximation of a weighted
    chi-square sum with coefficients c_s.

    Matching the cumulants (c1, 2*c2, 8*c3) forces a1 = c3/c2,
    dof = c2^3/c3^2 and a2 = c1 - c2^2/c3.  The fit is revalidated by
    recomputing its cumulants (1e-10 relative).
    """
    if not (c2 > 0 and c3 > 0):
        raise NonPositiveCumulant("need c2 > 0 and c3 > 0")
    fit = PearsonFit(a1=c3 / c2, dof=c2**3 / c3**2, a2=c1 - c2**2 / c3)
    k1, k2, k3 = pearson_cumulants(fit)
    for got, want in ((k1, c1), (k2, 2.0 * c2), (k3, 8.0 * c3)):
        if abs(got - want) > 1e-10 * max(1.0, abs(want)):
            raise InvalidFit("shifted fit failed its cumulant-match revalidation")
    return fit


def pearson_cumulants(fit: PearsonFit) -> tuple[float, float, float]:
    """First three cumulants of a1 * chi2(dof) + a2."""
    return (fit.a1 * fit.dof + fit.a2, 2.0 * fit.a1**2 * fit.dof, 8.0 * fit.a1**3 * fit.dof)


def scaled_chi2_two_moment(c1, c2) -> ScaledChi2Fit:
    """Two-moment scaled chi-square approximation: a = c2/c1, dof = c1^2/c2,
    revalidated by recomputing both moments (1e-10 relative)."""
    if not (c1 > 0 and c2 > 0):
        raise NonPositiveCumulant("need c1 > 0 and c2 > 0")
    fit = ScaledChi2Fit(a=c2 / c1, dof=c1**2 / c2)
    if (abs(fit.a * fit.dof - c1) > 1e-10 * max(1.0, abs(c1))
            or abs(2.0 * fit.a**2 * fit.dof - 2.0 * c2) > 1e-10 * max(1.0, abs(c2))):
        raise InvalidFit("scaled chi-square fit failed its moment revalidation")
    return fit


def scaled_f_cumulants(a, num_dof, den_dof) -> CumulantTriple:
    """Analytic first three cumulants of a * chi2(num_dof) / chi2(den_dof),
    the one-term case of Q; needs den_dof > 6."""
    return cumulants_q(QuadraticFormSpec(lam=[a], h=[num_dof], delta=[0.0], p=den_dof, scale=1.0))


def _scaled_f_linear_solve(kappa: CumulantTriple) -> tuple[float, float, float]:
    """Solve the equivalent 3x3 linear system in (mu, a*nu, a)."""
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    m2 = k2 + k1**2
    m3 = k3 + 3.0 * k1 * k2 + k1**3
    a_mat = np.array(
        [
            [k1, -1.0, 0.0],
            [m2, -k1, -2.0 * k1],
            [m3, -m2, -4.0 * m2],
        ]
    )
    b = np.array([2.0 * k1, 4.0 * m2, 6.0 * m3])
    mu, a_nu, a = np.linalg.solve(a_mat, b)
    return float(a), float(a_nu / a), float(mu)


def scaled_f_fit(kappa: CumulantTriple) -> ScaledFFit:
    """Fit a * chi2(nu) / chi2(mu) to the given cumulant triple.

    Uses the closed-form solution and cross-checks it against the linear
    3x3 system; the two must agree to 1e-9 relative, and the fitted
    cumulants must reproduce ``kappa`` to 1e-9 relative.  Raises
    DegenerateCumulants when k1*k3 is too close to 2*k2^2 (the system has
    no solution there) and InvalidFit when the solution leaves the valid
    region (a, nu > 0 and mu > 6) or fails either check.
    """
    k1, k2, k3 = kappa.k1, kappa.k2, kappa.k3
    det = k1 * k3 - 2.0 * k2**2
    if abs(det) <= 1e-10 * max(abs(k1 * k3), k2**2):
        raise DegenerateCumulants(
            f"k1*k3 - 2*k2^2 vanishes for (k1, k2, k3) = ({k1!r}, {k2!r}, {k3!r}); "
            "no scaled-F solution exists"
        )
    denom_a = k2 * k3 + 4.0 * k1 * k2**2 - k1**2 * k3
    a = denom_a / det
    nu = 4.0 * k1 * (k1 * k3 + k1**2 * k2 - k2**2) / denom_a
    mu = 2.0 + 4.0 * (k1 * k3 + k1**2 * k2 - k2**2) / det

    a_lin, nu_lin, mu_lin = _scaled_f_linear_solve(kappa)
    for closed, linear in ((a, a_lin), (nu, nu_lin), (mu, mu_lin)):
        if abs(closed - linear) > 1e-9 * max(1.0, abs(closed)):
            raise InvalidFit("closed form and linear solve disagree")

    if not (a > 0 and nu > 0):
        raise InvalidFit(f"fit left the valid region: a={a}, nu={nu}")
    if not mu > 6:
        raise InvalidFit(f"fitted denominator dof must exceed 6, got {mu}")
    fit = ScaledFFit(a=float(a), num_dof=float(nu), den_dof=float(mu))
    check = scaled_f_cumulants(fit.a, fit.num_dof, fit.den_dof)
    if check.k1 * check.k3 <= 2.0 * check.k2**2:
        raise InvalidFit("fitted cumulants violate k1*k3 > 2*k2^2")
    for got, want in ((check.k1, k1), (check.k2, k2), (check.k3, k3)):
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise InvalidFit("scaled-F fit failed its cumulant-match revalidation")
    return fit


@dataclass(frozen=True)
class LossDistribution:
    """Loss distribution [1 + a_eff * chi2(num_dof)/chi2(den_dof)]^-1.

    ``kind`` records provenance: exact_beta / exact_mpdr are exact closed
    forms, fitted_ger / fitted_general are moment approximations, and
    exact_surprise carries the exact two-eigenvalue compound in
    ``compound`` for sampling while its evaluators are the compound's
    scaled-F fit (so :func:`analyze` does not report it as exact).
    """

    a_eff: float
    num_dof: float
    den_dof: float
    kind: str
    compound: QuadraticFormSpec | None = None

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not all(np.isfinite(v) and v > 0 for v in (self.a_eff, self.num_dof, self.den_dof)):
            raise InvalidFit("loss distribution parameters must be finite and positive")

    # -- fast vectorized evaluators (closed forms) --------------------

    def pdf(self, x):
        return loss_pdf(self, x)

    def cdf(self, x):
        """Closed-form cdf via the regularized incomplete beta function."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0) or np.any(x > 1):
            raise OutOfSupport("loss lives on [0, 1]")
        t = self.a_eff * x / (1.0 + (self.a_eff - 1.0) * x)
        return betainc(0.5 * self.den_dof, 0.5 * self.num_dof, t)

    def quantile(self, prob):
        """Closed-form quantile by inverting the incomplete beta function."""
        prob = np.asarray(prob, dtype=float)
        if np.any(prob <= 0) or np.any(prob >= 1):
            raise OutOfSupport("probability must lie in (0, 1)")
        t = betaincinv(0.5 * self.den_dof, 0.5 * self.num_dof, prob)
        return t / (self.a_eff - (self.a_eff - 1.0) * t)


def loss_pdf(dist: LossDistribution, x):
    """Density of the loss distribution, evaluated in log space.

    With nt = num_dof/2 and mt = den_dof/2:
    p(x) = a^mt / B(nt, mt) * x^(mt-1) (1-x)^(nt-1) / (1 + (a-1) x)^(nt+mt);
    log B stays finite for every finite dof, where G(nt+mt)/(G(nt)G(mt))
    as three log-gammas gives inf - inf.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or np.any(x >= 1):
        raise OutOfSupport("density defined on the open interval (0, 1)")
    a = dist.a_eff
    nt = 0.5 * dist.num_dof
    mt = 0.5 * dist.den_dof
    log_norm = mt * np.log(a) - betaln(nt, mt)
    log_pdf = log_norm + (mt - 1.0) * np.log(x) + (nt - 1.0) * np.log1p(-x) - (nt + mt) * np.log1p((a - 1.0) * x)
    out = np.exp(log_pdf)
    return float(out) if out.ndim == 0 else out


def loss_mean(dist: LossDistribution) -> float:
    """Mean of the loss by quadrature."""
    value, _ = integrate.quad(lambda t: t * loss_pdf(dist, t), 0.0, 1.0,
                              epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
    return value


def assemble_loss(fit, omega_2_1, n_training, n_elements, kind, *, gamma=None, soi_power=None) -> LossDistribution:
    """Build a LossDistribution from a fit (or exact-case parameters).

    * fitted_ger: fit is a ScaledChi2Fit for the numerator form; the loss
      uses a_eff = a / omega_2_1 and the exact denominator dof 2(K-N+2).
    * fitted_general: fit is a ScaledFFit of Q (V already embedded);
      a_eff = a / omega_2_1.
    * exact_beta: the no-mismatch parameters (1, 2(N-1), 2(K-N+2)).
    * exact_mpdr: a_eff = 1 + soi_power/gamma with soi_power the linear
      product P * v^H sigma^-1 v.
    """
    p = 2.0 * (n_training - n_elements + 2)
    if kind == "fitted_ger":
        if not isinstance(fit, ScaledChi2Fit):
            raise TypeError("fitted_ger expects a ScaledChi2Fit")
        return LossDistribution(a_eff=fit.a / omega_2_1, num_dof=fit.dof, den_dof=p, kind=kind)
    if kind == "fitted_general":
        if not isinstance(fit, ScaledFFit):
            raise TypeError("fitted_general expects a ScaledFFit")
        return LossDistribution(a_eff=fit.a / omega_2_1, num_dof=fit.num_dof, den_dof=fit.den_dof, kind=kind)
    if kind == "exact_beta":
        return LossDistribution(a_eff=1.0, num_dof=2.0 * (n_elements - 1), den_dof=p, kind=kind)
    if kind == "exact_mpdr":
        if gamma is None or soi_power is None:
            raise ValueError("exact_mpdr needs gamma and soi_power")
        return LossDistribution(a_eff=1.0 + soi_power / gamma, num_dof=2.0 * (n_elements - 1), den_dof=p, kind=kind)
    raise ValueError(f"unknown kind {kind!r}")


def exact_surprise_distribution(q_power, n_training, n_elements) -> LossDistribution:
    """Loss under a surprise interferer of training-whitened power q_power.

    The exact representation is
    [1 + (chi2(2(N-2)) + (1+q_power) chi2(2)) / chi2(2(K-N+2))]^-1; the
    returned distribution stores that two-eigenvalue compound (for exact
    sampling) together with its scaled-F fit, which is what the pdf/cdf
    evaluators use.
    """
    if q_power < 0:
        raise NegativePower("q_power must be >= 0")
    if n_elements < 2:
        raise ValueError("need at least 2 elements")
    lam = np.concatenate([[1.0 + q_power], np.ones(n_elements - 2)])
    spec = QuadraticFormSpec(
        lam=lam,
        h=np.full(lam.size, 2.0),
        delta=np.zeros(lam.size),
        p=2.0 * (n_training - n_elements + 2),
        scale=1.0,
    )
    fit = scaled_f_fit(cumulants_q(spec))
    return LossDistribution(a_eff=fit.a, num_dof=fit.num_dof, den_dof=fit.den_dof,
                            kind="exact_surprise", compound=spec)


# -- shifted-fit loss representation (finite Poisson/negative-binomial sums) --


@dataclass(frozen=True)
class PearsonLossDistribution:
    """Loss representation [1 + (a1 chi2(dof) + a2) / (lam * chi2(den_dof))]^-1.

    The shift a2 rules out the scaled-F closed form, but den_dof = 2m with m
    an integer gives an exact finite one.  With U ~ chi2(dof), V ~ chi2(2m)
    and s = x / (2 lam (1 - x)),

        F(x) = P(V/2 <= s (a1 U + a2)) = P(Poisson(s (a1 U + a2)) >= m),

    because V/2 ~ Gamma(m) and P(Gamma(m) <= y) = P(Poisson(y) >= m).  The
    Poisson count splits into an independent Poisson(s a2) part and a
    Poisson part whose rate s a1 U is Gamma(dof/2, scale 2 s a1), which is
    negative binomial NB(dof/2, 1/(1 + 2 s a1)).  So with T the sum of the
    two counts

        F(x) = P(T >= m),   f(x) = m / (x (1 - x)) * P(T = m),

    the density from d/dy P(Poisson(y) >= m) = P(Poisson(y) = m - 1).  Both
    are finite sums of positive terms (see :meth:`_count_sum`), so they keep
    their relative accuracy in both tails.  ``sample`` draws from the
    representation directly; the evaluators use max(a2, 0), since a2 < 0
    only arises from rounding (Cauchy-Schwarz gives c2^2 <= c1 c3).
    """

    a1: float
    dof: float
    a2: float
    lam: float
    den_dof: float

    def __post_init__(self):
        if not all(np.isfinite(v) and v > 0 for v in (self.a1, self.dof, self.lam)):
            raise InvalidFit("shifted fit needs finite a1, dof and lam > 0")
        if not (np.isfinite(self.a2) and self.a2 >= -1e-12 * self.a1 * self.dof):
            raise InvalidFit(f"shifted fit needs a finite shift a2 >= 0, got {self.a2!r}")
        if not (self.den_dof >= 2 and self.den_dof % 2 == 0):
            raise InvalidFit(f"shifted fit needs an even denominator dof >= 2, got {self.den_dof!r}")

    def _count_sum(self, x, density):
        """P(T = m) if ``density`` else P(T >= m), at points x in (0, 1).

        T = A + B with A ~ Poisson(mu) and B ~ NB(r, 1/(1 + theta)),
        mu = s a2, theta = 2 s a1 and r = dof/2.  Summing over j = A:

            P(T = m)  = sum_{j=0..m}   P(A = j) P(B = m - j),
            P(T >= m) = sum_{j=0..m-1} P(A = j) P(B >= m - j) + P(A >= m),

        where the NB tail P(B >= m - j) grows from P(B >= m) by one pmf term
        per step.  Each pmf term is built in log space as one vector over x.
        """
        m = int(self.den_dof) // 2
        r = 0.5 * self.dof
        s = x / (2.0 * self.lam * (1.0 - x))
        mu = s * max(self.a2, 0.0)
        theta = 2.0 * s * self.a1
        with np.errstate(divide="ignore", over="ignore"):
            log_mu = np.log(mu)
            log_q = -np.log1p(1.0 / theta)  # log(theta / (1 + theta)), finite at theta = inf
        r_log_p = -r * np.log1p(theta)

        def log_pois(j):
            return (j * log_mu if j else 0.0) - mu - gammaln(j + 1.0)

        def log_nb(k):
            return (k * log_q if k else 0.0) + r_log_p + (gammaln(k + r) - gammaln(r) - gammaln(k + 1.0))

        if density:
            return sum(np.exp(log_pois(j) + log_nb(m - j)) for j in range(m + 1))
        nb_tail = betainc(m, r, np.exp(log_q))
        out = gammainc(m, mu)
        for j in range(m):
            if j:
                nb_tail = nb_tail + np.exp(log_nb(m - j))
            out = out + np.exp(log_pois(j)) * nb_tail
        return out

    def cdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x < 0) or np.any(x > 1):
            raise OutOfSupport("loss lives on [0, 1]")
        out = np.where(x == 1.0, 1.0, 0.0)
        inner = (x != 0.0) & (x != 1.0)
        # rounding can lift the sum of positive terms an ulp above 1 (and, near
        # x -> 1, make it step down by an ulp, which the clip leaves)
        out[inner] = np.minimum(self._count_sum(x[inner], density=False), 1.0)
        return out if out.size > 1 else float(out[0])

    def pdf(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x <= 0) or np.any(x >= 1):
            raise OutOfSupport("density defined on the open interval (0, 1)")
        # dividing the sum by x first keeps f finite where m / x would overflow
        out = 0.5 * self.den_dof / (1.0 - x) * (self._count_sum(x, density=True) / x)
        return out if out.size > 1 else float(out[0])

    def sample(self, trials, rng):
        from .sampling import sample_chi2

        num = self.a1 * sample_chi2(self.dof, rng, trials) + self.a2
        den = self.lam * sample_chi2(self.den_dof, rng, trials)
        return 1.0 / (1.0 + num / den)


def assemble_pearson_loss(fit: PearsonFit, omega_2_1, n_training, n_elements) -> PearsonLossDistribution:
    """Shifted-fit loss representation for a GER pair (omega_2_1 = lambda)."""
    return PearsonLossDistribution(a1=fit.a1, dof=fit.dof, a2=fit.a2, lam=float(omega_2_1),
                                   den_dof=2.0 * (n_training - n_elements + 2))


@dataclass(frozen=True)
class Analysis:
    """One scenario's chain: Omega blocks, quadratic form, cumulants of Q,
    the moment fits and the loss distributions they and the exact closed
    forms give.

    ``fits`` and ``refs`` share keys: ``scaled_f`` always, ``scaled_chi2``
    and ``pearson`` when the pair satisfies the GER; ``refs`` adds
    ``exact`` for no mismatch and MPDR, the two closed forms.
    """

    omega: OmegaDecomposition
    spec: QuadraticFormSpec
    kappa: CumulantTriple
    fits: dict
    refs: dict


def analyze(pair: ScenarioPair, n_training) -> Analysis:
    """Run pair -> Omega -> quadratic form -> cumulants -> every applicable
    fit and exact closed form for K = n_training training samples."""
    n = pair.n_elements
    omega = build_omega(pair)
    spec = to_quadratic_form(omega, n_training, n)
    kappa = cumulants_q(spec)
    fits = {"scaled_f": scaled_f_fit(kappa)}
    refs = {"scaled_f": assemble_loss(fits["scaled_f"], omega.omega_2_1, n_training, n, "fitted_general")}
    if omega.is_ger:
        c1, c2, c3 = c_coefficients(omega.lam, spec.h, np.zeros_like(omega.lam))
        fits["scaled_chi2"] = scaled_chi2_two_moment(c1, c2)
        refs["scaled_chi2"] = assemble_loss(fits["scaled_chi2"], omega.omega_2_1, n_training, n, "fitted_ger")
        fits["pearson"] = pearson_three_moment(c1, c2, c3)
        refs["pearson"] = assemble_pearson_loss(fits["pearson"], omega.omega_2_1, n_training, n)
    if pair.kind == "none":
        refs["exact"] = assemble_loss(None, None, n_training, n, "exact_beta")
    elif pair.kind == "mpdr":
        v_sigma_v = (pair.v.conj() @ solve_hermitian(pair.sigma, pair.v)).real
        refs["exact"] = assemble_loss(None, None, n_training, n, "exact_mpdr", gamma=pair.params["gamma"],
                                      soi_power=pair.params["soi_power"] * v_sigma_v)
    return Analysis(omega=omega, spec=spec, kappa=kappa, fits=fits, refs=refs)
