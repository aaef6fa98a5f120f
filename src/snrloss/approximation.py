"""Moment-matching fits and evaluators for the SNR-loss distribution.

Three fitted families:

* three-moment shifted chi-square a1 * chi2(dof) + a2 (matches the first
  three cumulants of a weighted chi-square sum),
* two-moment scaled chi-square a * chi2(dof),
* three-cumulant scaled F, Q_a = a * chi2(nu) / chi2(mu), with a unique
  closed-form solution whenever k1*k3 != 2*k2^2.

A fitted (or exact) loss distribution is

    loss =d [1 + a_eff * chi2(nu) / chi2(mu)]^-1

whose density has the closed form :meth:`LossDistribution.pdf`.  Degrees
of freedom are stored in the real-dof convention and may be fractional; the
density uses the half dofs nu/2 and mu/2, which is what makes the
no-mismatch case (a_eff = 1) collapse to the beta density with parameters
(K - N + 2, N - 1).

``scipy.special`` is imported inside the evaluators that call its ufuncs,
:meth:`LossDistribution.pdf`, :meth:`LossDistribution.cdf` and
:meth:`PearsonLossDistribution._count_sum`, and not at module level: its
import takes longer than the rest of the package's, and ``analyze``,
``simulate`` and ``sweep`` never evaluate a cdf or a pdf.  So only ``pdf``
and ``validate`` load it, on their first evaluation.  The module attribute
``gammaincc`` resolves to ``scipy.special.gammaincc`` on first access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCumulants, InvalidFit, NonPositiveCumulant, OutOfSupport
from .linalg import failing_alone
from .mismatch import (
    CumulantTriple,
    OmegaDecomposition,
    QuadraticFormSpec,
    build_omega,
    c_coefficients,
    cumulants_q,
    power_sum_cumulants,
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
    "loss_mean",
    "pearson_cumulants",
    "pearson_three_moment",
    "scaled_chi2_two_moment",
    "scaled_f_cumulants",
    "scaled_f_fit",
    "scaled_f_laws",
]

LOSS_KINDS = frozenset({"exact_beta", "exact_mpdr", "fitted_ger", "fitted_general"})

# loss_mean's trapezoid rule: its step h, the share of the sum that the bound
# on its dropped terms may reach, and e^(h k) on the nodes it starts from,
# which are all that the laws of a 16x32 sweep need
_MEAN_STEP = 0.2
_MEAN_TAIL = 2.0**-60
_MEAN_LEFT, _MEAN_RIGHT = 216, 32
_MEAN_GROWTH = np.exp(_MEAN_STEP * np.arange(-_MEAN_LEFT, _MEAN_RIGHT + 1.0))


def __getattr__(name):
    # ``gammaincc`` stays an attribute of this module for bench/tracing.py,
    # which counts calls through it, without loading scipy.special at import
    if name == "gammaincc":
        from scipy.special import gammaincc

        return gammaincc
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class PearsonFit:
    """Three-moment fit a1 * chi2(dof) + a2 to a weighted chi-square sum.

    The fits of a stack hold arrays, row i's parameters at i; so do
    :class:`ScaledChi2Fit` and :class:`ScaledFFit`.
    """

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


# Every fit takes floats, or arrays that stack one input per row.  A stack is
# fitted with array code; at the first check that some rows fail, it raises
# the error those rows raise alone, naming them in its ``rows``.  Powers of
# per-row values go through ``np.float_power``, which calls C ``pow`` on each
# element as Python float ``**`` does (``np.power``'s vector loop rounds some
# results differently), so every row equals, bit for bit, the same formulas
# in Python float arithmetic.


def pearson_three_moment(c1, c2, c3) -> PearsonFit:
    """Best three-moment shifted chi-square approximation of a weighted
    chi-square sum with coefficients c_s.

    Matching the cumulants (c1, 2*c2, 8*c3) forces a1 = c3/c2,
    dof = c2^3/c3^2 and a2 = c1 - c2^2/c3.  The fit is revalidated by
    recomputing its cumulants (1e-10 relative).
    """
    c1, c2, c3 = (np.asarray(c, dtype=float) for c in (c1, c2, c3))
    if not ((c2 > 0) & (c3 > 0)).all():
        raise NonPositiveCumulant("need c2 > 0 and c3 > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        c2_sq, c2_cube, c3_sq = np.float_power(c2, 2), np.float_power(c2, 3), np.float_power(c3, 2)
        if not np.isfinite([c2_sq, c2_cube, c3_sq]).all():
            raise InvalidFit("shifted fit overflows a float")
        fit = PearsonFit(a1=c3 / c2, dof=c2_cube / c3_sq, a2=c1 - c2_sq / c3)
        got, want = np.array(pearson_cumulants(fit)), np.array([c1, 2.0 * c2, 8.0 * c3])
        if (abs(got - want) > 1e-10 * np.fmax(1.0, abs(want))).any():
            raise InvalidFit("shifted fit failed its cumulant-match revalidation")
    return fit


def pearson_cumulants(fit: PearsonFit) -> tuple[float, float, float]:
    """First three cumulants of a1 * chi2(dof) + a2."""
    a1, dof = fit.a1, fit.dof
    return (a1 * dof + fit.a2, 2.0 * np.float_power(a1, 2) * dof, 8.0 * np.float_power(a1, 3) * dof)


def scaled_chi2_two_moment(c1, c2) -> ScaledChi2Fit:
    """Two-moment scaled chi-square approximation: a = c2/c1, dof = c1^2/c2,
    revalidated by recomputing both moments (1e-10 relative)."""
    c1, c2 = (np.asarray(c, dtype=float) for c in (c1, c2))
    if not ((c1 > 0) & (c2 > 0)).all():
        raise NonPositiveCumulant("need c1 > 0 and c2 > 0")
    with np.errstate(over="ignore", invalid="ignore"):
        a, dof = c2 / c1, np.float_power(c1, 2) / c2
        failed = ((abs(a * dof - c1) > 1e-10 * np.fmax(1.0, abs(c1)))
                  | (abs(2.0 * np.float_power(a, 2) * dof - 2.0 * c2) > 1e-10 * np.fmax(1.0, abs(c2))))
    if failed.any():
        raise InvalidFit("scaled chi-square fit failed its moment revalidation")
    return ScaledChi2Fit(a=a, dof=dof)


def scaled_f_cumulants(a, num_dof, den_dof) -> CumulantTriple:
    """Analytic first three cumulants of a * chi2(num_dof) / chi2(den_dof),
    the one-term Q of :func:`power_sum_cumulants` with lam = a, h = num_dof
    and delta = 0; needs den_dof > 6."""
    a, nu, mu = (np.asarray(v, dtype=float) for v in (a, num_dof, den_dof))
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [(a**j * nu, 0.0) for j in (1, 2, 3)]
    return power_sum_cumulants(*sums, mu)


def _scaled_f_linear_solve(kappa: CumulantTriple) -> tuple[float, float, float]:
    """Solve the equivalent 3x3 linear system in (mu, a*nu, a): one batched
    solve for the triples of a stack."""
    k1, k2, k3 = (np.asarray(k, dtype=float) for k in (kappa.k1, kappa.k2, kappa.k3))
    m2 = k2 + np.float_power(k1, 2)
    m3 = k3 + 3.0 * k1 * k2 + np.float_power(k1, 3)
    one, zero = np.ones(k1.shape), np.zeros(k1.shape)
    # the matrices' columns, and the right-hand sides, with the stack axis
    # last: transposed, they are the stack of systems
    columns = np.array([[k1, m2, m3], [-one, -k1, -m2], [zero, -2.0 * k1, -4.0 * m2]])
    b = np.array([2.0 * k1, 4.0 * m2, 6.0 * m3])
    matrices, rhs = columns.T, b.T[..., None]
    try:
        mu, a_nu, a = np.linalg.solve(matrices, rhs)[..., 0].T
    except np.linalg.LinAlgError as exc:
        raise InvalidFit("the scaled-F linear system is singular",
                         failed=failing_alone(np.linalg.solve, matrices, rhs)) from exc
    return a, a_nu / a, mu


def scaled_f_fit(kappa: CumulantTriple) -> ScaledFFit:
    """Fit a * chi2(nu) / chi2(mu) to the given cumulant triple.

    Uses the closed-form solution and cross-checks it against the linear
    3x3 system; the two must agree to 1e-9 relative, and the fitted
    cumulants (:func:`scaled_f_cumulants`) must reproduce ``kappa`` to 1e-9
    relative.  Raises DegenerateCumulants when k1*k3 is too close to 2*k2^2
    (the system has no solution there) and InvalidFit when the solution
    leaves the valid region (a, nu > 0 and mu > 6) or fails either check.
    """
    k1, k2, k3 = (np.asarray(k, dtype=float) for k in (kappa.k1, kappa.k2, kappa.k3))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k1_sq, k2_sq = np.float_power(k1, 2), np.float_power(k2, 2)
        failed = ~(np.isfinite(k1_sq) & np.isfinite(k2_sq))
        if failed.any():
            raise InvalidFit("scaled-F fit overflows a float at (k1, k2, k3) = ({!r}, {!r}, {!r})".format(
                *_first_row(failed, k1, k2, k3)), failed=failed)
        det = k1 * k3 - 2.0 * k2_sq
        failed = abs(det) <= 1e-10 * np.fmax(abs(k1 * k3), k2_sq)
        if failed.any():
            raise DegenerateCumulants(
                "k1*k3 - 2*k2^2 vanishes for (k1, k2, k3) = ({!r}, {!r}, {!r}); "
                "no scaled-F solution exists".format(*_first_row(failed, k1, k2, k3)), failed=failed)
        denom_a = k2 * k3 + 4.0 * k1 * k2_sq - k1_sq * k3
        a = denom_a / det
        nu = 4.0 * k1 * (k1 * k3 + k1_sq * k2 - k2_sq) / denom_a
        mu = 2.0 + 4.0 * (k1 * k3 + k1_sq * k2 - k2_sq) / det

        closed = np.array([a, nu, mu])
        failed = (abs(closed - _scaled_f_linear_solve(kappa)) > 1e-9 * np.fmax(1.0, abs(closed))).any(axis=0)
        if failed.any():
            raise InvalidFit("closed form and linear solve disagree", failed=failed)

        failed = ~((a > 0) & (nu > 0))
        if failed.any():
            raise InvalidFit("fit left the valid region: a={}, nu={}".format(*_first_row(failed, a, nu)),
                             failed=failed)
        failed = ~(mu > 6)
        if failed.any():
            raise InvalidFit("fitted denominator dof must exceed 6, got {}".format(*_first_row(failed, mu)),
                             failed=failed)
        check = scaled_f_cumulants(a, nu, mu)
        failed = check.k1 * check.k3 <= 2.0 * np.float_power(check.k2, 2)
        if failed.any():
            raise InvalidFit("fitted cumulants violate k1*k3 > 2*k2^2", failed=failed)
        got, want = np.array([check.k1, check.k2, check.k3]), np.array([k1, k2, k3])
        failed = (abs(got - want) > 1e-9 * np.fmax(1.0, abs(want))).any(axis=0)
        if failed.any():
            raise InvalidFit("scaled-F fit failed its cumulant-match revalidation", failed=failed)
    return ScaledFFit(a=a, num_dof=nu, den_dof=mu)


def _first_row(failed, *values) -> tuple:
    """The floats of ``values`` at the first row where ``failed`` holds, for
    an error message."""
    row = np.flatnonzero(failed)[0]
    return tuple(float(np.ravel(value)[row]) for value in values)


@dataclass(frozen=True)
class LossDistribution:
    """Loss distribution [1 + a_eff * chi2(num_dof)/chi2(den_dof)]^-1.

    ``kind`` records provenance: exact_beta / exact_mpdr are exact closed
    forms, fitted_ger / fitted_general are moment approximations.
    """

    a_eff: float
    num_dof: float
    den_dof: float
    kind: str

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not all(math.isfinite(v) and v > 0 for v in (self.a_eff, self.num_dof, self.den_dof)):
            raise InvalidFit("loss distribution parameters must be finite and positive")

    # -- fast vectorized evaluators (closed forms) --------------------

    def pdf(self, x):
        """Density, evaluated in log space.

        With nt = num_dof/2 and mt = den_dof/2:
        p(x) = a^mt / B(nt, mt) * x^(mt-1) (1-x)^(nt-1) / (1 + (a-1) x)^(nt+mt);
        log B stays finite for every finite dof, where G(nt+mt)/(G(nt)G(mt))
        as three log-gammas gives inf - inf.
        """
        from scipy.special import betaln

        x = np.asarray(x, dtype=float)
        if np.any(x <= 0) or np.any(x >= 1):
            raise OutOfSupport("density defined on the open interval (0, 1)")
        a = self.a_eff
        nt = 0.5 * self.num_dof
        mt = 0.5 * self.den_dof
        log_norm = mt * np.log(a) - betaln(nt, mt)
        log_pdf = log_norm + (mt - 1.0) * np.log(x) + (nt - 1.0) * np.log1p(-x) - (nt + mt) * np.log1p((a - 1.0) * x)
        out = np.exp(log_pdf)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        """Closed-form cdf via the regularized incomplete beta function."""
        from scipy.special import betainc

        x = np.asarray(x, dtype=float)
        if np.any(x < 0) or np.any(x > 1):
            raise OutOfSupport("loss lives on [0, 1]")
        t = self.a_eff * x / (1.0 + (self.a_eff - 1.0) * x)
        return betainc(0.5 * self.den_dof, 0.5 * self.num_dof, t)


def loss_mean(dist: LossDistribution) -> float:
    """Mean of the loss, by the trapezoid rule on one positive integral.

    With the loss V/(V + a U), V ~ chi2(mu), U ~ chi2(nu), 1/x as the
    integral of e^(-sx) over s > 0, t = 2s and y = ln t,

        E = integral of g dy,  g = (mu/2) t (1 + a t)^(-nu/2) (1 + t)^(-mu/2-1).

    ln g is concave in y.  Its mode t0 is the positive root of
    a (nu + mu)/2 t^2 + (mu/2 + a (nu/2 - 1)) t - 1.  The rule sums g on the
    grid ln t0 + h k, h = 0.2; g is analytic and decays exponentially at
    both ends, so the rule converges geometrically (Trefethen and Weideman,
    SIAM Review 56, 2014).  Past an end of slope s, ln g lies under its
    tangent, so the dropped terms add up to at most g(end)/(h |s|); each end
    is pushed out, doubling its node count, until that is at most
    _MEAN_TAIL of the sum.  No term is negative, so nothing cancels.  Below
    nu + mu of about 0.2 the right end passes y = 709: e^(h k) overflows.
    """
    a, half_nu, half_mu = dist.a_eff, 0.5 * dist.num_dof, 0.5 * dist.den_dof
    power = half_mu + 1.0
    quad, lin = a * (half_nu + half_mu), half_mu + a * (half_nu - 1.0)
    root = math.hypot(lin, 2.0 * math.sqrt(quad))
    t0 = 2.0 / (lin + root) if lin > 0.0 else (root - lin) / (2.0 * quad)

    def integrand(growth):
        """g / (mu/2) at the nodes t0 * growth."""
        t = t0 * growth
        return t * np.exp(-half_nu * np.log1p(a * t0 * growth) - power * np.log1p(t))

    def slope(k):
        """d ln g / dy at node k."""
        t = t0 * math.exp(_MEAN_STEP * k)
        return 1.0 - half_nu * a * t / (1.0 + a * t) - power * t / (1.0 + t)

    values = integrand(_MEAN_GROWTH)
    total = values.sum()
    for k, g in ((-_MEAN_LEFT, values[0]), (_MEAN_RIGHT, values[-1])):
        while g > _MEAN_TAIL * _MEAN_STEP * abs(slope(k)) * total:
            out = math.copysign(1.0, k)
            more = integrand(np.exp(_MEAN_STEP * np.arange(k + out, 2 * k + out, out)))
            total += more.sum()
            k, g = 2 * k, more[-1]
    return float(half_mu * _MEAN_STEP * total)


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
    their relative accuracy in both tails.  The evaluators use max(a2, 0),
    since a2 < 0 only arises from rounding (Cauchy-Schwarz gives
    c2^2 <= c1 c3).
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
        from scipy.special import betainc, gammainc, gammaln

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
        x = np.asarray(x, dtype=float)
        if np.any(x < 0) or np.any(x > 1):
            raise OutOfSupport("loss lives on [0, 1]")
        out = np.where(x == 1.0, 1.0, 0.0)
        inner = (x != 0.0) & (x != 1.0)
        # rounding can lift the sum of positive terms an ulp above 1 (and, near
        # x -> 1, make it step down by an ulp, which the clip leaves)
        out[inner] = np.minimum(self._count_sum(x[inner], density=False), 1.0)
        return float(out) if out.ndim == 0 else out

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0) or np.any(x >= 1):
            raise OutOfSupport("density defined on the open interval (0, 1)")
        # dividing the sum by x first keeps f finite where m / x would overflow
        out = 0.5 * self.den_dof / (1.0 - x) * (self._count_sum(x, density=True) / x)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Analysis:
    """One realization's chain: Omega blocks, quadratic form, cumulants of
    Q, the moment fits and the loss distributions they and the exact closed
    forms give.

    ``fits`` and ``refs`` share keys: ``scaled_f`` always, ``scaled_chi2``
    and ``pearson`` when the spec reads ``is_ger``; ``refs`` adds
    ``exact`` for no mismatch and MPDR, the two closed forms.
    """

    omega: OmegaDecomposition
    spec: QuadraticFormSpec
    kappa: CumulantTriple
    fits: dict
    refs: dict


def analyze(pair: ScenarioPair, n_training) -> Analysis:
    """Run pair -> Omega -> quadratic form -> cumulants -> every applicable
    fit and exact closed form for K = n_training training samples, on the
    pair's one realization.

    The scaled-F fit embeds V in Q and so fits its own den_dof; the GER fits
    of the numerator, made when the spec reads ``is_ger``, and the exact
    laws (a_eff = 1 without mismatch, 1 + P v^H sigma^-1 v / gamma for MPDR)
    keep the exact p = spec.p.
    """
    omega = build_omega(pair)[0]
    w = omega.omega_2_1
    spec = to_quadratic_form(omega, n_training)
    kappa = cumulants_q(spec)
    fit = scaled_f_fit(kappa)
    fits = {"scaled_f": fit}
    refs = {"scaled_f": LossDistribution(fit.a / w, fit.num_dof, fit.den_dof, "fitted_general")}
    if spec.is_ger:
        c1, c2, c3 = c_coefficients(spec.lam, np.zeros_like(spec.lam))
        fits["scaled_chi2"] = chi2 = scaled_chi2_two_moment(c1, c2)
        fits["pearson"] = pearson = pearson_three_moment(c1, c2, c3)
        refs["scaled_chi2"] = LossDistribution(chi2.a / w, chi2.dof, spec.p, "fitted_ger")
        refs["pearson"] = PearsonLossDistribution(pearson.a1, pearson.dof, pearson.a2, w, spec.p)
    n = omega.lam.size + 1
    if pair.kind == "none":
        refs["exact"] = LossDistribution(1.0, 2.0 * (n - 1), spec.p, "exact_beta")
    elif pair.kind == "mpdr":
        soi_power = pair.params["soi_power"] * pair.operating.v_sigma_v
        refs["exact"] = LossDistribution(1.0 + soi_power / pair.params["gamma"], 2.0 * (n - 1), spec.p, "exact_mpdr")
    return Analysis(omega=omega, spec=spec, kappa=kappa, fits=fits, refs=refs)


def scaled_f_laws(omega: OmegaDecomposition, n_training) -> list[LossDistribution]:
    """The scaled-F loss law of each realization of an Omega stack,
    realization i's at i, fitted as one stack: what ``sweep`` reports.

    A check that some realizations fail raises the error each of them
    raises alone, naming them in its ``rows``; so does an a_eff = a /
    omega_2_1 that overflows or rounds to 0.
    """
    fit = scaled_f_fit(cumulants_q(to_quadratic_form(omega, n_training)))
    with np.errstate(over="ignore"):
        a_eff = fit.a / omega.omega_2_1
    failed = ~(np.isfinite(a_eff) & (a_eff > 0))
    if failed.any():
        raise InvalidFit("loss distribution parameters must be finite and positive", failed=failed)
    return [LossDistribution(a_eff, nu, mu, "fitted_general")
            for a_eff, nu, mu in zip(a_eff.tolist(), fit.num_dof.tolist(), fit.den_dof.tolist())]
