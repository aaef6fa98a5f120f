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

from .errors import DegenerateCumulants, InvalidFit, NoConvergence, NonPositiveCumulant, OutOfSupport
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
    "analyze_omega",
    "loss_mean",
    "pearson_cumulants",
    "pearson_three_moment",
    "scaled_chi2_two_moment",
    "scaled_f_cumulants",
    "scaled_f_fit",
]

LOSS_KINDS = frozenset({"exact_beta", "exact_mpdr", "fitted_ger", "fitted_general"})

# The mean series stop once a proven bound on the rest of the series is at
# most _TAIL_RTOL of the partial sum.
_TAIL_RTOL = 2.0**-56


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
# fitted with array code, and it fails as a whole: it raises the error of the
# first check that some row fails, the error that row raises alone.  Powers of
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
    try:
        mu, a_nu, a = np.linalg.solve(columns.T, b.T[..., None])[..., 0].T
    except np.linalg.LinAlgError as exc:
        raise InvalidFit("the scaled-F linear system is singular") from exc
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
                *_first_row(failed, k1, k2, k3)))
        det = k1 * k3 - 2.0 * k2_sq
        failed = abs(det) <= 1e-10 * np.fmax(abs(k1 * k3), k2_sq)
        if failed.any():
            raise DegenerateCumulants(
                "k1*k3 - 2*k2^2 vanishes for (k1, k2, k3) = ({!r}, {!r}, {!r}); "
                "no scaled-F solution exists".format(*_first_row(failed, k1, k2, k3))
            )
        denom_a = k2 * k3 + 4.0 * k1 * k2_sq - k1_sq * k3
        a = denom_a / det
        nu = 4.0 * k1 * (k1 * k3 + k1_sq * k2 - k2_sq) / denom_a
        mu = 2.0 + 4.0 * (k1 * k3 + k1_sq * k2 - k2_sq) / det

        closed = np.array([a, nu, mu])
        if (abs(closed - _scaled_f_linear_solve(kappa)) > 1e-9 * np.fmax(1.0, abs(closed))).any():
            raise InvalidFit("closed form and linear solve disagree")

        failed = ~((a > 0) & (nu > 0))
        if failed.any():
            raise InvalidFit("fit left the valid region: a={}, nu={}".format(*_first_row(failed, a, nu)))
        failed = ~(mu > 6)
        if failed.any():
            raise InvalidFit("fitted denominator dof must exceed 6, got {}".format(*_first_row(failed, mu)))
        check = scaled_f_cumulants(a, nu, mu)
        if (check.k1 * check.k3 <= 2.0 * np.float_power(check.k2, 2)).any():
            raise InvalidFit("fitted cumulants violate k1*k3 > 2*k2^2")
        got, want = np.array([check.k1, check.k2, check.k3]), np.array([k1, k2, k3])
        if (abs(got - want) > 1e-9 * np.fmax(1.0, abs(want))).any():
            raise InvalidFit("scaled-F fit failed its cumulant-match revalidation")
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
    """Mean of the loss as an exact sum of positive series (no quadrature).

    With alpha = den_dof/2, beta = num_dof/2 and B ~ Beta(alpha, beta), the
    loss is B / (a + (1 - a) B).  For a >= 1/4 see :func:`_mean_above_quarter`.
    Means for a < 1/4 come from the reflection E(a, nu, mu) = 1 - E(1/a, mu, nu),
    which moves them to a > 4, because the series in 1 - a needs about
    ln(1/eps)/a terms.  There the subtraction still cancels when the mean is
    small (nu >> mu): 1.0e-14 relative at (a, nu, mu) = (0.149, 821.9, 1.64)
    and 8.4e-14 at (0.0105, 630.5, 0.714) against mpmath.  Every series
    stops on a proven tail bound; one whose bound has not passed after the
    number of terms that proves it must (:func:`_term_limit`) raises
    NoConvergence, which only non-finite arithmetic can cause.
    """
    a = dist.a_eff
    if a < 0.25:
        return 1.0 - _mean_above_quarter(1.0 / a, 0.5 * dist.num_dof, 0.5 * dist.den_dof)
    return _mean_above_quarter(a, 0.5 * dist.den_dof, 0.5 * dist.num_dof)


def _mean_above_quarter(a, alpha, beta) -> float:
    """E[B / (a + (1 - a) B)] for a >= 1/4 and B ~ Beta(alpha, beta).

    * 1/4 <= a < 1: with w = 1 - a and C = 1 - B ~ Beta(beta, alpha),
      E = sum_k w^k E[C^k (1 - C)] = alpha/(alpha+beta) 2F1(1, beta; alpha+beta+1; w),
      at most about 150 terms.
    * a >= 1, direct: with z = 1 - 1/a, E = (1/a) sum_k z^k E[B^(k+1)]
      = alpha/((alpha+beta) a) 2F1(1, alpha+1; alpha+beta+1; z).  It needs
      about a ln(1/eps) terms when beta is small.
    * a > 1/u0 with u0 = min(1/2, 1/(alpha+beta)): by DLMF 8.17.8,
      E = alpha a^-beta z^-(alpha+beta) B_z(alpha+beta, 1-beta), and the
      incomplete beta integral splits at t0 = 1 - u0.  On [0, t0] it is
      t0^p u0^(1-beta)/p 2F1(1, alpha+1; p+1; t0) with p = alpha+beta, a
      positive series of about ln(1/eps)/u0 terms whatever a is; the rest,
      in u = 1 - t over [1/a, u0], is :func:`_binomial_part`.
    """
    p = alpha + beta
    if a < 1.0:
        return alpha / p * _hypergeometric_series(math.log1p(-a), beta - 1.0, p)
    if a == 1.0:
        return alpha / p
    log_z = math.log1p(-1.0 / a)
    u0 = min(0.5, 1.0 / p)
    if a * u0 <= 1.0:
        return alpha / (p * a) * _hypergeometric_series(log_z, alpha, p)
    # a^-beta t0^p u0^(1-beta) / p, with a^-beta u0^-beta as (a u0)^-beta: summing
    # -beta ln a and -beta ln u0 separately would cancel to a few ulps of beta ln a
    log_u0, log_t0 = math.log(u0), math.log1p(-u0)
    head = math.exp(-beta * math.log(a * u0) + log_u0 + p * log_t0 - math.log(p))
    body = head * _hypergeometric_series(log_t0, alpha, p) + _binomial_part(a, u0, alpha, beta)
    return alpha * math.exp(-p * log_z) * body


def _hypergeometric_series(log_x, c, d) -> float:
    """sum_{n>=0} x^n (c+1)_n / (d+1)_n = 2F1(1, c+1; d+1; x) for
    0 <= x < 1 and -1 < c < d, given log x.

    Every term is positive and the term ratios x (c+n)/(d+n) rise towards
    x, so the rest after term T_n is at most T_n x/(1-x).  When d - c > 1,
    also sum_{m>n} (c+1)_m/(d+1)_m = (c+1)_n/(d+1)_n (c+n+1)/(d-c-1) (Gauss's
    sum at x = 1), so the rest is at most T_n (c+n+1)/(d-c-1).  Terms go in
    vectorized runs of growing length; x^n is exp(n log x), so a rounded x is
    not raised to a high power.
    """
    x = math.exp(log_x)
    geometric = x / -math.expm1(log_x)
    limit = _term_limit(log_x)
    total, carry, start, size = 1.0, 1.0, 0, 64
    while True:
        n = np.arange(start + 1.0, start + size + 1.0)
        run = np.cumprod((c + n) / (d + n))
        run *= carry
        terms = np.exp(n * log_x)
        terms *= run
        total += terms.sum()
        start += size
        rest = geometric if d - c <= 1.0 else min(geometric, (c + start + 1.0) / (d - c - 1.0))
        if terms[-1] * rest <= _TAIL_RTOL * total:
            return total
        if not start < limit:
            raise NoConvergence(f"loss mean series failed its tail test after {start} terms")
        carry = run[-1]
        size = min(4 * size, 8192)


def _term_limit(log_x) -> float:
    """Terms after which the tail test of :func:`_hypergeometric_series`
    must pass, given log x.

    Term n is at most x^n (c < d), the partial sum is at least 1 and the
    rest at most x/(1-x) times term n, so the test passes once
    x^(n+1)/(1-x) <= _TAIL_RTOL; this asks for half of that to leave room
    for rounding.  It is about ln(2/(_TAIL_RTOL (1-x)))/(1-x) terms.
    """
    return (math.log(0.5 * _TAIL_RTOL) + math.log(-math.expm1(log_x))) / log_x - 1.0


def _binomial_part(a, u0, alpha, beta) -> float:
    """a^-beta times the integral of (1-u)^c u^-beta over [1/a, u0], with
    c = alpha + beta - 1 and a u0 > 1.

    (1-u)^c = sum_j (-c)_j/j! u^j, and with s = j + 1 - beta and
    L = ln(a u0) the j-th integral a^-beta (u0^s - a^-s)/s is u0^j times
    e^max(E1, E0) (1 - e^(-|s| L))/|s| with E1 = ln u0 - beta L and
    E0 = -ln a - j L (the integral of e^(s y) over y from -ln a to ln u0,
    times a^-beta).  This is exact at s = 0, and u0^j goes with the
    coefficient, so that neither factor overflows.

    The first 64 terms suffice.  The j-th integral is at most u0^j times
    the 0-th, and |(-c)_j/j!| u0^j is a product of the factors
    |c - i| u0/(i + 1), i < j.  Since u0 <= min(1/2, 1/(c+1)) and c > -1,
    the factor for i = 0 is at most 1 and each later one at most 1/2, so
    term j is at most 2^(1-j) times the 0-th integral.  The sum is at least
    e^-1 times that integral (on [0, u0], (1-u)^c is at least 1 if c < 0 and
    (c/(c+1))^c >= e^-1 if not), so the terms' absolute values add up to
    under 3e times the sum, and the terms past j = 63 to under e 2^-62 <
    _TAIL_RTOL of it.
    """
    c = alpha + beta - 1.0
    j = np.arange(64.0)
    coef = np.cumprod(np.concatenate(([1.0], (j[1:] - 1.0 - c) * u0 / j[1:])))
    s = j + 1.0 - beta
    span = math.log(a * u0)
    with np.errstate(invalid="ignore"):
        width = np.where(s == 0.0, span, -np.expm1(-np.abs(s) * span) / np.abs(s))
    integral = np.exp(np.maximum(math.log(u0) - beta * span, -math.log(a) - j * span)) * width
    return float(np.dot(coef, integral))


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
    fit and exact closed form for K = n_training training samples.

    The exact laws (a_eff = 1 without mismatch, 1 + P v^H sigma^-1 v / gamma
    for MPDR) keep the exact p = spec.p.
    """
    result = analyze_omega(build_omega(pair), n_training)[0]
    n = result.omega.lam.size + 1
    if pair.kind == "none":
        result.refs["exact"] = LossDistribution(1.0, 2.0 * (n - 1), result.spec.p, "exact_beta")
    elif pair.kind == "mpdr":
        soi_power = pair.params["soi_power"] * pair.operating.v_sigma_v
        result.refs["exact"] = LossDistribution(1.0 + soi_power / pair.params["gamma"], 2.0 * (n - 1),
                                                result.spec.p, "exact_mpdr")
    return result


def analyze_omega(omega: OmegaDecomposition, n_training) -> list[Analysis]:
    """Omega -> quadratic form -> cumulants -> every applicable moment fit:
    :func:`analyze` without the exact laws, which need the pair.

    The decomposition of a stack is fitted as one stack and gives one
    analysis per realization, realization i's at i.  A check that fails on
    any realization fails the stack as a whole, and ``sweep`` then fits the
    stack's halves, down to single realizations.

    The scaled-F fit embeds V in Q and so fits its own den_dof; the GER fits
    of the numerator keep the exact p = spec.p.
    """
    w = omega.omega_2_1
    spec = to_quadratic_form(omega, n_training)
    kappa = cumulants_q(spec)
    fit = scaled_f_fit(kappa)
    fits, refs = [], []
    for a, nu, mu, a_eff in zip(fit.a.tolist(), fit.num_dof.tolist(), fit.den_dof.tolist(), (fit.a / w).tolist()):
        fits.append({"scaled_f": ScaledFFit(a, nu, mu)})
        refs.append({"scaled_f": LossDistribution(a_eff, nu, mu, "fitted_general")})

    ger = np.flatnonzero(omega.is_ger).tolist()
    if ger:
        lam = spec.lam[ger]
        c1, c2, c3 = c_coefficients(lam, np.zeros_like(lam))
        chi2 = scaled_chi2_two_moment(c1, c2)
        for i, a, dof, a_eff in zip(ger, chi2.a.tolist(), chi2.dof.tolist(), (chi2.a / w[ger]).tolist()):
            fits[i]["scaled_chi2"] = ScaledChi2Fit(a, dof)
            refs[i]["scaled_chi2"] = LossDistribution(a_eff, dof, spec.p, "fitted_ger")
        pearson = pearson_three_moment(c1, c2, c3)
        for i, a1, dof, a2 in zip(ger, pearson.a1.tolist(), pearson.dof.tolist(), pearson.a2.tolist()):
            fits[i]["pearson"] = PearsonFit(a1, dof, a2)
            refs[i]["pearson"] = PearsonLossDistribution(a1, dof, a2, float(w[i]), spec.p)

    kappas = [CumulantTriple(*k) for k in zip(kappa.k1.tolist(), kappa.k2.tolist(), kappa.k3.tolist())]
    return [Analysis(omega=omega[i], spec=spec[i], kappa=kappas[i], fits=fits[i], refs=refs[i])
            for i in range(len(omega))]
