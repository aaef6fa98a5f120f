"""Monte Carlo samplers for the SNR loss and empirical statistics.

Two independent paths produce loss draws:

* the direct path draws the whitened training sample covariance matrix
  through its Bartlett factor and evaluates the loss definition with
  triangular solves;
* the representation path draws the equivalent ratio of chi-square
  variables from a :class:`~snrloss.mismatch.QuadraticFormSpec`.

Agreement of the two (two-sample KS) is the strongest correctness check the
package has, since they share no code beyond the RNG.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy import stats
from scipy.linalg import solve_triangular

from .errors import SingularSCM, TooFewSamples
from .mismatch import QuadraticFormSpec
from .sampling import RngStream
from .scenarios import ScenarioPair

__all__ = [
    "EmpiricalSummary",
    "SampleSet",
    "empirical_summary",
    "ks_statistic",
    "pair_digest",
    "simulate_loss_direct",
    "simulate_loss_representation",
    "two_sample_ks",
]

_DEFAULT_BATCH = 2048
_GAMMA_BLOCK = 1 << 16  # trials whose Bartlett diagonals are drawn in one call


@dataclass(frozen=True)
class SampleSet:
    """Loss draws plus provenance (sampler path, seed, scenario digest)."""

    values: np.ndarray
    sampler: str
    seed: int
    trials: int
    scenario_digest: str

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.size != self.trials:
            raise ValueError("trials must equal the number of values")
        if values.size and (values.min() <= 0.0 or values.max() >= 1.0):
            raise ValueError("loss values must lie strictly inside (0, 1)")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class EmpiricalSummary:
    """Unbiased cumulant estimates (k-statistics) with standard errors."""

    k1: float
    k2: float
    k3: float
    k1_se: float
    k2_se: float
    k3_se: float


def pair_digest(pair: ScenarioPair) -> str:
    """Deterministic digest of a scenario pair (bit-exact inputs only)."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(pair.sigma).tobytes())
    h.update(np.ascontiguousarray(pair.sigma_t).tobytes())
    h.update(np.ascontiguousarray(pair.v).tobytes())
    h.update(pair.kind.encode())
    return h.hexdigest()[:16]


def _spec_digest(spec: QuadraticFormSpec) -> str:
    h = hashlib.sha256()
    for arr in (spec.lam, spec.h, spec.delta):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.float64(spec.p).tobytes())
    h.update(np.float64(spec.scale).tobytes())
    return h.hexdigest()[:16]


def simulate_loss_direct(pair: ScenarioPair, n_training, trials, rng: RngStream,
                         batch_size=_DEFAULT_BATCH) -> SampleSet:
    """Loss draws from simulated training data.

    The sample covariance matrix of K = n_training snapshots with covariance
    sigma_t is S = G_t W G_t^H, with G_t = chol(sigma_t) and W a white complex
    Wishart matrix with K degrees of freedom.  W is drawn through its Bartlett
    factor W = L L^H, L lower triangular with

        L_ii = sqrt(Gamma(K - i)) for i = 0 .. N-1,  L_ij ~ CN(0, 1) for i > j,

    so no snapshot matrix, no X X^H and no per-trial Cholesky is formed.  With
    w = G_t^-1 v and B = G_t^-1 sigma G_t^-H computed once, u = (L L^H)^-1 w
    gives S^-1 v = G_t^-H u, and the loss definition

        loss = (v^H S^-1 v)^2 / [(v^H sigma^-1 v)(v^H S^-1 sigma S^-1 v)]
             = (w^H u)^2 / [(v^H sigma^-1 v)(u^H B u)].

    B is kept as M M^H with M = G_t^-1 chol(sigma), so u^H B u = |M^H u|^2.
    The factors and v^H sigma^-1 v come from the pair, which computed them
    once.  Stream layout: trials go in blocks of ``_GAMMA_BLOCK``; each block
    draws its N * block diagonal gammas in one call, then its below-diagonal
    normals trial by trial.  Results therefore do not depend on batch_size,
    and memory does not grow with trials.
    """
    n = pair.n_elements
    if n_training < n:
        raise ValueError("need n_training >= n_elements")
    gen = rng.generator
    w = solve_triangular(pair.chol_t, pair.v, lower=True)
    m = solve_triangular(pair.chol_t, pair.chol, lower=True)
    shape = n_training - np.arange(n, dtype=float)
    n_below = n * (n - 1) // 2

    out = np.empty(trials)
    for start in range(0, trials, _GAMMA_BLOCK):
        block = min(_GAMMA_BLOCK, trials - start)
        diag = gen.standard_gamma(shape, (block, n))
        np.sqrt(diag, out=diag)
        if not diag.min() > 0.0:
            raise SingularSCM("sample covariance matrix was not positive definite")
        for lo in range(0, block, batch_size):
            hi = min(lo + batch_size, block)
            below = gen.standard_normal((hi - lo, n_below, 2)).view(np.complex128)[..., 0]
            below *= np.sqrt(0.5)
            u = _batched_cholesky_solve(diag[lo:hi], below, w)
            num = np.einsum("i,bi->b", w.conj(), u).real ** 2
            mu = np.einsum("bi,ij->bj", u, m.conj())
            den = pair.v_sigma_v * (mu.real**2 + mu.imag**2).sum(axis=1)
            out[start + lo : start + hi] = num / den
    return SampleSet(values=out, sampler="direct_scm", seed=rng.seed, trials=trials,
                     scenario_digest=pair_digest(pair))


def _batched_cholesky_solve(diag, below, w):
    """Solve (L L^H) u = w for a batch of lower-triangular factors L.

    ``diag`` (batch x N) holds L's real positive diagonal and ``below``
    (batch x N(N-1)/2) its strictly lower part row by row, so row i of L is
    ``below[:, i(i-1)/2 : i(i+1)/2]``.  Forward substitution takes dot
    products with the rows of L; back substitution with L^H subtracts
    multiples of the same rows, so neither touches a column.
    """
    b, n = diag.shape
    u = np.empty((b, n), dtype=complex)
    u[:, 0] = w[0] / diag[:, 0]
    start = 0
    for i in range(1, n):
        acc = w[i] - np.einsum("bj,bj->b", below[:, start : start + i], u[:, :i])
        u[:, i] = acc / diag[:, i]
        start += i
    for i in range(n - 1, 0, -1):
        start -= i
        u[:, i] /= diag[:, i]
        u[:, :i] -= below[:, start : start + i].conj() * u[:, i, None]
    u[:, 0] /= diag[:, 0]
    return u


def simulate_loss_representation(spec: QuadraticFormSpec, trials, rng: RngStream,
                                 scenario_digest=None) -> SampleSet:
    """Loss draws from the chi-square representation.

    Per trial: V ~ chi2(p); each spectral term contributes
    lam_i * chi2(h_i, V * delta_i) with fresh noncentral draws;
    loss = [1 + scale * Q]^-1 with Q the weighted sum divided by V.

    The h_i are 2 throughout this package, which the vectorized noncentral
    construction below relies on.
    """
    if not np.all(spec.h == 2.0):
        raise ValueError("representation sampler expects two real dof per term")
    gen = rng.generator
    m = spec.lam.size
    v = 2.0 * gen.standard_gamma(0.5 * spec.p, trials)
    z1 = gen.standard_normal((trials, m))
    z2 = gen.standard_normal((trials, m))
    noncentral = (z1 + np.sqrt(v[:, None] * spec.delta[None, :])) ** 2 + z2**2
    q = (noncentral * spec.lam[None, :]).sum(axis=1) / v
    values = 1.0 / (1.0 + spec.scale * q)
    return SampleSet(values=values, sampler="representation", seed=rng.seed, trials=trials,
                     scenario_digest=scenario_digest or _spec_digest(spec))


def ks_statistic(values, ref) -> float:
    """One-sample Kolmogorov-Smirnov distance sup |F_hat - F_ref|, with
    ``ref.cdf`` evaluated once on the sorted sample."""
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    f = np.asarray(ref.cdf(values), dtype=float)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def two_sample_ks(a, b):
    """Two-sample KS statistic and p-value."""
    result = stats.ks_2samp(np.asarray(a), np.asarray(b))
    return float(result.statistic), float(result.pvalue)


def empirical_summary(values) -> EmpiricalSummary:
    """k-statistics for the first three cumulants of ``values`` with their
    asymptotic standard errors."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 100:
        raise TooFewSamples("need at least 100 samples")
    mean = values.mean()
    centered = values - mean
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    m6 = float(np.mean(centered**6))

    # unbiased cumulant estimators (k-statistics) through order 3
    k1 = float(mean)
    k2 = n / (n - 1.0) * m2
    k3 = n**2 / ((n - 1.0) * (n - 2.0)) * m3

    k1_se = np.sqrt(m2 / n)
    k2_se = np.sqrt(max(m4 - m2**2, 0.0) / n)
    k3_se = np.sqrt(max(m6 - m3**2 - 6.0 * m2 * m4 + 9.0 * m2**3, 0.0) / n)
    return EmpiricalSummary(k1=k1, k2=float(k2), k3=float(k3),
                            k1_se=float(k1_se), k2_se=float(k2_se), k3_se=float(k3_se))
