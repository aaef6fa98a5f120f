"""Monte Carlo samplers for the SNR loss and empirical statistics.

Two independent paths produce loss draws:

* the direct path simulates training snapshots, forms the sample covariance
  matrix and evaluates the loss definition with Cholesky solves;
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

    Per trial: X ~ complex Gaussian (N x K, covariance sigma_t),
    S = X X^H, and

        loss = (v^H S^-1 v)^2 / [(v^H sigma^-1 v)(v^H S^-1 sigma S^-1 v)].

    The Cholesky factor of sigma_t and v^H sigma^-1 v come from the pair,
    which computed them once; per-trial work is batched and uses factorized
    solves, never an explicit inverse.
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
        # trial-major layout: each trial consumes one contiguous block of the
        # stream, so results do not depend on batch_size
        z = gen.standard_normal((b, n, n_training, 2)).view(np.complex128)[..., 0]
        x = g_scaled @ z
        scm = x @ x.conj().transpose(0, 2, 1)
        try:
            low = np.linalg.cholesky(scm)
        except np.linalg.LinAlgError as exc:
            raise SingularSCM("sample covariance matrix was not positive definite") from exc
        u = _batched_cholesky_solve(low, v)
        num = np.einsum("i,bi->b", v.conj(), u).real ** 2
        den = pair.v_sigma_v * np.einsum("bi,ij,bj->b", u.conj(), pair.sigma, u).real
        out[done : done + b] = num / den
        done += b
    return SampleSet(values=out, sampler="direct_scm", seed=rng.seed, trials=trials,
                     scenario_digest=pair_digest(pair))


def _batched_cholesky_solve(low, v):
    """Solve (L L^H) u = v for a batch of lower-triangular factors by
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
