"""Monte Carlo samplers for the SNR loss and empirical statistics.

Two independent paths produce loss draws:

* the direct path draws the whitened training sample covariance matrix
  through its Bartlett factor and evaluates the loss definition with
  triangular solves against the factors the pair's two sides hold;
* the representation path draws the equivalent ratio of chi-square
  variables from a :class:`~snrloss.mismatch.QuadraticFormSpec`.

Agreement of the two (two-sample KS) is the strongest correctness check the
package has, since they share no code beyond the RNG.

``scipy.stats`` is imported inside :func:`two_sample_ks`, its only user, and
not at module level: importing it takes longer than importing the rest of
the package (about 0.7 s against 0.2 s on a 2-CPU VM), and only
``validate`` runs a two-sample test.  So ``analyze``, ``pdf``, ``simulate``
and ``sweep`` never load it, and a ``validate`` process pays for it once, on
its first two-sample test.  ``concurrent.futures`` is likewise imported
inside :func:`simulate_loss_direct`, its only user.

Both samplers raise :class:`~snrloss.errors.OutOfSupport` when a draw
rounds onto 0 or 1, which a loss within an ulp of 1 does at a large K.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import OutOfSupport, SingularSCM, TooFewSamples
from .linalg import solve_triangular
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

_DEFAULT_BATCH = 1024  # trials a batch; two batches are in flight at once
_GAMMA_BLOCK = 1 << 16  # trials whose Bartlett diagonals are drawn in one call
_KS_FIRST = 256  # cells the first ks_statistic evaluation splits the sample into
_KS_FILL = 16  # a cell with at most this many unevaluated points is evaluated whole
_KS_MARGIN = 1e-9  # slack for a reference cdf that is monotone only up to rounding


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
    h.update(np.ascontiguousarray(pair.operating.sigma).tobytes())
    h.update(np.ascontiguousarray(pair.training.sigma).tobytes())
    h.update(np.ascontiguousarray(pair.operating.v).tobytes())
    h.update(pair.kind.encode())
    return h.hexdigest()[:16]


def _spec_digest(spec: QuadraticFormSpec) -> str:
    h = hashlib.sha256()
    for arr in (spec.lam, spec.h, spec.delta):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.float64(spec.p).tobytes())
    h.update(np.float64(spec.scale).tobytes())
    return h.hexdigest()[:16]


def simulate_loss_direct(pair: ScenarioPair, n_training, trials, rng: RngStream) -> SampleSet:
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
    The factors, w and v^H sigma^-1 v come from the pair's two sides, which
    computed them once.

    Stream layout: trials go in blocks of ``_GAMMA_BLOCK``; each block draws
    its N * block diagonal gammas in one call, then its below-diagonal
    normals trial by trial, ``_DEFAULT_BATCH`` trials at a time.  Every draw
    runs on the calling thread in that order, so results do not depend on
    the batch size.  The rest of a batch (the scaling, the triangular solves
    and the loss) runs on one worker thread while the caller draws the next
    batch; numpy releases the interpreter lock while it fills an array with
    random numbers, so the two overlap.  The caller reads batch k's result
    before it hands over batch k + 1, so at most two batches are in flight,
    which is why ``_DEFAULT_BATCH`` is 1024: two such batches hold what one
    of 2048 trials does, and memory does not grow with trials.  A
    non-positive diagonal raises :class:`SingularSCM` on the calling thread
    before any batch of its block is handed over; an error in the worker
    reaches the caller as it was raised, and the worker has ended when the
    function returns or raises.
    """
    from concurrent.futures import ThreadPoolExecutor

    n = pair.operating.v.size
    if n_training < n:
        raise ValueError("need n_training >= n_elements")
    gen = rng.generator
    w = pair.training.white_v
    m = solve_triangular(pair.training.chol, pair.operating.chol, lower=True)
    shape = n_training - np.arange(n, dtype=float)
    n_below = n * (n - 1) // 2

    out = np.empty(trials)

    def finish(diag, below, lo, hi):
        below *= np.sqrt(0.5)
        u = _batched_cholesky_solve(diag, below, w)
        num = np.einsum("i,bi->b", w.conj(), u).real ** 2
        mu = np.einsum("bi,ij->bj", u, m.conj())
        den = pair.operating.v_sigma_v * (mu.real**2 + mu.imag**2).sum(axis=1)
        out[lo:hi] = num / den

    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None  # the batch handed to the worker whose result is not read yet
        try:
            for start in range(0, trials, _GAMMA_BLOCK):
                block = min(_GAMMA_BLOCK, trials - start)
                diag = gen.standard_gamma(shape, (block, n))
                np.sqrt(diag, out=diag)
                if not diag.min() > 0.0:
                    raise SingularSCM("sample covariance matrix was not positive definite")
                for lo in range(0, block, _DEFAULT_BATCH):
                    hi = min(lo + _DEFAULT_BATCH, block)
                    below = gen.standard_normal((hi - lo, n_below, 2)).view(np.complex128)[..., 0]
                    if pending is not None:
                        pending, previous = None, pending
                        previous.result()
                    pending = worker.submit(finish, diag[lo:hi], below, start + lo, start + hi)
        finally:
            # read before anything the caller raised: that batch came first
            if pending is not None:
                pending.result()
    _check_support(out, "direct")
    return SampleSet(values=out, sampler="direct_scm", seed=rng.seed, trials=trials,
                     scenario_digest=pair_digest(pair))


def _check_support(values, sampler):
    """Raise :class:`OutOfSupport`, naming the sampler, if any draw rounded
    onto 0 or 1 (at N = 2 the loss is Beta(K, 1), so some draws round onto
    1 once K nears 10^12)."""
    rounded = np.count_nonzero((values <= 0.0) | (values >= 1.0))
    if rounded:
        raise OutOfSupport(f"{rounded} of {values.size} {sampler} sampler draws rounded onto 0 or 1")


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
    _check_support(values, "representation")
    return SampleSet(values=values, sampler="representation", seed=rng.seed, trials=trials,
                     scenario_digest=scenario_digest or _spec_digest(spec))


def ks_statistic(values, ref) -> float:
    """One-sample Kolmogorov-Smirnov distance sup |F_hat - F_ref|.

    On the sorted sample x_0 <= ... <= x_{n-1} the distance is the largest
    of grid[i] - F(x_i) and F(x_i) - low[i], with grid = arange(1, n+1)/n
    and low = grid - 1/n.  ``ref.cdf`` is evaluated at ``_KS_FIRST + 1``
    evenly spaced order statistics, the first and the last among them (so
    an out-of-support or NaN value reaches ``ref.cdf`` as before), and then
    only where the supremum can be.  Between evaluated points a < b every
    interior i has

        grid[i] - F(x_i) <= grid[b-1] - F(x_a),   F(x_i) - low[i] <= F(x_b) - low[a+1],

    because F and rounded subtraction are monotone.  A cell whose bound
    exceeds the best value so far minus ``_KS_MARGIN`` = 1e-9 is refined:
    filled when it holds at most ``_KS_FILL`` interior points, bisected
    otherwise, one ``ref.cdf`` call a round, until no cell is open.  The
    result is bit for bit the all-points statistic, provided ``ref.cdf`` is
    elementwise in x and non-decreasing up to rounding steps far below the
    margin: the incomplete-beta and shifted-fit cdfs step down by at most
    about 7e-16, and the tests pin 1e-13.  On the ``validate`` refs at 16x32
    it evaluates 400 to 1,100 of 20,000 points and 500 to 2,400 of 10^5.
    """
    values = np.sort(np.asarray(values, dtype=float))
    n = values.size
    if n == 0:
        raise ValueError("ks_statistic needs at least one value")
    grid = np.arange(1, n + 1) / n
    low = grid - 1.0 / n
    idx = np.unique(np.linspace(0, n - 1, _KS_FIRST + 1).astype(np.intp))
    f = np.asarray(ref.cdf(values[idx]), dtype=float)
    while True:
        best = max(np.max(grid[idx] - f), np.max(f - low[idx]))
        a, b = idx[:-1], idx[1:]
        inner = b - a - 1
        bound = np.maximum(grid[b - 1] - f[:-1], f[1:] - low[a + 1])
        refine = (inner > 0) & (bound > best - _KS_MARGIN)
        if not refine.any():
            return float(best)
        fill = refine & (inner <= _KS_FILL)
        split = refine & (inner > _KS_FILL)
        counts = inner[fill]
        offsets = np.repeat(a[fill] + 1 - (np.cumsum(counts) - counts), counts)
        new = np.concatenate([(a[split] + b[split]) // 2, offsets + np.arange(counts.sum())])
        idx = np.concatenate([idx, new])
        f = np.concatenate([f, np.asarray(ref.cdf(values[new]), dtype=float)])
        order = np.argsort(idx)
        idx, f = idx[order], f[order]


def two_sample_ks(a, b):
    """Two-sample KS statistic and p-value of ``scipy.stats.ks_2samp`` (its
    default ``method='auto'``: exact for small samples, asymptotic beyond).

    ``scipy.stats`` is imported here rather than at module level, so that
    only a process that runs this test pays for its import (about 0.7 s, on
    the first call).
    """
    from scipy import stats

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
