"""Monte Carlo samplers for the SNR loss and empirical statistics.

Two independent paths produce loss draws:

* the direct path draws the whitened training sample covariance matrix
  through its Bartlett factor and evaluates the loss definition with
  triangular solves against the factors the pair's two sides hold;
* the representation path draws the equivalent ratio of chi-square
  variables from a :class:`~snrloss.mismatch.QuadraticFormSpec`.

Agreement of the two (two-sample KS) is the strongest correctness check the
package has, since they share no code beyond the RNG.

:func:`two_sample_ks` is numpy only: it returns the exact p-value of two
samples of one size at every size, in O(n/h + h) interpreter steps beyond
the sorts for a statistic of h/n, and never falls back to an asymptotic
law.  So no command loads ``scipy.stats``, whose import takes longer than
the rest of the package (about 0.7 s against 0.2 s on a 2-CPU VM).
The direct sampler runs on the calling thread and starts none.

Both samplers return the float64 array of their draws, with no provenance:
``simulate`` writes its header (sampler, seed, trials, config digest) from
its own arguments.  :func:`empirical_summary` returns a dict.

Both samplers raise :class:`~snrloss.errors.OutOfSupport` when a draw
rounds onto 0 or 1, which a loss within an ulp of 1 does at a large K.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfSupport, SingularSCM, TooFewSamples
from .linalg import solve_triangular
from .mismatch import QuadraticFormSpec
from .sampling import RngStream
from .scenarios import ScenarioPair

__all__ = [
    "empirical_summary",
    "ks_statistic",
    "simulate_loss_direct",
    "simulate_loss_representation",
    "two_sample_ks",
]

_BLOCK = 1024  # trials a block of direct draws; part of the direct sampler's stream layout
_KS_FIRST = 256  # cells the first ks_statistic evaluation splits the sample into
_KS_FILL = 16  # a cell with at most this many unevaluated points is evaluated whole
_KS_MARGIN = 1e-9  # slack for a reference cdf that is monotone only up to rounding


def simulate_loss_direct(pair: ScenarioPair, n_training, trials, rng: RngStream) -> np.ndarray:
    """The float64 array of ``trials`` loss draws from simulated training data.

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

    B is kept as M M^H with M = G_t^-1 chol(sigma), lower triangular like
    both factors, so u^H B u = |M^H u|^2.  The factors, w and v^H sigma^-1 v
    come from the pair's two sides, which computed them once.

    Stream layout: trials go in blocks of ``_BLOCK``, the last one short.
    Each block draws its diagonals' gammas as an N x b array, row i in one
    call with the scalar shape K - i (the words, in their order, of one
    call with the N x 1 array of shapes, which costs more), then its
    below-diagonal normals in one call, as N(N-1)/2 x b x 2 (real and
    imaginary parts); both come out with the trial axis last, which is the
    layout the solves take, and every draw runs on the calling thread.
    A non-positive diagonal raises :class:`SingularSCM` before the block's
    normals are drawn.  One block's draws and solves are held at a time, so
    memory beyond the result does not grow with trials.
    """
    n = pair.operating.v.size
    if n_training < n:
        raise ValueError("need n_training >= n_elements")
    gen = rng.generator
    # powers of two c, d bring w, a = G^-1 v near 1 (mh by c/d): no bit moves, no product underflows
    w, a = pair.training.white_v, pair.operating.white_v
    c, d = (2.0 ** -np.frexp(np.abs(x).max())[1] for x in (w, a))
    mh = solve_triangular(pair.training.chol, pair.operating.chol, lower=True).conj().T * c / d
    w, a, v_sigma_v = w * c, a * d, pair.operating.v_sigma_v * d * d
    shape = n_training - np.arange(n, dtype=float)
    n_below = n * (n - 1) // 2

    out = np.empty(trials)
    for start in range(0, trials, _BLOCK):
        b = min(_BLOCK, trials - start)
        diag = np.empty((n, b))
        for i in range(n):  # the words of one N x 1-shaped draw, in its order
            gen.standard_gamma(shape[i], b, out=diag[i])
        # sqrt(2) L, whose below-diagonal part is the normals as drawn
        np.sqrt(np.multiply(diag, 2.0, out=diag), out=diag)
        if not diag.min() > 0.0:
            raise SingularSCM("sample covariance matrix was not positive definite")
        below = gen.standard_normal((n_below, b, 2)).view(np.complex128)[..., 0]
        out[start : start + b] = _batch_loss(diag, below, w, mh, a, v_sigma_v)
        del diag, below  # freed before the next block's draws are allocated
    _check_support(out, "direct")
    return out


def _check_support(values, sampler):
    """Raise :class:`OutOfSupport`, naming the sampler, if any draw is NaN or
    rounded onto 0 or 1 (at N = 2 the loss is Beta(K, 1), so some draws
    round onto 1 once K nears 10^12)."""
    outside = np.count_nonzero(~((values > 0.0) & (values < 1.0)))
    if outside:
        nan = np.count_nonzero(np.isnan(values))
        what = f"lay outside (0, 1), {nan} of them NaN" if nan else "rounded onto 0 or 1"
        raise OutOfSupport(f"{outside} of {values.size} {sampler} sampler draws {what}")


def _batch_loss(diag, below, w, mh, a, v_sigma_v) -> np.ndarray:
    """The losses of one block of Bartlett factors sqrt(2) L, trial axis
    last: ``diag`` (N x b) the diagonals, ``below`` (N(N-1)/2 x b) the
    below-diagonal entries row by row.  The loss does not change when L is
    scaled, nor when w and ``mh`` are scaled by one factor and a, 1/``mh``
    and sqrt(``v_sigma_v``) by another.

    With a = G^-1 v and b = M^H u, a^H b = w^H u and
    |a|^2 = v^H sigma^-1 v, so the loss is the squared cosine of the angle
    between a and b.  Near 1 the quotient num/den has a few ulps of error, so
    a draw would round onto 1 more often than its exact value does; there
    the loss is 1 - s instead, with s the squared sine

        s = |b - a (a^H b) / |a|^2|^2 / |b|^2,

    a sum of positive terms that keeps its relative accuracy as s -> 0.  It
    is used where s < 1/2, num/den elsewhere.  w^H u comes from the forward
    solve and stands for a^H b in both: their difference of a few ulps
    moves s by its square.  ``mh`` = M^H is upper triangular, so row k of
    M^H u sums over rows i >= k of u; it is summed by numpy, not by a BLAS
    matmul, which would wake OpenBLAS's own threads.
    """
    u, wu = _batched_cholesky_solve(diag, below, w)
    mu = np.empty_like(u)
    for k in range(u.shape[0]):
        np.add.reduce(mh[k, k:, None] * u[k:], axis=0, out=mu[k])
    norm = _squared_norms(mu)
    loss = wu**2 / (v_sigma_v * norm)
    mu -= (a / v_sigma_v)[:, None] * wu
    sine = _squared_norms(mu) / norm
    return np.where(sine < 0.5, 1.0 - sine, loss)


def _squared_norms(x):
    """|x[:, j]|^2 for each column j of a complex array."""
    return (x.real**2 + x.imag**2).sum(axis=0)


def _batched_cholesky_solve(diag, below, w):
    """Solve (L L^H) u = w for a batch of b lower-triangular factors L;
    returns u and w^H u.

    ``diag`` (N x b) holds L's real positive diagonal and ``below``
    (N(N-1)/2 x b) its strictly lower part row by row, so row i of L is
    ``below[i(i-1)/2 : i(i+1)/2]``.  The trial axis is last, so every step
    is an operation over contiguous rows.  Forward substitution y = L^-1 w
    takes dot products with the rows of L, and w^H u = |y|^2, real and
    non-negative.  Back substitution with L^H subtracts multiples of the
    same rows; it runs on conj(u), so that it multiplies by the rows as
    stored, and neither pass touches a column.
    """
    n, b = diag.shape
    u = np.empty((n, b), dtype=complex)
    work = np.empty((n - 1, b), dtype=complex)
    np.divide(w[0], diag[0], out=u[0])
    start = 0
    for i in range(1, n):
        np.add.reduce(np.multiply(below[start : start + i], u[:i], out=work[:i]), axis=0, out=u[i])
        np.subtract(w[i], u[i], out=u[i])
        u[i] /= diag[i]
        start += i
    wu = _squared_norms(u)
    np.conjugate(u, out=u)
    for i in range(n - 1, 0, -1):
        start -= i
        u[i] /= diag[i]
        u[:i] -= np.multiply(below[start : start + i], u[i], out=work[:i])
    u[0] /= diag[0]
    return np.conjugate(u, out=u), wu


def simulate_loss_representation(spec: QuadraticFormSpec, trials, rng: RngStream) -> np.ndarray:
    """The float64 array of ``trials`` loss draws from the chi-square
    representation of one realization's spec.

    Per trial: V ~ chi2(p); each spectral term contributes
    lam_i * chi2(2, V * delta_i), drawn as (z1 + sqrt(V delta_i))^2 + z2^2
    with fresh standard normals z1, z2; loss = [1 + scale * Q]^-1 with Q the
    weighted sum divided by V.  The arithmetic runs in place on z1 and z2,
    so at most two trials x m arrays are held at once.
    """
    if spec.lam.ndim != 1:
        raise ValueError(f"the representation sampler takes one realization's spec, not a stack of {len(spec.lam)}")
    gen = rng.generator
    m = spec.lam.size
    v = 2.0 * gen.standard_gamma(0.5 * spec.p, trials)
    z1 = gen.standard_normal((trials, m))
    shift = v[:, None] * spec.delta
    z1 += np.sqrt(shift, out=shift)
    del shift
    np.square(z1, out=z1)
    z2 = gen.standard_normal((trials, m))
    z1 += np.square(z2, out=z2)
    z1 *= spec.lam
    q = z1.sum(axis=1) / v
    values = 1.0 / (1.0 + spec.scale * q)
    _check_support(values, "representation")
    return values


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
    """Two-sample Kolmogorov-Smirnov statistic D = h/n and its exact p-value
    P(D >= h/n) for two samples of one size n.

    h is the largest |#{a <= x} - #{b <= x}| over the pooled values x, each
    count a right-sided ``searchsorted``, so ties are handled as
    ``scipy.stats.ks_2samp`` handles them; D is h/n as its exact branch
    reports it.  The p-value is :func:`_prob_outside_square` (n, h), the
    probability that a random path leaves the band |x - y| < h.  It is
    exact at every n, with no asymptotic fallback: up to n = 10^4 it is
    ``ks_2samp``'s default result bit for bit, and above, where ``ks_2samp``
    switches to the asymptotic ``kstwo`` law, it stays exact.  Beyond the
    sorts, it costs O(n/h + h) interpreter steps (h array steps, then n/h + 1
    Horner steps), about 0.7 ms at n = 2*10^4 and h = 150.  Raises
    ValueError unless both samples are one-dimensional with the same
    positive size, or if a value is NaN, for which ``ks_2samp`` returns NaN.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.shape != a.shape or a.size == 0:
        raise ValueError(f"two_sample_ks needs two non-empty samples of one size, not {a.shape} and {b.shape}")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("two_sample_ks needs samples without NaN")
    a, b = np.sort(a), np.sort(b)
    n = a.size
    pooled = np.concatenate([a, b])
    diff = np.searchsorted(a, pooled, side="right") - np.searchsorted(b, pooled, side="right")
    h = int(max(diff.max(), -diff.min()))
    return h / n, _prob_outside_square(n, h)


def _prob_outside_square(n, h):
    """P(D >= h/n) for two samples of size n:

        2 sum_{k>=1} (-1)^(k-1) C(2n, n - k h) / C(2n, n)
        = 2 A_0 (1 - A_1 (1 - A_2 (1 - ...))),

    A_k = C(2n, n - (k+1) h) / C(2n, n - k h)
        = prod_{j<h} (n - k h - j) / (n + k h + j + 1),   k = 0 .. n // h,

    the Horner form of ``scipy.stats``' exact equal-size branch
    (``_compute_prob_outside_square``), which avoids the cancellation of
    the plain alternating sum.  All the A_k
    are built at once, one array step a factor j, with the float
    operations of scipy's loop in its order: n - k h and n + k h + 1 are
    integers below 2^53, so they are exact as floats.  Horner's rule over k
    then runs on Python floats.  A result above 1 by rounding (at h of 1 to
    3) is returned as 1.
    """
    if h == 0:
        return 1.0
    kh = np.arange(n // h + 1) * h
    top = (n - kh).astype(float)
    bottom = (n + 1 + kh).astype(float)
    terms = np.ones_like(top)
    factor = np.empty_like(top)
    for j in range(h):
        np.subtract(top, j, out=factor)
        np.multiply(factor, terms, out=terms)
        np.add(bottom, j, out=factor)
        np.divide(terms, factor, out=terms)
    p = 0.0
    for term in reversed(terms.tolist()):
        p = term * (1.0 - p)
    return min(2 * p, 1.0)


def empirical_summary(values) -> dict:
    """k-statistics for the first three cumulants of ``values`` with their
    asymptotic standard errors, keyed ``k1, k2, k3, k1_se, k2_se, k3_se``."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 100:
        raise TooFewSamples("need at least 100 samples")
    mean = values.mean()
    centered = values - mean
    c2 = centered * centered
    c3 = c2 * centered
    m2 = float(np.mean(c2))
    m3 = float(np.mean(c3))
    m4 = float(np.mean(c2 * c2))
    m6 = float(np.mean(c3 * c3))

    # unbiased cumulant estimators (k-statistics) through order 3
    k1 = float(mean)
    k2 = n / (n - 1.0) * m2
    k3 = n**2 / ((n - 1.0) * (n - 2.0)) * m3

    k1_se = np.sqrt(m2 / n)
    k2_se = np.sqrt(max(m4 - m2**2, 0.0) / n)
    k3_se = np.sqrt(max(m6 - m3**2 - 6.0 * m2 * m4 + 9.0 * m2**3, 0.0) / n)
    return {"k1": k1, "k2": float(k2), "k3": float(k3),
            "k1_se": float(k1_se), "k2_se": float(k2_se), "k3_se": float(k3_se)}
