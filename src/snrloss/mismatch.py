"""Whitened/rotated covariance analysis.

The SNR loss of a filter trained on samples with covariance ``sigma_t`` but
operated against ``sigma`` admits the representation

    loss = [1 + Q / omega_2_1]^-1,
    Q = V^-1 * sum_i lam_i * chi2(2, V * delta_i),   V ~ chi2(2(K - N + 2)),

where lam_i are the eigenvalues of the upper-left block of the whitened,
rotated covariance Omega, delta_i its noncentrality coefficients, and
omega_2_1 its Schur complement omega22 - omega12^H omega11^-1 omega12.
The Schur complement equals (v^H sigma_t^-1 v) / (v^H sigma^-1 v) and is
computed as that ratio of the two sides' ``v_sigma_v``: the subtraction
cancels catastrophically when the interferers are strong, while the ratio
is exactly 1 without mismatch.

Omega = T sigma T^H for any T that whitens sigma_t (T sigma_t T^H = I) and
sends v to a multiple of e_N; every such T gives the same lam_i, delta sums,
omega22 and Schur complement.  :func:`build_omega` takes T = U^H G_t^-1,
with G_t = chol(sigma_t) the training side's factor and U a unitary whose
last column is w / |w|, w = G_t^-1 v the training side's ``white_v``, so it
factors nothing and solves only for G_t^-1 G.

This module computes the Omega blocks, the spectral parameters, the
generalized-eigenrelation (GER) flag (the relation kills every delta_i and
makes Q central), the c_s coefficients used by the moment fits, and the
exact first three cumulants of Q.

The decomposition, like the spec and the cumulants, holds a stack of
realizations, one per row, as the random families build them: a single
pair gives a stack of one, and ``omega[i]`` and ``spec[i]`` are
realization i's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, InvalidFit, NotPositiveDefinite
from .linalg import herm_eig, orth_complement, solve_triangular
from .scenarios import ScenarioPair

__all__ = [
    "CumulantTriple",
    "OmegaDecomposition",
    "QuadraticFormSpec",
    "build_omega",
    "c_coefficients",
    "cumulants_q",
    "inverse_chi2_moment",
    "power_sum_cumulants",
    "to_quadratic_form",
]

# relative threshold on |omega12| / sqrt(|omega11|_F omega22) separating GER
# constructions from generic mismatch (O(1)).  Not a rounding level: GER pairs
# with interferers at up to 130 dB were measured at residuals up to 6.6e-4, and
# at 16x32 `mpdr` and surprise pairs pass 1e-8 once the interferers gain 55 dB
GER_RTOL = 1e-8


@dataclass(frozen=True)
class OmegaDecomposition:
    """Blocks of the whitened/rotated covariance and derived spectra, for a
    stack of realizations: every field has a leading realization axis.

    ``lam`` holds the eigenvalues of the (N-1)x(N-1) block in descending
    order, ``delta`` the matching noncentrality coefficients
    |lam_i^-1 u_i^H omega12|^2, and ``omega_2_1`` the Schur complement,
    computed as (v^H sigma_t^-1 v) / (v^H sigma^-1 v).  Under the
    generalized eigenrelation it is the eigenvalue of sigma_t^-1 sigma
    that ``lam`` leaves out.

    The blocks are those of Omega = T sigma T^H with T = U^H G_t^-1 (see
    :func:`build_omega`).  Another whitening T differs from it by a unitary
    on the first N-1 coordinates, which rotates ``omega11`` and ``omega12``
    but leaves ``lam``, the delta sums, ``omega22`` and ``omega_2_1`` as they
    are.
    """

    omega11: np.ndarray
    omega12: np.ndarray
    omega22: np.ndarray
    omega_2_1: np.ndarray
    lam: np.ndarray
    delta: np.ndarray
    is_ger: np.ndarray

    def __len__(self) -> int:
        return len(self.omega_2_1)

    def __getitem__(self, i) -> OmegaDecomposition:
        """Realization i, with float ``omega22`` and ``omega_2_1`` and a bool
        ``is_ger``; a slice gives the stack of those realizations."""
        if isinstance(i, slice):
            return OmegaDecomposition(*(field[i] for field in vars(self).values()))  # in field order
        return OmegaDecomposition(self.omega11[i], self.omega12[i], float(self.omega22[i]), float(self.omega_2_1[i]),
                                  self.lam[i], self.delta[i], bool(self.is_ger[i]))


@dataclass(frozen=True)
class QuadraticFormSpec:
    """Parameters of Q = V^-1 sum_i lam_i chi2(2, V delta_i), V ~ chi2(p),
    plus the multiplier applied outside Q in the loss representation.

    The spec of a stack holds one row of ``lam`` and ``delta`` and one
    ``scale`` per realization, with p shared (see
    :func:`to_quadratic_form`)."""

    lam: np.ndarray
    delta: np.ndarray
    p: float
    scale: float

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        if lam.shape != delta.shape:
            raise ValueError("lam and delta must have the same shape")
        if np.shape(self.scale) != lam.shape[:-1]:
            raise ValueError("scale must hold one multiplier per row of lam")
        if not (lam > 0).all():
            raise ValueError("weights must be positive")
        if not (delta >= 0).all():
            raise ValueError("noncentralities must be nonnegative")
        if not self.p > 0:
            raise ValueError("denominator dof must be positive")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "delta", delta)

    def __getitem__(self, i) -> QuadraticFormSpec:
        """Realization i's spec, from the spec of a stack.  The stack's
        checks cover its rows, so the row is made without running them."""
        row = object.__new__(QuadraticFormSpec)
        row.__dict__.update(lam=self.lam[i], delta=self.delta[i], p=self.p, scale=float(self.scale[i]))
        return row


@dataclass(frozen=True)
class CumulantTriple:
    """First three cumulants of Q; for a stack, arrays with realization i's at i."""

    k1: float
    k2: float
    k3: float


def build_omega(pair: ScenarioPair) -> OmegaDecomposition:
    """Omega decomposition of a scenario pair (needs N >= 2).

    Whitens with the factors the two sides hold, G_t = chol(sigma_t) and
    G = chol(sigma): w = G_t^-1 v is the training side's ``white_v`` and
    M = G_t^-1 G, so that G_t^-1 sigma G_t^-H = M M^H.  With u = w/|w| and
    U = [orth_complement(u), u], T = U^H G_t^-1 whitens sigma_t and sends v
    to |w| e_N, so Omega = T sigma T^H = U^H M M^H U and, with
    A = orth_complement(u)^H M,

        omega11 = A A^H,  omega12 = A (M^H u),  omega22 = |M^H u|^2,
        omega_2_1 = |w|^2 / (v^H sigma^-1 v).

    The block route T = [F_t^-1 V_perp^H; s^H / sqrt(v^H s)], with
    V_perp = orth_complement(v), F_t = chol(V_perp^H sigma_t V_perp) and
    s = sigma_t^-1 v, has the same last row, and its first N-1 rows also
    whiten sigma_t and annihilate v, so they differ from these by an
    (N-1)x(N-1) unitary: lam, the delta sums, omega22 and the Schur
    complement are the same, and no second factorization is needed.

    A block, a pair whose training side stacks B covariances, gives the
    decomposition of a stack of B realizations; one pair gives a stack of
    one.  The vector norms are taken one realization at a time, with the
    BLAS dot a single pair uses.
    """
    training = pair.training
    n = training.v.size
    chol_t = training.chol.reshape(-1, n, n)
    w = training.white_v.reshape(-1, n)
    w_norm_sq = np.reshape(training.v_sigma_v, -1)
    # M as I + G_t^-1 (G - G_t): the solve rounds only the mismatch, so M is
    # exactly I without it, where G_t^-1 G is 1e-10 off at 16x32, +90 dB
    m = np.eye(n) + solve_triangular(chol_t, pair.operating.chol - chol_t, lower=True)
    u = w / np.sqrt(w_norm_sq)[:, None]
    a = orth_complement(u).conj().swapaxes(-1, -2) @ m
    m_u = (m.conj().swapaxes(-1, -2) @ u[..., None])[..., 0]
    omega11 = a @ a.conj().swapaxes(-1, -2)
    omega12 = (a @ m_u[..., None])[..., 0]

    eig = herm_eig(omega11)
    lam = eig.values
    if not (lam[:, -1] > 0).all():  # omega11 = A A^H, so only rounding brings this about
        raise NotPositiveDefinite(f"whitened block has smallest eigenvalue {lam[:, -1].min():.3g}")
    delta = np.abs((eig.vectors.conj().swapaxes(-1, -2) @ omega12[..., None])[..., 0]) ** 2 / lam**2
    omega22 = np.array([np.vdot(x, x).real for x in m_u])
    is_ger = np.array([np.linalg.norm(o12) <= GER_RTOL * np.sqrt(np.linalg.norm(o11, "fro")) * np.sqrt(o22)
                       for o11, o12, o22 in zip(omega11, omega12, omega22)])
    return OmegaDecomposition(omega11=omega11, omega12=omega12, omega22=omega22,
                              omega_2_1=w_norm_sq / pair.operating.v_sigma_v, lam=lam, delta=delta, is_ger=is_ger)


def to_quadratic_form(omega: OmegaDecomposition, n_training) -> QuadraticFormSpec:
    """Quadratic-form parameters of the loss for K training samples.

    Each spectral term contributes two real degrees of freedom; the
    denominator has p = 2(K - N + 2), with N = len(lam) + 1 read from Omega,
    and the outside multiplier is the inverse Schur complement.

    The decomposition of a stack gives the spec of that stack: ``lam`` and
    ``delta`` keep one row per realization, ``scale`` holds one multiplier
    per realization and p is shared.  ``spec[i]`` is then realization i's
    own spec.
    """
    n_elements = omega.lam.shape[-1] + 1
    if n_training < n_elements:
        raise InsufficientSamples("need n_training >= n_elements")
    return QuadraticFormSpec(lam=omega.lam, delta=omega.delta, p=2.0 * (n_training - n_elements + 2),
                             scale=1.0 / omega.omega_2_1)


def c_coefficients(lam, delta):
    """c_s = sum_i lam_i^s (2 + s*delta_i) for s = 1, 2, 3.

    These are the cumulants of the numerator quadratic form divided by
    2^(s-1) (s-1)!, the quantities the moment fits consume.  Stacked
    spectra (one per row) give one c_s per row.
    """
    lam = np.asarray(lam, dtype=float)
    delta = np.asarray(delta, dtype=float)
    return tuple((lam**s * (2.0 + s * delta)).sum(axis=-1) for s in (1, 2, 3))


def inverse_chi2_moment(p, k):
    """E[V^-k] for V ~ chi2(p): 1 / prod_{i=1..k} (p - 2i); finite for p > 2k.
    An array of p gives the moment of each."""
    if (np.asarray(p) <= 2 * k).any():
        raise InsufficientSamples(f"E[V^-{k}] infinite for p = {p}")
    out = 1.0
    for i in range(1, k + 1):
        out /= p - 2.0 * i
    return out


def cumulants_q(spec: QuadraticFormSpec) -> CumulantTriple:
    """Exact first three cumulants of Q (before the outside multiplier).

    Requires p > 6 so that E[V^-3] is finite, i.e. K > N + 1, and raises
    InvalidFit when a cumulant overflows a float.  The spec of a stack gives
    arrays, realization i's cumulants at i, and raises when a cumulant of
    any realization overflows.
    """
    if spec.p <= 6:
        raise InsufficientSamples("third cumulant needs p > 6, i.e. n_training > n_elements + 1")
    lam, delta = spec.lam, spec.delta
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [lam, lam**2, lam**3]
        sums = [((lam_j * 2.0).sum(axis=-1), (lam_j * delta).sum(axis=-1)) for lam_j in powers]
    return power_sum_cumulants(*sums, spec.p)


def power_sum_cumulants(s1, s2, s3, p) -> CumulantTriple:
    """Cumulants of Q from its power sums s_j = (sum_i lam_i^j h_i,
    sum_i lam_i^j delta_i), j = 1, 2, 3, and its denominator dof p,
    elementwise over arrays of them; raises InvalidFit when one overflows a
    float.  Term i has h_i real dof: 2 in the loss's Q, any positive value
    in the one-term Q of a scaled-F fit.

    Powers of the sums go through ``np.float_power``, which calls C ``pow``
    on each element as Python float ``**`` does (``np.power``'s vector loop
    rounds some results differently), so each element equals, bit for bit,
    the formula in Python float arithmetic.
    """
    (s_lh, s_ld), (s_l2h, s_l2d), (s_l3h, s_l3d) = s1, s2, s3
    e1, e2, e3 = (inverse_chi2_moment(p, k) for k in (1, 2, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        s_lh_2, s_lh_3 = np.float_power(s_lh, 2), np.float_power(s_lh, 3)
        k1 = s_ld + e1 * s_lh
        k2 = (2.0 * s_l2h + s_lh_2) * e2 + 4.0 * e1 * s_l2d - s_lh_2 * np.float_power(e1, 2)
        k3 = (
            (8.0 * s_l3h + s_lh_3 + 6.0 * s_lh * s_l2h) * e3
            + (24.0 * s_l3d + 12.0 * s_lh * s_l2d) * e2
            - 3.0 * (s_lh_3 + 2.0 * s_lh * s_l2h) * e1 * e2
            - 12.0 * s_lh * s_l2d * np.float_power(e1, 2)
            + 2.0 * s_lh_3 * np.float_power(e1, 3)
        )
    if not np.isfinite([k1, k2, k3]).all():
        raise InvalidFit("a cumulant of Q overflows a float")
    return CumulantTriple(k1=k1, k2=k2, k3=k3)

