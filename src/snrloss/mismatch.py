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
    """Blocks of the whitened/rotated covariance and derived spectra.

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
    omega22: float
    omega_2_1: float
    lam: np.ndarray
    delta: np.ndarray
    is_ger: bool


@dataclass(frozen=True)
class QuadraticFormSpec:
    """Parameters of Q = V^-1 sum_i lam_i chi2(h_i, V delta_i), V ~ chi2(p),
    plus the multiplier applied outside Q in the loss representation.

    The spec of a stack holds one row of ``lam``, ``h`` and ``delta`` and
    one ``scale`` per realization, with p shared (see
    :func:`to_quadratic_form`)."""

    lam: np.ndarray
    h: np.ndarray
    delta: np.ndarray
    p: float
    scale: float

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        h = np.asarray(self.h, dtype=float)
        delta = np.asarray(self.delta, dtype=float)
        if not (lam.size == h.size == delta.size):
            raise ValueError("lam, h, delta must have equal length")
        if not (lam > 0).all():
            raise ValueError("weights must be positive")
        if not (delta >= 0).all():
            raise ValueError("noncentralities must be nonnegative")
        if not self.p > 0:
            raise ValueError("denominator dof must be positive")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "delta", delta)

    def __getitem__(self, i) -> QuadraticFormSpec:
        """Realization i's spec, from the spec of a stack.  The stack's
        checks cover its rows, so the row is made without running them."""
        row = object.__new__(QuadraticFormSpec)
        row.__dict__.update(lam=self.lam[i], h=self.h[i], delta=self.delta[i], p=self.p, scale=float(self.scale[i]))
        return row


@dataclass(frozen=True)
class CumulantTriple:
    """First three cumulants of Q; for a stack, arrays with realization i's at i."""

    k1: float
    k2: float
    k3: float


def build_omega(pair: ScenarioPair) -> OmegaDecomposition | list[OmegaDecomposition]:
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

    A block, a pair whose training side stacks B covariances, is decomposed
    as one stack and gives a list of B decompositions, realization i's at i;
    one pair is decomposed as a block of one.  The vector norms are taken one
    realization at a time, with the BLAS dot a single pair uses.
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
    omega_2_1 = w_norm_sq / pair.operating.v_sigma_v
    omegas = []
    for i in range(len(w)):
        omega22 = float(np.vdot(m_u[i], m_u[i]).real)
        is_ger = bool(
            np.linalg.norm(omega12[i]) <= GER_RTOL * np.sqrt(np.linalg.norm(omega11[i], "fro")) * np.sqrt(omega22)
        )
        omegas.append(OmegaDecomposition(
            omega11=omega11[i],
            omega12=omega12[i],
            omega22=omega22,
            omega_2_1=float(omega_2_1[i]),
            lam=lam[i],
            delta=delta[i],
            is_ger=is_ger,
        ))
    return omegas if training.sigma.ndim == 3 else omegas[0]


def to_quadratic_form(omega, n_training) -> QuadraticFormSpec:
    """Quadratic-form parameters of the loss for K training samples.

    Each spectral term contributes two real degrees of freedom; the
    denominator has p = 2(K - N + 2), with N = len(lam) + 1 read from Omega,
    and the outside multiplier is the inverse Schur complement.

    A block, the list of decompositions :func:`build_omega` returns for one,
    gives the spec of a stack: ``lam``, ``h`` and ``delta`` stack one row
    per realization, ``scale`` holds one multiplier per realization and p
    is shared.  ``spec[i]`` is then realization i's own spec.
    """
    omegas = omega if isinstance(omega, list) else [omega]
    n_elements = omegas[0].lam.size + 1
    if n_training < n_elements:
        raise InsufficientSamples("need n_training >= n_elements")
    lam = np.array([o.lam for o in omegas])
    spec = QuadraticFormSpec(
        lam=lam,
        h=np.full(lam.shape, 2.0),
        delta=np.array([o.delta for o in omegas]),
        p=2.0 * (n_training - n_elements + 2),
        scale=1.0 / np.array([o.omega_2_1 for o in omegas]),
    )
    return spec if isinstance(omega, list) else spec[0]


def c_coefficients(lam, h, delta):
    """c_s = sum_i lam_i^s (h_i + s*delta_i) for s = 1, 2, 3.

    These are the cumulants of the numerator quadratic form divided by
    2^(s-1) (s-1)!, the quantities the moment fits consume.  Stacked
    spectra (one per row) give one c_s per row.
    """
    lam = np.asarray(lam, dtype=float)
    h = np.asarray(h, dtype=float)
    delta = np.asarray(delta, dtype=float)
    return tuple(_unstack((lam**s * (h + s * delta)).sum(axis=-1)) for s in (1, 2, 3))


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
    lam, h, delta = spec.lam, spec.h, spec.delta
    with np.errstate(over="ignore", invalid="ignore"):
        powers = [lam, lam**2, lam**3]
        sums = [((lam_j * h).sum(axis=-1), (lam_j * delta).sum(axis=-1)) for lam_j in powers]
    return power_sum_cumulants(*sums, spec.p)


def power_sum_cumulants(s1, s2, s3, p) -> CumulantTriple:
    """Cumulants of Q from its power sums s_j = (sum_i lam_i^j h_i,
    sum_i lam_i^j delta_i), j = 1, 2, 3, and its denominator dof p,
    elementwise over arrays of them; raises InvalidFit when one overflows a
    float.

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
    return CumulantTriple(k1=_unstack(k1), k2=_unstack(k2), k3=_unstack(k3))


def _unstack(x):
    """A float for a 0-d result, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x
