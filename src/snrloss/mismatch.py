"""Whitened/rotated covariance analysis.

The SNR loss of a filter trained on samples with covariance ``sigma_t`` but
operated against ``sigma`` admits the representation

    loss = [1 + Q / omega_2_1]^-1,
    Q = V^-1 * sum_i lam_i * chi2(2, V * delta_i),   V ~ chi2(2(K - N + 2)),

where lam_i are the eigenvalues of the upper-left block of the whitened,
rotated covariance Omega, delta_i its noncentrality coefficients, and
omega_2_1 its Schur complement omega22 - omega12^H omega11^-1 omega12.
The Schur complement equals (v^H sigma_t^-1 v) / (v^H sigma^-1 v) and is
computed as that ratio: the subtraction cancels catastrophically when the
interferers are strong, while the ratio is exactly 1 without mismatch.

This module computes the Omega blocks, the spectral parameters, the
generalized-eigenrelation (GER) flag (the relation kills every delta_i and
makes Q central), the c_s coefficients used by the moment fits, and the
exact first three cumulants of Q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import InsufficientSamples
from .linalg import cholesky, herm_eig, hermitian_part, orth_complement, solve_hermitian
from .scenarios import ScenarioPair

__all__ = [
    "CumulantTriple",
    "OmegaDecomposition",
    "QuadraticFormSpec",
    "build_omega",
    "c_coefficients",
    "cumulants_q",
    "inverse_chi2_moment",
    "to_quadratic_form",
]

# relative threshold separating exact GER constructions (residual ~1e-14)
# from generic mismatch (O(1))
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
    plus the multiplier applied outside Q in the loss representation."""

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
        if not np.all(lam > 0):
            raise ValueError("weights must be positive")
        if not np.all(delta >= 0):
            raise ValueError("noncentralities must be nonnegative")
        if not self.p > 0:
            raise ValueError("denominator dof must be positive")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "delta", delta)


@dataclass(frozen=True)
class CumulantTriple:
    k1: float
    k2: float
    k3: float


def build_omega(pair: ScenarioPair) -> OmegaDecomposition:
    """Omega decomposition of a scenario pair (needs N >= 2)."""
    sigma, sigma_t, v = pair.sigma, pair.sigma_t, pair.v
    v_perp = orth_complement(v)
    f_t = cholesky(hermitian_part(v_perp.conj().T @ sigma_t @ v_perp))
    m = v_perp.conj().T @ sigma @ v_perp
    # omega11 = F_t^-1 M F_t^-H through two triangular solves
    half = solve_triangular(f_t, m, lower=True)
    omega11 = hermitian_part(solve_triangular(f_t, half.conj().T, lower=True).conj().T)

    s = solve_hermitian(sigma_t, v)
    v_st_v = (v.conj() @ s).real
    omega12 = solve_triangular(f_t, v_perp.conj().T @ (sigma @ s), lower=True) / np.sqrt(v_st_v)
    omega22 = float((s.conj() @ sigma @ s).real / v_st_v)

    eig = herm_eig(omega11)
    lam = eig.values
    delta = np.abs(eig.vectors.conj().T @ omega12) ** 2 / lam**2
    omega_2_1 = float(v_st_v / (v.conj() @ solve_hermitian(sigma, v)).real)
    is_ger = bool(
        np.linalg.norm(omega12) <= GER_RTOL * np.sqrt(np.linalg.norm(omega11, "fro")) * np.sqrt(omega22)
    )
    return OmegaDecomposition(
        omega11=omega11,
        omega12=omega12,
        omega22=omega22,
        omega_2_1=omega_2_1,
        lam=lam,
        delta=delta,
        is_ger=is_ger,
    )


def to_quadratic_form(omega: OmegaDecomposition, n_training, n_elements) -> QuadraticFormSpec:
    """Quadratic-form parameters of the loss for K training samples.

    Each spectral term contributes two real degrees of freedom; the
    denominator has p = 2(K - N + 2) and the outside multiplier is the
    inverse Schur complement.
    """
    if n_training < n_elements:
        raise InsufficientSamples("need n_training >= n_elements")
    p = 2.0 * (n_training - n_elements + 2)
    return QuadraticFormSpec(
        lam=omega.lam.copy(),
        h=np.full(omega.lam.size, 2.0),
        delta=omega.delta.copy(),
        p=p,
        scale=1.0 / omega.omega_2_1,
    )


def c_coefficients(lam, h, delta) -> tuple[float, float, float]:
    """c_s = sum_i lam_i^s (h_i + s*delta_i) for s = 1, 2, 3.

    These are the cumulants of the numerator quadratic form divided by
    2^(s-1) (s-1)!, the quantities the moment fits consume.
    """
    lam = np.asarray(lam, dtype=float)
    h = np.asarray(h, dtype=float)
    delta = np.asarray(delta, dtype=float)
    return tuple(float(np.sum(lam**s * (h + s * delta))) for s in (1, 2, 3))


def inverse_chi2_moment(p, k) -> float:
    """E[V^-k] for V ~ chi2(p): 1 / prod_{i=1..k} (p - 2i); finite for p > 2k."""
    if p <= 2 * k:
        raise InsufficientSamples(f"E[V^-{k}] infinite for p = {p}")
    out = 1.0
    for i in range(1, k + 1):
        out /= p - 2.0 * i
    return out


def cumulants_q(spec: QuadraticFormSpec) -> CumulantTriple:
    """Exact first three cumulants of Q (before the outside multiplier).

    Requires p > 6 so that E[V^-3] is finite, i.e. K > N + 1.
    """
    if spec.p <= 6:
        raise InsufficientSamples("third cumulant needs p > 6, i.e. n_training > n_elements + 1")
    e1 = inverse_chi2_moment(spec.p, 1)
    e2 = inverse_chi2_moment(spec.p, 2)
    e3 = inverse_chi2_moment(spec.p, 3)
    lam, h, delta = spec.lam, spec.h, spec.delta
    s_lh = float(np.sum(lam * h))
    s_ld = float(np.sum(lam * delta))
    s_l2h = float(np.sum(lam**2 * h))
    s_l2d = float(np.sum(lam**2 * delta))
    s_l3h = float(np.sum(lam**3 * h))
    s_l3d = float(np.sum(lam**3 * delta))

    k1 = s_ld + e1 * s_lh
    k2 = (2.0 * s_l2h + s_lh**2) * e2 + 4.0 * e1 * s_l2d - s_lh**2 * e1**2
    k3 = (
        (8.0 * s_l3h + s_lh**3 + 6.0 * s_lh * s_l2h) * e3
        + (24.0 * s_l3d + 12.0 * s_lh * s_l2d) * e2
        - 3.0 * (s_lh**3 + 2.0 * s_lh * s_l2h) * e1 * e2
        - 12.0 * s_lh * s_l2d * e1**2
        + 2.0 * s_lh**3 * e1**3
    )
    return CumulantTriple(k1=float(k1), k2=float(k2), k3=float(k3))
