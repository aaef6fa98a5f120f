"""Construction of (operating covariance, training covariance, signature)
triples for a uniform linear array and the supported mismatch families.

The baseline scenario is an N-element half-wavelength ULA with white thermal
noise and a handful of strong interferers; mismatch constructors then derive
a training covariance that differs from the operating one in a controlled
way (training contains the SoI, a surprise interferer is missing from
training, block-diagonal eigenrelation-preserving perturbations, eigenvalue
scaling, or an inverse-Wishart draw).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateQ
from .linalg import check_hermitian, cholesky, herm_eig, hermitian_part, orth_complement, solve_hermitian
from .sampling import RngStream, sample_wishart

__all__ = [
    "ArrayScenario",
    "ScenarioPair",
    "DEFAULT_INTERFERENCE_ANGLES_DEG",
    "DEFAULT_INTERFERENCE_POWERS_DB",
    "eigenvalue_mismatch",
    "ger_blockdiag_mismatch",
    "interference_covariance",
    "inverse_wishart_mismatch",
    "mpdr_mismatch",
    "no_mismatch",
    "random_ger_blockdiag_mismatch",
    "sample_uniform_db",
    "steering_vector",
    "surprise_interference",
]

# default interferer placement: angles (deg) and powers (dB over thermal noise)
DEFAULT_INTERFERENCE_ANGLES_DEG = (-12.0, 9.0, 25.0)
DEFAULT_INTERFERENCE_POWERS_DB = (35.0, 25.0, 30.0)


@dataclass(frozen=True)
class ArrayScenario:
    """ULA setup: element count, SoI angle, interferers, K."""

    n_elements: int
    soi_angle_deg: float = 0.0
    interference_angles_deg: tuple = DEFAULT_INTERFERENCE_ANGLES_DEG
    interference_powers_db: tuple = DEFAULT_INTERFERENCE_POWERS_DB
    n_training: int = 32

    def __post_init__(self):
        if self.n_elements < 2:
            raise ValueError("need at least 2 array elements")
        if len(self.interference_angles_deg) != len(self.interference_powers_db):
            raise ValueError("interference angle and power lists must have equal length")
        if self.n_training < self.n_elements:
            raise ValueError("need n_training >= n_elements for an invertible SCM")
        powers = np.asarray(self.interference_powers_db, dtype=float)
        if powers.size and not np.all(np.isfinite(powers)):
            raise ValueError("interference powers must be finite")
        object.__setattr__(self, "interference_angles_deg", tuple(float(a) for a in self.interference_angles_deg))
        object.__setattr__(self, "interference_powers_db", tuple(float(p) for p in self.interference_powers_db))


@dataclass(frozen=True)
class ScenarioPair:
    """Operating covariance, training covariance, unit signature and the
    mismatch family that produced them."""

    sigma: np.ndarray
    sigma_t: np.ndarray
    v: np.ndarray
    kind: str = "none"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        sigma = check_hermitian(self.sigma)
        sigma_t = check_hermitian(self.sigma_t)
        cholesky(sigma)
        cholesky(sigma_t)
        v = np.asarray(self.v, dtype=complex).ravel()
        if abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError("signature vector must have unit norm")
        if sigma.shape[0] != sigma_t.shape[0] or sigma.shape[0] != v.size:
            raise ValueError("covariances and signature must share one dimension")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_t", sigma_t)
        object.__setattr__(self, "v", v)

    @property
    def n_elements(self) -> int:
        return self.v.size


def steering_vector(angle_deg, n_elements) -> np.ndarray:
    """Unit-norm half-wavelength ULA steering vector at the given angle."""
    if n_elements < 1:
        raise ValueError("need at least one element")
    n = np.arange(n_elements)
    return np.exp(1j * np.pi * n * np.sin(np.deg2rad(angle_deg))) / np.sqrt(n_elements)


def interference_covariance(scenario: ArrayScenario) -> np.ndarray:
    """Thermal noise plus rank-one interferers:
    I_N + sum_k 10^(p_k/10) a(theta_k) a(theta_k)^H."""
    n = scenario.n_elements
    cov = np.eye(n, dtype=complex)
    for angle, power_db in zip(scenario.interference_angles_deg, scenario.interference_powers_db):
        a = steering_vector(angle, n)
        cov += 10.0 ** (power_db / 10.0) * np.outer(a, a.conj())
    return cov


def no_mismatch(sigma, v) -> ScenarioPair:
    sigma = check_hermitian(sigma)
    return ScenarioPair(sigma=sigma, sigma_t=sigma.copy(), v=v, kind="none")


def mpdr_mismatch(sigma, v, soi_power, gamma) -> ScenarioPair:
    """Training contains the SoI: sigma_t = gamma * sigma + P v v^H."""
    if soi_power < 0:
        raise ValueError("SoI power must be >= 0")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    sigma = check_hermitian(sigma)
    v = np.asarray(v, dtype=complex).ravel()
    sigma_t = hermitian_part(gamma * sigma + soi_power * np.outer(v, v.conj()))
    return ScenarioPair(sigma=sigma, sigma_t=sigma_t, v=v, kind="mpdr",
                        params={"gamma": float(gamma), "soi_power": float(soi_power)})


def surprise_interference(sigma_t, v, q_raw, enforce_ger=True) -> ScenarioPair:
    """Operating data contain an interferer missing from training:
    sigma = sigma_t + q q^H.

    With ``enforce_ger`` the component of q along sigma_t^-1 v is removed so
    that q^H sigma^-1 v = 0 holds exactly (removing it against sigma_t^-1 v
    is equivalent: the rank-one update leaves the null condition invariant).
    """
    sigma_t = check_hermitian(sigma_t)
    v = np.asarray(v, dtype=complex).ravel()
    q = np.asarray(q_raw, dtype=complex).ravel().copy()
    q_raw_norm = np.linalg.norm(q)
    if enforce_ger and q_raw_norm > 0:
        s = solve_hermitian(sigma_t, v)
        q -= (s.conj() @ q) / (s.conj() @ s).real * s
        if np.linalg.norm(q) < 1e-10 * q_raw_norm:
            raise DegenerateQ("projection annihilated the surprise signature")
    sigma = hermitian_part(sigma_t + np.outer(q, q.conj()))
    q_power = float((q.conj() @ solve_hermitian(sigma_t, q)).real)
    return ScenarioPair(sigma=sigma, sigma_t=sigma_t, v=v, kind="surprise",
                        params={"q": q, "q_power": q_power, "enforce_ger": bool(enforce_ger)})


def ger_blockdiag_mismatch(sigma, v, w11, w22) -> ScenarioPair:
    """Training covariance built so that sigma_t^-1 v is collinear with
    sigma^-1 v.

    With Q_v = [V_perp v] and G the Cholesky factor of Q_v^H sigma Q_v, the
    training covariance is Q_v G blockdiag(W11^-1, W22^-1) G^H Q_v^H.  W11
    perturbs the subspace orthogonal to v, W22 the direction of v.
    """
    sigma = check_hermitian(sigma)
    v = np.asarray(v, dtype=complex).ravel()
    n = v.size
    w11 = check_hermitian(w11)
    if w11.shape[0] != n - 1:
        raise ValueError("w11 must have dimension n_elements - 1")
    if not w22 > 0:
        raise ValueError("w22 must be positive")
    q_v = np.concatenate([orth_complement(v), v[:, None]], axis=1)
    g = cholesky(hermitian_part(q_v.conj().T @ sigma @ q_v))
    inner = np.zeros((n, n), dtype=complex)
    inner[: n - 1, : n - 1] = solve_hermitian(w11, np.eye(n - 1, dtype=complex))
    inner[n - 1, n - 1] = 1.0 / w22
    sigma_t = hermitian_part(q_v @ g @ hermitian_part(inner) @ g.conj().T @ q_v.conj().T)
    return ScenarioPair(sigma=sigma, sigma_t=sigma_t, v=v, kind="ger_blockdiag",
                        params={"w22": float(w22)})


def random_ger_blockdiag_mismatch(sigma, v, gamma, rng: RngStream, w11_dof=None) -> ScenarioPair:
    """Random eigenrelation-preserving pair with E[W11^-1] = gamma * I and
    E[W22^-1] = gamma.

    W11 is complex Wishart with dof defaulting to 2(N-1) and scale
    I / (gamma * (dof - (N-1))); W22 is Gamma(shape 2, scale 1/gamma).
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    sigma = check_hermitian(sigma)
    n = sigma.shape[0]
    dof = int(w11_dof) if w11_dof is not None else 2 * (n - 1)
    if dof < n:  # need dof - (n-1) >= 1 for E[W11^-1] to exist
        raise ValueError("w11_dof must be at least n_elements")
    w11 = sample_wishart(n - 1, dof, 1.0 / (gamma * (dof - (n - 1))), rng)
    w22 = rng.generator.standard_gamma(2.0) / gamma
    pair = ger_blockdiag_mismatch(sigma, v, w11, w22)
    return ScenarioPair(sigma=pair.sigma, sigma_t=pair.sigma_t, v=pair.v, kind=pair.kind,
                        params={**pair.params, "gamma": float(gamma), "w11_dof": dof})


def sample_uniform_db(rng: RngStream, low_db=-6.0, high_db=6.0, size=None):
    """Linear factor(s) whose dB value is uniform on [low_db, high_db]."""
    return 10.0 ** (rng.generator.uniform(low_db, high_db, size) / 10.0)


def eigenvalue_mismatch(sigma, v, alpha=None, rng: RngStream | None = None) -> ScenarioPair:
    """Training shares sigma's eigenvectors with eigenvalues scaled by alpha.

    When ``alpha`` is omitted it is drawn per eigenvalue with its dB value
    uniform on [-6, 6]; a stream must then be supplied.
    """
    sigma = check_hermitian(sigma)
    n = sigma.shape[0]
    if alpha is None:
        if rng is None:
            raise ValueError("need an RngStream when alpha is not given")
        alpha = sample_uniform_db(rng, size=n)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.size != n:
        raise ValueError("alpha must provide one factor per eigenvalue")
    if not np.all(alpha > 0):
        raise ValueError("alpha factors must be positive")
    eig = herm_eig(sigma)
    sigma_t = hermitian_part((eig.vectors * (alpha * eig.values)) @ eig.vectors.conj().T)
    return ScenarioPair(sigma=sigma, sigma_t=sigma_t, v=v, kind="eigenvalue",
                        params={"alpha": alpha})


def inverse_wishart_mismatch(sigma, v, gamma, rng: RngStream, dof=None) -> ScenarioPair:
    """sigma_t = G W^-1 G^H with G = chol(sigma) and W complex Wishart with
    mean gamma * I (scale = gamma/dof * I)."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    sigma = check_hermitian(sigma)
    n = sigma.shape[0]
    dof = int(dof) if dof is not None else 2 * n
    if dof < n:
        raise ValueError("need dof >= n_elements")
    g = cholesky(sigma)
    w = sample_wishart(n, dof, gamma / dof, rng)
    sigma_t = hermitian_part(g @ solve_hermitian(w, g.conj().T))
    return ScenarioPair(sigma=sigma, sigma_t=sigma_t, v=v, kind="inverse_wishart",
                        params={"gamma": float(gamma), "dof": dof})
