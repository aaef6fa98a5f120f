"""Construction of (operating covariance, training covariance, signature)
triples for a uniform linear array and the supported mismatch families.

The baseline scenario is an N-element half-wavelength ULA with white thermal
noise and a handful of strong interferers; mismatch constructors then derive
a training covariance that differs from the operating one in a controlled
way (training contains the SoI, a surprise interferer is missing from
training, block-diagonal eigenrelation-preserving perturbations, eigenvalue
scaling, or an inverse-Wishart draw).

Each covariance is a :class:`Covariance`, factored once, when its factor
is first read.  A family takes the baseline ``base`` (its training side
for a surprise interferer, its operating side otherwise), so every pair
drawn from one ``base`` shares its factor; ``none`` and ``ger_blockdiag``
never read it.  A family also knows a whitening T0 of the training
covariance (T0 sigma_t T0^H = I) that needs no factor of sigma_t, and
hands the pair in that whitening to :func:`~snrloss.mismatch.build_omega`
as its ``whitened`` form (:class:`WhitenedFactor` or
:class:`BlockDiagonalOmega`).  So the covariance a random family derives
is formed only when first read (:meth:`Covariance.deferred`): only the
direct sampler reads it, to factor it.

The random families also build a block: given a sequence of B streams
instead of one, they return one pair whose training side is a stack of B
covariances, realization i drawn from stream i exactly as that stream alone
would draw it.  One stream is the same computation with B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DegenerateQ
from .linalg import (
    cholesky,
    cholesky_solve,
    herm_eig,
    hermitian_part,
    reflect,
    solve_triangular,
)
from .sampling import each_stream, sample_wishart_factor

__all__ = [
    "ArrayScenario",
    "BlockDiagonalOmega",
    "Covariance",
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
    "WhitenedFactor",
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
        object.__setattr__(self, "soi_angle_deg", float(self.soi_angle_deg))
        object.__setattr__(self, "interference_angles_deg", tuple(float(a) for a in self.interference_angles_deg))
        object.__setattr__(self, "interference_powers_db", tuple(float(p) for p in self.interference_powers_db))


class Covariance:
    """A covariance and the unit signature it is read against.  v's unit
    norm is checked on construction; sigma is checked and factored once, on
    the first read of ``chol`` = G = chol(sigma), ``white_v`` = G^-1 v or
    ``v_sigma_v`` = |G^-1 v|^2 = v^H sigma^-1 v, and a check that fails
    raises at each read, so a sigma that fails to factor fails only what
    reads these.  Every later layer reads them instead of factoring or
    solving again; ``eig``, the eigendecomposition of sigma, is computed
    on first use and kept.

    ``sigma`` may be a stack of B covariances sharing v; ``chol`` and
    ``white_v`` then carry the same leading axis and ``v_sigma_v`` is an
    array of B values.  One made by :meth:`deferred` holds the function
    that forms sigma, which runs when sigma is first read."""

    def __init__(self, sigma, v):
        self.v = np.asarray(v, dtype=complex).ravel()
        if abs(np.linalg.norm(self.v) - 1.0) > 1e-12:
            raise ValueError("signature vector must have unit norm")
        self._build_sigma = lambda: sigma

    @classmethod
    def deferred(cls, build_sigma, v) -> Covariance:
        """The covariance ``build_sigma()`` on v, formed when first read."""
        deferred = cls(None, v)
        deferred._build_sigma = build_sigma
        return deferred

    @cached_property
    def sigma(self) -> np.ndarray:
        # near the accepted dB bounds the arithmetic overflows; the
        # non-finite result fails the finiteness check of cholesky
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sigma = np.asarray(self._build_sigma(), dtype=complex)
        if sigma.ndim not in (2, 3) or sigma.shape[-2:] != (self.v.size, self.v.size):
            raise ValueError("covariance and signature must share one dimension")
        return sigma

    @cached_property
    def chol(self) -> np.ndarray:
        return cholesky(self.sigma)  # also checks that sigma is Hermitian

    @cached_property
    def white_v(self) -> np.ndarray:
        return solve_triangular(self.chol, self.v, lower=True)

    @cached_property
    def v_sigma_v(self):
        # one BLAS dot per vector, as for a single covariance
        v_sigma_v = np.array([np.vdot(w, w).real for w in self.white_v.reshape(-1, self.v.size)])
        return float(v_sigma_v[0]) if self.sigma.ndim == 2 else v_sigma_v

    @cached_property
    def eig(self):
        return herm_eig(self.sigma)


@dataclass(frozen=True)
class WhitenedFactor:
    """A pair in a whitening T0 of its training covariance
    (T0 sigma_t T0^H = I), for a stack of B realizations: ``factor`` holds
    F, B x N x M, with F F^H = T0 sigma T0^H, and ``a`` holds a = T0 v,
    B x N.  :func:`~snrloss.mismatch.build_omega` rotates a onto e_N."""

    factor: np.ndarray
    a: np.ndarray


@dataclass(frozen=True)
class BlockDiagonalOmega:
    """Omega of a stack of B realizations whose whitening sends v onto a
    multiple of e_N and leaves Omega block diagonal (omega12 = 0): ``lam``,
    B x (N-1), holds the eigenvalues of omega11 and ``omega22`` the B values
    of omega22, which is then also the Schur complement."""

    lam: np.ndarray
    omega22: np.ndarray


@dataclass(frozen=True)
class ScenarioPair:
    """Operating and training covariances, each factored on the first read
    of its factor, the mismatch family that produced them and the pair in
    the whitening that family knows.  Without mismatch both sides are the
    same object.

    A pair made from two covariances alone has no ``whitened`` form, and
    :func:`~snrloss.mismatch.build_omega` rejects it."""

    operating: Covariance
    training: Covariance
    kind: str = "none"
    params: dict = field(default_factory=dict)
    whitened: WhitenedFactor | BlockDiagonalOmega | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not np.array_equal(self.operating.v, self.training.v):
            raise ValueError("operating and training covariances must share one signature")


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


def no_mismatch(base: Covariance) -> ScenarioPair:
    """Training on the operating covariance itself: Omega = I."""
    n = base.v.size
    return ScenarioPair(operating=base, training=base, kind="none",
                        whitened=BlockDiagonalOmega(lam=np.ones((1, n - 1)), omega22=np.ones(1)))


def mpdr_mismatch(base: Covariance, soi_power, gamma) -> ScenarioPair:
    """Training contains the SoI: sigma_t = gamma * sigma + P v v^H.

    Whitened by G^-1, G = chol(sigma), sigma_t is gamma I + P w w^H with
    w = G^-1 v, so rotating w onto e_N whitens it to
    Omega = blockdiag(I / gamma, 1 / (gamma + P v^H sigma^-1 v)).
    """
    if soi_power < 0:
        raise ValueError("SoI power must be >= 0")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    n = base.v.size
    training = Covariance.deferred(
        lambda: hermitian_part(gamma * base.sigma + soi_power * np.outer(base.v, base.v.conj())), base.v)
    whitened = BlockDiagonalOmega(lam=np.full((1, n - 1), 1.0 / gamma),
                                  omega22=np.array([1.0 / (gamma + soi_power * base.v_sigma_v)]))
    return ScenarioPair(operating=base, training=training, kind="mpdr",
                        params={"gamma": float(gamma), "soi_power": float(soi_power)}, whitened=whitened)


def surprise_interference(base: Covariance, q_raw, enforce_ger=True) -> ScenarioPair:
    """Operating data contain an interferer missing from training:
    sigma = sigma_t + q q^H, with ``base`` the training side sigma_t.

    With ``enforce_ger`` the component of q along sigma_t^-1 v is removed so
    that q^H sigma^-1 v = 0 holds exactly (removing it against sigma_t^-1 v
    is equivalent: the rank-one update leaves the null condition invariant).

    Whitened by G_t^-1, G_t = chol(sigma_t), sigma is I + r r^H with
    r = G_t^-1 q: the factor is F = [I, r], and a = G_t^-1 v.
    """
    q = np.asarray(q_raw, dtype=complex).ravel().copy()
    q_raw_norm = np.linalg.norm(q)
    if enforce_ger and q_raw_norm > 0:
        s = solve_triangular(base.chol.conj().T, base.white_v, lower=False)  # sigma_t^-1 v
        # a power of two brings s near 1, so |s|^2 cannot underflow, and moves no bit of q
        s = np.ldexp(s.view(float), -np.frexp(np.abs(s).max())[1]).view(complex)
        q -= (s.conj() @ q) / (s.conj() @ s).real * s
        if np.linalg.norm(q) < 1e-10 * q_raw_norm:
            raise DegenerateQ("projection annihilated the surprise signature")
    sigma = hermitian_part(base.sigma + np.outer(q, q.conj()))
    white_q = solve_triangular(base.chol, q, lower=True)
    factor = np.concatenate([np.eye(q.size), white_q[:, None]], axis=1)
    return ScenarioPair(operating=Covariance(sigma, base.v), training=base, kind="surprise",
                        params={"q": q, "q_power": float(np.vdot(white_q, white_q).real),
                                "enforce_ger": bool(enforce_ger)},
                        whitened=WhitenedFactor(factor=factor[None], a=base.white_v[None]))


def _block_value(x, batch):
    """``x`` as a float for one pair, or as an array of one value per
    realization for a block of ``batch``."""
    x = np.broadcast_to(np.asarray(x, dtype=float), batch)
    return x.copy() if batch else float(x)


def ger_blockdiag_mismatch(base: Covariance, w11_factor, w22) -> ScenarioPair:
    """Training covariance built so that sigma_t^-1 v is collinear with
    sigma^-1 v.

    With G = chol(sigma) and U the Householder reflector of
    G^-1 v / |G^-1 v| (:func:`~snrloss.linalg.reflect`), which sends it onto
    a unit multiple of e_N, the training covariance is
    X blockdiag(W11^-1, W22^-1) X^H with X = G U.  W11 perturbs the
    subspace whitened-orthogonal to v, W22 the direction of v.  W11 is given
    by a nonsingular lower-triangular factor L11, W11 = L11 L11^H, against
    which sigma_t solves.  A stack of B factors and B values of W22 give a
    block.

    T0 = blockdiag(W11^1/2, sqrt(W22)) U G^-1 whitens the training
    covariance (U is Hermitian and unitary, so T0 X = blockdiag(W11^1/2,
    sqrt(W22))) and sends v onto a multiple of e_N:
    Omega = T0 sigma T0^H = blockdiag(W11, W22), whose lam are the
    eigenvalues of W11.
    """
    n = base.v.size
    low = np.asarray(w11_factor, dtype=complex)
    if low.ndim < 2 or low.shape[-2:] != (n - 1, n - 1):
        raise ValueError("w11_factor must be square with dimension n_elements - 1")
    if np.triu(low, 1).any():
        raise ValueError("w11_factor must be lower triangular")
    w22 = np.asarray(w22, dtype=float)
    if not np.all(w22 > 0):
        raise ValueError("w22 must be positive")
    batch = low.shape[:-2]

    def sigma_t():
        x = base.chol @ reflect(base.white_v / np.sqrt(base.v_sigma_v), np.eye(n, dtype=complex))
        inner = np.zeros(batch + (n, n), dtype=complex)
        inner[..., : n - 1, : n - 1] = cholesky_solve(low, np.eye(n - 1, dtype=complex))
        inner[..., n - 1, n - 1] = 1.0 / w22
        return hermitian_part(x @ hermitian_part(inner) @ x.conj().T)

    w11 = hermitian_part(low @ low.conj().swapaxes(-1, -2))
    whitened = BlockDiagonalOmega(lam=herm_eig(w11).values.reshape(-1, n - 1),
                                  omega22=np.broadcast_to(w22, batch).reshape(-1))
    return ScenarioPair(operating=base, training=Covariance.deferred(sigma_t, base.v), kind="ger_blockdiag",
                        params={"w22": _block_value(w22, batch)}, whitened=whitened)


def random_ger_blockdiag_mismatch(base: Covariance, gamma, rng, w11_dof=None) -> ScenarioPair:
    """Random eigenrelation-preserving pair with E[W11^-1] = gamma * I and
    E[W22^-1] = gamma.

    W11 is complex Wishart with dof defaulting to 2(N-1) and scale
    I / (gamma * (dof - (N-1))); W22 is Gamma(shape 2, scale 1/gamma).
    Given a sequence of streams (and one gamma or one per stream), returns
    their block.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(gamma > 0):
        raise ValueError("gamma must be positive")
    n = base.v.size
    dof = int(w11_dof) if w11_dof is not None else 2 * (n - 1)
    if dof < n:  # need dof - (n-1) >= 1 for E[W11^-1] to exist
        raise ValueError("w11_dof must be at least n_elements")
    low = sample_wishart_factor(n - 1, dof, 1.0 / (gamma * (dof - (n - 1))), rng)
    w22 = each_stream(rng, lambda generator: generator.standard_gamma(2.0)) / gamma
    pair = ger_blockdiag_mismatch(base, low, w22)
    return replace(pair, params={**pair.params, "gamma": _block_value(gamma, low.shape[:-2]), "w11_dof": dof})


def sample_uniform_db(rng, low_db=-6.0, high_db=6.0, size=None):
    """Linear factor(s) whose dB value is uniform on [low_db, high_db]; given
    a sequence of streams, one draw of ``size`` from each."""
    # numpy rejects a range whose high - low has its sign bit set, as
    # [0.0, -0.0] does; + 0.0 turns a high of -0.0, and only that, into 0.0
    return each_stream(rng, lambda generator: 10.0 ** (generator.uniform(low_db, high_db + 0.0, size) / 10.0))


def eigenvalue_mismatch(base: Covariance, alpha) -> ScenarioPair:
    """Training shares sigma's eigenvectors with eigenvalues scaled by alpha,
    one factor per eigenvalue (:func:`sample_uniform_db` draws them).  A
    B x N ``alpha`` gives a block.

    With sigma = E diag(lam) E^H, T0 = diag((alpha lam)^-1/2) E^H whitens
    the training covariance: F = diag(alpha^-1/2) and a = T0 v.
    """
    n = base.v.size
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim not in (1, 2) or alpha.shape[-1] != n:
        raise ValueError("alpha must provide one factor per eigenvalue")
    if not np.all(alpha > 0):
        raise ValueError("alpha factors must be positive")
    eig = base.eig
    rows = alpha.reshape(-1, n)
    whitened = WhitenedFactor(factor=np.eye(n, dtype=complex) / np.sqrt(rows)[:, None, :],
                              a=(eig.vectors.conj().T @ base.v) / np.sqrt(rows * eig.values))
    training = Covariance.deferred(
        lambda: hermitian_part((eig.vectors * (alpha * eig.values)[..., None, :]) @ eig.vectors.conj().T), base.v)
    return ScenarioPair(operating=base, training=training, kind="eigenvalue", params={"alpha": alpha},
                        whitened=whitened)


def inverse_wishart_mismatch(base: Covariance, gamma, rng, dof=None) -> ScenarioPair:
    """sigma_t = G W^-1 G^H with G = chol(sigma) and W complex Wishart with
    mean gamma * I (scale = gamma/dof * I), drawn as its Bartlett factor L,
    W = L L^H (:func:`~snrloss.sampling.sample_wishart_factor`).  Given a
    sequence of streams (and one gamma or one per stream), returns their
    block.

    T0 = L^H G^-1 whitens sigma_t: F = L^H, a = L^H G^-1 v.  W is never
    formed or factored; the deferred sigma_t solves against L.
    """
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(gamma > 0):
        raise ValueError("gamma must be positive")
    n = base.v.size
    dof = int(dof) if dof is not None else 2 * n
    if dof < n:
        raise ValueError("need dof >= n_elements")
    g = base.chol
    low = sample_wishart_factor(n, dof, gamma / dof, rng)
    factor = low.conj().swapaxes(-1, -2)
    training = Covariance.deferred(lambda: hermitian_part(g @ cholesky_solve(low, g.conj().T)), base.v)
    return ScenarioPair(operating=base, training=training, kind="inverse_wishart",
                        params={"gamma": _block_value(gamma, low.shape[:-2]), "dof": dof},
                        whitened=WhitenedFactor(factor=factor.reshape(-1, n, n),
                                                a=(factor @ base.white_v).reshape(-1, n)))
