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
omega22 and Schur complement.  Each mismatch family knows a whitening T0 of
its own that needs no factor of sigma_t, and gives the pair in it
(``ScenarioPair.whitened``): either Omega's spectrum in closed form, where
T0 already sends v onto a multiple of e_N and leaves Omega block diagonal,
or a factor F of S = T0 sigma T0^H = F F^H and a = T0 v.  :func:`build_omega`
then takes T = U^H T0, with U the Householder reflector whose last column is
a multiple of a / |a|, so that Omega = (U^H F)(U^H F)^H, and the Schur
complement is |a|^2 / (v^H sigma^-1 v).  It never forms, factors or solves against sigma_t.

This module computes the Omega blocks, the spectral parameters, the spec's
generalized-eigenrelation (GER) flag (the relation kills every delta_i and
makes Q central), the c_s coefficients used by the moment fits, and the
exact first three cumulants of Q.

The decomposition, like the spec and the cumulants, holds a stack of
realizations, one per row, as the random families build them: a single
pair gives a stack of one, and ``omega[i]`` is realization i's own, whose
spec is ``to_quadratic_form(omega[i], K)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, InvalidFit, NotPositiveDefinite
from .linalg import herm_eig, reflect
from .scenarios import BlockDiagonalOmega, ScenarioPair

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
    "whitened_omega",
]

# a spec is GER when m * sum_i delta_i <= GER_TOL, m = p/2: given V, term i is
# chi2 with 2 + 2 J_i dof, J_i ~ Poisson(V delta_i / 2), so the law is within
# P(sum J_i > 0) = 1 - (1 + sum delta_i)^-m <= m sum delta_i in total variation
# of the central law the GER fits approximate
GER_TOL = 1e-4


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

    The blocks are those of Omega = T sigma T^H with T = U^H T0, T0 the
    whitening of sigma_t the pair's family knows (see :func:`build_omega`).
    Another whitening T differs from it by a unitary on the first N-1
    coordinates, which rotates omega11 and omega12 but leaves ``lam``, the
    delta sums, ``omega22`` and ``omega_2_1`` as they are.
    """

    omega22: np.ndarray
    omega_2_1: np.ndarray
    lam: np.ndarray
    delta: np.ndarray

    def __len__(self) -> int:
        return len(self.omega_2_1)

    def __getitem__(self, i) -> OmegaDecomposition:
        """Realization i, with float ``omega22`` and ``omega_2_1``."""
        return OmegaDecomposition(float(self.omega22[i]), float(self.omega_2_1[i]), self.lam[i], self.delta[i])


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

    @property
    def is_ger(self):
        """m sum_i delta_i <= GER_TOL, m = p/2: a bool for one realization's
        spec, an array for a stack's."""
        central = self.p / 2.0 * self.delta.sum(axis=-1) <= GER_TOL
        return bool(central) if central.ndim == 0 else central


@dataclass(frozen=True)
class CumulantTriple:
    """First three cumulants of Q; for a stack, arrays with realization i's at i."""

    k1: float
    k2: float
    k3: float


def build_omega(pair: ScenarioPair) -> OmegaDecomposition:
    """Omega decomposition of a scenario pair (needs N >= 2), from the
    whitened form its family gives (``pair.whitened``).

    A :class:`~snrloss.scenarios.BlockDiagonalOmega` is Omega's spectrum
    itself: omega12 = 0, so every delta_i is 0 and the Schur complement is
    omega22.  A :class:`~snrloss.scenarios.WhitenedFactor` goes through
    :func:`whitened_omega`.  A block, a pair whose family drew B
    realizations, gives the decomposition of a stack of B; one pair gives a
    stack of one.
    """
    form = pair.whitened
    if form is None:
        raise ValueError("the pair carries no whitened form: only a mismatch family's pair has one")
    if isinstance(form, BlockDiagonalOmega):
        return _checked(form.lam, np.zeros_like(form.lam), form.omega22, form.omega22)
    return whitened_omega(form.factor, form.a, pair.operating.v_sigma_v)


# near the accepted dB bounds the arithmetic overflows or underflows; a block
# that is not finite, or a Schur complement that rounds to 0 or whose
# reciprocal overflows, fails as not positive definite
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def whitened_omega(factor, a, v_sigma_v) -> OmegaDecomposition:
    """Omega decomposition of a stack from a factor F (B x N x M) of
    S = T0 sigma T0^H = F F^H and a = T0 v (B x N), for a T0 that whitens
    each training covariance, and v^H sigma^-1 v.

    With u = a / |a| and U the Householder reflector of u
    (:func:`~snrloss.linalg.reflect`), which is Hermitian and unitary and
    sends u onto a unit multiple of e_N, T = U T0 whitens sigma_t and sends
    v to a multiple of e_N, and Omega = U S U = (U F)(U F)^H.  With A the
    first N-1 rows of U F and b its last row,

        omega11 = A A^H,  omega12 = A b^H,  omega22 = |b|^2,
        omega_2_1 = |a|^2 / (v^H sigma^-1 v),

    since |a|^2 = v^H sigma_t^-1 v.  Each step is array code over the stack,
    whose realization i equals, bit for bit, the decomposition of
    realization i alone.
    """
    a_norm_sq = _norm_sq(a)
    reflected = reflect(a / np.sqrt(a_norm_sq)[:, None], factor)
    head, last = reflected[:, :-1], reflected[:, -1]
    omega11 = head @ head.conj().swapaxes(-1, -2)
    omega12 = (head @ last.conj()[..., None])[..., 0]
    failed = ~(np.isfinite(omega11).all(axis=(-2, -1)) & np.isfinite(omega12).all(axis=-1))
    if failed.any():
        raise NotPositiveDefinite("Omega is not finite", failed=failed)

    eig = herm_eig(omega11)
    lam = eig.values
    delta = np.abs((eig.vectors.conj().swapaxes(-1, -2) @ omega12[..., None])[..., 0]) ** 2 / lam**2
    return _checked(lam, delta, _norm_sq(last), a_norm_sq / v_sigma_v)


def _norm_sq(x):
    """|x_i|^2 of each row of a complex stack."""
    return (x.real**2 + x.imag**2).sum(axis=-1)


def _checked(lam, delta, omega22, omega_2_1) -> OmegaDecomposition:
    """The decomposition of these numbers, once every lam_i is positive (for
    omega11 = A A^H only rounding brings a lam_i <= 0 about), every number
    finite and the Schur complement positive with a finite reciprocal, the
    spec's ``scale``."""
    failed = ~(lam[:, -1] > 0)
    if failed.any():
        raise NotPositiveDefinite(f"whitened block has smallest eigenvalue {lam[:, -1].min():.3g}", failed=failed)
    with np.errstate(divide="ignore", over="ignore"):
        reciprocal = 1.0 / omega_2_1
    failed = ~(np.isfinite(lam).all(axis=-1) & np.isfinite(delta).all(axis=-1) & np.isfinite(omega22)
               & np.isfinite(omega_2_1) & (omega_2_1 > 0) & np.isfinite(reciprocal))
    if failed.any():
        raise NotPositiveDefinite("Omega is not finite, or its Schur complement is not positive "
                                  "or has a reciprocal that overflows", failed=failed)
    return OmegaDecomposition(omega22=omega22, omega_2_1=omega_2_1, lam=lam, delta=delta)


def to_quadratic_form(omega: OmegaDecomposition, n_training) -> QuadraticFormSpec:
    """Quadratic-form parameters of the loss for K training samples.

    Each spectral term contributes two real degrees of freedom; the
    denominator has p = 2(K - N + 2), with N = len(lam) + 1 read from Omega,
    and the outside multiplier is the inverse Schur complement.

    The decomposition of a stack gives the spec of that stack: ``lam`` and
    ``delta`` keep one row per realization, ``scale`` holds one multiplier
    per realization and p is shared.  Realization i's own spec is that of
    ``omega[i]``.
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
    failed = np.asarray(p) <= 2 * k
    if failed.any():
        raise InsufficientSamples(f"E[V^-{k}] infinite for p = {p}", failed=failed)
    out = 1.0
    for i in range(1, k + 1):
        out /= p - 2.0 * i
    return out


def cumulants_q(spec: QuadraticFormSpec) -> CumulantTriple:
    """Exact first three cumulants of Q (before the outside multiplier).

    Requires p > 6 so that E[V^-3] is finite, i.e. K > N + 1, and raises
    InvalidFit when a cumulant overflows a float.  The spec of a stack gives
    arrays, realization i's cumulants at i, and its error names the
    realizations whose cumulants overflow.
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
    failed = ~(np.isfinite(k1) & np.isfinite(k2) & np.isfinite(k3))
    if failed.any():
        raise InvalidFit("a cumulant of Q overflows a float", failed=failed)
    return CumulantTriple(k1=k1, k2=k2, k3=k3)

