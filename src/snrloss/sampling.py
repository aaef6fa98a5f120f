"""Reproducible sampling of complex Wishart matrices and chi-square
variates.

All samplers draw from an :class:`RngStream`, a thin wrapper around a
counter-based Philox generator keyed by ``(seed, stream_id)``.  Identical
keys reproduce identical sequences; distinct stream ids give independent
streams.

Convention: chi-squares are real everywhere.  A complex chi-square with p
complex degrees of freedom and noncentrality d equals 0.5 * chi2(2p, 2d), so
keeping a single real-dof convention removes a whole class of factor-of-2
bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidDof
from .linalg import hermitian_part

__all__ = [
    "RngStream",
    "sample_chi2",
    "sample_wishart",
]

_MASK64 = (1 << 64) - 1


@dataclass
class RngStream:
    """Independent, reproducible random stream keyed by (seed, stream_id)."""

    seed: int
    stream_id: int = 0
    _generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(key=key))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator


def sample_wishart(dim, dof, scale, rng: RngStream) -> np.ndarray:
    """W = X X^H with X a dim x dof complex Gaussian matrix whose columns are
    i.i.d. CN(0, scale * I); Hermitian positive definite a.s.

    Entries of X have independent real/imaginary parts of variance scale/2
    each, so E[W] = dof * scale * I.
    """
    if dof < dim:
        raise ValueError("need dof >= dim for a nonsingular Wishart draw")
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"Wishart scale must be finite and positive, got {scale!r}")
    z = rng.generator.standard_normal((2, dim, dof))
    x = np.sqrt(scale) * (np.sqrt(0.5) * (z[0] + 1j * z[1]))
    return hermitian_part(x @ x.conj().T)


def sample_chi2(dof, rng: RngStream, size=None):
    """Central real chi-square draw(s); fractional dof allowed."""
    if not dof > 0:
        raise InvalidDof(f"chi-square dof must be positive, got {dof}")
    return 2.0 * rng.generator.standard_gamma(0.5 * dof, size)
