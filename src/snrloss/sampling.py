"""Reproducible sampling of complex Wishart matrices.

All samplers draw from an :class:`RngStream`, a thin wrapper around a
counter-based Philox generator keyed by ``(seed, stream_id)``.  Identical
keys reproduce identical sequences; distinct stream ids give independent
streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite
from .linalg import hermitian_part

__all__ = [
    "RngStream",
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


def sample_wishart(dim, dof, scale, rng) -> np.ndarray:
    """W = X X^H with X a dim x dof complex Gaussian matrix whose columns are
    i.i.d. CN(0, scale * I); Hermitian positive definite a.s.

    Entries of X have independent real/imaginary parts of variance scale/2
    each, so E[W] = dof * scale * I.  Given a sequence of B streams and a
    scale (or B scales), returns the B x dim x dim stack whose matrix i is
    drawn from stream i, as the stream alone would draw it.

    A scale that is 0 or inf, as a positive one rounds to when it leaves the
    range of a float, raises NotPositiveDefinite: W would be 0 or not finite.
    """
    if dof < dim:
        raise ValueError("need dof >= dim for a nonsingular Wishart draw")
    streams = [rng] if isinstance(rng, RngStream) else list(rng)
    scales = np.broadcast_to(np.asarray(scale, dtype=float), (len(streams),))
    if np.isnan(scales).any() or (scales < 0).any():
        raise ValueError(f"Wishart scale must be finite and positive, got {scale!r}")
    if not (np.isfinite(scales) & (scales > 0)).all():
        raise NotPositiveDefinite(f"Wishart scale {scale!r} rounds to 0 or inf")
    # X per stream, exactly as one stream draws it; a stack of the B draws
    # would only add the block's largest temporary (256 KiB at 16x32)
    w = np.empty((len(streams), dim, dim), dtype=complex)
    for i, (stream, scale_i) in enumerate(zip(streams, scales)):
        z = stream.generator.standard_normal((2, dim, dof))
        x = np.sqrt(scale_i) * (np.sqrt(0.5) * (z[0] + 1j * z[1]))
        w[i] = x @ x.conj().T
    w = hermitian_part(w)
    return w[0] if isinstance(rng, RngStream) else w
