"""Reproducible sampling of complex Wishart matrices.

All samplers draw from an :class:`RngStream`, a thin wrapper around a
counter-based Philox generator keyed by ``(seed, stream_id)``.  Identical
keys reproduce identical sequences; distinct stream ids give independent
streams.  Every layer that draws takes one stream or a sequence of them
through :func:`each_stream`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite

__all__ = [
    "RngStream",
    "each_stream",
    "sample_wishart_factor",
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


def each_stream(rng, draw):
    """``draw(generator)`` of one stream, or, given a sequence of streams,
    the array of ``draw`` on each of them, stream i's at i.  Each result is
    computed as the stream alone computes it."""
    if isinstance(rng, RngStream):
        return draw(rng.generator)
    return np.array([draw(stream.generator) for stream in rng])


def sample_wishart_factor(dim, dof, scale, rng) -> np.ndarray:
    """Lower-triangular L with W = L L^H complex Wishart with dof degrees of
    freedom and scale matrix scale * I, drawn through its Bartlett factor:

        L_ii = sqrt(scale * Gamma(dof - i)) for i = 0 .. dim-1,
        L_ij ~ CN(0, scale) for i > j,

    the direct sampler's factor times sqrt(scale).  A stream draws the dim
    gammas, then the real and imaginary parts of the entries below the
    diagonal, row by row.  E[W] = dof * scale * I, and L is W's Cholesky
    factor, so W is never formed or factored.  Given a sequence of B streams
    and a scale (or B scales), returns the B x dim x dim stack whose factor
    i is drawn from stream i, as the stream alone would draw it.

    A scale that is 0 or inf, as a positive one rounds to when it leaves the
    range of a float, a finite scale whose W overflows a float
    (tr W = |L|_F^2 is not finite), and a draw with a pivot
    L_ii^2 <= 1e-12 * tr W / dim (the floor of
    :func:`~snrloss.linalg.cholesky`) raise NotPositiveDefinite, naming the
    streams that fail.
    """
    if dof < dim:
        raise ValueError("need dof >= dim for a nonsingular Wishart draw")
    shape = dof - np.arange(dim, dtype=float)
    draws = each_stream(rng, lambda generator: np.concatenate(
        [generator.standard_gamma(shape), generator.standard_normal(dim * (dim - 1))]))
    batch = draws.shape[:-1]
    scales = np.broadcast_to(np.asarray(scale, dtype=float), batch)
    if not (scales >= 0).all():
        raise ValueError(f"Wishart scale must be finite and positive, got {scale!r}")
    failed = ~((scales > 0) & (scales < np.inf))
    if failed.any():
        raise NotPositiveDefinite(f"Wishart scale {scale!r} rounds to 0 or inf", failed=failed)
    low = np.zeros(batch + (dim * dim,), dtype=complex)  # each factor row-major
    below = np.tri(dim, k=-1, dtype=bool).ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # a W that overflows is rejected below
        low[..., :: dim + 1] = np.sqrt(scales[..., None] * draws[..., :dim])
        low[..., below] = np.sqrt(scales)[..., None] * (np.sqrt(0.5) * draws[..., dim:].view(complex))
        pivots = low[..., :: dim + 1].real ** 2
        trace = (low.real**2 + low.imag**2).sum(axis=-1)  # tr W = |L|_F^2
    failed = ~np.isfinite(trace)
    if failed.any():
        raise NotPositiveDefinite("Wishart draw overflows a float", failed=failed)
    failed = (pivots <= 1e-12 * trace[..., None] / dim).any(axis=-1)
    if failed.any():
        raise NotPositiveDefinite("Wishart draw has a pivot below the positive-definite threshold", failed=failed)
    return low.reshape(batch + (dim, dim))
