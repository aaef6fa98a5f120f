"""Reproducible sampling of complex Wishart matrices.

All samplers draw from an :class:`RngStream`, a thin wrapper around a
counter-based Philox generator keyed by ``(seed, stream_id)``.  Identical
keys reproduce identical sequences; distinct stream ids give independent
streams.  Every layer that draws takes one stream or a sequence of them
through :func:`each_stream`, or, to write each stream's draws in place,
through the ``_streams`` it is built on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite

__all__ = [
    "RngStream",
    "each_stream",
    "sample_wishart_factor",
]

_MASK64 = (1 << 64) - 1
_SQRT_HALF = np.sqrt(0.5)


@functools.cache
def _key_type():
    """The seed-sequence type whose state is a Philox key as given.  Philox
    builds its key from the two 64-bit words ``generate_state`` returns;
    passed ``key=`` instead, it still seeds a ``SeedSequence`` from OS
    entropy, which it then ignores.  Made on first use, so that importing
    the package does not load ``numpy.random``."""

    class Key(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self._words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is two 64-bit words")
            return self._words

    return Key


@dataclass
class RngStream:
    """Independent, reproducible random stream keyed by (seed, stream_id).

    Its generator is Philox with key (seed mod 2^64, stream_id mod 2^64) and
    counter 0: the stream ``np.random.Philox(key=...)`` gives, built without
    reading OS entropy.
    """

    seed: int
    stream_id: int = 0
    _generator: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        key = np.array([self.seed & _MASK64, self.stream_id & _MASK64], dtype=np.uint64)
        self._generator = np.random.Generator(np.random.Philox(_key_type()(key)))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator


def _streams(rng):
    """The streams of ``rng``, one stream or a sequence of them, and the
    batch shape of their results: () for one stream, (B,) for B."""
    if isinstance(rng, RngStream):
        return [rng], ()
    return rng, (len(rng),)


def each_stream(rng, draw):
    """``draw(generator)`` of one stream, or, given a sequence of streams,
    the array of ``draw`` on each of them, stream i's at i.  Each result is
    computed as the stream alone computes it."""
    streams, batch = _streams(rng)
    results = [draw(stream.generator) for stream in streams]
    return np.array(results) if batch else results[0]


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
    streams, batch = _streams(rng)
    scales = np.asarray(scale, dtype=float)
    valid = (scales > 0) & (scales < np.inf)
    if not valid.all():
        if not (scales >= 0).all():
            raise ValueError(f"Wishart scale must be finite and positive, got {scale!r}")
        raise NotPositiveDefinite(f"Wishart scale {scale!r} rounds to 0 or inf",
                                  failed=np.broadcast_to(~valid, batch))
    shape = dof - np.arange(dim, dtype=float)
    # one row per stream, a single stream too: its gammas, then its normals
    draws = np.empty((len(streams), dim * dim))
    for row, stream in zip(draws, streams):
        stream.generator.standard_gamma(shape, out=row[:dim])
        stream.generator.standard_normal(out=row[dim:])
    column = scales.reshape(-1, 1)  # the one scale, or stream i's at i
    low = np.zeros(draws.shape, dtype=complex)  # each factor row-major
    with np.errstate(over="ignore", invalid="ignore"):  # a W that overflows is rejected below
        low[:, :: dim + 1] = np.sqrt(column * draws[:, :dim])
        low[:, _below_diagonal(dim)] = np.sqrt(column) * (_SQRT_HALF * draws[:, dim:].view(complex))
        pivots = low[:, :: dim + 1].real ** 2
        trace = (low.real**2 + low.imag**2).sum(axis=-1)  # tr W = |L|_F^2
    failed = ~np.isfinite(trace)
    if failed.any():
        raise NotPositiveDefinite("Wishart draw overflows a float", failed=failed.reshape(batch))
    failed = (pivots <= 1e-12 * trace[:, None] / dim).any(axis=-1)
    if failed.any():
        raise NotPositiveDefinite("Wishart draw has a pivot below the positive-definite threshold",
                                  failed=failed.reshape(batch))
    return low.reshape(batch + (dim, dim))


@functools.cache
def _below_diagonal(dim) -> np.ndarray:
    """Flat row-major indices of a dim x dim matrix's entries below its
    diagonal, row by row."""
    return np.flatnonzero(np.tri(dim, k=-1, dtype=bool))
