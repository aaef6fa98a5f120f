"""Dense complex Hermitian linear algebra for small matrices.

Cholesky factorization, Hermitian eigendecomposition, triangular/Hermitian
solves and the Householder reflection that rotates a unit vector onto the
last coordinate axis.  Everything works on plain complex ndarrays;
tolerances are relative to the matrix scale because the covariances handled
here span tens of dB.

Every function takes a single matrix (vector) or a stack of them, shape
``(..., n, n)`` (``(..., n)``), and treats each matrix of a stack exactly as
it treats a single one: the same checks, tolerances and LAPACK calls, so a
stacked result equals the one-matrix results bit for bit.  A check that
fails on some matrices of a stack raises the error each of them raises
alone, naming them in its ``rows``.  A stacked LAPACK call that fails names
no matrix, so on that path alone each matrix is redone on its own to find
them.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite

__all__ = [
    "HermitianEig",
    "check_hermitian",
    "cholesky",
    "cholesky_solve",
    "failing_alone",
    "herm_eig",
    "hermitian_part",
    "reflect",
    "solve_hermitian",
    "solve_triangular",
]

# relative asymmetry allowed before a matrix is rejected as non-Hermitian
HERMITIAN_RTOL = 1e-12


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, which
    ``scipy.linalg.solve_triangular`` calls, without the rest of
    ``scipy.linalg``.

    Importing the extension by name first runs ``scipy.linalg``'s
    ``__init__``, which loads some 40 modules this package never calls:
    6.3 MB of resident memory against 1.1 MB for the extension alone, and
    about 0.05 s of start-up (2-CPU VM).  So the extension is loaded from its
    file and taken out of ``sys.modules`` again; a later ``import
    scipy.linalg``, which no command makes, then sets the package up as
    usual, and both share one set of wrapped routines.
    The file is found through scipy's import spec, so that ``scipy``'s own
    ``__init__`` does not run either.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy_directory = importlib.util.find_spec("scipy").submodule_search_locations[0]
        directory = os.path.join(scipy_directory, "linalg")
        spec = importlib.machinery.PathFinder.find_spec(name, [directory])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
            return module
    return importlib.import_module(name)


_FLAPACK = _load_flapack()


def _adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def hermitian_part(a) -> np.ndarray:
    """Exact Hermitian average 0.5 * (A + A^H) of each matrix."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + _adjoint(a))


def check_hermitian(a) -> np.ndarray:
    """Validate that each matrix of ``a`` is square and Hermitian to relative
    tolerance ``HERMITIAN_RTOL`` of its own largest entry.

    Returns the input as a complex ndarray.  Raises ValueError otherwise.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        scale = np.abs(a).max(axis=(-2, -1))
        # an inf entry gives inf - inf = nan, which compares False: a matrix
        # that is not finite passes here, and cholesky rejects it as such
        with np.errstate(invalid="ignore"):
            skewed = (scale > 0) & (np.abs(a - _adjoint(a)).max(axis=(-2, -1)) > HERMITIAN_RTOL * scale)
        if skewed.any():
            raise ValueError("matrix is not Hermitian within tolerance")
    return a


def cholesky(a) -> np.ndarray:
    """Lower-triangular G with real positive diagonal such that G G^H = A,
    for each matrix of ``a``.

    Raises NotPositiveDefinite when a matrix is not finite or has a pivot
    at or below 1e-12 * trace(A) / dim (pivots are the squared diagonal of
    G).
    """
    a = check_hermitian(a)
    n = a.shape[-1]
    if n < 1:
        raise ValueError("empty matrix")
    failed = ~np.isfinite(a).all(axis=(-2, -1))
    if failed.any():
        raise NotPositiveDefinite("matrix is not finite", failed=failed)
    try:
        g = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky pivot not positive", failed=failing_alone(np.linalg.cholesky, a)) from exc
    eps_pd = 1e-12 * np.trace(a, axis1=-2, axis2=-1).real / n
    failed = (np.diagonal(g, axis1=-2, axis2=-1).real ** 2 <= eps_pd[..., None]).any(axis=-1)
    if failed.any():
        raise NotPositiveDefinite("Cholesky pivot below positive-definite threshold", failed=failed)
    return g


def failing_alone(routine, a, *more):
    """Mask of the matrices of the stack ``a`` on which the numpy LAPACK
    ``routine`` raises LinAlgError when given alone, with the matching item
    of each further stack in ``more``; None for a single matrix."""
    if a.ndim == 2:
        return None
    failed = np.zeros(a.shape[:-2], dtype=bool)
    for index in np.ndindex(failed.shape):
        try:
            routine(a[index], *(x[index] for x in more))
        except np.linalg.LinAlgError:
            failed[index] = True
    return failed


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition A = U diag(values) U^H with values sorted descending."""

    values: np.ndarray
    vectors: np.ndarray


def herm_eig(a) -> HermitianEig:
    """Hermitian eigendecomposition of each matrix, eigenvalues descending.

    ``vectors[..., :, i]`` is the unit eigenvector of ``values[..., i]``.
    """
    a = check_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigenvalue iteration failed", failed=failing_alone(np.linalg.eigh, a)) from exc
    return HermitianEig(values=values[..., ::-1].copy(), vectors=vectors[..., ::-1].copy())


def reflect(u, x) -> np.ndarray:
    """U X, for U = I - 2 w w^H / |w|^2 the Householder reflector of each unit
    vector u of a stack ``(..., N)`` and X the matching matrix, or one
    matrix shared by every u.

    With z = u_N / |u_N| (1 where u_N = 0), w = u + z e_N, and U is
    Hermitian and unitary, sends u onto -z e_N, and has -conj(z) u as its
    last column.  U X is formed as X - w (2 w^H X / |w|^2), in array code
    over the stack, so row i of a stack equals, bit for bit, the reflection
    by u[i] alone.
    """
    u = np.asarray(u, dtype=complex)
    last = u[..., -1]
    modulus = np.sqrt(last.real**2 + last.imag**2)
    w = u.copy()
    with np.errstate(invalid="ignore"):  # 0 / 0 where u_N = 0, which takes z = 1
        w[..., -1] += np.where(modulus > 0, last / modulus, 1.0)
    scaled = (2.0 / (w.real**2 + w.imag**2).sum(axis=-1))[..., None, None] * (w.conj()[..., None, :] @ x)
    return x - w[..., :, None] * scaled


def solve_triangular(a, b, lower=False) -> np.ndarray:
    """Solve A X = B for each triangular matrix A of ``a``.

    ``b`` is one vector, shared by every matrix, when it is 1-D, and
    otherwise a matrix or a stack of them (stack dimensions broadcast).
    Each matrix takes one LAPACK ``trtrs`` call, made exactly as
    ``scipy.linalg.solve_triangular`` makes it: a C-ordered matrix is passed
    transposed, as the Fortran-ordered matrix it then is, with ``lower``
    flipped and the transposed system solved.  Matrix solutions are
    Fortran-ordered like scipy's.  Raises ValueError on a non-finite input
    and LinAlgError on a zero pivot.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    vector = b.ndim == 1
    core = b.shape[-1:] if vector else b.shape[-2:]
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[: b.ndim - len(core)])
    a = np.broadcast_to(a, batch + a.shape[-2:])
    b = np.broadcast_to(b, batch + core)
    complex_ = np.iscomplexobj(a) or np.iscomplexobj(b)
    trtrs = _FLAPACK.ztrtrs if complex_ else _FLAPACK.dtrtrs
    x = np.empty(batch + core[::-1], dtype=complex if complex_ else float)
    if not vector:  # each matrix solution Fortran-ordered, as trtrs returns it
        x = x.swapaxes(-1, -2)
    for index in np.ndindex(batch):
        matrix = a[index]
        if matrix.flags.f_contiguous:
            x[index], info = trtrs(matrix, b[index], lower=lower)
        else:
            x[index], info = trtrs(matrix.T, b[index], lower=not lower, trans=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def cholesky_solve(g, b) -> np.ndarray:
    """Solve (G G^H) X = B by two triangular solves with the lower factor G.

    A 1-D ``b`` is one vector shared by every factor of a stack; it is
    solved as a one-column matrix, so that the intermediate solutions of a
    stack stay columns."""
    b = np.asarray(b, dtype=complex)
    vector = b.ndim == 1
    y = solve_triangular(g, b[:, None] if vector else b, lower=True)
    x = solve_triangular(_adjoint(np.asarray(g)), y, lower=False)
    return x[..., 0] if vector else x


def solve_hermitian(a, b) -> np.ndarray:
    """Solve A X = B for Hermitian positive-definite A via Cholesky.

    Never forms A^-1; accepts a vector or matrix right-hand side.
    """
    return cholesky_solve(cholesky(a), b)
