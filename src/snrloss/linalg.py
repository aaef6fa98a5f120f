"""Dense complex Hermitian linear algebra for small matrices.

Cholesky factorization, Hermitian eigendecomposition, triangular/Hermitian
solves and the Householder reflection that rotates a unit vector onto the
last coordinate axis.  Everything works on plain complex ndarrays;
tolerances are relative to the matrix scale because the covariances handled
here span tens of dB.

Every function takes a single matrix (vector) or a stack of them, shape
``(..., n, n)`` (``(..., n)``), and treats each matrix of a stack exactly as
it treats a single one: the same checks, tolerances and operations (numpy's
LAPACK routines in ``cholesky`` and ``herm_eig``, array code elsewhere), so
a stacked result equals the one-matrix results bit for bit.  A check that
fails on some matrices of a stack raises the error each of them raises
alone, naming them in its ``rows``.  A stacked LAPACK call that fails names
no matrix, so on that path alone each matrix is redone on its own to find
them.
"""

from __future__ import annotations

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
    Forward (``lower``) or back substitution by columns of A, in array code
    over the stack and right-hand-side axes: each step divides row j of X by
    its pivot and subtracts A[:, j] times it from the rows still to solve,
    so no sum runs over a matrix axis.  The solution is C-ordered, so each
    solution of a stack is laid out as a single one is.  Raises ValueError
    on a non-finite input and LinAlgError on a zero pivot.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    vector = b.ndim == 1
    if vector:
        b = b[:, None]
    pivots = np.diagonal(a, axis1=-2, axis2=-1)
    zero = np.argwhere(pivots == 0)
    if zero.size:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot at diagonal {zero[0, -1]}")
    x = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + b.shape[-2:], dtype=np.result_type(a, b, float))
    x[...] = b
    n = a.shape[-1]
    for j in range(n) if lower else range(n - 1, -1, -1):
        x[..., j, :] /= pivots[..., j, None]
        rest = slice(j + 1, n) if lower else slice(0, j)
        x[..., rest, :] -= a[..., rest, j, None] * x[..., j, None, :]
    return x[..., 0] if vector else x


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
