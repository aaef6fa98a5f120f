"""Dense complex Hermitian linear algebra for small matrices.

Cholesky factorization, Hermitian eigendecomposition, triangular/Hermitian
solves and the orthonormal complement of a unit vector.  Everything works on
plain complex ndarrays; tolerances are relative to the matrix scale because
the covariances handled here span tens of dB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NoConvergence, NotPositiveDefinite, NotUnitNorm

__all__ = [
    "HermitianEig",
    "check_hermitian",
    "cholesky",
    "cholesky_solve",
    "herm_eig",
    "hermitian_part",
    "orth_complement",
    "solve_hermitian",
]

# relative asymmetry allowed before a matrix is rejected as non-Hermitian
HERMITIAN_RTOL = 1e-12


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Exact Hermitian average 0.5 * (A + A^H)."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().T)


def check_hermitian(a) -> np.ndarray:
    """Validate that ``a`` is square and Hermitian to relative tolerance ``HERMITIAN_RTOL``.

    Returns the input as a complex ndarray.  Raises ValueError otherwise.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = np.abs(a).max() if a.size else 0.0
    if scale > 0 and np.abs(a - a.conj().T).max() > HERMITIAN_RTOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def cholesky(a) -> np.ndarray:
    """Lower-triangular G with real positive diagonal such that G G^H = A.

    Raises NotPositiveDefinite when a pivot falls at or below
    1e-12 * trace(A) / dim (pivots are the squared diagonal of G).
    """
    a = check_hermitian(a)
    n = a.shape[0]
    if n < 1:
        raise ValueError("empty matrix")
    try:
        g = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("Cholesky pivot not positive") from exc
    eps_pd = 1e-12 * np.trace(a).real / n
    if (np.diagonal(g).real ** 2 <= eps_pd).any():
        raise NotPositiveDefinite("Cholesky pivot below positive-definite threshold")
    return g


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition A = U diag(values) U^H with values sorted descending."""

    values: np.ndarray
    vectors: np.ndarray


def herm_eig(a) -> HermitianEig:
    """Hermitian eigendecomposition, eigenvalues descending.

    ``vectors[:, i]`` is the unit eigenvector of ``values[i]``.
    """
    a = check_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence("eigenvalue iteration failed") from exc
    return HermitianEig(values=values[::-1].copy(), vectors=vectors[:, ::-1].copy())


def orth_complement(v) -> np.ndarray:
    """Orthonormal basis of the complement of a unit vector v.

    Returns the N x (N-1) matrix holding the first N-1 columns of the
    Householder reflector that maps exp(-i*arg(v[N-1])) * v onto e_N; the
    construction is deterministic and satisfies V^H V = I and V^H v = 0.
    """
    v = np.asarray(v, dtype=complex).ravel()
    n = v.size
    if n < 2:
        raise ValueError("need a vector of length >= 2")
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-12:
        raise NotUnitNorm(f"expected a unit vector, got norm {norm!r}")

    phase = np.angle(v[-1]) if v[-1] != 0 else 0.0
    vt = np.exp(-1j * phase) * v
    # vt[-1] is real non-negative; tail norm computed directly for stability
    tail_sq = np.linalg.norm(vt[:-1]) ** 2
    if tail_sq == 0.0:
        return np.eye(n, dtype=complex)[:, : n - 1]
    # w = vt - e_N, last entry written as -(tail_sq)/(1+|v_N|) to avoid cancellation
    w = vt.copy()
    w[-1] = -tail_sq / (1.0 + abs(v[-1]))
    beta = 2.0 / (tail_sq + w[-1].real ** 2)
    h = np.eye(n, dtype=complex) - beta * np.outer(w, w.conj())
    return h[:, : n - 1]


def cholesky_solve(g, b) -> np.ndarray:
    """Solve (G G^H) X = B by two triangular solves with the lower factor G."""
    b = np.asarray(b, dtype=complex)
    y = solve_triangular(g, b, lower=True)
    return solve_triangular(g.conj().T, y, lower=False)


def solve_hermitian(a, b) -> np.ndarray:
    """Solve A X = B for Hermitian positive-definite A via Cholesky.

    Never forms A^-1; accepts a vector or matrix right-hand side.
    """
    return cholesky_solve(cholesky(a), b)
