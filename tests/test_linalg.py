import mpmath
import numpy as np
import pytest

from snrloss.errors import NotPositiveDefinite
from snrloss.linalg import (
    check_hermitian,
    cholesky,
    cholesky_solve,
    herm_eig,
    hermitian_part,
    reflect,
    solve_triangular,
)
from snrloss.scenarios import steering_vector


def random_hermitian_pd(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return b @ b.conj().T + 0.1 * np.eye(n)


def random_hermitian(n, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (b + b.conj().T)


class TestCholesky:
    def test_identity(self):
        assert np.allclose(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        g = cholesky(np.diag([4.0, 9.0]))
        assert np.allclose(g, np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_reconstruction(self, n, seed):
        a = random_hermitian_pd(n, seed)
        g = cholesky(a)
        assert np.linalg.norm(g @ g.conj().T - a) / np.linalg.norm(a) < 1e-10
        # lower triangular with real positive diagonal
        assert np.allclose(np.triu(g, 1), 0.0)
        assert np.all(np.diagonal(g).real > 0)
        assert np.allclose(np.diagonal(g).imag, 0.0)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag([1.0, -1.0]))

    def test_near_singular_pivot(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag([1.0, 1e-17]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))


def char_poly_roots_3x3(a):
    """Eigenvalues of a 3x3 Hermitian matrix by bisection on det(A - x I)."""

    def det(x):
        m = a - x * np.eye(3)
        d = (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
        return d.real

    bound = np.abs(a).sum() + 1.0
    grid = np.linspace(-bound, bound, 20001)
    vals = np.array([det(x) for x in grid])
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]:
        lo, hi = grid[i], grid[i + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.sign(det(mid)) == np.sign(det(lo)):
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return np.array(sorted(roots, reverse=True))


class TestHermEig:
    def test_identity(self):
        eig = herm_eig(np.eye(4))
        assert np.allclose(eig.values, 1.0)

    def test_rank_one_update(self):
        # I + u u^H with |u|^2 = 3 has eigenvalues (4, 1, ..., 1)
        rng = np.random.default_rng(7)
        u = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        u *= np.sqrt(3) / np.linalg.norm(u)
        eig = herm_eig(np.eye(5) + np.outer(u, u.conj()))
        assert eig.values[0] == pytest.approx(4.0, abs=1e-10)
        assert np.allclose(eig.values[1:], 1.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_characteristic_roots(self, seed):
        a = random_hermitian(3, seed)
        eig = herm_eig(a)
        roots = char_poly_roots_3x3(a)
        assert roots.size == 3
        assert np.allclose(eig.values, roots, atol=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_reconstruction_and_unitarity(self, seed):
        a = random_hermitian(6, seed)
        eig = herm_eig(a)
        scale = np.linalg.norm(a)
        rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
        assert np.linalg.norm(rebuilt - a) / scale < 1e-10
        assert np.linalg.norm(eig.vectors.conj().T @ eig.vectors - np.eye(6)) < 1e-10
        assert np.all(np.diff(eig.values) <= 1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_and_determinant(self, seed):
        a = random_hermitian_pd(5, seed)
        eig = herm_eig(a)
        assert eig.values.sum() == pytest.approx(np.trace(a).real, rel=1e-10)
        det_via_cholesky = np.prod(np.diagonal(cholesky(a)).real ** 2)
        assert np.prod(eig.values) == pytest.approx(det_via_cholesky, rel=1e-8)


def reflector(u):
    """The reflector U of each unit vector u, as reflect(u, I)."""
    return reflect(u, np.eye(np.shape(u)[-1], dtype=complex))


class TestReflect:
    """U is Hermitian and unitary and sends u onto -z e_N, z = u_N / |u_N|
    (1 where u_N = 0)."""

    def test_last_basis_vector(self):
        # u = e_N: w = 2 e_N, so U = I - 2 e_N e_N^H
        u = np.zeros(5, dtype=complex)
        u[-1] = 1.0
        assert np.array_equal(reflector(u), np.diag([1, 1, 1, 1, -1]).astype(complex))

    def test_two_dimensional(self):
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(reflector(u) @ u, [0.0, -1.0], rtol=0, atol=1e-15)

    def test_steering_vector_postconditions(self):
        u = steering_vector(17.3, 16)
        z = u[-1] / abs(u[-1])
        h = reflector(u)
        assert np.linalg.norm(h - h.conj().T) < 1e-15
        assert np.linalg.norm(h.conj().T @ h - np.eye(16)) < 1e-14
        assert np.linalg.norm(h @ u + z * np.eye(16)[-1]) < 1e-14
        assert np.linalg.norm(h[:, -1] + np.conj(z) * u) < 1e-14

    def test_zero_last_entry(self):
        # u_N = 0 takes z = 1, so U sends u onto -e_N
        u = np.array([0.6, 0.8j, 0.0])
        h = reflector(u)
        assert np.linalg.norm(h.conj().T @ h - np.eye(3)) < 1e-15
        assert np.allclose(h @ u, [0.0, 0.0, -1.0], rtol=0, atol=1e-15)

    def test_applies_the_reflector(self):
        u = steering_vector(42.0, 8)
        x = random_hermitian(8, 5)[:, :3]
        assert np.linalg.norm(reflect(u, x) - reflector(u) @ x) < 1e-13


class TestSolveHermitian:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(cholesky_solve(cholesky(np.eye(3)), b), b)

    def test_diagonal(self):
        x = cholesky_solve(cholesky(np.diag([2.0, 4.0])), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_residual(self, seed):
        a = random_hermitian_pd(6, seed)
        rng = np.random.default_rng(seed + 100)
        b = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        x = cholesky_solve(cholesky(a), b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-10


def mp_solve(a, b):
    """A^-1 B for one matrix A in 50-digit mpmath arithmetic: an mpmath
    matrix with one column per column of B (one column for a vector)."""
    b = np.asarray(b).reshape(len(b), -1)
    with mpmath.workdps(50):
        a = mpmath.matrix(a.tolist())
        x = mpmath.matrix(*b.shape)
        for j in range(b.shape[1]):
            column = mpmath.lu_solve(a, mpmath.matrix(b[:, j].tolist()))
            for i in range(b.shape[0]):
                x[i, j] = column[i]
        return x


def mp_relative_error(x, exact):
    """Normwise relative error |x - exact|_F / |exact|_F of a float solution."""
    with mpmath.workdps(50):
        got = mpmath.matrix(np.asarray(x).reshape(exact.rows, -1).tolist())
        return float(mpmath.mnorm(got - exact, "f") / mpmath.mnorm(exact, "f"))


def unit_vectors(rng, count, n):
    z = rng.standard_normal((count, n, 2)).view(complex)[..., 0]
    return np.array([row / np.linalg.norm(row) for row in z])


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestStacks:
    """Each function treats every matrix (vector) of a stack exactly as it
    treats that matrix alone, bit for bit.  The 200 vectors include dozens
    where ``abs`` of a complex array and of a complex scalar differ by an
    ulp, with glibc on x86-64; ``reflect`` takes |u_N| from the real and
    imaginary parts, in the same array code for one vector and a stack."""

    @pytest.fixture(scope="class")
    def vectors(self):
        return unit_vectors(np.random.default_rng(3), 200, 32)

    @pytest.fixture(scope="class")
    def matrices(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal((200, 16, 16)) + 1j * rng.standard_normal((200, 16, 16))
        return b @ b.conj().swapaxes(-1, -2) + 0.1 * np.eye(16)

    def test_reflect(self, vectors):
        x = vectors[:, :, None] * vectors[::-1, None, :16]
        stacked = reflect(vectors, x)
        shared = reflect(vectors, x[0])
        assert stacked.shape == shared.shape == (200, 32, 16)
        for i, vector in enumerate(vectors):
            assert np.array_equal(stacked[i], reflect(vector, x[i]))
            assert np.array_equal(shared[i], reflect(vector, x[0]))
        assert np.array_equal(reflect(vectors.reshape(2, 100, 32), x.reshape(2, 100, 32, 16)),
                              stacked.reshape(2, 100, 32, 16))

    def test_hermitian_part_and_check(self, matrices):
        stacked = hermitian_part(matrices)
        for matrix, part in zip(matrices, stacked):
            assert np.array_equal(part, hermitian_part(matrix))
        assert np.array_equal(check_hermitian(stacked), stacked)

    def test_cholesky_and_solves(self, matrices):
        a = hermitian_part(matrices)
        g = cholesky(a)
        rhs = np.random.default_rng(4).standard_normal((16, 3)) + 0j
        x = cholesky_solve(g, rhs)
        y = cholesky_solve(g, rhs[:, 0])
        for i in range(len(a)):
            assert np.array_equal(g[i], cholesky(a[i]))
            assert np.array_equal(x[i], cholesky_solve(g[i], rhs))
            assert np.array_equal(y[i], cholesky_solve(g[i], rhs[:, 0]))

    def test_herm_eig(self, matrices):
        a = hermitian_part(matrices)
        eig = herm_eig(a)
        for i in range(len(a)):
            one = herm_eig(a[i])
            assert np.array_equal(eig.values[i], one.values)
            assert np.array_equal(eig.vectors[i], one.vectors)

    @pytest.mark.parametrize("lower", [True, False])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rhs", ["vector", "matrix", "stacked matrix"])
    def test_solve_triangular_matches_scipy(self, matrices, lower, order, rhs):
        # scipy's LAPACK solve is the oracle for the whole stack and 50-digit
        # mpmath for its first matrix, where the numpy substitution may err
        # at most 4 times as much as LAPACK does
        from scipy.linalg import solve_triangular as scipy_solve

        g = cholesky(hermitian_part(matrices))
        tri = g if lower else g.conj().swapaxes(-1, -2)
        # each matrix C- or Fortran-ordered
        tri = np.ascontiguousarray(tri) if order == "C" else np.ascontiguousarray(tri.swapaxes(-1, -2)).swapaxes(-1, -2)
        assert tri[0].flags.f_contiguous == (order == "F")
        rng = np.random.default_rng(5)
        shape = {"vector": (16,), "matrix": (16, 3), "stacked matrix": (200, 16, 3)}[rhs]
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = solve_triangular(tri, b, lower=lower)
        assert x.shape == (200, *shape[-2:]) and x.flags.c_contiguous
        for i in range(len(tri)):
            b_i = b[i] if rhs == "stacked matrix" else b
            want = scipy_solve(tri[i], b_i, lower=lower)
            assert np.linalg.norm(x[i] - want) <= 1e-13 * np.linalg.norm(want)
            if i == 0:
                assert np.array_equal(solve_triangular(tri[0], b_i, lower=lower), x[0])
                exact = mp_solve(tri[0], b_i)
                error = mp_relative_error(x[0], exact)
                assert error <= 1e-13
                assert error <= 4 * max(mp_relative_error(want, exact), 2.0**-53)

    def test_solve_triangular_rejects_non_finite(self):
        with pytest.raises(ValueError):
            solve_triangular(np.array([[1.0, 0.0], [np.inf, 1.0]]), np.ones(2), lower=True)

    @pytest.mark.parametrize("lower", [True, False])
    def test_solve_triangular_rejects_a_zero_pivot(self, lower):
        stack = np.stack([np.eye(3, dtype=complex)] * 4) + (np.tri(3, k=-1) if lower else np.tri(3, k=-1).T)
        stack[2, 1, 1] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 1"):
            solve_triangular(stack, np.ones(3), lower=lower)
        with pytest.raises(np.linalg.LinAlgError):
            solve_triangular(stack[2], np.ones((3, 2)), lower=lower)
        assert np.isfinite(solve_triangular(np.delete(stack, 2, axis=0), np.ones(3), lower=lower)).all()

    @pytest.mark.parametrize("bad", [
        np.diag([1.0, -1.0, 1.0]),  # not positive definite
        np.diag([1.0, 1e-17, 1.0]),  # a pivot below the floor
        np.diag([1.0, np.inf, 1.0]),  # not finite
        np.diag([1.0, np.nan, 1.0]),
    ])
    def test_cholesky_fails_the_stack_on_one_failing_matrix(self, bad):
        stack = np.stack([random_hermitian_pd(3, seed) for seed in range(6)])
        stack[4] = bad
        with pytest.raises(NotPositiveDefinite) as failure:
            cholesky(stack)
        assert failure.value.rows.tolist() == [4]
        with pytest.raises(NotPositiveDefinite):
            cholesky(stack[4])
        good = np.delete(stack, 4, axis=0)
        assert np.array_equal(cholesky(good), np.stack([cholesky(matrix) for matrix in good]))

    def test_check_hermitian_fails_the_stack_on_one_skewed_matrix(self):
        stack = np.stack([random_hermitian(3, seed) for seed in range(4)])
        stack[2, 0, 1] += 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            check_hermitian(stack)
