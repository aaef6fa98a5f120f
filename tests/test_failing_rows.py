"""Each check made on a stack names its failing rows.

For every layer a stack mixes passing rows with rows that fail different
checks.  The error a stack raises names in ``rows`` exactly the rows that
raise that error class alone, where no later check of the same class fails
too; a stack of one row is "alone".  Dropping the rows each error names and
redoing the stack, as ``sweep`` does, gives every row the error class it
gets alone, and the rows that are left the results they get alone.
"""

import numpy as np
import pytest

from snrloss.approximation import _scaled_f_linear_solve, scaled_f_fit, scaled_f_laws
from snrloss.errors import (
    DegenerateCumulants,
    InsufficientSamples,
    InvalidFit,
    NoConvergence,
    NotPositiveDefinite,
    SnrLossError,
)
from snrloss.linalg import cholesky, herm_eig
from snrloss.mismatch import (
    CumulantTriple,
    OmegaDecomposition,
    inverse_chi2_moment,
    power_sum_cumulants,
    whitened_omega,
)
from snrloss.sampling import RngStream, sample_wishart_factor
from snrloss.scenarios import Covariance, random_ger_blockdiag_mismatch, steering_vector


def _alone(run, n):
    """The error class each of rows 0..n-1 raises as a stack of one, or None."""
    classes = []
    for row in range(n):
        try:
            run([row])
        except SnrLossError as exc:
            classes.append(type(exc))
        else:
            classes.append(None)
    return classes


def _named(run, n):
    """(class, rows) of the error the stack of rows 0..n-1 raises."""
    with pytest.raises(SnrLossError) as failure:
        run(list(range(n)))
    return type(failure.value), failure.value.rows.tolist()


def assert_names_its_rows(run, n):
    """The stack's error names exactly the rows that raise its class alone."""
    error, rows = _named(run, n)
    assert rows == [row for row, alone in enumerate(_alone(run, n)) if alone is error]


def assert_peels_to_alone(run, n, equal=np.array_equal):
    """Dropping the rows each error names, until the stack passes, gives
    every row the error class it raises alone, and each row left the result
    it gets alone."""
    got, left = {}, list(range(n))
    while True:
        try:
            result = run(left)
            break
        except SnrLossError as exc:
            assert exc.rows is not None and len(exc.rows) > 0
            got.update((left[row], type(exc)) for row in exc.rows)
            left = [row for row in left if row not in got]
    alone = _alone(run, n)
    assert [got.get(row) for row in range(n)] == alone
    for position, row in enumerate(left):
        assert equal(result, position, run([row]))


def _hermitian_pd(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2 * n)) + 1j * rng.standard_normal((n, 2 * n))
    return x @ x.conj().T / (2 * n)


class TestLinalg:
    NOT_FINITE = np.diag([1.0, np.inf, 1.0]).astype(complex)
    INDEFINITE = np.diag([1.0, -1.0, 1.0]).astype(complex)  # numpy's LAPACK call fails
    BELOW_FLOOR = np.diag([1.0, 1e-17, 1.0]).astype(complex)

    @staticmethod
    def _stack(bad):
        stack = np.stack([_hermitian_pd(3, seed) for seed in range(7)])
        for row, matrix in bad.items():
            stack[row] = matrix
        return stack

    @pytest.mark.parametrize("matrix", [NOT_FINITE, INDEFINITE, BELOW_FLOOR], ids=["not_finite", "lapack", "floor"])
    def test_cholesky_names_the_rows_of_each_check(self, matrix):
        stack = self._stack({1: matrix, 4: matrix, 5: matrix})
        with pytest.raises(NotPositiveDefinite) as failure:
            cholesky(stack)
        assert failure.value.rows.tolist() == [1, 4, 5]
        assert_names_its_rows(lambda rows: cholesky(stack[rows]), len(stack))

    def test_cholesky_peels_mixed_checks_to_each_matrix_alone(self):
        stack = self._stack({0: self.BELOW_FLOOR, 2: self.INDEFINITE, 3: self.NOT_FINITE, 6: self.INDEFINITE})
        with pytest.raises(NotPositiveDefinite) as failure:
            cholesky(stack)
        assert failure.value.rows.tolist() == [3]  # the first check, finiteness, fails only there
        assert_peels_to_alone(lambda rows: cholesky(stack[rows]), len(stack),
                              lambda got, position, alone: np.array_equal(got[position], alone[0]))

    def test_a_stack_of_stacks_names_flat_rows(self):
        stack = self._stack({2: self.INDEFINITE, 5: self.INDEFINITE})[:6].reshape(2, 3, 3, 3)
        with pytest.raises(NotPositiveDefinite) as failure:
            cholesky(stack)
        assert failure.value.rows.tolist() == [2, 5]

    def test_a_single_matrix_names_no_rows(self):
        for matrix in (self.NOT_FINITE, self.INDEFINITE, self.BELOW_FLOOR):
            with pytest.raises(NotPositiveDefinite) as failure:
                cholesky(matrix)
            assert failure.value.rows is None

    def test_herm_eig_names_the_matrices_lapack_fails_on(self):
        # an infinite off-diagonal pair passes the Hermitian check, and eigh fails on it
        stack = self._stack({})
        stack[[1, 6], 0, 1] = stack[[1, 6], 1, 0] = np.inf
        with pytest.raises(NoConvergence) as failure:
            herm_eig(stack)
        assert failure.value.rows.tolist() == [1, 6]
        def run(rows):
            return herm_eig(stack[rows])

        assert_names_its_rows(run, len(stack))
        assert_peels_to_alone(run, len(stack), lambda got, position, alone: (
            np.array_equal(got.values[position], alone.values[0])
            and np.array_equal(got.vectors[position], alone.vectors[0])))


class _TinyGamma(RngStream):
    """A stream whose gamma draws are 1e-20, so that every pivot of its
    Wishart factor falls below the positive-definite floor; its normals are
    those of the RngStream with its key."""

    @property
    def generator(self):
        return self

    def standard_gamma(self, shape, out):
        out[...] = 1e-20
        return out

    def standard_normal(self, out):
        return self._generator.standard_normal(out=out)


class TestSampling:
    # 0 and inf fail the scale check; 1e308 passes it, but W overflows
    SCALES = np.array([1.0, 0.0, 1e308, 0.5, np.inf, 1e308, 2.0])

    def _run(self, rows):
        return sample_wishart_factor(3, 5, self.SCALES[rows], [RngStream(3, row) for row in rows])

    def test_the_scale_check_names_its_rows(self):
        with pytest.raises(NotPositiveDefinite) as failure:
            self._run(list(range(7)))
        assert failure.value.rows.tolist() == [1, 4]

    def test_an_overflowing_draw_names_its_rows(self):
        with pytest.raises(NotPositiveDefinite, match="overflows") as failure:
            self._run([0, 2, 3, 5, 6])
        assert failure.value.rows.tolist() == [1, 3]

    def test_peels_to_each_draw_alone(self):
        assert_peels_to_alone(self._run, len(self.SCALES),
                              lambda got, position, alone: np.array_equal(got[position], alone[0]))

    def test_a_single_stream_names_no_rows(self):
        for scale in (0.0, 1e308):
            with pytest.raises(NotPositiveDefinite) as failure:
                sample_wishart_factor(3, 5, scale, RngStream(3, 0))
            assert failure.value.rows is None
        with pytest.raises(NotPositiveDefinite, match="pivot") as failure:
            sample_wishart_factor(3, 5, 1.0, _TinyGamma(3, 0))
        assert failure.value.rows is None

    def test_the_pivot_floor_names_its_rows(self):
        def run(rows):
            streams = [_TinyGamma(3, row) if row in (2, 5) else RngStream(3, row) for row in rows]
            return sample_wishart_factor(3, 5, 1.0, streams)

        with pytest.raises(NotPositiveDefinite, match="pivot") as failure:
            run(list(range(7)))
        assert failure.value.rows.tolist() == [2, 5]
        assert_names_its_rows(run, 7)
        assert_peels_to_alone(run, 7, lambda got, position, alone: np.array_equal(got[position], alone[0]))

    def test_an_overflowing_w11_names_its_realizations(self):
        # W11's scale is 1 / (gamma (dof - (N-1))): 1e308 at rows 1 and 4
        n, dof = 4, 6
        base = Covariance(np.eye(n, dtype=complex), steering_vector(0.0, n))
        gamma = np.array([1.0, 1e-308 / (dof - n + 1), 0.5, 2.0, 1e-308 / (dof - n + 1)])

        def run(rows):
            return random_ger_blockdiag_mismatch(base, gamma[rows], [RngStream(5, row) for row in rows], w11_dof=dof)

        with pytest.raises(NotPositiveDefinite, match="overflows") as failure:
            run(list(range(5)))
        assert failure.value.rows.tolist() == [1, 4]
        assert_names_its_rows(run, 5)


class TestMismatch:
    N = 4

    def _inputs(self):
        """Factors and whitened signatures of 7 realizations: row 1's factor
        is not finite, rows 2 and 5 have a rank-deficient factor (omega11's
        smallest eigenvalue is 0), and row 4's v^H sigma^-1 v is 0, so its
        Schur complement is not finite."""
        rng = np.random.default_rng(8)
        factor = rng.standard_normal((7, self.N, self.N)) + 1j * rng.standard_normal((7, self.N, self.N))
        a = rng.standard_normal((7, self.N)) + 1j * rng.standard_normal((7, self.N))
        factor[1, 0, 0] = np.inf
        factor[[2, 5]] = np.diag([1.0, 1.0, 0.0, 1.0])
        a[[2, 5]] = np.eye(self.N)[-1]
        v_sigma_v = np.ones(7)
        v_sigma_v[4] = 0.0
        return factor, a, v_sigma_v

    def _run(self, rows):
        factor, a, v_sigma_v = self._inputs()
        return whitened_omega(factor[rows], a[rows], v_sigma_v[rows])

    def test_each_omega_check_names_its_rows(self):
        failures = []
        for rows in ([0, 1, 2, 3, 4, 5, 6], [0, 2, 3, 4, 5, 6], [0, 3, 4, 6]):
            with pytest.raises(NotPositiveDefinite) as failure:
                self._run(rows)
            failures.append([rows[row] for row in failure.value.rows])
        assert failures == [[1], [2, 5], [4]]  # not finite, smallest eigenvalue, Schur complement

    def test_omega_peels_to_each_realization_alone(self):
        def equal(got, position, alone):
            return all(np.array_equal(getattr(got[position], field), getattr(alone[0], field))
                       for field in ("omega22", "omega_2_1", "lam", "delta"))

        assert_peels_to_alone(self._run, 7, equal)

    def test_a_schur_complement_whose_reciprocal_overflows_names_its_rows(self):
        # |a|^2 / v^H sigma^-1 v = 1e-310 at rows 1 and 3: positive and finite,
        # but the spec's scale 1 / omega_2_1 would overflow
        rng = np.random.default_rng(9)
        factor = rng.standard_normal((5, self.N, self.N)) + 1j * rng.standard_normal((5, self.N, self.N))
        a = rng.standard_normal((5, self.N)) + 1j * rng.standard_normal((5, self.N))
        a[[1, 3]] *= 1e-155 / np.linalg.norm(a[[1, 3]], axis=-1, keepdims=True)

        def run(rows):
            return whitened_omega(factor[rows], a[rows], np.ones(len(rows)))

        with pytest.raises(NotPositiveDefinite, match="reciprocal") as failure:
            run(list(range(5)))
        assert failure.value.rows.tolist() == [1, 3]
        assert_names_its_rows(run, 5)
        assert_peels_to_alone(run, 5, lambda got, position, alone: np.array_equal(got[position].lam, alone[0].lam))

    def test_an_overflowing_cumulant_names_its_rows(self):
        s = [(np.array([1.0, 1e110, 2.0, 1e200]), np.zeros(4))] * 3
        with pytest.raises(InvalidFit) as failure:
            power_sum_cumulants(*s, 20.0)
        assert failure.value.rows.tolist() == [1, 3]

    def test_an_infinite_inverse_moment_names_its_rows_and_a_shared_dof_none(self):
        with pytest.raises(InsufficientSamples) as failure:
            inverse_chi2_moment(np.array([20.0, 6.0, 9.0, 4.0]), 3)
        assert failure.value.rows.tolist() == [1, 3]
        with pytest.raises(InsufficientSamples) as failure:
            inverse_chi2_moment(6.0, 3)
        assert failure.value.rows is None


class TestApproximation:
    GOOD = (1.0, 0.5, 0.75)  # fits 2.5 chi2(6.4) / chi2(18)
    DEGENERATE = (1.0, 1.0, 2.0)  # k1*k3 == 2*k2^2
    MU_AT_MOST_6 = (4.0, 80.0, -1920.0)  # formally 1*chi2(10)/chi2(4.5)
    OVERFLOW = (1e100, 1e200, 1e300)  # k2^2 overflows
    REVALIDATION = (2343.6137901294974, 1229.6793730882928, 1983.1671905517578)

    @staticmethod
    def _fit(triples):
        def run(rows):
            return scaled_f_fit(CumulantTriple(*np.array([triples[row] for row in rows]).T))

        return run

    @staticmethod
    def _equal(got, position, alone):
        return all(np.array_equal(getattr(got, field)[position], getattr(alone, field)[0])
                   for field in ("a", "num_dof", "den_dof"))

    @pytest.mark.parametrize("bad,error", [
        (DEGENERATE, DegenerateCumulants),
        (MU_AT_MOST_6, InvalidFit),
        (OVERFLOW, InvalidFit),
        (REVALIDATION, InvalidFit),
    ])
    def test_each_fit_check_names_its_rows(self, bad, error):
        run = self._fit([self.GOOD, bad, self.GOOD, bad, bad, self.GOOD])
        with pytest.raises(error) as failure:
            run(list(range(6)))
        assert failure.value.rows.tolist() == [1, 3, 4]
        assert_names_its_rows(run, 6)

    def test_each_pass_names_the_rows_of_one_check(self):
        # the overflow check comes first, then the degenerate one, then mu > 6
        # and the revalidation: each pass names the rows of one check, so the
        # first names row 3 alone, though rows 2 and 4 raise InvalidFit too
        triples = [self.DEGENERATE, self.GOOD, self.MU_AT_MOST_6, self.OVERFLOW, self.REVALIDATION, self.DEGENERATE]
        run = self._fit(triples)
        assert _named(run, 6) == (InvalidFit, [3])
        assert _alone(run, 6) == [DegenerateCumulants, None, InvalidFit, InvalidFit, InvalidFit, DegenerateCumulants]
        left = [0, 1, 2, 4, 5]
        assert _named(lambda rows: run([left[row] for row in rows]), 5) == (DegenerateCumulants, [0, 4])
        assert_peels_to_alone(run, 6, self._equal)

    def test_a_singular_linear_system_is_found_by_solving_each_alone(self):
        # k1 = k2 = 0 makes the system singular; the fit's degenerate check
        # catches it first, so the solve is run here on its own
        k = np.array([[1.0, 0.5, 0.75], [0.0, 0.0, 1.0], [2.0, 1.0, 3.0], [0.0, 0.0, 2.0]]).T
        with pytest.raises(InvalidFit, match="singular") as failure:
            _scaled_f_linear_solve(CumulantTriple(*k))
        assert failure.value.rows.tolist() == [1, 3]

    def test_a_law_that_is_not_finite_names_its_rows(self):
        # a weight near 1e10 over a Schur complement of 1e-300 makes
        # a_eff = a / omega_2_1 overflow
        rng = np.random.default_rng(4)
        lam = np.exp(rng.uniform(-1.0, 1.0, (5, 7)))
        lam[[1, 3]] *= 1e10
        omega_2_1 = np.array([1.0, 1e-300, 0.5, 1e-300, 2.0])
        omega = OmegaDecomposition(omega22=np.ones(5), omega_2_1=omega_2_1, lam=lam, delta=np.zeros((5, 7)))
        with pytest.raises(InvalidFit, match="finite and positive") as failure:
            scaled_f_laws(omega, 32)
        assert failure.value.rows.tolist() == [1, 3]

        def run(rows):
            return scaled_f_laws(OmegaDecomposition(np.ones(len(rows)), omega_2_1[rows], lam[rows],
                                                    np.zeros((len(rows), 7))), 32)

        assert_names_its_rows(run, 5)
        assert_peels_to_alone(run, 5, lambda got, position, alone: all(
            getattr(got, name)[position] == getattr(alone, name)[0] for name in ("a", "num_dof", "den_dof", "divisor")))
