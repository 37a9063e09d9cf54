"""Exact/float linear-algebra kernel: solvers, nullspaces, orthonormalization."""
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from lieharm import (
    DEFAULT_TOL,
    ExactModeUnsupported,
    InfeasibleSystem,
    Tolerance,
)
import lieharm
from lieharm import _linalg as la

from conftest import rand_pd


def frac_matrix(rows):
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = Fraction(v)
    return out


def test_tolerance_threshold_scales_with_data():
    tol = Tolerance(1e-9, 1e-9)
    assert tol.threshold(0.0) == pytest.approx(1e-9)
    assert tol.threshold(100.0) == pytest.approx(1e-9 + 1e-7)
    assert tol.scaled(10.0).threshold(0.0) == pytest.approx(1e-8)


def test_matrix_exp_exact_nilpotent():
    m = la.zeros((3, 3), exact=True)
    m[0, 1] = Fraction(1)
    m[1, 2] = Fraction(2)
    out = la.matrix_exp(m)
    assert out[0, 2] == Fraction(1)  # 1*2/2!
    assert out[0, 1] == Fraction(1) and out[1, 2] == Fraction(2)
    m[0, 0] = Fraction(1)  # not nilpotent any more
    with pytest.raises(ExactModeUnsupported):
        la.matrix_exp(m)


def test_is_exact_detects_object_arrays():
    assert la.is_exact(frac_matrix([[1, 2], [3, 4]]))
    assert not la.is_exact(np.eye(2))


def test_exact_solve_and_inverse_are_rational():
    m = frac_matrix([[2, 1], [1, 1]])
    b = np.array([Fraction(1), Fraction(0)], dtype=object)
    x = la.exact_solve(m, b)
    assert list(m @ x) == list(b)
    assert all(isinstance(v, Fraction) for v in x)
    inv = la.exact_inv(m)
    assert np.array_equal(inv @ m, la.eye(2, exact=True))


def test_exact_solve_rejects_inconsistent_system():
    m = frac_matrix([[1, 1], [2, 2]])
    b = np.array([Fraction(1), Fraction(1)], dtype=object)
    with pytest.raises(InfeasibleSystem):
        la.exact_solve(m, b)


def test_exact_nullspace_spans_kernel():
    m = frac_matrix([[1, 2, 3], [2, 4, 6]])
    ns = la.exact_nullspace(m)
    assert ns.shape[1] == 2
    prod = m @ ns
    assert all(v == 0 for v in prod.reshape(-1))


def test_float_nullspace_matches_rank(rng):
    m = rng.normal(size=(4, 6))
    ns = la.nullspace(m, DEFAULT_TOL)
    assert ns.shape[1] == 6 - la.rank(m, DEFAULT_TOL)
    assert np.linalg.norm(m @ ns) < 1e-10


def test_solve_linear_least_squares_consistency(rng):
    m = rng.normal(size=(5, 3))
    x_true = rng.normal(size=3)
    b = m @ x_true
    x = la.solve_linear(m, b, DEFAULT_TOL)
    assert np.allclose(x, x_true, atol=1e-10)


def test_solve_linear_flags_unsolvable(rng):
    m = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(InfeasibleSystem):
        la.solve_linear(m, np.array([1.0, 1.0]), DEFAULT_TOL)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_solve_linear_block_of_right_hand_sides(exact):
    """An (n, k) block is solved column by column: the same shape and
    values in both modes, and each column is the single-vector solution."""
    m = la.as_matrix([[1, 2], [0, 1], [1, 0]], exact)
    b = la.as_matrix([[3, 1, 0], [1, 0, 2], [1, 1, -4]], exact)
    x = la.solve_linear(m, b, DEFAULT_TOL)
    assert x.shape == (2, 3)
    assert np.allclose(la.to_float(x), [[1, 1, -4], [1, 0, 2]], atol=1e-12)
    for j in range(3):
        assert np.allclose(la.to_float(la.solve_linear(m, b[:, j], DEFAULT_TOL)),
                           la.to_float(x[:, j]), atol=1e-12)
    assert la.solve_linear(m, b[:, :0], DEFAULT_TOL).shape == (2, 0)
    if exact:
        assert all(isinstance(v, Fraction) for v in x.ravel())


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_solve_linear_block_flags_an_inconsistent_later_column(exact):
    m = la.as_matrix([[1, 0], [0, 1], [0, 0]], exact)
    b = la.as_matrix([[1, 1], [2, 0], [0, 1]], exact)     # column 1 leaves the span
    with pytest.raises(InfeasibleSystem):
        la.solve_linear(m, b, DEFAULT_TOL)
    assert la.solve_linear(m, b[:, :1], DEFAULT_TOL).shape == (2, 1)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_span_and_kernel_residuals_of_a_block(exact):
    basis = la.as_matrix([[1, 0], [0, 1], [0, 0]], exact)
    vecs = la.as_matrix([[1, 2, 0], [3, 0, 0], [0, 5, -1]], exact)
    expected = [[0, 0, 0], [0, 0, 0], [0, 5, -1]]
    for residual in (la.span_residual, la.kernel_residual):
        r = residual(basis, vecs)
        assert r.shape == (3, 3)
        assert np.allclose(la.to_float(r), expected, atol=1e-12)
        for j in range(3):
            assert np.allclose(la.to_float(residual(basis, vecs[:, j])), la.to_float(r[:, j]))


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_pair_table_is_the_bilinear_product_on_column_pairs(exact, rng):
    t = la.as_matrix(rng.integers(-3, 4, size=(4, 4, 3)), exact)
    left = la.as_matrix(rng.integers(-2, 3, size=(4, 2)), exact)
    right = la.as_matrix(rng.integers(-2, 3, size=(4, 5)), exact)
    table = la.pair_table(t, left, right)
    assert table.shape == (2, 5, 3) and table.dtype == t.dtype
    expected = np.einsum("ai,bj,abm->ijm", *(la.to_float(x) for x in (left, right, t)))
    assert np.array_equal(la.to_float(table), expected)


def test_positive_definite_checks():
    assert la.is_positive_definite(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert not la.is_positive_definite(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(la.LinAlgDomainError):
        la.is_positive_definite(np.array([[1.0, 0.5], [0.4, 1.0]]))
    assert la.is_positive_definite(frac_matrix([[2, 1], [1, 2]]))
    assert not la.is_positive_definite(frac_matrix([[1, 2], [2, 1]]))


def test_matrix_exp_of_nilpotent_is_polynomial():
    n = np.array([[0.0, 1.0, 0.5], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
    expected = np.eye(3) + n + n @ n / 2.0
    assert np.allclose(la.matrix_exp(n), expected, atol=1e-13)


def test_orthonormal_basis_diagonalizes_gram(rng):
    g = rand_pd(rng, 4)
    f = la.orthonormal_basis(g)
    assert np.allclose(f.T @ g @ f, np.eye(4), atol=1e-10)


def test_orthonormalize_in_metric(rng):
    g = rand_pd(rng, 4)
    cols = rng.normal(size=(4, 2))
    q = la.orthonormalize_in_metric(cols, g, DEFAULT_TOL)
    assert np.allclose(q.T @ g @ q, np.eye(2), atol=1e-10)
    # same span
    assert la.rank(np.concatenate([cols, q], axis=1), DEFAULT_TOL) == 2


def test_span_residual_zero_inside_span(rng):
    basis = rng.normal(size=(5, 2))
    v = basis @ rng.normal(size=2)
    assert np.linalg.norm(la.span_residual(basis, v)) < 1e-10
    w = rng.normal(size=5)
    resid = la.span_residual(basis, w)
    # the residual is what remains after the best approximation in the span
    assert np.linalg.norm(resid) <= np.linalg.norm(w) + 1e-12


def test_exact_mode_refuses_float_only_operations():
    m = frac_matrix([[1, 0], [0, 1]])
    with pytest.raises(ExactModeUnsupported):
        la.orthonormal_basis(m)


def test_scipy_is_imported_on_the_first_float_exponential():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lieharm.__file__)))
    code = ("import sys, numpy, lieharm\n"
            "print('scipy' in sys.modules)\n"
            "lieharm._linalg.matrix_exp(numpy.zeros((2, 2)))\n"
            "print('scipy' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert out.stdout.split() == ["False", "True"]
