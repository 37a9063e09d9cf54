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

from conftest import principal_sine, rand_pd, reference_nullspace, tower


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


CUT = la.COMPLEMENT_MIN_COLS


def wide_cases():
    """Wide float matrices on both sides of the column cut."""
    rng = np.random.default_rng(9)
    unit_rows = np.eye(CUT + 40)[[0, 1, 2, 7]]       # leading unit rows: tau = 0
    return {
        "full-rank-below": rng.normal(size=(16, 136)),
        "full-rank-above": rng.normal(size=(24, 300)),
        "deficient-below": rng.normal(size=(12, 3)) @ rng.normal(size=(3, 78)),
        "deficient-above": rng.normal(size=(32, 5)) @ rng.normal(size=(5, 528)),
        "zero-above": np.zeros((8, CUT + 8)),
        "unit-rows-above": unit_rows,
        "unit-and-random-above": np.vstack([unit_rows[:2], rng.normal(size=(3, CUT + 40))]),
        "at-the-cut": rng.normal(size=(10, CUT)),
        "one-past-the-cut": rng.normal(size=(10, CUT + 1)),
    }


@pytest.mark.parametrize("name", list(wide_cases()))
def test_wide_nullspace_matches_the_full_svd(name):
    """Both routes give the full SVD's kernel dimension and an orthonormal
    basis of the same kernel; below and at the cut the basis is bit for bit
    the full SVD's, and above it a zero matrix's is the identity."""
    m = wide_cases()[name]
    old, new = reference_nullspace(m), la.nullspace(m)
    assert new.shape == old.shape
    assert np.linalg.norm(new.T @ new - np.eye(new.shape[1])) <= 1e-12
    assert np.linalg.norm(m @ new) <= 1e-10 * np.linalg.norm(m)
    assert principal_sine(old, new) <= 1e-10
    if m.shape[1] <= CUT:
        assert np.array_equal(new, old)
    elif not m.any():
        assert np.array_equal(new, np.eye(m.shape[1]))     # rank 0: the identity


@pytest.mark.parametrize("name", list(wide_cases()))
def test_rank_forms_no_basis_and_the_kept_rows_annihilate_it(name, monkeypatch):
    """``la.rank`` reads the kernel decision alone: the full SVD's verdict,
    without the Householder complement.  The kept rows are orthonormal and
    orthogonal to the basis formed afterwards."""
    m = wide_cases()[name]
    complement, calls = la._row_space_complement, []
    monkeypatch.setattr(la, "_row_space_complement",
                        lambda rows: calls.append(rows) or complement(rows))
    assert la.rank(m) == m.shape[1] - reference_nullspace(m).shape[1]
    assert calls == []
    k = la.kernel(m)
    assert np.linalg.norm(k.kept @ k.kept.T - np.eye(k.rank)) <= 1e-12
    assert np.linalg.norm(k.kept @ k.basis) <= 1e-12
    assert k.basis is k.basis and k.basis.shape[1] == k.cols - k.rank


@pytest.mark.parametrize("name, top", [("e1", 32), ("heis3", 24), ("nilp5", 20)])
def test_tall_nullspace_from_the_thin_svd_is_the_full_svd_bit_for_bit(name, top, monkeypatch):
    """The n^2 x n Killing systems of the tangent towers take the thin SVD
    (no n^2 x n^2 left factor) and keep the full SVD's basis bit for bit."""
    svd, asked = np.linalg.svd, []

    def recording_svd(m, full_matrices=True, **kw):
        asked.append(full_matrices)
        return svd(m, full_matrices=full_matrices, **kw)

    for ela in tower(name, top):
        n, c = ela.dim, ela.alg.c
        system = (c.transpose(0, 2, 1) + la.matmul(ela.gram_inv, c, ela.gram)).reshape(n, n * n).T
        old = reference_nullspace(system)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        new = la.nullspace(system)
        monkeypatch.setattr(np.linalg, "svd", svd)
        assert np.array_equal(new, old)
    assert asked and not any(asked)


def test_unit_rows_give_tau_zero_reflectors():
    """The unit-row case does exercise reflectors with tau = 0 (H = I)."""
    m = wide_cases()["unit-rows-above"]
    _, s, vh = np.linalg.svd(m, full_matrices=False)
    _, tau = np.linalg.qr(vh[: int(np.sum(s > 0.5))].T, mode="raw")
    assert (tau == 0).any()


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
