"""The harmonic-cone solver in symmetric coordinates.

``harmonic_cone`` solves for ``J = G^-1 S`` with ``S`` symmetric: n trace rows
on the n(n+1)/2 coordinates of ``S``.  ``reference_cone`` below is a verbatim
copy of the solver it replaced, which stacked the metric-symmetry rows and
the trace rows over all n^2 entries of vec(J) and took one nullspace.  Both
must give the same linear hull: in float mode up to a principal-angle sine
of 1e-10, in exact mode as equal row spaces.
"""
import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from lieharm import (
    CrossCheckError,
    EuclideanLieAlgebra,
    InnerProduct,
    LieAlgebra,
    get,
    harmonic_cone,
    harmonic_dimension_check,
)
import lieharm.cone as cone_module
from lieharm import _linalg as la
from lieharm._linalg import DEFAULT_TOL, Tolerance
from lieharm.core import _check_cross

from conftest import principal_sine, rand_pd, reference_nullspace, tower, with_metric


# ---------------------------------------------------------------------------
# the full-system solver, as the library had it
# ---------------------------------------------------------------------------


def reference_constraints(ela: EuclideanLieAlgebra) -> np.ndarray:
    """Rows of the joint linear system on vec(J) (C-order flattening)."""
    n = ela.dim
    g = ela.gram
    # metric symmetry, one row per a < b: (gram J - J^T gram)_{ab} = 0, i.e.
    # sum_c g[a, c] J[c, b] - g[c, b] J[c, a] = 0
    aa, bb = la.strict_pairs(n)
    pick = np.arange(len(aa))
    sym = la.zeros((len(aa), n, n), ela.exact)
    sym[pick, :, bb] = g[aa, :]
    sym[pick, :, aa] -= g[:, bb].T
    # trace identity, one row per k: tr(J ad_k) - tr(ad_{J b_k}) = 0, where
    # tr(J ad_k) = sum_ab J[a, b] c[k, a, b] and tr(ad_{J b_k}) = sum_m J[m, k] tr(ad_m)
    trace = ela.alg.c.copy()
    diag = np.arange(n)
    trace[diag, :, diag] -= ela.alg.ad_traces()
    return np.concatenate([sym.reshape(-1, n * n), trace.reshape(n, n * n)])


def reference_cone(ela: EuclideanLieAlgebra, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Columns spanning the hull in vec(J), identity check included."""
    n = ela.dim
    system = reference_constraints(ela)
    basis_vecs = la.nullspace(system, tol)
    eye_vec = la.eye(n, ela.exact).reshape(-1)
    _check_cross("identity operator in the harmonic-cone span",
                 la.span_residual(basis_vecs, eye_vec), 0.0, tol, lambda: np.sqrt(n))
    return basis_vecs


def reference_sym_basis(ela: EuclideanLieAlgebra, tol: Tolerance = DEFAULT_TOL):
    """The operators of the symmetric-coordinate solver as it filled them:
    each coordinate's unit scattered into both triangles of S."""
    n = ela.dim
    basis = la.nullspace(cone_module._cone_constraints(ela), tol)
    a, b = np.triu_indices(n)
    u = 1 if ela.exact else np.where(a == b, 1.0, np.sqrt(0.5))
    units = basis.T if ela.exact else basis.T * u
    sym = np.empty((basis.shape[1], n, n), basis.dtype)
    sym[:, a, b] = sym[:, b, a] = units
    return tuple(la.matmul(ela.gram_inv, sym))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def random_algebras(rng, exact: bool, top: int):
    """Catalog algebras under random metrics and random antisymmetric
    tensors, some of low rank so that the trace rows are dependent."""
    out = []
    if not exact:
        for name in ("e1", "heis3", "so3", "sl2", "nilp5", "e2flat", "aff2solv"):
            base = get(name).ela
            out.append(with_metric(base, rand_pd(rng, base.dim)))
    for n in range(1, top + 1):
        for rank in (1, n):
            a = rng.integers(-2, 3, size=(n, n, rank)) @ rng.integers(-2, 3, size=(rank, n))
            c = la.as_matrix(a - a.transpose(1, 0, 2), exact)
            if exact:
                m = la.as_matrix(rng.integers(-2, 3, size=(n, n)), exact=True)
                gram = (m.T @ m + la.eye(n, exact=True)) / Fraction(2)
            else:
                gram = rand_pd(rng, n)
            out.append(EuclideanLieAlgebra(LieAlgebra(c, name="random"), InnerProduct(gram)))
    return out


def float_copy(ela: EuclideanLieAlgebra) -> EuclideanLieAlgebra:
    """The same rational algebra and metric in float mode."""
    return EuclideanLieAlgebra(LieAlgebra(la.to_float(ela.alg.c), name=ela.name),
                               InnerProduct(la.to_float(ela.gram)), name=ela.name)


def vec_basis(res) -> np.ndarray:
    return np.stack([np.asarray(j).reshape(-1) for j in res.sym_basis], axis=1)


def float_cases(rng):
    return tower("e1", 16, False, a=1.5) + tower("heis3", 16, False) + random_algebras(rng, False, 7)


def exact_cases(rng):
    return (tower("e1", 8, True, a=Fraction(3, 2)) + tower("heis3", 8, True)
            + random_algebras(rng, True, 5))


# ---------------------------------------------------------------------------
# same hull as the full system
# ---------------------------------------------------------------------------


def test_float_spans_match_the_full_system(rng):
    """Equal dimensions and largest principal angle below 1e-10, measured by
    its sine ||Q_b - Q_a Q_a^T Q_b||_2 (arccos of the cosines bottoms out
    near 3e-8)."""
    for ela in float_cases(rng):
        q_a = reference_cone(ela)
        res = harmonic_cone(ela)
        assert res.dimension == q_a.shape[1], (ela.name, ela.dim)
        q_b, _ = np.linalg.qr(vec_basis(res))
        sine = np.linalg.norm(q_b - q_a @ (q_a.T @ q_b), 2)
        assert sine < 1e-10, (ela.name, ela.dim, sine)


def test_exact_row_spaces_match_the_full_system(rng):
    for ela in exact_cases(rng):
        old = reference_cone(ela)
        res = harmonic_cone(ela)
        new = vec_basis(res)
        assert la.is_exact(new) and res.dimension == old.shape[1], (ela.name, ela.dim)
        assert la.rank(np.concatenate([old, new], axis=1)) == old.shape[1]


def test_gathered_basis_equals_the_scattered_one(monkeypatch):
    """Bit-identical operators on the float towers (e1 to dimension 32, heis3
    to 24) and the exact towers to dimension 8, formed only when read:
    ``dimension`` and ``harmonic_dimension_check`` take no Householder
    complement, no float basis and no operators."""
    complement, calls = la._row_space_complement, []
    monkeypatch.setattr(la, "_row_space_complement",
                        lambda rows: calls.append(rows) or complement(rows))
    elas = (tower("e1", 32, False, a=1.5) + tower("heis3", 24, False)
            + tower("e1", 8, True, a=Fraction(3, 2)) + tower("heis3", 8, True))
    for ela in elas:
        res = harmonic_cone(ela)
        if ela.is_unimodular():
            assert harmonic_dimension_check(ela)[0] == res.dimension
        assert calls == [] and "sym_basis" not in vars(res), (ela.name, ela.dim)
        assert ela.exact or "basis" not in vars(res._kernel), (ela.name, ela.dim)
        new, old = res.sym_basis, reference_sym_basis(ela)
        calls.clear()
        assert res.dimension == len(new) == len(old), (ela.name, ela.dim)
        for x, y in zip(new, old):
            assert x.dtype == y.dtype and np.array_equal(x, y), (ela.name, ela.dim)


def test_cones_above_the_column_cut_match_the_full_svd():
    """The heis3 dim-24 and e1 dim-32 cone systems (300 and 528 columns)
    take the Householder-complement kernel: the same span as the full-SVD
    kernel, and Frobenius-orthonormal S = G J."""
    elas = [tower("heis3", 24, False)[-1], tower("e1", 32, False, a=1.5)[-1]]
    for ela in elas:
        system = cone_module._cone_constraints(ela)
        assert system.shape[1] > la.COMPLEMENT_MIN_COLS > system.shape[0]
        _, _, u, pos = cone_module._sym_coordinates(ela.dim, False)
        old = (reference_nullspace(system) * u[:, None])[pos]    # vec(S) columns
        res = harmonic_cone(ela)
        assert res.dimension == old.shape[1], (ela.name, ela.dim)
        s = la.matmul(ela.gram, np.stack(res.sym_basis))
        flat = s.reshape(len(s), -1)
        assert np.allclose(s, s.transpose(0, 2, 1), atol=1e-12)
        assert np.allclose(flat @ flat.T, np.eye(len(s)), atol=1e-12)
        assert principal_sine(old, flat.T) < 1e-10, (ela.name, ela.dim)


def test_float_basis_is_frobenius_orthonormal_in_s(rng):
    """The S = G J of the float basis are orthonormal in the Frobenius product."""
    for ela in random_algebras(rng, False, 5):
        s = np.stack([ela.gram @ j for j in harmonic_cone(ela).sym_basis])
        flat = s.reshape(len(s), -1)
        assert np.allclose(s, s.transpose(0, 2, 1), atol=1e-12)
        assert np.allclose(flat @ flat.T, np.eye(len(s)), atol=1e-12)


# ---------------------------------------------------------------------------
# float against exact
# ---------------------------------------------------------------------------

RATIONAL_ENTRIES = [
    ("e1", {"a": Fraction(3, 2)}),
    ("heis3", {}),
    ("so3", {}),
    ("so3", {"alphas": (Fraction(1), Fraction(1), Fraction(2))}),
    ("so3", {"alphas": (Fraction(1), Fraction(2), Fraction(3))}),
    ("sl2", {}),
    ("sl2", {"alphas": (Fraction(1), Fraction(2), Fraction(3))}),
    ("nilp5", {}),
    ("abelian", {"n": 4}),
    ("e2flat", {}),
    ("aff2solv", {"beta": Fraction(1, 2)}),
]


def test_float_and_exact_dimensions_agree():
    """Cone dimensions and the Killing-route check agree between modes on the
    rational catalog entries and the rational towers up to dimension 8."""
    elas = [get(name, exact=True, **params).ela for name, params in RATIONAL_ENTRIES]
    elas += tower("e1", 8, True, a=Fraction(3, 2)) + tower("heis3", 8, True)
    for ela in elas:
        flt = float_copy(ela)
        assert harmonic_cone(ela).dimension == harmonic_cone(flt).dimension, ela.name
        assert ela.is_unimodular() == flt.is_unimodular(), ela.name
        if ela.is_unimodular():
            assert harmonic_dimension_check(ela) == harmonic_dimension_check(flt), ela.name


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------


def test_cone_is_memoized_per_algebra_and_tolerance(monkeypatch):
    calls = []
    build = cone_module._cone_constraints
    monkeypatch.setattr(cone_module, "_cone_constraints", lambda ela: calls.append(ela) or build(ela))
    for exact in (False, True):
        ela = get("heis3", exact=exact).ela
        res = harmonic_cone(ela)
        assert harmonic_dimension_check(ela) == (4, 4)
        assert harmonic_cone(ela) is res
        assert res.sym_basis is res.sym_basis
        loose = Tolerance(1e-6, 1e-6)
        assert harmonic_cone(ela, loose) is not res
        assert harmonic_cone(ela, loose) is harmonic_cone(ela, loose)
        assert harmonic_cone(get("heis3", exact=exact).ela) is not res
    assert len(calls) == 6


def test_memoized_arrays_are_read_only():
    for exact in (False, True):
        res = harmonic_cone(get("so3", exact=exact).ela)
        for arr in (*res.sym_basis, res.sample_interior):
            with pytest.raises(ValueError):
                arr[0, 0] = 0


# ---------------------------------------------------------------------------
# ill-conditioned inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make,verdict", [
    pytest.param(lambda: get("so3", alphas=(1.0, 1.0 + 3.1622776601683795e-09, 2.0)).ela,
                 (3, 3), id="so3-delta-3.16e-9"),
    pytest.param(lambda: get("so3", alphas=(1.0, 1.0 + 5.623413251903491e-09, 2.0)).ela,
                 (3, 3), id="so3-delta-5.62e-9"),
    pytest.param(lambda: get("heis3", alpha=1e12).ela, (4, 4), id="heis3-bracket-1e12"),
])
def test_ill_conditioned_verdicts(make, verdict):
    """Three inputs of the benchmark's ill-conditioned stratum that the
    full system answered with a CrossCheckError (measured 4 or 7)."""
    assert harmonic_dimension_check(make()) == verdict


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_identity_check_still_guards_the_solver(exact, monkeypatch):
    """A kernel decision that loses the identity direction of the cone raises
    when the cone is built: in float mode its kept rows are made to include
    that direction, in exact mode its basis loses its last column."""
    ela = get("heis3", exact=exact).ela
    decide = la.kernel

    def losing(m, tol):
        k = decide(m, tol)
        if exact:
            return dataclasses.replace(k, rank=k.rank + 1, _form=lambda: k.basis[:, :-1])
        x = cone_module._identity_coordinates(ela.gram)
        return dataclasses.replace(k, rank=k.rank + 1, kept=np.vstack([k.kept, x / la.norm(x)]))

    monkeypatch.setattr(la, "kernel", losing)
    with pytest.raises(CrossCheckError, match="identity operator"):
        harmonic_cone(ela)


def test_identity_check_guards_the_formed_basis(monkeypatch):
    """Above the column cut the basis is formed on the first read of
    ``sym_basis``; a Householder complement that drops the identity direction
    passes the kept-row check but raises on that read."""
    ela = tower("heis3", 24, False)[-1]
    x = cone_module._identity_coordinates(ela.gram)
    x = x / la.norm(x)
    complement = la._row_space_complement
    monkeypatch.setattr(la, "_row_space_complement",
                        lambda rows: (q := complement(rows)) - np.outer(x, x @ q))
    res = harmonic_cone(ela)
    assert res.dimension == reference_nullspace(cone_module._cone_constraints(ela)).shape[1]
    with pytest.raises(CrossCheckError, match="identity operator"):
        res.sym_basis


def test_dimension_check_refuses_counts_that_differ_by_one(monkeypatch):
    """A cone one dimension too large fails the count check, whose message
    names both counts."""
    ela = get("heis3").ela
    cone = harmonic_cone(ela)
    monkeypatch.setattr(cone_module, "harmonic_cone",
                        lambda e, tol: dataclasses.replace(cone, dimension=cone.dimension + 1))
    with pytest.raises(CrossCheckError, match="measured 5, formula gives 4"):
        harmonic_dimension_check(ela)
