"""Euclidean Lie algebras: brackets, metric products, curvature, subalgebras."""
from fractions import Fraction

import numpy as np
import pytest

from lieharm import (
    DEFAULT_TOL,
    CrossCheckError,
    EuclideanLieAlgebra,
    InnerProduct,
    LieAlgebra,
    MetricError,
    StructureError,
    Subalgebra,
    check_jacobi,
    get,
    harmonic_cone,
    jacobi_defect,
    quotient_metric,
    second_fundamental,
)

from lieharm import _linalg as la
from lieharm._linalg import Tolerance
from lieharm.core import LeviCivitaProduct, _check_cross

from conftest import rand_pd, with_metric


def test_from_brackets_rejects_jacobi_violations():
    # [e1,e2]=e3, [e1,e3]=e1 violates the Jacobi identity
    with pytest.raises(StructureError):
        LieAlgebra.from_brackets(3, {
            (0, 1): [0.0, 0.0, 1.0],
            (0, 2): [1.0, 0.0, 0.0],
        })


def test_from_brackets_accepts_valid_structures():
    alg = get("heis3").ela.alg
    assert check_jacobi(alg)
    assert jacobi_defect(alg) < 1e-14


def test_inner_product_requires_positive_definite():
    with pytest.raises(MetricError):
        InnerProduct.of(np.array([[1.0, 2.0], [2.0, 1.0]]))
    ip = InnerProduct.of(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert ip.pair([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["e1", "heis3", "so3", "sl2", "nilp5",
                                  "e2flat", "aff2solv"])
def test_koszul_identity_defines_the_product(name, rng):
    """2 <A_u v, w> = <[u,v],w> + <[w,u],v> + <[w,v],u> for random data."""
    base = get(name).ela
    ela = with_metric(base, rand_pd(rng, base.dim))
    lc = ela.levi_civita()
    for _ in range(10):
        u, v, w = rng.normal(size=(3, ela.dim))
        lhs = 2.0 * ela.pair(lc.product(u, v), w)
        rhs = (ela.pair(ela.bracket(u, v), w)
               + ela.pair(ela.bracket(w, u), v)
               + ela.pair(ela.bracket(w, v), u))
        assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("name", ["heis3", "so3", "aff2solv"])
def test_levi_civita_torsion_and_compatibility(name, rng):
    ela = with_metric(get(name).ela, rand_pd(rng, 3))
    lc = ela.levi_civita()
    assert lc.torsion_defect() < 1e-12
    assert lc.compatibility_defect() < 1e-12


def test_unimodular_vector_of_nonunimodular_solvable():
    # [e,f] = a e means tr(ad_f) = -a, so the trace covector is (0, -a)
    ela = get("e1", a=2.0).ela
    u = ela.unimodular_vector()
    assert np.allclose(u, [0.0, -2.0], atol=1e-14)
    assert not ela.is_unimodular()


def test_unimodular_vector_exact_mode():
    ela = get("e1", a=Fraction(3, 2), exact=True).ela
    u = ela.unimodular_vector()
    assert list(u) == [Fraction(0), Fraction(-3, 2)]


@pytest.mark.parametrize("name,expected", [
    ("heis3", True), ("so3", True), ("nilp5", True), ("e2flat", True),
    ("abelian", True), ("e1", False), ("aff2solv", False), ("sl2", True),
])
def test_unimodularity_flags(name, expected, rng):
    ela = get(name).ela
    assert ela.is_unimodular() is expected
    # unimodularity does not depend on the metric
    assert with_metric(ela, rand_pd(rng, ela.dim)).is_unimodular() is expected


@pytest.mark.parametrize("alphas,kill_dim", [
    ((1.0, 1.0, 1.0), 3), ((1.0, 1.0, 2.0), 1), ((1.0, 2.0, 3.0), 0),
])
def test_killing_directions_on_rotation_algebra(alphas, kill_dim):
    ela = get("so3", alphas=alphas).ela
    basis = ela.killing_subalgebra()
    assert basis.shape[1] == kill_dim
    # every member u satisfies ad_u + ad_u* = 0
    for k in range(kill_dim):
        u = basis[:, k]
        sym = np.asarray(ela.ad(u), float) + np.asarray(ela.ad_star(u), float)
        assert np.linalg.norm(sym) < 1e-10


def test_biinvariance_detected_on_round_rotation_metric():
    assert get("so3").ela.is_biinvariant()
    assert not get("so3", alphas=(1.0, 2.0, 3.0)).ela.is_biinvariant()
    assert get("abelian", n=4).ela.is_biinvariant()


def test_adjoint_star_is_the_metric_adjoint(rng):
    ela = with_metric(get("sl2").ela, rand_pd(rng, 3))
    for _ in range(5):
        u, v, w = rng.normal(size=(3, 3))
        lhs = ela.pair(ela.bracket(u, v), w)
        rhs = ela.pair(v, np.asarray(ela.ad_star(u), float) @ w)
        assert lhs == pytest.approx(rhs, abs=1e-11)


def test_curvature_is_antisymmetric_and_flat_model_is_flat(rng):
    ela = with_metric(get("so3").ela, rand_pd(rng, 3))
    u, v = rng.normal(size=(2, 3))
    assert np.allclose(np.asarray(ela.curvature(u, v), float),
                       -np.asarray(ela.curvature(v, u), float), atol=1e-12)
    flat = get("e2flat", lam=1.3).ela
    for _ in range(5):
        u, v = rng.normal(size=(2, 3))
        assert np.linalg.norm(np.asarray(flat.curvature(u, v), float)) < 1e-12


def test_ricci_operator_is_metric_symmetric(rng):
    ela = with_metric(get("sl2").ela, rand_pd(rng, 3))
    ric = np.asarray(ela.ricci_operator(), float)
    g = np.asarray(ela.gram, float)
    assert np.allclose(g @ ric, (g @ ric).T, atol=1e-10)


def test_subalgebra_closure_validation():
    ela = get("nilp5").ela
    good = Subalgebra(ela, np.eye(5)[:, [0, 1, 2, 4]])
    assert good.dim == 4
    with pytest.raises(StructureError):
        Subalgebra(ela, np.eye(5)[:, [0, 1]])  # [e1,e2]=e3 escapes the span


def test_induced_subalgebra_metric_restricts(rng):
    ela = with_metric(get("nilp5").ela, rand_pd(rng, 5))
    cols = np.eye(5)[:, [0, 1, 2, 4]]
    sub = Subalgebra(ela, cols)
    induced = sub.induced()
    assert np.allclose(np.asarray(induced.gram, float),
                       cols.T @ np.asarray(ela.gram, float) @ cols, atol=1e-12)


def test_second_fundamental_vanishes_on_minimal_hypersurface(rng):
    ela = with_metric(get("nilp5").ela, rand_pd(rng, 5))
    sub = Subalgebra(ela, np.eye(5)[:, [0, 1, 2, 4]])
    _, mean = second_fundamental(sub)
    assert np.linalg.norm(np.asarray(mean, float)) < 1e-9


def test_quotient_metric_makes_projection_isometric_on_complement(rng):
    ela = with_metric(get("heis3").ela, rand_pd(rng, 3))
    center = np.zeros((3, 1))
    center[0, 0] = 1.0
    quotient, section = quotient_metric(ela, Subalgebra(ela, center))
    assert quotient.dim == 2
    g = np.asarray(ela.gram, float)
    assert np.allclose(section.T @ g @ section,
                       np.asarray(quotient.gram, float), atol=1e-10)
    # the complement really is metric-orthogonal to the ideal
    assert np.linalg.norm(center.T @ g @ section) < 1e-10


def test_quotient_rejects_non_ideals():
    ela = get("so3").ela  # simple: no nontrivial ideals
    line = np.zeros((3, 1))
    line[0, 0] = 1.0
    with pytest.raises(StructureError):
        quotient_metric(ela, Subalgebra(ela, line))


def test_exact_euclidean_algebra_round_trip():
    ela = get("heis3", alpha=Fraction(2), exact=True).ela
    assert ela.exact
    lc = ela.levi_civita()
    z = ela.basis(0)
    f = ela.basis(1)
    g = ela.basis(2)
    # A_f g = [f,g]/2 + correction; for the flat center directions the
    # Koszul solve stays rational
    prod = lc.product(f, g)
    assert all(isinstance(v, Fraction) for v in prod)
    assert list(ela.bracket(f, g)) == [Fraction(2), Fraction(0), Fraction(0)]
    assert np.linalg.norm(np.asarray(ela.unimodular_vector(), float)) == 0.0
    assert isinstance(ela.pair(z, z), Fraction)


def test_cross_check_allows_ten_thresholds_and_names_the_failure():
    limit = 10.0 * DEFAULT_TOL.threshold(2.0)
    assert _check_cross("route pair", np.array([limit]), np.zeros(1), DEFAULT_TOL,
                        lambda: 1.0) == limit
    with pytest.raises(CrossCheckError) as info:
        _check_cross("route pair", np.array([2.0 * limit]), np.zeros(1), DEFAULT_TOL, lambda: 1.0)
    assert str(info.value) == (f"route pair: cross-check defect {2.0 * limit:.3e} "
                               f"(scale {2.0:.3e})")


def test_cross_check_default_scale_and_returned_defect():
    # defect |(3, -4)| = 5 at the default scale 1 + 3 + 4 = 8
    first, second = np.array([3.0, 0.0]), np.array([0.0, 4.0])
    assert _check_cross("route pair", first, second, Tolerance(0.0, 1.0 / 16.0)) == 5.0
    with pytest.raises(CrossCheckError) as info:
        _check_cross("route pair", first, second, Tolerance(0.0, 0.06))
    assert str(info.value) == "route pair: cross-check defect 5.000e+00 (scale 8.000e+00)"


def test_cross_check_requires_exact_routes_to_be_equal():
    first = la.as_matrix([1, Fraction(2, 3)], exact=True)
    assert _check_cross("route pair", first, first.copy(), DEFAULT_TOL) == 0.0
    nudged = first + la.as_matrix([Fraction(1, 10**30), 0], exact=True)
    with pytest.raises(CrossCheckError, match="route pair"):
        _check_cross("route pair", first, nudged, DEFAULT_TOL)
    # counts: a loose tolerance admits floats 4.0 vs 3.0, never ints 4 vs 3
    loose = Tolerance(1.0, 1.0)
    assert _check_cross("counts", 4.0, 3.0, loose) == 1.0
    assert _check_cross("counts", 4, 4, loose) == 0.0
    with pytest.raises(CrossCheckError, match="counts"):
        _check_cross("counts", 4, 3, loose)
    # an exact zero stands for a zero array of any shape
    block = la.zeros((2, 3), exact=True)
    assert _check_cross("zero block", block, 0, DEFAULT_TOL) == 0.0
    block[1, 2] = Fraction(1, 10**30)
    with pytest.raises(CrossCheckError, match="zero block"):
        _check_cross("zero block", block, 0, DEFAULT_TOL)


def test_exact_cross_check_mismatch_beyond_the_float_range():
    """An exact mismatch is reported exactly, never through a float, so
    routes beyond the float range raise the documented error."""
    first, second = la.as_matrix([10**400], True), la.as_matrix([10**400 + 1], True)
    with pytest.raises(CrossCheckError) as info:
        _check_cross("x", first, second, DEFAULT_TOL)
    assert str(info.value) == "x: exact routes differ (largest entry gap 1)"


@pytest.mark.parametrize("exact", [False, True])
def test_exact_cross_checks_are_decided_exactly(exact, monkeypatch):
    """Routes 1e-12 apart pass the float rule and never the exact one: the
    harmonic-cone identity residual, the Killing closure and the tangential
    rows of the second fundamental form."""
    nudge = Fraction(1, 10**12) if exact else 1e-12
    residual, projector = la.kernel_residual, Subalgebra.tangential_projector
    monkeypatch.setattr(la, "kernel_residual", lambda basis, vec: residual(basis, vec) + nudge)
    monkeypatch.setattr(Subalgebra, "tangential_projector", lambda sub: projector(sub) + nudge)
    heis, nilp = get("heis3", exact=exact).ela, get("nilp5", exact=exact).ela
    hypersurface = Subalgebra(nilp, la.eye(5, exact)[:, [0, 1, 2, 4]])
    cases = (("identity operator in the harmonic-cone span", 4,
              lambda: harmonic_cone(heis).dimension),
             ("Killing directions are not bracket-closed", 1,
              lambda: heis.killing_subalgebra().shape[1]),
             ("tangential Levi-Civita part", (4, 4, 5),
              lambda: second_fundamental(hypersurface)[0].shape))
    for name, value, call in cases:
        if exact:
            with pytest.raises(CrossCheckError, match=name):
                call()
        else:
            assert call() == value


def test_unimodular_vector_is_cross_checked_at_each_tolerance(monkeypatch):
    """A loose tolerance admits a frame sum 1e-6 off; the default one, asked
    later of the same algebra, still compares the two routes and refuses it."""
    frame_sum = LeviCivitaProduct.frame_sum
    monkeypatch.setattr(LeviCivitaProduct, "frame_sum",
                        lambda lc, weights: frame_sum(lc, weights) + 1e-6)
    loose = Tolerance(1e-3, 1e-3)
    for first in ((), (loose,)):
        ela = get("e1").ela
        for tol in first:
            assert ela.unimodular_vector(tol) is ela.unimodular_vector(tol)
        with pytest.raises(CrossCheckError, match="unimodular vector"):
            ela.unimodular_vector(DEFAULT_TOL)


def test_exact_jacobi_requires_every_cyclic_sum_to_vanish(rng):
    """A float so3 under a random change of basis keeps Jacobi to rounding;
    read entrywise as exact dyadics it is not a Lie algebra.  Its two halves
    agree only to rounding too, so exactly it is not even antisymmetric
    until it is made so."""
    c = get("so3").ela.alg.c
    p = rng.normal(size=(3, 3))
    raw = np.einsum("ai,bj,abl,kl->ijk", p, p, c, np.linalg.inv(p))
    with pytest.raises(StructureError, match="antisymmetric"):
        LieAlgebra.from_tensor(raw.tolist(), exact=True, validate=False)
    moved = ((raw - raw.transpose(1, 0, 2)) / 2).tolist()
    LieAlgebra.from_tensor(moved)
    alg = LieAlgebra.from_tensor(moved, exact=True, validate=False)
    assert 0.0 < jacobi_defect(alg) < DEFAULT_TOL.threshold()
    assert not check_jacobi(alg)
    with pytest.raises(StructureError):
        LieAlgebra.from_tensor(moved, exact=True)
    for name in ("e1", "heis3", "sl2", "so3", "nilp5", "abelian", "e2flat", "aff2solv"):
        exact = get(name, exact=True).ela.alg
        assert check_jacobi(exact) and jacobi_defect(exact) == 0.0
