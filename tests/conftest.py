"""Shared fixtures and random-instance generators for the test suite.

Every generator takes an explicit ``numpy.random.Generator`` so each test
controls its own seed and runs reproducibly.
"""
from __future__ import annotations

from typing import Iterator, List

import numpy as np
import pytest

from lieharm import (
    EuclideanLieAlgebra,
    InnerProduct,
    LieAlgebra,
    LieAlgebraMap,
    Subalgebra,
    build_semidirect,
    compose,
    get,
    inner_action_data,
    sl2_adjoint_matrix,
    tangent_semidirect,
)
from lieharm._linalg import DEFAULT_TOL, Tolerance, matrix_exp


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


def rand_pd(rng: np.random.Generator, n: int, lo: float = 0.3,
            hi: float = 3.0) -> np.ndarray:
    """Random symmetric positive-definite matrix, eigenvalues in [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = rng.uniform(lo, hi, size=n)
    return q @ np.diag(lam) @ q.T


def with_metric(ela: EuclideanLieAlgebra, gram) -> EuclideanLieAlgebra:
    """The same algebra equipped with a different inner product."""
    return EuclideanLieAlgebra(
        ela.alg, InnerProduct.of(np.asarray(gram, dtype=float)), name=ela.name
    )


def tower(name: str, top: int, exact: bool = False, **params) -> List[EuclideanLieAlgebra]:
    """The catalog algebra and its tangent algebras up to dimension ``top``."""
    ela = get(name, exact=exact, **params).ela
    out = [ela]
    while 2 * ela.dim <= top:
        ela, _ = build_semidirect(tangent_semidirect(ela))
        out.append(ela)
    return out


def reference_nullspace(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The float nullspace as the library had it before wide matrices took
    the Householder complement: the last right singular vectors of the
    full SVD, verbatim."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.size == 0:
        return np.eye(m.shape[1])[:, : m.shape[1]]
    _, s, vh = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    thr = tol.rel * smax + tol.abs
    rank = int(np.sum(s >= thr))
    return vh[rank:].T.copy()


def principal_sine(a: np.ndarray, b: np.ndarray) -> float:
    """Sine of the largest principal angle between the column spans of the
    orthonormal ``a`` and ``b``: ``||b - a a^T b||_2``."""
    return float(np.linalg.norm(b - a @ (a.T @ b), 2)) if b.size else 0.0


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_sl2(rng: np.random.Generator) -> List[float]:
    """Entries (a, b, c, d) of a random determinant-one 2x2 matrix."""
    while True:
        a = rng.uniform(-2.0, 2.0)
        if abs(a) > 0.2:
            break
    b, c = rng.uniform(-2.0, 2.0, size=2)
    d = (1.0 + b * c) / a
    return [a, b, c, d]


def derived_annihilator(ela: EuclideanLieAlgebra) -> np.ndarray:
    """Rows spanning the covectors that vanish on the derived subspace."""
    der = np.asarray(ela.alg.derived_subspace(), dtype=float)
    if der.shape[1] == 0:
        return np.eye(ela.dim)
    _, s, vt = np.linalg.svd(der.T)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if len(s) else 1.0)))
    return vt[rank:]


def random_character(ela: EuclideanLieAlgebra, rng: np.random.Generator,
                     out_dim: int = 1) -> LieAlgebraMap:
    """A random homomorphism onto an abelian algebra (kills brackets)."""
    ann = derived_annihilator(ela)
    rows = rng.normal(size=(out_dim, ann.shape[0])) @ ann
    target = with_metric(get("abelian", n=out_dim).ela, rand_pd(rng, out_dim))
    return LieAlgebraMap(ela, target, rows, name="character")


# ---------------------------------------------------------------------------
# a stream of random valid homomorphisms, mixed across many families
# ---------------------------------------------------------------------------

_AUTO_ENTRIES = ("e1", "heis3", "so3", "sl2", "nilp5", "e2flat", "aff2solv")


def _family_automorphism(rng) -> LieAlgebraMap:
    name = _AUTO_ENTRIES[rng.integers(len(_AUTO_ENTRIES))]
    ela = get(name).ela
    n = ela.dim
    u = rng.uniform(-1.0, 1.0, size=n)
    phi = matrix_exp(np.asarray(ela.ad(u), dtype=float))
    src = with_metric(ela, rand_pd(rng, n))
    tgt = with_metric(ela, rand_pd(rng, n))
    return LieAlgebraMap(src, tgt, phi, name=f"exp-ad[{name}]")


def _family_sl2(rng) -> LieAlgebraMap:
    phi = sl2_adjoint_matrix(random_sl2(rng))
    ela = get("sl2").ela
    src = with_metric(ela, rand_pd(rng, 3))
    tgt = with_metric(ela, rand_pd(rng, 3))
    return LieAlgebraMap(src, tgt, phi, name="sl2-conjugation")


def _family_character(rng) -> LieAlgebraMap:
    name = ("heis3", "nilp5", "e1", "aff2solv", "e2flat")[rng.integers(5)]
    ela = with_metric(get(name).ela, rand_pd(rng, get(name).ela.dim))
    return random_character(ela, rng, out_dim=int(rng.integers(1, 3)))


def _family_abelian(rng) -> LieAlgebraMap:
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    src = with_metric(get("abelian", n=m).ela, rand_pd(rng, m))
    tgt = with_metric(get("abelian", n=n).ela, rand_pd(rng, n))
    return LieAlgebraMap(src, tgt, rng.normal(size=(n, m)), name="abelian-map")


def _family_line(rng) -> LieAlgebraMap:
    name = _AUTO_ENTRIES[rng.integers(len(_AUTO_ENTRIES))]
    ela = get(name).ela
    src = with_metric(get("abelian", n=1).ela, rand_pd(rng, 1))
    tgt = with_metric(ela, rand_pd(rng, ela.dim))
    col = rng.normal(size=(ela.dim, 1))
    return LieAlgebraMap(src, tgt, col, name="one-parameter")


def _family_e1_self(rng) -> LieAlgebraMap:
    a = rng.uniform(0.5, 2.0)
    ela = get("e1", a=a).ela
    src = with_metric(ela, rand_pd(rng, 2))
    tgt = with_metric(ela, rand_pd(rng, 2))
    if rng.random() < 0.5:
        mat = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)], [0.0, 1.0]])
    else:  # zero first column: the factor-through-the-quotient family
        mat = np.array([[0.0, rng.uniform(-2, 2)], [0.0, rng.uniform(-2, 2)]])
    return LieAlgebraMap(src, tgt, mat, name="aff-self")


def _family_heis_to_e1(rng) -> LieAlgebraMap:
    src = with_metric(get("heis3", alpha=rng.uniform(0.5, 2.0)).ela,
                      rand_pd(rng, 3))
    tgt = with_metric(get("e1", a=rng.uniform(0.5, 2.0)).ela, rand_pd(rng, 2))
    w = rng.normal(size=2)
    s, t = rng.normal(size=2)
    mat = np.zeros((2, 3))
    mat[:, 1] = s * w
    mat[:, 2] = t * w
    return LieAlgebraMap(src, tgt, mat, name="heis-to-aff")


def _family_projection(rng) -> LieAlgebraMap:
    if rng.random() < 0.5:
        base = with_metric(get("e1", a=rng.uniform(0.5, 2.0)).ela,
                           rand_pd(rng, 2))
        _, proj = build_semidirect(tangent_semidirect(base))
        return proj
    kern_name = ("e1", "heis3", "aff2solv")[rng.integers(3)]
    kernel = with_metric(get(kern_name).ela, rand_pd(rng, get(kern_name).ela.dim))
    if kernel.dim > 3:
        kernel = with_metric(get("e1").ela, rand_pd(rng, 2))
    base = LieAlgebra.from_brackets(2, {(0, 1): [rng.uniform(0.5, 2.0), 0.0]})
    data = inner_action_data(
        kernel, base,
        InnerProduct.of(rand_pd(rng, 2)), InnerProduct.of(rand_pd(rng, 2)),
        rng.normal(size=(kernel.dim, 2)),
    )
    _, proj = build_semidirect(data)
    return proj


def _family_inclusion(rng) -> LieAlgebraMap:
    if rng.random() < 0.5:
        parent = with_metric(get("nilp5").ela, rand_pd(rng, 5))
        cols = np.eye(5)[:, [0, 1, 2, 4]]
        sub = Subalgebra(parent, cols)
        return LieAlgebraMap(sub.induced(), parent, cols, name="hypersurface")
    parent = with_metric(get("heis3").ela, rand_pd(rng, 3))
    col = np.zeros((3, 1))
    col[0, 0] = rng.uniform(0.5, 2.0)
    sub = Subalgebra(parent, col)
    return LieAlgebraMap(sub.induced(), parent, col, name="center-line")


def _family_composition(rng) -> LieAlgebraMap:
    name = ("heis3", "so3", "e2flat")[rng.integers(3)]
    ela = get(name).ela
    n = ela.dim
    g1, g2, g3 = (rand_pd(rng, n) for _ in range(3))
    u, v = rng.uniform(-1, 1, size=(2, n))
    inner = LieAlgebraMap(with_metric(ela, g1), with_metric(ela, g2),
                          matrix_exp(np.asarray(ela.ad(u), dtype=float)))
    outer = LieAlgebraMap(inner.target, with_metric(ela, g3),
                          matrix_exp(np.asarray(ela.ad(v), dtype=float)))
    return compose(outer, inner)


_HOM_FAMILIES = (
    _family_automorphism,
    _family_sl2,
    _family_character,
    _family_abelian,
    _family_line,
    _family_e1_self,
    _family_heis_to_e1,
    _family_projection,
    _family_inclusion,
    _family_composition,
)


def random_homs(rng: np.random.Generator, count: int) -> Iterator[LieAlgebraMap]:
    """Yield ``count`` random valid homomorphisms, cycling the families."""
    for k in range(count):
        yield _HOM_FAMILIES[k % len(_HOM_FAMILIES)](rng)
