"""Differential tests: every subspace computation against its basis loop.

Subalgebra closure and induced brackets, the quotient by an ideal, the
second fundamental form, the Killing closure check and the parallel defects
of ``kahler_defects`` and ``submersion_defects`` used to form one basis pair
(or one basis vector) at a time; they are now pair-table contractions with
one block solve.  The reference functions below are the old loops,
verbatim (``self`` became an argument).  Float results must agree to a
relative 1e-12 (with a unit floor, so values that are zero up to rounding
compare absolutely), exact (Fraction) results exactly, and both routes must
raise the same exception types on the same inputs.
"""
from fractions import Fraction

import numpy as np
import pytest

from lieharm import (
    EuclideanLieAlgebra,
    InnerProduct,
    KahlerStructure,
    LieAlgebra,
    LieAlgebraMap,
    StructureError,
    Subalgebra,
    build_semidirect,
    get,
    kahler_defects,
    quotient_metric,
    second_fundamental,
    submersion_defects,
    tangent_semidirect,
    tension,
)
from lieharm import _linalg as la
from lieharm._linalg import DEFAULT_TOL, Tolerance
from lieharm.core import CrossCheckError, _check_cross
from lieharm.maps import MapError, is_riemannian_submersion

from conftest import rand_pd
from test_contractions import (
    MODES,
    assert_agrees,
    assert_same_defect,
    killing_cases,
    rand_ela,
    rand_gram,
    rand_matrix,
)


def agree(new, old, exact):
    assert_agrees(new, old, exact, scale=1.0 + la.norm(old))


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def subalgebra_loop(parent, b, tol=DEFAULT_TOL):
    """Old ``Subalgebra.__post_init__``."""
    if b.ndim != 2 or b.shape[0] != parent.dim:
        raise StructureError("subalgebra basis must be parent-dim x k columns")
    if la.rank(np.asarray(b, dtype=float), tol) != b.shape[1]:
        raise StructureError("subalgebra basis columns are dependent")
    scale = 1.0 + la.norm(parent.alg.c) * la.norm(b) ** 2
    for i in range(b.shape[1]):
        for j in range(i + 1, b.shape[1]):
            br = parent.bracket(b[:, i], b[:, j])
            if la.norm(la.span_residual(b, br)) > 10 * tol.threshold(scale):
                raise StructureError("subspace is not closed under the bracket")


def induced_loop(sub):
    """Old ``Subalgebra.induced``."""
    b = sub.basis
    k = sub.dim
    brackets = {}
    for i in range(k):
        for j in range(i + 1, k):
            br = sub.parent.bracket(b[:, i], b[:, j])
            brackets[(i, j)] = la.solve_linear(b, br, sub.tol.scaled(100.0))
    alg = LieAlgebra.from_brackets(k, brackets, exact=sub.parent.exact, tol=sub.tol.scaled(100.0))
    inner = InnerProduct(b.T @ sub.parent.gram @ b)
    return EuclideanLieAlgebra(alg, inner)


def second_fundamental_loop(sub, tol=DEFAULT_TOL):
    """Old ``second_fundamental``, with :func:`induced_loop` for the
    induced algebra."""
    parent = sub.parent
    lc = parent.levi_civita()
    b = sub.basis
    k = sub.dim
    proj = sub.tangential_projector()
    normal = la.eye(parent.dim, parent.exact) - proj
    h = np.empty((k, k), dtype=object)
    for i in range(k):
        for j in range(k):
            h[i, j] = normal @ lc.product(b[:, i], b[:, j])

    induced = induced_loop(sub)
    ind_lc = induced.levi_civita()
    for i in range(k):
        for j in range(k):
            tangential = proj @ lc.product(b[:, i], b[:, j])
            ind = b @ ind_lc.product(induced.basis(i), induced.basis(j))
            _check_cross("tangential Levi-Civita part", tangential, ind, tol)

    ginv_sub = la.inv(b.T @ parent.gram @ b)
    mean = la.zeros(parent.dim, parent.exact)
    for i in range(k):
        for j in range(k):
            w = ginv_sub[i, j]
            if w != 0:
                mean = mean + w * h[i, j]
    return h, mean


def quotient_metric_loop(ela, ideal, tol=DEFAULT_TOL):
    """Old ``quotient_metric``."""
    b = ideal.basis
    scale = 1.0 + la.norm(ela.alg.c) * (1.0 + la.norm(b)) ** 2
    for i in range(ela.dim):
        for j in range(b.shape[1]):
            br = ela.bracket(ela.basis(i), b[:, j])
            if la.norm(la.span_residual(b, br)) > 10.0 * tol.threshold(scale):
                raise StructureError("subalgebra is not an ideal")

    comp = la.nullspace(b.T @ ela.gram, tol)  # complement: <b_i, .>_G = 0
    if not ela.exact:
        comp = la.orthonormalize_in_metric(comp, np.asarray(ela.gram, dtype=float), tol)
    q = comp.shape[1]
    full = np.concatenate([comp, b], axis=1)
    brackets = {}
    for i in range(q):
        for j in range(i + 1, q):
            br = ela.bracket(comp[:, i], comp[:, j])
            brackets[(i, j)] = la.solve_linear(full, br, tol.scaled(100.0))[:q]
    alg = LieAlgebra.from_brackets(q, brackets, name=f"{ela.name}/ideal",
                                   exact=ela.exact, tol=tol.scaled(100.0))
    quotient = EuclideanLieAlgebra(
        alg, InnerProduct(comp.T @ ela.gram @ comp), name=f"{ela.name}/ideal"
    )
    return quotient, comp


def killing_closure_loop(ela, tol=DEFAULT_TOL):
    """Old ``EuclideanLieAlgebra.killing_subalgebra`` (nullspace, then the
    closure check one pair at a time through ``kernel_residual``)."""
    n = ela.dim
    c = ela.alg.c
    sym = c.transpose(0, 2, 1) + la.matmul(ela.gram_inv, c, ela.gram)
    stacked = sym.reshape(n, n * n).T
    basis = la.nullspace(stacked, tol)
    scale = 1.0 + la.norm(ela.alg.c)
    for a in range(basis.shape[1]):
        for b in range(a + 1, basis.shape[1]):
            br = ela.bracket(basis[:, a], basis[:, b])
            if la.norm(la.kernel_residual(basis, br)) > 10.0 * tol.threshold(scale):
                raise CrossCheckError("Killing directions are not bracket-closed")
    return basis


def kahler_parallel_loop(ks):
    """The parallel defect of the old ``kahler_defects``."""
    base, j = ks.base, ks.operator
    lc = base.levi_civita()
    parallel = 0.0
    for i in range(base.dim):
        a = lc.operator(base.basis(i))
        parallel = max(parallel, la.norm(la.to_float(a @ j) - la.to_float(j @ a)))
    return float(parallel)


def submersion_parallel_loop(m, tol=DEFAULT_TOL):
    """The parallel defect of the old ``submersion_defects``."""
    tgt = m.target
    tau = tension(m, tol)
    lc = tgt.levi_civita()
    parallel = 0.0
    for k in range(tgt.dim):
        parallel = max(parallel, la.norm(lc.product(tgt.basis(k), tau)))
    return float(parallel)


def outcome(fn, *args):
    """``fn(*args)``, or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:            # compared by type below
        return type(exc)


# ---------------------------------------------------------------------------
# inputs: catalog subspaces in a random basis, under random metrics
# ---------------------------------------------------------------------------

#: (entry, coordinate columns, is an ideal): closed subspaces of catalog
#: algebras, from the zero subspace to the whole algebra.
SUBALGEBRAS = [
    ("e1", [], True), ("e1", [0], True), ("e1", [1], False), ("e1", [0, 1], True),
    ("heis3", [0], True), ("heis3", [0, 1], True), ("heis3", [1], False),
    ("so3", [0], False), ("so3", [0, 1, 2], True),
    ("sl2", [0], False), ("sl2", [0, 1], False),
    ("nilp5", [0, 1, 2, 4], True), ("nilp5", [2, 4], True), ("nilp5", [4], True),
    ("nilp5", [2, 3, 4], True),
    ("e2flat", [0, 1], True), ("e2flat", [2], False),
    ("aff2solv", [0, 1], True), ("aff2solv", [0, 2], False), ("aff2solv", [1, 2], False),
]

#: Subspaces that are not closed under the bracket.
NOT_CLOSED = [("heis3", [1, 2]), ("nilp5", [0, 1]), ("sl2", [1, 2]), ("e2flat", [0, 2])]


def random_change(rng, k, exact):
    """An invertible k x k matrix: upper triangular with a nonzero
    diagonal."""
    if exact:
        r = la.as_matrix(np.triu(rng.integers(-2, 3, size=(k, k)), 1), exact=True)
        for i in range(k):
            r[i, i] = Fraction(int(rng.choice([-2, -1, 1, 3])), int(rng.integers(1, 3)))
        return r
    return np.triu(rng.normal(size=(k, k)), 1) + np.diag(rng.uniform(0.5, 2.0, size=k))


def random_metric(rng, name, exact):
    """Catalog entry ``name`` under a random metric."""
    alg = get(name, exact=exact).ela.alg
    gram = rand_gram(rng, alg.dim, exact) if exact else rand_pd(rng, alg.dim)
    return EuclideanLieAlgebra(alg, InnerProduct(gram), name=name)


def subspace_cases(rng, exact, cases=SUBALGEBRAS, rounds=2):
    """``(ela, basis, label, is ideal)``: each catalog subspace under a random
    metric, in a random basis of its span."""
    for _ in range(rounds):
        for name, cols, ideal in cases:
            ela = random_metric(rng, name, exact)
            basis = la.eye(ela.dim, exact)[:, cols] @ random_change(rng, len(cols), exact)
            yield ela, basis, f"{name}{cols}", ideal


def stacked(h, k, n, exact):
    """The old object array of vectors as a (k, k, n) array."""
    out = la.zeros((k, k, n), exact)
    for i in range(k):
        for j in range(k):
            out[i, j] = h[i, j]
    return out


# ---------------------------------------------------------------------------
# subalgebras, second fundamental form, quotients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exact", MODES)
def test_subalgebra_and_induced(exact, rng):
    for ela, basis, label, _ in subspace_cases(rng, exact):
        assert subalgebra_loop(ela, basis) is None, label
        sub = Subalgebra(ela, basis)
        new, old = sub.induced(), induced_loop(sub)
        assert new.alg.c.dtype == old.alg.c.dtype, label
        agree(new.alg.c, old.alg.c, exact)
        agree(new.gram, old.gram, exact)
        assert new.name == old.name


@pytest.mark.parametrize("exact", MODES)
def test_second_fundamental(exact, rng):
    for ela, basis, label, _ in subspace_cases(rng, exact):
        sub = Subalgebra(ela, basis)
        k, n = sub.dim, ela.dim
        h, mean = second_fundamental(sub)
        h_old, mean_old = second_fundamental_loop(sub)
        assert h.shape == (k, k, n), label
        agree(h, stacked(h_old, k, n, exact), exact)
        for i in range(k):
            for j in range(k):
                agree(h[i][j], h_old[i][j], exact)
        agree(mean, mean_old, exact)


def test_second_fundamental_float_mean_is_the_loop_sum(rng):
    """On coordinate subalgebras the float mean curvature, rounding noise
    included, is bit for bit the old frame loop's (the catalog suite
    reports that noise)."""
    for _ in range(20):
        ela = EuclideanLieAlgebra(get("nilp5").ela.alg, InnerProduct(rand_pd(rng, 5)))
        sub = Subalgebra(ela, np.eye(5)[:, [0, 1, 2, 4]])
        assert np.array_equal(second_fundamental(sub)[1], second_fundamental_loop(sub)[1])


@pytest.mark.parametrize("exact", MODES)
def test_quotient_metric(exact, rng):
    for ela, basis, label, ideal in subspace_cases(rng, exact):
        sub = Subalgebra(ela, basis)
        new, old = outcome(quotient_metric, ela, sub), outcome(quotient_metric_loop, ela, sub)
        if not ideal:
            assert new is old is StructureError, label
            continue
        (quotient, section), (quotient_old, section_old) = new, old
        assert quotient.dim == ela.dim - sub.dim, label
        agree(quotient.alg.c, quotient_old.alg.c, exact)
        agree(quotient.gram, quotient_old.gram, exact)
        agree(section, section_old, exact)
        assert quotient.name == quotient_old.name == f"{ela.name}/ideal"


@pytest.mark.parametrize("exact", MODES)
def test_non_closed_subspaces_raise_in_both_routes(exact, rng):
    for ela, basis, label, _ in subspace_cases(rng, exact, [c + (False,) for c in NOT_CLOSED]):
        assert outcome(subalgebra_loop, ela, basis) is StructureError, label
        with pytest.raises(StructureError, match="not closed"):
            Subalgebra(ela, basis)


# ---------------------------------------------------------------------------
# Killing subalgebra
# ---------------------------------------------------------------------------


def non_closed_killing(exact):
    """A skew-symmetric bracket (violating Jacobi) whose Killing directions
    e0, e1 have the non-Killing bracket [e0, e1] = e2."""
    one = Fraction(1) if exact else 1.0
    rows = {(0, 1): [0, 0, one, 0], (0, 2): [0, -one, 0, 0], (1, 2): [one, 0, 0, 0],
            (2, 3): [0, 0, 0, one]}
    alg = LieAlgebra.from_brackets(4, rows, exact=exact, validate=False)
    return EuclideanLieAlgebra(alg, InnerProduct.identity(4, exact))


@pytest.mark.parametrize("exact", MODES)
def test_killing_subalgebra_against_the_pair_loop(exact, rng):
    for ela in killing_cases(rng, exact):
        ela = EuclideanLieAlgebra(ela.alg, ela.inner)     # not yet memoized
        assert_agrees(ela.killing_subalgebra(), killing_closure_loop(ela), exact)
    bad = non_closed_killing(exact)
    assert outcome(killing_closure_loop, bad) is CrossCheckError
    for _ in range(2):                  # a failed check is not memoized
        with pytest.raises(CrossCheckError, match="not bracket-closed"):
            bad.killing_subalgebra()


@pytest.mark.parametrize("exact", MODES)
def test_killing_subalgebra_is_memoized_per_tolerance(exact):
    ela = EuclideanLieAlgebra(get("so3", exact=exact).ela.alg,
                              InnerProduct(get("so3", exact=exact).ela.gram))
    first = ela.killing_subalgebra()
    assert ela.killing_subalgebra() is first
    assert ela.killing_subalgebra(Tolerance()) is first          # equal tolerances share
    assert not first.flags.writeable
    loose = ela.killing_subalgebra(Tolerance(1e-6, 1e-6))
    assert loose is not first and loose is ela.killing_subalgebra(Tolerance(1e-6, 1e-6))
    assert_agrees(loose, first, exact)
    assert ela.is_biinvariant() and first.shape[1] == 3


# ---------------------------------------------------------------------------
# parallel defects in maps.py
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exact", MODES)
def test_kahler_parallel_defect(exact, rng):
    for n in range(0, 5 if exact else 6):
        for _ in range(3):
            ks = KahlerStructure(rand_ela(rng, n, exact), rand_matrix(rng, (n, n), exact))
            new = kahler_defects(ks)["parallel_defect"]
            assert_same_defect(new, kahler_parallel_loop(ks), exact)
    ks = KahlerStructure(get("e1", exact=exact).ela, la.as_matrix([[0, -1], [1, 0]], exact))
    assert_same_defect(kahler_defects(ks)["parallel_defect"], kahler_parallel_loop(ks), exact)


def submersions(rng, exact):
    """Riemannian submersions: tangent projections (tension -U, nonzero over
    e1 and aff2solv), and e1 onto a line."""
    for name in ("e1", "aff2solv", "heis3"):
        yield build_semidirect(tangent_semidirect(random_metric(rng, name, exact)))[1]
    e1 = random_metric(rng, "e1", exact)
    line = get("abelian", n=1, exact=exact).ela
    xi = la.as_matrix([[0, 1]], exact)
    g_line = la.inv(la.matmul(xi, e1.gram_inv, xi.T))
    yield LieAlgebraMap(e1, EuclideanLieAlgebra(line.alg, InnerProduct(g_line)), xi)


@pytest.mark.parametrize("exact", MODES)
def test_submersion_parallel_defect(exact, rng):
    seen = 0.0
    for m in submersions(rng, exact):
        assert is_riemannian_submersion(m)
        new = submersion_defects(m)["parallel_defect"]
        assert_same_defect(new, submersion_parallel_loop(m), exact)
        seen = max(seen, new)
    assert seen > 0.1
    ela = get("heis3", exact=exact).ela
    with pytest.raises(MapError):
        submersion_defects(LieAlgebraMap(ela, ela, la.eye(3, exact) * 3))
