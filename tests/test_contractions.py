"""Differential tests: every whole-tensor contraction against a basis loop.

The reference functions below evaluate each identity one basis pair or
triple at a time, exactly as the library did before it switched to reshaped
matrix products.  Inputs are chosen so the quantities are generically
nonzero: antisymmetric tensors that violate Jacobi, operators that are not
derivations, matrices that are not homomorphisms, non-square maps.  Float
results must agree to a relative 1e-12; exact (Fraction) results, and the
float defects measured from them, must agree exactly.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from lieharm import (
    EuclideanLieAlgebra,
    InnerProduct,
    LieAlgebra,
    LieAlgebraMap,
    SemidirectData,
    automorphism_trace_form,
    bitension,
    check_condition,
    connection_trace,
    derivation_defect,
    get,
    jacobi_defect,
    tension_coordinate_system,
)
from lieharm import _linalg as la
from lieharm._linalg import DEFAULT_TOL
from lieharm.cone import Automorphism, _cone_constraints
from lieharm.core import CrossCheckError, StructureError

from conftest import rand_pd, random_homs, tower, with_metric

RTOL = 1e-12


def assert_agrees(new, old, exact, scale=None):
    """Exact: equal entries.  Float: |new - old| <= RTOL * scale, where
    scale defaults to |old|."""
    if exact:
        new, old = np.asarray(new), np.asarray(old)
        assert new.shape == old.shape
        assert all(Fraction(a) == Fraction(b) for a, b in zip(new.ravel(), old.ravel()))
        return
    new, old = la.to_float(new), la.to_float(old)
    assert new.shape == old.shape
    bound = RTOL * (np.linalg.norm(old) if scale is None else scale)
    assert np.linalg.norm(new - old) <= bound


def assert_same_defect(new, old, exact):
    assert isinstance(new, float)
    if exact:
        assert new == old
    else:
        assert abs(new - old) <= RTOL * old


# ---------------------------------------------------------------------------
# random inputs (float or Fraction)
# ---------------------------------------------------------------------------


def rand_matrix(rng, shape, exact):
    if not exact:
        return rng.normal(size=shape)
    num = rng.integers(-4, 5, size=shape)
    den = rng.integers(1, 4, size=shape)
    out = np.empty(shape, dtype=object)
    out.reshape(-1)[:] = [Fraction(int(a), int(b)) for a, b in zip(num.ravel(), den.ravel())]
    return out


def rand_tensor(rng, n, exact):
    """Antisymmetric structure tensor, generically violating Jacobi."""
    a = rand_matrix(rng, (n, n, n), exact)
    return a - a.transpose(1, 0, 2)


def rand_gram(rng, n, exact):
    if not exact:
        return rand_pd(rng, n)
    a = la.as_matrix(rng.integers(-2, 3, size=(n, n)), exact=True)
    return (a.T @ a + la.eye(n, exact=True)) / Fraction(2)


def rand_ela(rng, n, exact, c=None):
    alg = LieAlgebra(rand_tensor(rng, n, exact) if c is None else c, name="random")
    return EuclideanLieAlgebra(alg, InnerProduct(rand_gram(rng, n, exact)))


MODES = [pytest.param(False, id="float"), pytest.param(True, id="exact")]


def dims(exact, top=5):
    return range(0, 5 if exact else top + 1)


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def exact_max_row_norm(rows):
    """Largest row norm of an exact vector or matrix, each norm one rounding
    of the row's exact squared norm (``la.norm`` rounds every entry first)."""
    return max((math.sqrt(sum(Fraction(x) ** 2 for x in row)) for row in np.atleast_2d(rows)),
               default=0.0)


def jacobi_defect_loop(alg, norm=la.norm):
    worst = 0.0
    for i in range(alg.dim):
        ei = alg.basis(i)
        for j in range(i + 1, alg.dim):
            ej = alg.basis(j)
            for k in range(j + 1, alg.dim):
                ek = alg.basis(k)
                s = (
                    alg.bracket(alg.bracket(ei, ej), ek)
                    + alg.bracket(alg.bracket(ej, ek), ei)
                    + alg.bracket(alg.bracket(ek, ei), ej)
                )
                worst = max(worst, norm(s))
    return worst


def jacobi_defect_blocked(alg, max_row_norm=la.max_row_norm):
    """The blocked product the library used before it formed the strict-pair
    table: all n^4 entries of three products per block of ``i``."""
    n = alg.dim
    if n < 3:
        return 0.0
    c, d = la.numerators(alg.c)
    pairs = c.reshape(n * n, n)                   # [(a, b), l]
    right = c.reshape(n, n * n)                   # [l, (k, m)]
    ii, jj, kk = la.strict_triples(n)
    step = max(1, la.BLOCK_ELEMENTS // n ** 3)
    worst = 0.0
    for lo in range(0, n - 2, step):
        hi = min(lo + step, n - 2)
        b = hi - lo
        mid = np.ascontiguousarray(c[:, lo:hi])    # [l or k, i, .]
        # each term indexed [i, j, k, m] for i in [lo, hi)
        s = (pairs[lo * n:hi * n] @ right).reshape(b, n, n, n)
        s = s + (pairs @ mid.reshape(n, b * n)).reshape(n, n, b, n).transpose(2, 0, 1, 3)
        s = s + (mid.reshape(n * b, n) @ right).reshape(n, b, n, n).transpose(1, 2, 0, 3)
        first, last = np.searchsorted(ii, (lo, hi))
        rows = s[ii[first:last] - lo, jj[first:last], kk[first:last]]
        worst = max(worst, max_row_norm(la.over(rows, d * d)))
    return worst


def levi_civita_loop(ela):
    """table[i, j] = A_{e_i} e_j from the polarization identity
    2 <A_i e_j, e_k> = <[i,j],k> + <[k,i],j> + <[k,j],i>, one triple at a time."""
    n = ela.dim
    half = Fraction(1, 2) if ela.exact else 0.5
    table = la.zeros((n, n, n), ela.exact)
    for i in range(n):
        ei = ela.basis(i)
        for j in range(n):
            ej = ela.basis(j)
            cov = la.zeros(n, ela.exact)
            for k in range(n):
                ek = ela.basis(k)
                cov[k] = half * (ela.pair(ela.bracket(ei, ej), ek) + ela.pair(ela.bracket(ek, ei), ej)
                                 + ela.pair(ela.bracket(ek, ej), ei))
            table[i, j] = ela.gram_inv @ cov
    return table


def derivation_defect_loop(ela, op):
    worst = 0.0
    for i in range(ela.dim):
        ei = ela.basis(i)
        for j in range(i + 1, ela.dim):
            ej = ela.basis(j)
            d = (
                op @ ela.bracket(ei, ej)
                - ela.bracket(op @ ei, ej)
                - ela.bracket(ei, op @ ej)
            )
            worst = max(worst, la.norm(d))
    return worst


def hom_defect_loop(m):
    worst = 0.0
    for i in range(m.source.dim):
        ei = m.source.basis(i)
        for j in range(i + 1, m.source.dim):
            ej = m.source.basis(j)
            d = m.apply(m.source.bracket(ei, ej)) - m.target.bracket(
                m.apply(ei), m.apply(ej)
            )
            worst = max(worst, la.norm(d))
    return worst


def check_condition_loop(sd):
    dn, dh = sd.dim_kernel, sd.dim_base
    ker = sd.kernel
    action_defect = 0.0
    for i in range(dh):
        hi = sd.base.basis(i)
        for j in range(i + 1, dh):
            hj = sd.base.basis(j)
            lhs = np.einsum("k,kij->ij", sd.base.bracket(hi, hj), sd.rho)
            comm = sd.rho[i] @ sd.rho[j] - sd.rho[j] @ sd.rho[i]
            rhs = comm - ker.ad(sd.omega[i, j])
            action_defect = max(action_defect, la.norm(la.to_float(lhs) - la.to_float(rhs)))
    cocycle_defect = 0.0
    for i in range(dh):
        for j in range(i + 1, dh):
            for k in range(j + 1, dh):
                total = la.zeros(dn, sd.exact)
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    ha, hb, hc = sd.base.basis(a), sd.base.basis(b), sd.base.basis(c)
                    total = total + sd.rho[a] @ sd.omega[b, c]
                    total = total - np.einsum("i,j,ijk->k", sd.base.bracket(ha, hb), hc,
                                              sd.omega)
                cocycle_defect = max(cocycle_defect, la.norm(total))
    return action_defect, cocycle_defect


def cone_constraints_loop(ela):
    """Column (a, b), a <= b: the trace identity tr(J ad_k) - tr(ad_{J e_k})
    for each k, evaluated at J = G^-1 U with U the unit of coordinate (a, b)
    of S (u at (a, b) and (b, a); u = 1 on the diagonal and in exact mode,
    1/sqrt(2) off it in float mode)."""
    n = ela.dim
    exact = ela.exact
    one = Fraction(1) if exact else 1.0
    cols = []
    for aa in range(n):
        for bb in range(aa, n):
            unit = la.zeros((n, n), exact)
            unit[aa, bb] = unit[bb, aa] = one if exact or aa == bb else np.sqrt(0.5)
            j = ela.gram_inv @ unit
            col = la.zeros(n, exact)
            for k in range(n):
                adk = ela.ad(ela.basis(k))
                col[k] = np.trace(j @ adk) - np.trace(ela.ad(j @ ela.basis(k)))
            cols.append(col)
    return np.stack(cols, axis=1)


def metric_trace_loop(ela, expr):
    ginv = ela.gram_inv
    n = ela.dim
    out = None
    for i in range(n):
        for j in range(n):
            w = ginv[i, j]
            if w == 0:
                continue
            term = w * expr(ela.basis(i), ela.basis(j))
            out = term if out is None else out + term
    return out if out is not None else la.zeros(n, ela.exact)


def unimodular_loop(ela):
    """(by_trace, by_product): the two routes of the unimodular vector."""
    traces = la.zeros(ela.dim, ela.exact)
    for i in range(ela.dim):
        traces[i] = np.trace(ela.ad(ela.basis(i)))
    lc = ela.levi_civita()
    return ela.gram_inv @ traces, metric_trace_loop(ela, lambda u, v: lc.product(u, v))


def connection_trace_loop(m):
    """(direct, dual): frame sum and adjoint-trace pairing of U_xi."""
    lc = m.target.levi_civita()
    direct = metric_trace_loop(m.source, lambda u, v: lc.product(m.apply(u), m.apply(v)))
    xi, xi_star = m.matrix, m.adjoint_matrix()
    pairings = la.zeros(m.target.dim, m.exact)
    for k in range(m.target.dim):
        pairings[k] = np.trace(xi_star @ m.target.ad(m.target.basis(k)) @ xi)
    return direct, m.target.gram_inv @ pairings


def bitension_loop(m):
    """(tau2, dual, scale, tau): curvature formula, trace identity, the sum
    of the norms of the curvature formula's three terms, and the tension."""
    src, tgt = m.source, m.target
    lc = tgt.levi_civita()
    u_xi = connection_trace_loop(m)[0]
    u_src = unimodular_loop(src)[0]
    tau = u_xi - m.apply(u_src)
    t_second = metric_trace_loop(
        src, lambda u, v: lc.product(m.apply(u), lc.product(m.apply(v), tau)))
    t_curv = metric_trace_loop(
        src, lambda u, v: tgt.curvature(tau, m.apply(u)) @ m.apply(v))
    t_drift = lc.product(m.apply(u_src), tau)
    tau2 = -(t_second + t_curv) + t_drift
    xi, xi_star = m.matrix, m.adjoint_matrix()
    ad_tau = tgt.ad(tau)
    pairings = la.zeros(tgt.dim, m.exact)
    for k in range(tgt.dim):
        ek = tgt.basis(k)
        sym = tgt.ad(ek) + tgt.ad_star(ek)
        pairings[k] = (
            np.trace(xi_star @ sym @ ad_tau @ xi)
            - tgt.pair(tgt.bracket(ek, tau), tau)
            - tgt.pair(tgt.bracket(tau, u_xi), ek)
        )
    scale = la.norm(t_second) + la.norm(t_curv) + la.norm(t_drift)
    return tau2, tgt.gram_inv @ pairings, scale, tau


def ricci_loop(ela):
    cols = []
    for k in range(ela.dim):
        ek = ela.basis(k)
        cols.append(metric_trace_loop(ela, lambda u, v, ek=ek: ela.curvature(ek, u) @ v))
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# structure checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exact", MODES)
def test_jacobi_defect(exact, rng):
    for n in dims(exact, top=7):
        alg = LieAlgebra(rand_tensor(rng, n, exact))
        old = jacobi_defect_loop(alg)
        assert (old > 0.5) == (n >= 3)
        assert_same_defect(jacobi_defect(alg), old, exact)


@pytest.mark.parametrize("exact", MODES)
def test_jacobi_defect_in_blocks(exact, rng, monkeypatch):
    """Blocks of one and of several rows, and of one, several or all output
    columns of the pair table, give the unblocked value."""
    for n in range(3, 7 if exact else 13):
        alg = LieAlgebra(rand_tensor(rng, n, exact))
        old = jacobi_defect_loop(alg, exact_max_row_norm if exact else la.norm)
        column = n * n * (n - 1) // 2       # entries of one output column of the pair table
        for budget in (1, 2 * n ** 3, 3 * n ** 3 + 1, column, 3 * column + 1, n * column):
            monkeypatch.setattr(la, "BLOCK_ELEMENTS", budget)
            assert_same_defect(jacobi_defect(alg), old, exact)


def jacobi_cases(rng, exact):
    """Tower rungs (Jacobi holds) and random tensors (it fails) up to
    dimension 32 in float mode and 8 in exact mode."""
    top = 8 if exact else 32
    params = {"a": Fraction(3, 2) if exact else 1.5}
    algs = [ela.alg for ela in tower("e1", top, exact, **params) + tower("heis3", top, exact)]
    sizes = range(3, 9) if exact else (3, 4, 5, 7, 8, 12, 16, 24, 32)
    return algs + [LieAlgebra(rand_tensor(rng, n, exact)) for n in sizes]


@pytest.mark.parametrize("exact", MODES)
def test_jacobi_defect_matches_the_blocked_product(exact, rng):
    for alg in jacobi_cases(rng, exact):
        reference = jacobi_defect_blocked(alg, exact_max_row_norm if exact else la.max_row_norm)
        assert_same_defect(jacobi_defect(alg), reference, exact)


@pytest.mark.parametrize("exact", MODES)
def test_perturbed_tower_rung_violates_jacobi(exact, rng):
    """Changing one bracket coefficient c[i, j, k], i < j < k, of a tower rung
    is rejected exactly when the blocked product rejects it, and each rung
    above the base has such an entry."""
    top = 8 if exact else 32
    params = {"a": Fraction(3, 2) if exact else 1.5}
    one = Fraction(1) if exact else 1.0
    for ela in tower("e1", top, exact, **params)[1:] + tower("heis3", top, exact)[1:]:
        n = ela.dim
        ii, jj, kk = la.strict_triples(n)
        rejected = 0
        for t in rng.permutation(len(ii))[:12]:
            i, j, k = ii[t], jj[t], kk[t]
            c = ela.alg.c.copy()
            c[i, j, k] += one
            c[j, i, k] -= one
            scale = 1.0 + la.norm(c) ** 2
            violates = jacobi_defect_blocked(LieAlgebra(c)) > DEFAULT_TOL.threshold(scale)
            if violates:
                with pytest.raises(StructureError, match="violate Jacobi"):
                    LieAlgebra.from_tensor(c, exact=exact)
                rejected += 1
            else:
                LieAlgebra.from_tensor(c, exact=exact)
        assert rejected, (ela.name, n)


@pytest.mark.parametrize("exact", MODES)
def test_levi_civita_table(exact, rng):
    """Exact tables are summed on numerators and hold one Fraction per entry."""
    for n in dims(exact):
        ela = rand_ela(rng, n, exact)
        table = ela.levi_civita().table
        assert_agrees(table, levi_civita_loop(ela), exact)
        assert not exact or all(type(x) is Fraction for x in table.ravel())


@pytest.mark.parametrize("exact", MODES)
def test_derivation_defect(exact, rng):
    for n in dims(exact):
        ela = rand_ela(rng, n, exact)
        op = rand_matrix(rng, (n, n), exact)
        old = derivation_defect_loop(ela, op)
        assert (old > 0.1) == (n >= 2)
        assert_same_defect(derivation_defect(ela, op), old, exact)


@pytest.mark.parametrize("exact", MODES)
def test_hom_defect_on_non_square_maps(exact, rng):
    for ns in dims(exact, top=4):
        for nt in dims(exact, top=4):
            m = LieAlgebraMap(rand_ela(rng, ns, exact), rand_ela(rng, nt, exact),
                              rand_matrix(rng, (nt, ns), exact))
            old = hom_defect_loop(m)
            assert (old > 0.0) == (ns >= 2 and nt >= 1)
            assert_same_defect(m.hom_defect(), old, exact)


@pytest.mark.parametrize("exact", MODES)
def test_check_condition_defects(exact, rng):
    """Inner derivations of heis3 act; base brackets and twist are random,
    so both compatibility equations fail."""
    kernel = get("heis3", exact=exact).ela
    for dh in dims(exact):
        f = rand_matrix(rng, (3, dh), exact)
        rho = la.zeros((dh, 3, 3), exact)
        for k in range(dh):
            rho[k] = kernel.ad(f[:, k])
        twist = rand_matrix(rng, (dh, dh, 3), exact)
        sd = SemidirectData(
            kernel=kernel, base=LieAlgebra(rand_tensor(rng, dh, exact)),
            inner_domain=InnerProduct(rand_gram(rng, dh, exact)),
            inner_target=InnerProduct(rand_gram(rng, dh, exact)),
            rho=rho, omega=twist - twist.transpose(1, 0, 2))
        action, cocycle = check_condition_loop(sd)
        assert (action > 0.0) == (dh >= 2) and (cocycle > 0.0) == (dh >= 3)
        report = check_condition(sd)
        assert_same_defect(report.action_defect, action, exact)
        assert_same_defect(report.cocycle_defect, cocycle, exact)


@pytest.mark.parametrize("exact", MODES)
def test_cone_constraints(exact, rng):
    """The trace rows on the coordinates of S equal the trace identity
    evaluated at each unit (dimension 0 is left out: the loop cannot stack
    zero columns)."""
    for n in range(1, 5 if exact else 6):
        ela = rand_ela(rng, n, exact)
        new, old = _cone_constraints(ela), cone_constraints_loop(ela)
        assert new.shape == old.shape == (n, n * (n + 1) // 2)
        assert_agrees(new, old, exact)


# ---------------------------------------------------------------------------
# metric traces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("exact", MODES)
def test_metric_trace_and_unimodular_vector(exact, rng):
    for n in dims(exact):
        ela = rand_ela(rng, n, exact)
        lc = ela.levi_civita()
        by_trace, by_product = unimodular_loop(ela)
        assert_agrees(ela.unimodular_vector(), by_trace, exact)
        assert_agrees(lc.frame_sum(ela.gram_inv), by_product, exact)
        expr = lambda u, v: lc.product(u, v)  # noqa: E731
        assert_agrees(ela.metric_trace(expr), metric_trace_loop(ela, expr), exact)


@pytest.mark.parametrize("exact", MODES)
def test_connection_trace_on_non_square_maps(exact, rng):
    for ns in dims(exact, top=4):
        for nt in dims(exact, top=4):
            m = LieAlgebraMap(rand_ela(rng, ns, exact), rand_ela(rng, nt, exact),
                              rand_matrix(rng, (nt, ns), exact))
            direct, dual = connection_trace_loop(m)
            if ns == 0:  # the loop's empty sum took the source's dimension
                direct = la.zeros(nt, exact)
            assert_agrees(connection_trace(m), direct, exact)
            assert_agrees(connection_trace(m), dual, exact, scale=la.norm(direct) + 1.0)


def test_bitension_float(rng):
    """Maps with a nonzero tension (for harmonic ones both sides of tau2 are
    round-off, differently rounded)."""
    compared = 0
    for m in random_homs(rng, 60):
        tau2, dual, scale, tau = bitension_loop(m)
        if la.norm(tau) < 1e-6:
            continue
        assert_agrees(bitension(m), tau2, False, scale=scale)
        compared += 1
    assert compared >= 20


def test_bitension_exact(rng):
    """Identity maps between two rational metrics (nonzero tension on the
    non-unimodular entries) and characters onto a rational line."""
    for name in ("e1", "heis3", "aff2solv", "nilp5"):
        alg = get(name, exact=True).ela.alg
        n = alg.dim
        src = EuclideanLieAlgebra(alg, InnerProduct(rand_gram(rng, n, True)))
        tgt = EuclideanLieAlgebra(alg, InnerProduct(rand_gram(rng, n, True)))
        for m in (LieAlgebraMap.identity(src, tgt),
                  LieAlgebraMap(tgt, src, la.eye(n, exact=True))):
            tau2, dual, _, _ = bitension_loop(m)
            assert_agrees(bitension(m), tau2, True)
            assert_agrees(bitension(m), dual, True)


@pytest.mark.parametrize("exact", MODES)
def test_ricci_operator(exact, rng):
    """On random (non-Jacobi) tensors and on catalog algebras."""
    for n in range(1, 5 if exact else 6):
        ela = rand_ela(rng, n, exact)
        assert_agrees(ela.ricci_operator(), ricci_loop(ela), exact)
    for name in ("so3", "sl2", "nilp5", "aff2solv"):
        base = get(name, exact=exact).ela
        ela = EuclideanLieAlgebra(base.alg, InnerProduct(rand_gram(rng, base.dim, exact)))
        assert_agrees(ela.ricci_operator(), ricci_loop(ela), exact)


@pytest.mark.parametrize("name", ["e1", "heis3", "aff2solv", "sl2"])
def test_tension_coordinate_system(name, rng):
    ela = get(name).ela
    dom, tgt = (with_metric(ela, rand_pd(rng, ela.dim)) for _ in range(2))
    _, b, _ = tension_coordinate_system(dom, tgt)
    lc2 = tgt.levi_civita()
    conn = metric_trace_loop(dom, lambda u, v: lc2.product(u, v))
    u1 = unimodular_loop(dom)[0]
    old = np.array([tgt.pair(conn, dom.basis(k)) - tgt.pair(u1, dom.basis(k))
                    for k in range(ela.dim)])
    assert_agrees(b, old, False, scale=la.norm(conn) + la.norm(u1))


@pytest.mark.parametrize("exact", MODES)
def test_automorphism_trace_form(exact, rng):
    ela = get("nilp5", exact=exact).ela
    ela = EuclideanLieAlgebra(ela.alg, InnerProduct(rand_gram(rng, 5, exact)))
    phi = la.matrix_exp(ela.ad(rand_matrix(rng, 5, exact)))
    phi_star = ela.gram_inv @ phi.T @ ela.gram
    old = [np.trace(phi_star @ ela.ad(ela.basis(k)) @ phi) for k in range(5)]
    assert_agrees(automorphism_trace_form(Automorphism(ela, phi)), old, exact)


# ---------------------------------------------------------------------------
# derived and Killing subspaces
# ---------------------------------------------------------------------------


def derived_subspace_loop(alg):
    cols = [alg.c[i, j, :] for i in range(alg.dim) for j in range(i + 1, alg.dim)]
    if not cols:
        return la.zeros((alg.dim, 0), alg.exact)
    return np.stack(cols, axis=1)


def killing_subalgebra_loop(ela, tol=DEFAULT_TOL):
    n = ela.dim
    stacked = la.zeros((n * n, n), ela.exact)
    for i in range(n):
        sym = ela.ad(ela.basis(i)) + ela.ad_star(ela.basis(i))
        stacked[:, i] = sym.reshape(-1)
    basis = la.nullspace(stacked, tol)
    scale = 1.0 + la.norm(ela.alg.c)
    for a in range(basis.shape[1]):
        for b in range(a + 1, basis.shape[1]):
            br = ela.bracket(basis[:, a], basis[:, b])
            if la.norm(la.span_residual(basis, br)) > 10.0 * tol.threshold(scale):
                raise CrossCheckError("Killing directions are not bracket-closed")
    return basis


@pytest.mark.parametrize("exact", MODES)
def test_derived_subspace(exact, rng):
    """Same columns in the same order, including dims 0 and 1 (no pairs)."""
    for n in dims(exact, top=6):
        alg = LieAlgebra(rand_tensor(rng, n, exact))
        new = alg.derived_subspace()
        assert new.dtype == (object if exact else float)
        assert_agrees(new, derived_subspace_loop(alg), exact)


def killing_cases(rng, exact):
    """Algebras whose Killing space has dimension 0 to n: catalog algebras
    with their reference metrics, with one rescaled direction and with a
    random metric, plus random non-Jacobi tensors."""
    for name in ("so3", "heis3", "nilp5", "e2flat", "sl2", "aff2solv"):
        ela = get(name, exact=exact).ela
        n = ela.dim
        scale = la.eye(n, exact)
        scale[0, 0] = Fraction(3) if exact else 3.0
        yield ela
        yield EuclideanLieAlgebra(ela.alg, InnerProduct(scale @ ela.gram @ scale))
        yield EuclideanLieAlgebra(ela.alg, InnerProduct(rand_gram(rng, n, exact)))
    for n in range(1, 4):
        yield EuclideanLieAlgebra(get("abelian", n=n, exact=exact).ela.alg,
                                  InnerProduct(rand_gram(rng, n, exact)))
    for n in range(4):
        yield rand_ela(rng, n, exact)


@pytest.mark.parametrize("exact", MODES)
def test_killing_subalgebra(exact, rng):
    sizes = set()
    for ela in killing_cases(rng, exact):
        new = ela.killing_subalgebra()
        assert_agrees(new, killing_subalgebra_loop(ela), exact)
        sizes.add(new.shape[1])
    assert {0, 1, 3} <= sizes


# ---------------------------------------------------------------------------
# the exact kernel: integer products and fraction-free elimination
# ---------------------------------------------------------------------------


def frac_array(rng, shape, big=False):
    """Fractions with mixed denominators and both signs; ``big`` puts the
    numerators near 2**80."""
    size = int(np.prod(shape))
    num = [int(v) for v in rng.integers(-9, 10, size=size)]
    if big:
        num = [2 ** 80 * (1 if v >= 0 else -1) + v * 2 ** 40 + v for v in num]
    den = [int(v) for v in rng.integers(1, 13, size=size)]
    out = np.empty(shape, dtype=object)
    out.reshape(-1)[:] = [Fraction(a, b) for a, b in zip(num, den)]
    return out


PRODUCT_SHAPES = [
    ((3, 4), (4, 2)),          # non-square
    ((4,), (4, 3)),            # 1-D times 2-D
    ((3, 4), (4,)),            # 2-D times 1-D
    ((5,), (5,)),              # 1-D times 1-D: a scalar
    ((2, 3, 4), (4, 5)),       # stacked times 2-D
    ((2, 3, 4), (2, 4, 1)),    # stacked times stacked
    ((4, 3), (3, 0)),          # (k, 0) result
    ((0, 3), (3, 2)),          # zero rows
    ((3, 0), (0, 2)),          # zero-length contraction
    ((0,), (0,)),
]


@pytest.mark.parametrize("big", [False, True], ids=["small", "near-2**80"])
@pytest.mark.parametrize("shapes", PRODUCT_SHAPES, ids=str)
def test_exact_matmul_equals_fraction_product(shapes, big, rng):
    for _ in range(3):
        a, b = (frac_array(rng, s, big) for s in shapes)
        old = a @ b
        new = la.matmul(a, b)
        if isinstance(old, np.ndarray):
            assert new.shape == old.shape and new.dtype == object
            assert all(type(v) is Fraction for v in new.ravel())
            assert new.tolist() == old.tolist()
        else:
            assert type(new) is Fraction and new == old


def test_matmul_leaves_float_products_alone(rng):
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
    assert np.array_equal(la.matmul(a, b), a @ b)


@pytest.mark.parametrize("exact", MODES)
def test_products_agree_with_the_object_einsums_they_replaced(exact, rng):
    """``ad``, ``bracket``, ``operator``, ``product``, ``apply`` and ``pair``,
    all through ``la.matmul``, against einsum and plain ``@``: exact ones are
    the same Fractions, float ones agree to a relative 1e-14.  On a (3, n)
    stack, ``ad``, ``bracket``, ``operator``, ``product``, ``curvature`` and
    ``ad_star`` equal their single-vector calls slice by slice: the same
    Fractions, bit-equal floats."""
    for n in range(1, 6):
        ela = rand_ela(rng, n, exact)
        lc, c = ela.levi_civita(), ela.alg.c
        u, v = rand_matrix(rng, n, exact), rand_matrix(rng, n, exact)
        xi = rand_matrix(rng, (n + 1, n), exact)
        m = LieAlgebraMap(ela, rand_ela(rng, n + 1, exact), xi)
        for new, old in [(ela.ad(u), np.einsum("i,ijk->kj", u, c)),
                         (ela.bracket(u, v), np.einsum("i,j,ijk->k", u, v, c)),
                         (lc.operator(u), np.einsum("i,ijk->kj", u, lc.table)),
                         (lc.product(u, v), np.einsum("i,j,ijk->k", u, v, lc.table)),
                         (m.apply(u), xi @ u),
                         (ela.pair(u, v), u @ ela.gram @ v)]:
            if exact:
                assert all(type(x) is Fraction for x in np.ravel(new))
                assert np.asarray(new).tolist() == np.asarray(old).tolist()
            else:
                assert np.linalg.norm(new - old) <= 1e-14 * np.linalg.norm(old)

        us, vs = rand_matrix(rng, (3, n), exact), rand_matrix(rng, (3, n), exact)
        for f, args in [(ela.ad, (us,)), (lc.operator, (us,)), (ela.ad_star, (us,)),
                        (ela.bracket, (us, vs)), (lc.product, (us, vs)),
                        (ela.curvature, (us, vs))]:
            stacked = f(*args)
            assert len(stacked) == 3
            for k, new in enumerate(stacked):
                old = f(*(a[k] for a in args))
                assert new.shape == old.shape
                if exact:
                    assert all(type(x) is Fraction for x in np.ravel(new))
                    assert new.tolist() == old.tolist()
                else:
                    assert np.array_equal(new, old)


@pytest.mark.parametrize("exact", MODES)
def test_max_curvature_norm_is_the_largest_basis_pair_curvature(exact, rng):
    for n in range(1, 6):
        ela = rand_ela(rng, n, exact)
        e = la.eye(n, exact)
        loop = max((la.norm(ela.curvature(e[i], e[j])) for i in range(n)
                    for j in range(i + 1, n)), default=0.0)
        assert_same_defect(ela.max_curvature_norm(), loop, exact)


# Verbatim copy of the Fraction elimination the kernel replaced.


def old_rref(m: np.ndarray):
    """Reduced row echelon form over Fractions; returns (rref, pivot cols)."""
    a = m.copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if a[i, c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] / a[r, c]
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, pivots


def old_exact_nullspace(m: np.ndarray) -> np.ndarray:
    """Exact basis (columns) of the kernel of a Fraction matrix."""
    rows, cols = m.shape
    red, pivots = old_rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = la.zeros((cols, len(free)), exact=True)
    for k, fc in enumerate(free):
        basis[fc, k] = Fraction(1)
        for r, pc in enumerate(pivots):
            basis[pc, k] = -red[r, fc]
    return basis


def old_exact_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact particular solution of m x = b; raises if inconsistent."""
    rows, cols = m.shape
    aug = la.zeros((rows, cols + 1), exact=True)
    aug[:, :cols] = m
    aug[:, cols] = b
    red, pivots = old_rref(aug)
    if cols in pivots:
        raise la.InfeasibleSystem("exact linear system is inconsistent")
    x = la.zeros(cols, exact=True)
    for r, pc in enumerate(pivots):
        x[pc] = red[r, cols]
    return x


def old_exact_inv(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    aug = la.zeros((n, 2 * n), exact=True)
    aug[:, :n] = m
    aug[:, n:] = la.eye(n, exact=True)
    red, pivots = old_rref(aug)
    if pivots[: n] != list(range(n)):
        raise la.LinAlgDomainError("exact matrix is singular")
    return red[:, n:]


def old_exact_is_pd(m: np.ndarray) -> bool:
    """Sylvester criterion: all leading principal minors positive."""
    n = m.shape[0]
    a = m.copy()
    # fraction-free-ish LU; det of leading block is the pivot product
    det = Fraction(1)
    for k in range(n):
        if a[k, k] == 0:
            return False
        det *= a[k, k]
        if det <= 0:
            return False
        for i in range(k + 1, n):
            a[i, k + 1 :] = a[i, k + 1 :] - (a[i, k] / a[k, k]) * a[k, k + 1 :]
    return True


def rank_deficient(rng, rows, cols, rank, big=False):
    """A random rational rows x cols matrix of rank at most ``rank``, with a
    zero column and a repeated row when the shape allows."""
    m = frac_array(rng, (rows, rank), big) @ frac_array(rng, (rank, cols))
    if rows and cols > 2:
        m[:, int(rng.integers(cols))] = Fraction(0)
    if rows > 2:
        m[-1] = m[0]
    return m


def elimination_cases(rng):
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 9), (9, 6)]:
        for rank in range(min(rows, cols) + 1):
            yield rank_deficient(rng, rows, cols, rank)
    yield rank_deficient(rng, 5, 7, 3, big=True)
    yield frac_array(rng, (4, 6), big=True)


def assert_same(new, old):
    assert new.shape == old.shape
    assert new.tolist() == old.tolist()


def outcome(fn, *args):
    try:
        return fn(*args)
    except la.LinAlgDomainError as exc:
        return type(exc)


def test_exact_nullspace_equals_fraction_elimination(rng):
    for m in elimination_cases(rng):
        new = la.exact_nullspace(m)
        assert_same(new, old_exact_nullspace(m))
        assert all(type(v) is Fraction for v in new.ravel())


def test_exact_solve_equals_fraction_elimination(rng):
    raised = solved = 0
    for m in elimination_cases(rng):
        rows, cols = m.shape
        consistent = m @ frac_array(rng, (cols,)) if cols else la.zeros(rows, exact=True)
        for b in (consistent, frac_array(rng, (rows,))):
            new, old = outcome(la.exact_solve, m, b), outcome(old_exact_solve, m, b)
            if isinstance(old, type):
                assert new is old is la.InfeasibleSystem
                raised += 1
            else:
                assert_same(new, old)
                assert list(m @ new) == list(b)
                solved += 1
    assert raised > 10 and solved > 10


def test_exact_inv_equals_fraction_elimination(rng):
    raised = inverted = 0
    for n in range(6):
        for m in (frac_array(rng, (n, n)), rank_deficient(rng, n, n, max(n - 1, 0)),
                  frac_array(rng, (n, n), big=True)):
            new, old = outcome(la.exact_inv, m), outcome(old_exact_inv, m)
            if isinstance(old, type):
                assert new is old is la.LinAlgDomainError
                raised += 1
            else:
                assert_same(new, old)
                inverted += 1
    assert raised >= 4 and inverted >= 8


def test_exact_is_pd_equals_fraction_elimination(rng):
    verdicts = []
    for n in range(1, 7):
        a = frac_array(rng, (n, n))
        low = rank_deficient(rng, n, n, n // 2)
        for m in (a.T @ a + la.eye(n, exact=True),         # positive definite
                  a.T @ a,                                  # generically definite
                  low.T @ low,                              # semidefinite, singular
                  a + a.T,                                  # generically indefinite
                  -(a.T @ a) - la.eye(n, exact=True)):      # negative definite
            verdicts.append(old_exact_is_pd(m))
            assert la._exact_is_pd(m) == verdicts[-1]
    assert True in verdicts and False in verdicts
