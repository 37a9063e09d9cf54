"""Differential tests: every whole-tensor contraction against a basis loop.

The reference functions below evaluate each identity one basis pair or
triple at a time, exactly as the library did before it switched to reshaped
matrix products.  Inputs are chosen so the quantities are generically
nonzero: antisymmetric tensors that violate Jacobi, operators that are not
derivations, matrices that are not homomorphisms, non-square maps.  Float
results must agree to a relative 1e-12; exact (Fraction) results, and the
float defects measured from them, must agree exactly.
"""
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
from lieharm.cone import Automorphism, _cone_constraints

from conftest import rand_pd, random_homs, with_metric

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


def jacobi_defect_loop(alg):
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
                worst = max(worst, la.norm(s))
    return worst


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
            lhs = sd.rho_of(sd.base.bracket(hi, hj))
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
                    total = total - sd.omega_of(sd.base.bracket(ha, hb), hc)
                cocycle_defect = max(cocycle_defect, la.norm(total))
    return action_defect, cocycle_defect


def cone_constraints_loop(ela):
    n = ela.dim
    g = ela.gram
    exact = ela.exact
    rows = []
    for aa in range(n):
        for bb in range(aa + 1, n):
            row = la.zeros(n * n, exact)
            for cc in range(n):
                row[cc * n + bb] = row[cc * n + bb] + g[aa, cc]
                row[cc * n + aa] = row[cc * n + aa] - g[cc, bb]
            rows.append(row)
    ad_traces = [np.trace(ela.ad(ela.basis(m))) for m in range(n)]
    for k in range(n):
        adk = ela.ad(ela.basis(k))
        row = la.zeros(n * n, exact)
        for aa in range(n):
            for bb in range(n):
                row[aa * n + bb] = row[aa * n + bb] + adk[bb, aa]
        for m in range(n):
            row[m * n + k] = row[m * n + k] - ad_traces[m]
        rows.append(row)
    return np.stack(rows, axis=0)


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
    """Blocks of one and of several rows give the unblocked value."""
    n = 6 if exact else 9
    alg = LieAlgebra(rand_tensor(rng, n, exact))
    old = jacobi_defect_loop(alg)
    for budget in (1, 2 * n ** 3, 3 * n ** 3 + 1):
        monkeypatch.setattr(la, "BLOCK_ELEMENTS", budget)
        assert_same_defect(jacobi_defect(alg), old, exact)


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
    """Rows are copies and negations of c and G entries: equal in both modes
    (dimension 0 is left out: the loop cannot stack zero rows)."""
    for n in range(1, 5 if exact else 6):
        ela = rand_ela(rng, n, exact)
        new, old = _cone_constraints(ela), cone_constraints_loop(ela)
        assert new.shape == old.shape == (n * (n - 1) // 2 + n, n * n)
        assert np.array_equal(new, old)


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
