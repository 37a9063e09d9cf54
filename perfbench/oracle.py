"""Reference answers for the benchmark's verdict checks, computed without lieharm.

Everything here works on plain arrays: a structure tensor ``c`` with
``[e_i, e_j] = sum_k c[i, j, k] e_k`` and a Gram matrix ``G``.  The formulas
are written independently of the library and, where the library sums over
basis pairs, take a different route (an orthonormal Cholesky frame, a
symmetric parametrization of the cone), so a shared bug is unlikely to pass.
Exact inputs are lists/arrays of ``Fraction`` and are handled with Python
arithmetic only.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


#: Brackets of the reference algebras, ``(i, j): {k: coefficient}`` with
#: ``p`` standing for the entry's one scalar parameter (written out from
#: the algebras' definitions, not read from the library's catalog).
_BRACKETS = {
    "e1": {(0, 1): {0: "p"}},                             # [e, f] = a e
    "heis3": {(1, 2): {0: "p"}},                          # [f, g] = alpha z
    "so3": {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}},
    "sl2": {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
    "nilp5": {(0, 1): {2: 1}, (0, 2): {4: 1}, (1, 3): {4: 1}},
    "e2flat": {(0, 2): {1: "-p"}, (1, 2): {0: "p"}},     # lam
    "aff2solv": {(0, 2): {0: -1}, (1, 2): {1: "-p"}},    # beta
}
DIMS = {"e1": 2, "heis3": 3, "so3": 3, "sl2": 3, "nilp5": 5, "e2flat": 3, "aff2solv": 3}
UNIMODULAR = {"e1": False, "heis3": True, "so3": True, "sl2": True, "nilp5": True,
              "e2flat": True, "aff2solv": False, "abelian": True}
#: Central directions (basis indices) of the nilpotent entries.
CENTER = {"heis3": [0], "nilp5": [4]}


def structure(name: str, p=1, n: int = 3, exact: bool = False) -> np.ndarray:
    """Structure tensor of a reference algebra (``abelian`` takes ``n``)."""
    one = Fraction(1) if exact else 1.0
    dim = n if name == "abelian" else DIMS[name]
    c = np.full((dim, dim, dim), 0 * one, dtype=object if exact else float)
    for (i, j), coeffs in _BRACKETS.get(name, {}).items():
        for k, v in coeffs.items():
            val = p if v == "p" else -p if v == "-p" else v
            c[i, j, k] = val * one
            c[j, i, k] = -val * one
    return c


def trace_covector(c) -> list:
    """t_i = tr(ad_{e_i}) = sum_k c[i, k, k]; exact when ``c`` holds Fractions."""
    n = len(c)
    return [sum((c[i][k][k] for k in range(n)), 0 * c[0][0][0]) for i in range(n)]


def frac_solve(gram, rhs) -> list:
    """Exact solution of ``gram x = rhs`` by Gauss-Jordan on Fractions."""
    n = len(rhs)
    rows = [[Fraction(gram[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [v / p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def unimodular_vector(c, gram, exact: bool = False):
    """U with <U, v> = tr(ad_v): the metric dual of the trace covector."""
    t = trace_covector(c)
    if exact:
        return frac_solve(gram, t)
    return np.linalg.solve(np.asarray(gram, float), np.asarray(t, float))


def is_unimodular(c) -> bool:
    """Exact-structure test: every ad_{e_i} is traceless (metric-free)."""
    return all(abs(float(v)) == 0.0 for v in trace_covector(c))


def tangent_tensor(c) -> np.ndarray:
    """Structure tensor of the tangent algebra of ``c``: an abelian copy of
    the base (indices 0..n-1) acted on by the adjoint, then the base itself."""
    c = np.asarray(c, dtype=object if _is_exact(c) else float)
    n = c.shape[0]
    zero = Fraction(0) if c.dtype == object else 0.0
    out = np.full((2 * n, 2 * n, 2 * n), zero, dtype=c.dtype)
    out[n:, :n, :n] = c
    out[:n, n:, :n] = -c.transpose(1, 0, 2)
    out[n:, n:, n:] = c
    return out


def block_gram(gram) -> np.ndarray:
    g = np.asarray(gram, dtype=object if _is_exact(gram) else float)
    n = g.shape[0]
    zero = Fraction(0) if g.dtype == object else 0.0
    out = np.full((2 * n, 2 * n), zero, dtype=g.dtype)
    out[:n, :n] = g
    out[n:, n:] = g
    return out


def _is_exact(a) -> bool:
    return isinstance(np.asarray(a, dtype=object).reshape(-1)[0], Fraction)


def _rank(m: np.ndarray, rel: float = 1e-9) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > rel * max(s[0], 1e-300)))


def cone_dimension(c, gram) -> int:
    """Dimension of {J metric-symmetric : tr(J ad_k) = tr(ad_{J e_k}) for all k}.

    Parametrizes J = G^-1 S with S symmetric, so the count is
    n(n+1)/2 minus the rank of the n trace constraints on S.  Rational input
    is evaluated in float: the structure data used here is small-integer, so
    the singular values sit far from the cut.
    """
    c = np.asarray(c, dtype=float)
    g = np.asarray(gram, dtype=float)
    n = c.shape[0]
    ginv = np.linalg.inv(g)
    t = np.einsum("ikk->i", c)
    a, b = np.triu_indices(n)
    sym = np.zeros((len(a), n, n))
    sym[np.arange(len(a)), a, b] = 1.0
    sym[np.arange(len(a)), b, a] = 1.0
    gs = np.einsum("xy,pyz->pxz", ginv, sym)
    # tr(G^-1 S ad_k) with (ad_k)_{zx} = c[k, x, z], minus (t^T G^-1 S)_k
    m = c.reshape(n, n * n) @ gs.reshape(len(a), n * n).T - (t @ gs).T
    return len(a) - _rank(m)


def _levi_civita(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    """A[i, j] = A_{e_i} e_j from 2<A_i e_j, e_k> = <[i,j],k> + <[k,i],j> + <[k,j],i>."""
    low = np.einsum("ijl,lk->ijk", c, g)
    cov = 0.5 * (low + np.transpose(low, (1, 2, 0)) + np.transpose(low, (2, 1, 0)))
    return np.einsum("ijk,lk->ijl", cov, np.linalg.inv(g))


def _frame(g: np.ndarray) -> np.ndarray:
    """Columns orthonormal for ``g`` (Cholesky route)."""
    return np.linalg.inv(np.linalg.cholesky(g)).T


def tension_bitension(c_src, g_src, c_tgt, g_tgt, xi):
    """(tau, tau2, scales) of the map ``xi`` by frame sums over a Cholesky frame."""
    cs, gs = np.asarray(c_src, float), np.asarray(g_src, float)
    ct, gt = np.asarray(c_tgt, float), np.asarray(g_tgt, float)
    xi = np.asarray(xi, float)
    lc = _levi_civita(ct, gt)
    frame = xi @ _frame(gs)                              # columns xi f_a

    def prod(u, v):
        return np.einsum("i,j,ijk->k", u, v, lc)

    def op(u):
        return np.einsum("i,ijk->kj", u, lc)

    def bracket(u, v):
        return np.einsum("i,j,ijk->k", u, v, ct)

    u_src = np.linalg.solve(gs, np.einsum("ikk->i", cs))
    u_xi = sum((prod(x, x) for x in frame.T), np.zeros(ct.shape[0]))
    tau = u_xi - xi @ u_src
    second = sum((prod(x, prod(x, tau)) for x in frame.T), np.zeros_like(tau))
    curv = np.zeros_like(tau)
    for x in frame.T:
        k = op(tau) @ op(x) - op(x) @ op(tau) - op(bracket(tau, x))
        curv = curv + k @ x
    drift = prod(xi @ u_src, tau)
    tau2 = -(second + curv) + drift
    scales = (1.0 + np.linalg.norm(u_xi) + np.linalg.norm(xi) * np.linalg.norm(u_src),
              1.0 + np.linalg.norm(second) + np.linalg.norm(curv) + np.linalg.norm(drift))
    return tau, tau2, scales


def is_riemannian_submersion(g_src, g_tgt, xi, tol: float = 1e-8) -> bool:
    gs, gt, xi = (np.asarray(a, float) for a in (g_src, g_tgt, xi))
    d = xi @ np.linalg.inv(gs) @ xi.T - np.linalg.inv(gt)
    return float(np.linalg.norm(d)) <= tol * (1.0 + np.linalg.norm(np.linalg.inv(gt)))


def derived_annihilator(c) -> np.ndarray:
    """Rows spanning the covectors that vanish on [g, g]."""
    c = np.asarray(c, float)
    n = c.shape[0]
    der = c.reshape(n * n, n)
    if not der.any():
        return np.eye(n)
    _, s, vh = np.linalg.svd(der)
    r = int(np.sum(s > 1e-9 * s[0]))
    return vh[r:]
