"""Euclidean Lie algebras: structure constants, metrics and their geometry.

A Lie algebra is stored through its structure tensor ``c`` with
``[e_i, e_j] = sum_k c[i, j, k] e_k``; a Euclidean Lie algebra pairs it with
a positive-definite Gram matrix.  From those two tensors everything else is
derived: the Levi-Civita product, curvature, the Ricci operator, the
unimodularity vector, Killing directions, second fundamental forms of
subalgebras and quotient metrics.

Two conventions are fixed once and used everywhere:

* the Levi-Civita product ``A`` satisfies the polarization identity
  ``2 <A_u v, w> = <[u,v],w> + <[w,u],v> + <[w,v],u>``;
* curvature is ``K(u,v) = [A_u, A_v] - A_[u,v]`` and the Ricci operator is
  ``ric(u) = sum_i K(u, e_i) e_i`` over any orthonormal basis.

Quantities defined as a sum of a bilinear expression over an orthonormal
basis are computed by the equivalent metric contraction
``sum_ij (G^-1)_ij expr(e_i, e_j)`` — identical for every orthonormal basis
and exact in rational mode.  All such sums, and every identity checked over
basis pairs or triples, are evaluated as whole-tensor contractions of ``c``,
``G^-1`` and the Levi-Civita table (reshaped matrix products), never one
basis vector at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _linalg as la
from ._linalg import DEFAULT_TOL, Tolerance


class StructureError(ValueError):
    """The provided structure data does not define a Lie algebra."""


class MetricError(ValueError):
    """The provided inner product is unusable (not symmetric PD, wrong size)."""


class CrossCheckError(RuntimeError):
    """Two independent formulas for the same quantity disagreed.

    This never indicates bad user input: it means an internal identity was
    violated, so computations abort rather than return a silently wrong
    value.
    """


def _check_cross(name: str, first, second, tol: Tolerance, scale=None, norm=la.norm) -> float:
    """Compare two independent routes to one quantity and return their defect
    ``norm(first - second)``.

    Exact routes (Fraction arrays or Python ints; an exact scalar stands for
    an array of that value) must be equal; float routes may differ by at most
    ten thresholds at ``1 + scale()``, by default ``1 + |first| + |second|``
    (``scale``, the data-dependent part, is called on the float route only).
    Otherwise :class:`CrossCheckError` is raised; an exact pair's message
    gives the largest entry gap exactly, so no value is converted to float.
    """
    if la.is_exact(first) and la.is_exact(second):
        gap = first - second
        if _nonzero(gap):
            raise CrossCheckError(
                f"{name}: exact routes differ (largest entry gap {max(map(abs, np.ravel(gap)))})")
        return 0.0
    defect = _float_gap(first, second, norm)
    bound = 1.0 + (la.norm(first) + la.norm(second) if scale is None else scale())
    if defect > 10.0 * tol.threshold(bound):
        raise CrossCheckError(
            f"{name}: cross-check defect {defect:.3e} (scale {bound:.3e})"
        )
    return defect


def _float_gap(first, second, norm=la.norm) -> float:
    """The float distance of two sides, each converted first (a reported defect)."""
    return norm(la.to_float(first) - la.to_float(second))


def _negligible(value, tol: Tolerance, scale=None, norm=la.norm) -> bool:
    """Whether ``value`` counts as zero (the sibling of :func:`_check_cross`):
    an exact value (a Fraction or int, or an object array) only when it is
    zero, a float value when ``norm(value) <= tol.threshold(1 + scale())``
    (``scale``, the data-dependent part, is called on the float route only)."""
    if la.is_exact(value):
        return not _nonzero(value)
    return bool(norm(value) <= tol.threshold(1.0 + (0.0 if scale is None else scale())))


def _once(f, *args):
    """``f(*args)`` as a callable, computed on its first call only (cheaper than functools.cache)."""
    memo = {}
    return lambda: memo[0] if memo else memo.setdefault(0, f(*args))


def _nonzero(x) -> bool:
    """Whether an exact value has a nonzero entry: an array through ``any``,
    a scalar directly, without the cost of converting it to an array."""
    return bool(x.any() if isinstance(x, np.ndarray) else x)


@dataclass(frozen=True)
class LieAlgebra:
    """A finite-dimensional real Lie algebra given by structure constants.

    ``c[i, j, k]`` is the ``e_k`` coefficient of ``[e_i, e_j]``.  Only the
    ``i < j`` part of the tensor is trusted; the rest is rebuilt by
    antisymmetry, which removes a whole class of inconsistent-input errors.
    """

    c: np.ndarray
    name: str = ""

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    @property
    def exact(self) -> bool:
        return la.is_exact(self.c)

    @staticmethod
    def from_brackets(dim: int, brackets, name: str = "", exact: bool = False,
                      validate: bool = True, tol: Tolerance = DEFAULT_TOL) -> "LieAlgebra":
        """Build from a ``{(i, j): coefficient-vector}`` mapping with i < j."""
        c = la.zeros((dim, dim, dim), exact)
        for (i, j), vec in brackets.items():
            if not 0 <= i < j < dim:
                raise StructureError(f"bracket key ({i},{j}) needs 0 <= i < j < dim")
            row = la.as_matrix(vec, exact)
            c[i, j, :] = row
            c[j, i, :] = -row
        alg = LieAlgebra(c, name)
        if validate and not check_jacobi(alg, tol):
            raise StructureError(f"structure constants of {name or 'algebra'} violate Jacobi")
        return alg

    @staticmethod
    def from_tensor(c, name: str = "", exact: bool = False, validate: bool = True,
                    tol: Tolerance = DEFAULT_TOL) -> "LieAlgebra":
        """Build from a full tensor; antisymmetry is checked then enforced."""
        arr = la.as_matrix(c, exact)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise StructureError("structure tensor must be n x n x n")
        num, d = la.numerators(arr)          # exact input is tested on integers
        skew = num + num.transpose(1, 0, 2)
        if not _negligible(skew, tol, lambda: la.norm(arr)):
            raise StructureError(f"structure tensor not antisymmetric (defect {la.norm(skew) / d:.3e})")
        dim = arr.shape[0]
        fixed = la.zeros((dim, dim, dim), exact)
        ii, jj = la.strict_pairs(dim)
        fixed[ii, jj] = arr[ii, jj]
        fixed[jj, ii] = -arr[ii, jj]
        alg = LieAlgebra(fixed, name)
        if validate and not check_jacobi(alg, tol):
            raise StructureError(f"structure constants of {name or 'algebra'} violate Jacobi")
        return alg

    def bracket(self, u, v) -> np.ndarray:
        """[u, v] in basis coordinates, row by row for stacks ``u[..., n]``, ``v[..., n]``."""
        return la.matmul(self.ad(u), np.asarray(v)[..., None])[..., 0]

    def ad(self, u) -> np.ndarray:
        """Matrix of ad_u = [u, .], or the stack of them for a stack ``u[..., n]``."""
        return _operators(self.c, u)

    def basis(self, i: int) -> np.ndarray:
        return la.as_matrix(np.eye(self.dim)[i], self.exact)

    def ad_traces(self) -> np.ndarray:
        """tr(ad_{e_k}) for every basis vector e_k."""
        return np.trace(self.c, axis1=1, axis2=2)

    def trace_pairing(self, m) -> np.ndarray:
        """The covector k -> tr(ad_{e_k} m) of a square matrix m."""
        n = self.dim
        return la.matmul(self.c.reshape(n, n * n), np.asarray(m).reshape(n * n))

    def derived_subspace(self) -> np.ndarray:
        """Columns [e_i, e_j], i < j in row-major order, spanning [g, g]
        (not necessarily independent)."""
        ii, jj = la.strict_pairs(self.dim)
        return self.c[ii, jj].T


def _operators(t: np.ndarray, u) -> np.ndarray:
    """The matrix of v -> sum_ij u_i v_j t[i, j] (ad_u for ``c``, A_u for the
    Levi-Civita table), or their stack for a stack ``u[..., n]``.  Each vector
    is its own vector-matrix product, so a stack is its rows' calls bit for bit."""
    n = t.shape[0]
    u = np.asarray(u)
    rows = la.matmul(u[..., None, :], t.reshape(n, n * n))
    return rows.reshape(*u.shape[:-1], n, n).swapaxes(-1, -2)


@functools.lru_cache(maxsize=64)
def _cyclic_rows(n: int):
    """For the triples i < j < k of :func:`~lieharm._linalg.strict_triples`,
    the rows ``p*n + x`` of the pair table ``T[p, x]`` (``p`` a strict pair
    of :func:`~lieharm._linalg.strict_pairs`) holding the three terms
    ``T[(i,j), k]``, ``T[(j,k), i]`` and ``T[(i,k), j]``."""
    pair = np.zeros((n, n), dtype=np.intp)
    ii, jj = la.strict_pairs(n)
    pair[ii, jj] = np.arange(len(ii))
    i, j, k = la.strict_triples(n)
    return la._frozen(pair[i, j] * n + k, pair[j, k] * n + i, pair[i, k] * n + j)


def _front(buf: np.ndarray, shape) -> np.ndarray:
    """A C-contiguous array of ``shape`` on the first entries of ``buf``."""
    return buf.reshape(-1)[: math.prod(shape)].reshape(shape)


def jacobi_defect(alg: LieAlgebra) -> float:
    """Largest norm of a cyclic Jacobi sum over basis triples i < j < k."""
    if alg.dim < 3:
        return 0.0
    acc, d = _jacobi_sums(alg)
    return math.sqrt(acc.max() / d ** 4)     # an exact max is an int: one rounding


def _jacobi_sums(alg: LieAlgebra):
    """``(acc, d)`` for the triples i < j < k (dimension 3 or more): the cyclic
    sums' squared norms over ``d**4``, exact ones as integers (float: d = 1).

    The table ``T[p, x, m] = [[e_a, e_b], e_x]_m`` is formed once, for the
    strict pairs p = (a < b) only: one product of the brackets ``c[a, b]``
    with the tensor flattened to ``c[l, (x, m)]``.  Since ``[e_k, e_i] =
    -[e_i, e_k]``, each triple's cyclic sum is the gather ``T[(i,j), k] +
    T[(j,k), i] - T[(i,k), j]``.  The product is blocked over the output
    component ``m``, so every temporary stays within ``BLOCK_ELEMENTS``
    entries, and each block adds to the triples' squared norms, whose
    largest is taken at the end.  The blocks write their product and their
    gathered terms with ``out=`` into buffers allocated once per call (a
    narrower last block into their C-contiguous front), so a large algebra
    does not map fresh pages for every block.
    """
    n = alg.dim
    c, d = la.numerators(alg.c)
    ii, jj = la.strict_pairs(n)
    left = c[ii, jj]                               # [p, l] = [e_a, e_b]
    ij, jk, ik = _cyclic_rows(n)
    pairs, rows, terms = len(ii), len(ii) * n, len(ij)
    acc = np.zeros(terms, dtype=left.dtype)
    step = min(n, max(1, la.BLOCK_ELEMENTS // rows))
    prod = np.empty((pairs, n * step), dtype=left.dtype)
    s_full, g_full = np.empty((2, terms, step), dtype=left.dtype)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        w = hi - lo
        out, s, g = (prod, s_full, g_full) if w == step else (
            _front(prod, (pairs, n * w)), _front(s_full, (terms, w)), _front(g_full, (terms, w)))
        right = np.ascontiguousarray(c[:, :, lo:hi]).reshape(n, n * w)
        t = np.matmul(left, right, out=out).reshape(rows, w)    # [(p, x), m]
        # mode="clip" (the rows are in range) writes to ``out`` unbuffered
        t.take(ij, axis=0, out=s, mode="clip")
        s += t.take(jk, axis=0, out=g, mode="clip")
        s -= t.take(ik, axis=0, out=g, mode="clip")
        acc += np.einsum("tm,tm->t", s, s)
    return acc, d


def check_jacobi(alg: LieAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``alg`` satisfies the Jacobi identity: within tolerance for a
    float algebra, exactly (every cyclic sum zero) for an exact one."""
    # the sums arrive as squared norms (exact ones as integer numerators)
    return alg.dim < 3 or _negligible(_jacobi_sums(alg)[0], tol, lambda: la.norm(alg.c) ** 2,
                                      norm=lambda squares: math.sqrt(squares.max()))


def _closure_residual(c, basis, residual) -> np.ndarray:
    """``residual(basis, [b_i, b_j])`` for every ordered column pair, one row
    each, the brackets from one pair table (no rows without columns)."""
    k, n = basis.shape[1], c.shape[-1]
    if k == 0:
        return basis.T
    return residual(basis, la.pair_table(c, basis, basis).reshape(k * k, n).T).T


@dataclass(frozen=True)
class InnerProduct:
    """Positive-definite Gram matrix in the algebra basis."""

    gram: np.ndarray

    def __post_init__(self):
        g = self.gram
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise MetricError("Gram matrix must be square")
        try:
            ok = la.is_positive_definite(g, DEFAULT_TOL)
        except la.LinAlgDomainError as exc:
            raise MetricError(str(exc)) from exc
        if not ok:
            raise MetricError("inner product is not positive definite")

    @staticmethod
    def identity(dim: int, exact: bool = False) -> "InnerProduct":
        return InnerProduct(la.eye(dim, exact))

    @staticmethod
    def of(data, exact: bool = False) -> "InnerProduct":
        return InnerProduct(la.as_matrix(data, exact))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    def pair(self, u, v):
        return la.matmul(np.asarray(u), self.gram, np.asarray(v))

    def norm(self, u) -> float:
        return la.metric_norm(np.asarray(u), self.gram)


class EuclideanLieAlgebra:
    """A Lie algebra together with an inner product.

    Derived data (inverse Gram, Levi-Civita product, Killing subalgebras,
    harmonic cones) is memoized on the instance; the underlying tensors are
    never mutated after construction, so concurrent readers are safe.
    """

    def __init__(self, alg: LieAlgebra, inner: InnerProduct, name: str = ""):
        if alg.dim != inner.dim:
            raise MetricError("metric dimension does not match the algebra")
        if alg.exact != la.is_exact(inner.gram):
            raise MetricError("algebra and metric must use the same scalar mode")
        self.alg = alg
        self.inner = inner
        self.name = name or alg.name
        self._gram_inv = None
        self._levi_civita = None
        self._unimodular = {}       # unimodular vectors, by tolerance
        self._killing = {}          # Killing subalgebras, by tolerance
        self._cones = {}            # harmonic cones, by tolerance (see cone.py)

    # -- structural passthroughs ------------------------------------------

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def exact(self) -> bool:
        return self.alg.exact

    @property
    def gram(self) -> np.ndarray:
        return self.inner.gram

    @property
    def gram_inv(self) -> np.ndarray:
        if self._gram_inv is None:
            self._gram_inv = la.inv(self.inner.gram)
        return self._gram_inv

    def bracket(self, u, v) -> np.ndarray:
        return self.alg.bracket(u, v)

    def ad(self, u) -> np.ndarray:
        return self.alg.ad(u)

    def ad_star(self, u) -> np.ndarray:
        """Metric adjoint of ad_u, the M with <ad_u v, w> = <v, M w> (stacks as in ``ad``)."""
        return la.matmul(self.gram_inv, self.ad(u).swapaxes(-1, -2), self.gram)

    def pair(self, u, v):
        return self.inner.pair(u, v)

    def norm(self, u) -> float:
        return self.inner.norm(u)

    def basis(self, i: int) -> np.ndarray:
        return self.alg.basis(i)

    def metric_trace(self, expr) -> np.ndarray:
        """sum_i expr(b_i, b_i) over an orthonormal basis of a bilinear
        ``expr``, as the contraction sum_ij (G^-1)_ij expr(e_i, e_j) =
        sum_i expr(e_i, G^-1 e_i) (basis independent, exact-safe)."""
        ginv = self.gram_inv
        out = None
        for i in range(self.dim):
            term = expr(self.basis(i), ginv[:, i])
            out = term if out is None else out + term
        return out if out is not None else la.zeros(self.dim, self.exact)

    # -- first-order geometry ---------------------------------------------

    def unimodular_vector(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """The vector U with <U, v> = tr(ad_v) for every v.

        Cross-checked against the independent expression
        sum_i A_{e_i} e_i over an orthonormal basis; disagreement raises
        :class:`CrossCheckError`.
        """
        if tol not in self._unimodular:
            by_trace = la.matmul(self.gram_inv, self.alg.ad_traces())
            by_product = self.levi_civita().frame_sum(self.gram_inv)
            _check_cross("unimodular vector", by_trace, by_product, tol)
            self._unimodular[tol] = by_trace
        return self._unimodular[tol]

    def is_unimodular(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return _negligible(self.unimodular_vector(tol), tol, lambda: la.norm(self.alg.c))

    def levi_civita(self) -> "LeviCivitaProduct":
        # Only the table is memoized: a memoized product would refer back to
        # this object, and the reference cycle would keep both (with their
        # arrays) alive until the cyclic garbage collector happens to run.
        if self._levi_civita is None:
            self._levi_civita = LeviCivitaProduct._table(self)
        return LeviCivitaProduct(self, self._levi_civita)

    # -- curvature ----------------------------------------------------------

    def curvature(self, u, v) -> np.ndarray:
        """Matrix of w -> K(u,v)w, K(u,v) = [A_u, A_v] - A_[u,v] (row by row for stacks)."""
        lc = self.levi_civita()
        au = lc.operator(u)
        av = lc.operator(v)
        return la.matmul(au, av) - la.matmul(av, au) - lc.operator(self.bracket(u, v))

    def max_curvature_norm(self) -> float:
        """max ||K(e_i, e_j)|| over basis pairs i < j, every K in one stacked
        :meth:`curvature` call (0.0 below dimension 2)."""
        n = self.dim
        e = la.eye(n, self.exact)
        ii, jj = la.strict_pairs(n)
        return la.max_row_norm(self.curvature(e[ii], e[jj]).reshape(len(ii), n * n))

    def curvature_trace(self, u, weights) -> np.ndarray:
        """sum_ab weights[a,b] K(u, e_a) e_b, for a vector u or for each row
        of a matrix u.

        With ``weights = G^-1`` this is sum_i K(u, b_i) b_i over an
        orthonormal basis.  Expanding K(u, v) = [A_u, A_v] - A_[u,v] gives
        three frame sums of the Levi-Civita table:
        A_u(sum_ab w_ab A_a e_b) - sum_ab w_ab A_a A_u e_b
        - sum_ab w_ab A_[u,e_a] e_b.
        """
        lc = self.levi_civita()
        a_u = lc.operator(u).swapaxes(-1, -2)          # a_u[..., a, b] = (A_u e_a)_b
        return la.matmul(lc.frame_sum(weights), a_u) - lc.frame_sum(
            la.matmul(weights, a_u) + la.matmul(self.ad(u), weights))

    def ricci_operator(self) -> np.ndarray:
        """Matrix of ric(u) = sum_i K(u, b_i) b_i over an orthonormal basis."""
        return self.curvature_trace(la.eye(self.dim, self.exact), self.gram_inv).T

    # -- distinguished subspaces -------------------------------------------

    def killing_subalgebra(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        """Columns spanning {u : ad_u + ad_u* = 0}.

        These are the directions whose left-invariant fields are Killing.
        The result is checked to be closed under the bracket, and memoized
        per tolerance as a read-only array.
        """
        cached = self._killing.get(tol)
        if cached is not None:
            return cached
        n = self.dim
        c = self.alg.c                      # c[i] = ad(e_i)^T
        sym = c.transpose(0, 2, 1) + la.matmul(self.gram_inv, c, self.gram)
        stacked = sym.reshape(n, n * n).T   # column i: ad(e_i) + ad*(e_i)
        basis = la.nullspace(stacked, tol)
        rows = _closure_residual(c, basis, la.kernel_residual)
        _check_cross("Killing directions are not bracket-closed", rows, 0, tol,
                     lambda: la.norm(c), la.max_row_norm)
        self._killing[tol], = la._frozen(basis)
        return basis

    def is_biinvariant(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True when every ad_u is skew, i.e. the Killing space is everything."""
        return self.killing_subalgebra(tol).shape[1] == self.dim


class LeviCivitaProduct:
    """The bilinear product A with A_u v - A_v u = [u,v] and skew A_u.

    ``table[i][j]`` holds A_{e_i} e_j in coordinates; ``operator(u)`` gives
    the matrix of v -> A_u v.
    """

    def __init__(self, ela: EuclideanLieAlgebra, table: np.ndarray):
        self.ela = ela
        self.table = table

    @staticmethod
    def _table(ela: EuclideanLieAlgebra) -> np.ndarray:
        # 2 <A_i j, k> = <[i,j],k> + <[k,i],j> + <[k,j],i>, summed on the
        # numerators of exact input, which share one denominator
        (c, dc), (g, dg), (h, dh) = map(la.numerators, (ela.alg.c, ela.gram, ela.gram_inv.T / 2))
        cov = c @ g                          # a 2-D right operand contracts the last axis
        rhs = cov + np.transpose(cov, (1, 2, 0)) + np.transpose(cov, (2, 1, 0))
        return la.over(rhs @ h, dc * dg * dh)

    def product(self, u, v) -> np.ndarray:
        """A_u v, row by row for stacks ``u[..., n]``, ``v[..., n]``."""
        return la.matmul(self.operator(u), np.asarray(v)[..., None])[..., 0]

    def frame_sum(self, weights) -> np.ndarray:
        """sum_ab weights[..., a, b] A_{e_a} e_b for a weight matrix (or a
        stack of them).  With ``weights = G^-1`` it is the orthonormal-frame
        sum sum_i A_{b_i} b_i."""
        n = self.table.shape[0]
        w = np.asarray(weights)
        return la.matmul(w.reshape(*w.shape[:-2], n * n), self.table.reshape(n * n, n))

    def operator(self, u) -> np.ndarray:
        """Matrix of v -> A_u v, or the stack of them for a stack ``u[..., n]``."""
        return _operators(self.table, u)

    def torsion_defect(self) -> float:
        t = self.table - np.transpose(self.table, (1, 0, 2)) - self.ela.alg.c
        return la.norm(t)

    def compatibility_defect(self) -> float:
        """max |<A_u v, w> + <v, A_u w>| over basis triples."""
        cov = la.matmul(self.table, self.ela.gram)
        return float(np.abs(cov + np.transpose(cov, (0, 2, 1))).max())


# ---------------------------------------------------------------------------
# subalgebras
# ---------------------------------------------------------------------------


@dataclass
class Subalgebra:
    """A bracket-closed subspace of a Euclidean Lie algebra.

    ``basis`` columns live in parent coordinates.  Closure is validated at
    construction; the induced metric is the restriction of the parent one.
    """

    parent: EuclideanLieAlgebra
    basis: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL)

    def __post_init__(self):
        b = self.basis
        if b.ndim != 2 or b.shape[0] != self.parent.dim:
            raise StructureError("subalgebra basis must be parent-dim x k columns")
        if la.rank(b, self.tol) != b.shape[1]:
            raise StructureError("subalgebra basis columns are dependent")
        closure = _closure_residual(self.parent.alg.c, b, la.span_residual)
        if not _negligible(closure, self.tol.scaled(10.0),
                           lambda: la.norm(self.parent.alg.c) * la.norm(b) ** 2, la.max_row_norm):
            raise StructureError("subspace is not closed under the bracket")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def induced(self) -> EuclideanLieAlgebra:
        """The subalgebra as a Euclidean Lie algebra in its own basis."""
        return _on_columns(self.parent, self.basis, self.basis[:, :0], self.tol)

    def tangential_projector(self) -> np.ndarray:
        """G-orthogonal projector of the parent onto the subspace."""
        b = self.basis
        g = self.parent.gram
        return la.matmul(b, la.inv(la.matmul(b.T, g, b)), b.T, g)


def second_fundamental(sub: Subalgebra, tol: Tolerance = DEFAULT_TOL):
    """Second fundamental form and mean curvature of a subalgebra.

    Returns ``(h, H)``: ``h`` is a (k, k, n) array whose ``h[i, j]`` is the
    normal component of A_{b_i} b_j (parent coordinates, b = the k
    subalgebra basis columns, n the parent dimension), and
    ``H = sum_a h(u_a, u_a)`` over a basis orthonormal for the induced
    metric, the frame sum of ``h`` with the inverse induced Gram.  The
    tangential part of A is the induced Levi-Civita product, which is
    cross-checked pair by pair.
    """
    parent = sub.parent
    b, k, n = sub.basis, sub.dim, parent.dim
    products = la.pair_table(parent.levi_civita().table, b, b)     # A_{b_i} b_j
    normal = la.eye(n, parent.exact) - sub.tangential_projector()
    h = la.matmul(normal, products[..., None])[..., 0]

    induced = la.matmul(sub.induced().levi_civita().table, b.T)
    # each float pair is held to its own scale; one scale for all would loosen the check
    if parent.exact:
        _check_cross("tangential Levi-Civita part", products - h, induced, tol)
    elif k:
        tangential, induced = (x.reshape(k * k, n) for x in (products - h, induced))
        defect = np.linalg.norm(tangential - induced, axis=1)
        scale = np.linalg.norm(tangential, axis=1) + np.linalg.norm(induced, axis=1)
        worst = np.argmax(defect - 10.0 * tol.rel * scale)    # scale: the default one, per pair
        _check_cross("tangential Levi-Civita part", tangential[worst], induced[worst], tol)

    # summed pair by pair in basis order, the rounding of the old frame loop
    ginv_sub = la.inv(la.matmul(b.T, parent.gram, b))
    return h, la.zeros(n, parent.exact) + (ginv_sub[..., None] * h).sum(axis=(0, 1))


def quotient_metric(ela: EuclideanLieAlgebra, ideal: Subalgebra,
                    tol: Tolerance = DEFAULT_TOL):
    """Quotient algebra g/ideal with the metric making the projection a
    Riemannian submersion.

    The quotient is realized on the orthogonal complement of the ideal:
    the inverse of the projection restricted to that complement transports
    the parent metric.  Returns ``(quotient, section)`` where ``section``
    has the complement's orthonormal basis as columns (parent coordinates),
    so the projection map in coordinates is ``section^T G``.

    Raises StructureError if the subalgebra is not an ideal.
    """
    b, n = ideal.basis, ela.dim
    moved = la.pair_table(ela.alg.c, la.eye(n, ela.exact), b).reshape(n * b.shape[1], n).T
    if not _negligible(la.span_residual(b, moved).T, tol.scaled(10.0),
                       lambda: la.norm(ela.alg.c) * (1.0 + la.norm(b)) ** 2, la.max_row_norm):
        raise StructureError("subalgebra is not an ideal")

    comp = la.nullspace(la.matmul(b.T, ela.gram), tol)  # complement: <b_i, .>_G = 0
    if not ela.exact:                         # a metric-orthonormal basis is irrational
        comp = la.orthonormalize_in_metric(comp, ela.gram, tol)
    return _on_columns(ela, comp, b, tol, name=f"{ela.name}/ideal"), comp


def _on_columns(ela: EuclideanLieAlgebra, w: np.ndarray, modulo: np.ndarray, tol: Tolerance,
                name: str = "") -> EuclideanLieAlgebra:
    """The algebra on the columns of ``w`` (parent coordinates): its brackets
    are the coordinates x of ``[w_i, w_j] = sum_a x_a w_a`` modulo the columns
    of ``modulo``, its metric the restriction of the parent one."""
    k, n = w.shape[1], ela.dim
    brackets = la.pair_table(ela.alg.c, w, w).reshape(k * k, n).T
    c = la.solve_linear(np.concatenate([w, modulo], axis=1), brackets, tol.scaled(100.0))
    alg = LieAlgebra.from_tensor(c[:k].T.reshape(k, k, k), name=name, exact=ela.exact,
                                 tol=tol.scaled(100.0))
    return EuclideanLieAlgebra(alg, InnerProduct(la.matmul(w.T, ela.gram, w)), name=name)
