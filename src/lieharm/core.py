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


def _check_cross(name: str, defect: float, scale: float, tol: Tolerance) -> None:
    """Raise :class:`CrossCheckError` when ``defect``, the disagreement of two
    independent routes to one quantity, exceeds ten thresholds at ``scale``."""
    if defect > 10.0 * tol.threshold(scale):
        raise CrossCheckError(
            f"{name}: cross-check defect {defect:.3e} (scale {scale:.3e})"
        )


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
        skew_defect = la.norm(np.asarray(arr, dtype=float) + np.asarray(arr, dtype=float).transpose(1, 0, 2))
        if skew_defect > tol.threshold(1.0 + la.norm(arr)):
            raise StructureError(f"structure tensor not antisymmetric (defect {skew_defect:.3e})")
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
        """[u, v] in basis coordinates."""
        u = np.asarray(u)
        v = np.asarray(v)
        return np.einsum("i,j,ijk->k", u, v, self.c)

    def ad(self, u) -> np.ndarray:
        """Matrix of ad_u = [u, .]."""
        return np.einsum("i,ijk->kj", np.asarray(u), self.c)

    def basis(self, i: int) -> np.ndarray:
        e = la.zeros(self.dim, self.exact)
        e[i] = Fraction(1) if self.exact else 1.0
        return e

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


def jacobi_defect(alg: LieAlgebra) -> float:
    """Largest norm of a cyclic Jacobi sum over basis triples i < j < k.

    With ``T[i,j,k] = [[e_i,e_j],e_k]`` (one product of the flattened
    tensor with itself) the cyclic sum is ``T[i,j,k] + T[j,k,i] + T[k,i,j]``.
    It is formed for a block of ``i`` at a time, so the temporaries stay
    within ``BLOCK_ELEMENTS`` entries whatever the dimension.  Exact terms
    are summed as numerators; only the triples' rows become Fractions.
    """
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
        worst = max(worst, la.max_row_norm(la.over(rows, d * d)))
    return worst


def check_jacobi(alg: LieAlgebra, tol: Tolerance = DEFAULT_TOL) -> bool:
    scale = 1.0 + la.norm(alg.c) ** 2
    return jacobi_defect(alg) <= tol.threshold(scale)


def _closure_defect(c, basis, residual) -> float:
    """Largest norm of ``residual(basis, [b_i, b_j])`` over column pairs
    i < j, the brackets from one pair table (0.0 without pairs)."""
    k = basis.shape[1]
    if k < 2:
        return 0.0
    ii, jj = la.strict_pairs(k)
    return la.max_row_norm(residual(basis, la.pair_table(c, basis, basis)[ii, jj].T).T)


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
        return (np.asarray(u) @ self.gram @ np.asarray(v))

    def norm(self, u) -> float:
        return la.metric_norm(np.asarray(u, dtype=float), np.asarray(self.gram, dtype=float))


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
        self._unimodular = None
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
        """Metric adjoint of ad_u: the matrix M with <ad_u v, w> = <v, M w>."""
        return la.matmul(self.gram_inv, self.ad(u).T, self.gram)

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
        if self._unimodular is None:
            by_trace = la.matmul(self.gram_inv, self.alg.ad_traces())
            by_product = self.levi_civita().frame_sum(self.gram_inv)
            _check_cross("unimodular vector",
                         la.norm(la.to_float(by_trace) - la.to_float(by_product)),
                         1.0 + la.norm(by_trace) + la.norm(by_product), tol)
            self._unimodular = by_trace
        return self._unimodular

    def is_unimodular(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        u = self.unimodular_vector(tol)
        return la.norm(u) <= tol.threshold(1.0 + la.norm(self.alg.c))

    def levi_civita(self) -> "LeviCivitaProduct":
        # Only the table is memoized: a memoized product would refer back to
        # this object, and the reference cycle would keep both (with their
        # arrays) alive until the cyclic garbage collector happens to run.
        if self._levi_civita is None:
            self._levi_civita = LeviCivitaProduct._table(self)
        return LeviCivitaProduct(self, self._levi_civita)

    # -- curvature ----------------------------------------------------------

    def curvature(self, u, v) -> np.ndarray:
        """Matrix of w -> K(u,v)w with K(u,v) = [A_u, A_v] - A_[u,v]."""
        lc = self.levi_civita()
        au = lc.operator(u)
        av = lc.operator(v)
        return au @ av - av @ au - lc.operator(self.bracket(u, v))

    def max_curvature_norm(self) -> float:
        """max ||K(e_i, e_j)|| over basis pairs i < j, with every K formed
        at once from the Levi-Civita table (0.0 below dimension 2)."""
        n = self.dim
        ops = self.levi_civita().table.transpose(0, 2, 1)     # ops[i] = A_{e_i}
        ii, jj = la.strict_pairs(n)
        a_i, a_j = ops[ii], ops[jj]
        p = len(ii)
        a_br = (self.alg.c[ii, jj] @ ops.reshape(n, n * n)).reshape(p, n, n)   # A_{[e_i, e_j]}
        return la.max_row_norm((a_i @ a_j - a_j @ a_i - a_br).reshape(p, n * n))

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
        n = self.dim
        u = np.asarray(u)
        lead = u.shape[:-1]
        # a_u[a, b] = (A_u e_a)_b and ad_u[a, x] = [u, e_a]_x
        a_u = la.matmul(u, lc.table.reshape(n, n * n)).reshape(*lead, n, n)
        ad_u = la.matmul(u, self.alg.c.reshape(n, n * n)).reshape(*lead, n, n)
        return la.matmul(lc.frame_sum(weights), a_u) - lc.frame_sum(
            la.matmul(weights, a_u) + la.matmul(np.swapaxes(ad_u, -1, -2), weights))

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
        if _closure_defect(c, basis, la.kernel_residual) > 10.0 * tol.threshold(1.0 + la.norm(c)):
            raise CrossCheckError("Killing directions are not bracket-closed")
        self._killing[tol], = la._frozen(basis)
        return basis

    def is_biinvariant(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True when every ad_u is skew, i.e. the Killing space is everything."""
        return self.killing_subalgebra(tol).shape[1] == self.dim

    def orthonormal_frame(self, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
        return la.orthonormal_basis(np.asarray(self.gram, dtype=float), tol)


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
        half = Fraction(1, 2) if ela.exact else 0.5
        (c, dc), (g, dg), (h, dh) = map(la.numerators, (ela.alg.c, ela.gram, half * ela.gram_inv.T))
        cov = la.contract_last(c, g)
        rhs = cov + np.transpose(cov, (1, 2, 0)) + np.transpose(cov, (2, 1, 0))
        return la.over(la.contract_last(rhs, h), dc * dg * dh)

    def product(self, u, v) -> np.ndarray:
        return np.einsum("i,j,ijk->k", np.asarray(u), np.asarray(v), self.table)

    def frame_sum(self, weights) -> np.ndarray:
        """sum_ab weights[..., a, b] A_{e_a} e_b for a weight matrix (or a
        stack of them).  With ``weights = G^-1`` it is the orthonormal-frame
        sum sum_i A_{b_i} b_i."""
        n = self.table.shape[0]
        w = np.asarray(weights)
        return la.matmul(w.reshape(*w.shape[:-2], n * n), self.table.reshape(n * n, n))

    def operator(self, u) -> np.ndarray:
        """Matrix of v -> A_u v."""
        return np.einsum("i,ijk->kj", np.asarray(u), self.table)

    def torsion_defect(self) -> float:
        t = self.table - np.transpose(self.table, (1, 0, 2)) - self.ela.alg.c
        return la.norm(t)

    def compatibility_defect(self) -> float:
        """max |<A_u v, w> + <v, A_u w>| over basis triples."""
        g = np.asarray(self.ela.gram, dtype=float)
        tab = np.asarray(self.table, dtype=float)
        cov = np.einsum("ijl,lk->ijk", tab, g)
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
        if la.rank(np.asarray(b, dtype=float), self.tol) != b.shape[1]:
            raise StructureError("subalgebra basis columns are dependent")
        scale = 1.0 + la.norm(self.parent.alg.c) * la.norm(b) ** 2
        if _closure_defect(self.parent.alg.c, b, la.span_residual) > 10 * self.tol.threshold(scale):
            raise StructureError("subspace is not closed under the bracket")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def induced(self) -> EuclideanLieAlgebra:
        """The subalgebra as a Euclidean Lie algebra in its own basis."""
        b, k, n = self.basis, self.dim, self.parent.dim
        brackets = la.pair_table(self.parent.alg.c, b, b).reshape(k * k, n).T
        c = la.solve_linear(b, brackets, self.tol.scaled(100.0)).T.reshape(k, k, k)
        alg = LieAlgebra.from_tensor(c, exact=self.parent.exact, tol=self.tol.scaled(100.0))
        inner = InnerProduct(b.T @ self.parent.gram @ b)
        return EuclideanLieAlgebra(alg, inner)

    def inclusion_matrix(self) -> np.ndarray:
        return self.basis

    def tangential_projector(self) -> np.ndarray:
        """G-orthogonal projector of the parent onto the subspace."""
        b = self.basis
        g = self.parent.gram
        return b @ la.inv(b.T @ g @ b) @ b.T @ g


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
    tangential, induced = (la.to_float(x).reshape(k * k, n) for x in (products - h, induced))
    defect = np.linalg.norm(tangential - induced, axis=1)
    scale = 1.0 + np.linalg.norm(tangential, axis=1) + np.linalg.norm(induced, axis=1)
    if k:
        worst = np.argmax(defect - 10.0 * tol.rel * scale)
        _check_cross("tangential Levi-Civita part", defect[worst], scale[worst], tol)

    # summed pair by pair in basis order, the rounding of the old frame loop
    ginv_sub = la.inv(b.T @ parent.gram @ b)
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
    scale = 1.0 + la.norm(ela.alg.c) * (1.0 + la.norm(b)) ** 2
    moved = la.pair_table(ela.alg.c, la.eye(n, ela.exact), b).reshape(n * b.shape[1], n).T
    if la.max_row_norm(la.span_residual(b, moved).T) > 10.0 * tol.threshold(scale):
        raise StructureError("subalgebra is not an ideal")

    comp = la.nullspace(b.T @ ela.gram, tol)  # complement: <b_i, .>_G = 0
    if not ela.exact:
        comp = la.orthonormalize_in_metric(comp, np.asarray(ela.gram, dtype=float), tol)
    q = comp.shape[1]
    # coordinates of the projection: [w_i, w_j] = sum_a x_a w_a  mod ideal
    brackets = la.pair_table(ela.alg.c, comp, comp).reshape(q * q, n).T
    c = la.solve_linear(np.concatenate([comp, b], axis=1), brackets, tol.scaled(100.0))
    alg = LieAlgebra.from_tensor(c[:q].T.reshape(q, q, q), name=f"{ela.name}/ideal",
                                 exact=ela.exact, tol=tol.scaled(100.0))
    quotient = EuclideanLieAlgebra(
        alg, InnerProduct(comp.T @ ela.gram @ comp), name=f"{ela.name}/ideal"
    )
    return quotient, comp
