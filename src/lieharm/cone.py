"""Inner-automorphism harmonicity and the cone of harmonically reachable metrics.

For an automorphism ``Phi`` of a Euclidean Lie algebra, the trace form
``u -> tr(Phi^* ad_u Phi)`` is the obstruction to the corresponding inner
isometry being harmonic: on a unimodular algebra its metric dual is exactly
the tension of ``Phi`` as a self-map.

For a fixed metric ``g``, the *harmonic cone* collects the metrics ``h``
with ``h(u,v) = g(Ju,v)`` whose identity map from ``g`` is harmonic.  Such
``J`` are metric-symmetric, ``J = gram^{-1} S`` with ``S`` symmetric, and the
membership condition is linear:

    tr(J ad_u) = tr(ad_{Ju})   for all u,

``n`` equations on the ``n(n+1)/2`` coordinates of ``S``; the cone is the
positive-definite part of their solution space and its *dimension* is the
dimension of the linear span.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from . import _linalg as la
from ._linalg import DEFAULT_TOL, Tolerance
from .core import EuclideanLieAlgebra, _check_cross, _negligible
from .maps import LieAlgebraMap, tension, validate_hom


class ConeError(ValueError):
    """Input unusable for automorphism/cone analysis."""


@dataclass(frozen=True)
class Automorphism:
    """An invertible, bracket-preserving operator on a Euclidean Lie algebra.

    The bracket-preservation check runs at 100x the base tolerance: typical
    inputs come out of matrix exponentials, whose round-off is larger than
    that of exact structure data.
    """

    base: EuclideanLieAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        n = self.base.dim
        if m.ndim != 2 or m.shape != (n, n):
            raise ConeError(f"automorphism matrix must be {n} x {n}")
        if la.is_exact(m) != self.base.exact:
            raise ConeError("automorphism and algebra must use the same scalar mode")

    def defect(self) -> float:
        return self.as_map().hom_defect()

    def validate(self, tol: Tolerance = DEFAULT_TOL) -> None:
        if la.rank(self.matrix, tol) != self.base.dim:
            raise ConeError("automorphism matrix is singular")
        if not validate_hom(self.as_map(), tol.scaled(100.0)):
            raise ConeError(f"matrix does not preserve the bracket (defect {self.defect():.3e})")

    def as_map(self) -> LieAlgebraMap:
        """The operator as a self-map with equal source and target metric."""
        return LieAlgebraMap(self.base, self.base, self.matrix, name="automorphism")


def exp_adjoint(ela: EuclideanLieAlgebra, u, tol: Tolerance = DEFAULT_TOL) -> Automorphism:
    """The automorphism exp(ad_u), the differential of conjugation by exp(u)."""
    phi = la.matrix_exp(ela.ad(u))
    return Automorphism(ela, phi)


def automorphism_trace_form(adj: Automorphism, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Covector with components tr(Phi^* ad_{b_k} Phi) in the basis.

    Its vanishing characterizes harmonicity of the inner isometry attached
    to ``Phi`` on a unimodular algebra.
    """
    adj.validate(tol)
    base = adj.base
    phi = adj.matrix
    phi_star = la.matmul(base.gram_inv, phi.T, base.gram)
    # tr(Phi^* ad_k Phi) = tr(ad_k Phi Phi^*)
    return base.alg.trace_pairing(la.matmul(phi, phi_star))


def inner_tension(adj: Automorphism, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Tension of the automorphism as a self-map (same metric on both sides).

    Cross-checked against the trace form: the tension always equals
    ``gram^{-1} alpha - Phi(U)`` with ``alpha`` the trace-form covector and
    ``U`` the unimodularity vector (so for unimodular algebras it is the
    metric dual of the trace form).
    """
    alpha = automorphism_trace_form(adj, tol)     # validates adj
    tau = tension(adj.as_map(), tol)
    base = adj.base
    expected = la.matmul(base.gram_inv, alpha) - la.matmul(adj.matrix, base.unimodular_vector(tol))
    _check_cross("inner tension vs trace-form dual", tau, expected, tol,
                 lambda: la.norm(tau) + la.norm(alpha))
    return tau


# ---------------------------------------------------------------------------
# the special-linear rank-one family
# ---------------------------------------------------------------------------

#: structure constants of the trace-free 2x2 matrices on the basis
#: (h, e, f) = (diag(1,-1), upper shift, lower shift):
#: [h,e] = 2e, [h,f] = -2f, [e,f] = h.
SL2_BRACKETS = {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)}


def sl2_adjoint_matrix(entries: Sequence[float], exact: bool = False) -> np.ndarray:
    """Conjugation by [[a,b],[c,d]] on the (h, e, f) basis (determinant 1)."""
    a, b, c, d = entries
    rows = [
        [a * d + b * c, -a * c, b * d],
        [-2 * a * b, a * a, -b * b],
        [2 * c * d, -c * c, d * d],
    ]
    return la.as_matrix(rows, exact)


def sl2_residuals(entries: Sequence[float], alphas: Sequence[float],
                  tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """The three harmonicity residuals for conjugation by [[a,b],[c,d]] on
    the trace-free 2x2 matrices with metric diag(alpha1, alpha2, alpha3)
    in the (h, e, f) basis.  All three vanish exactly when the inner
    isometry is harmonic.
    """
    a, b, c, d = entries
    a1, a2, a3 = alphas
    if not (a1 > 0 and a2 > 0 and a3 > 0):
        raise ConeError("metric parameters must be positive")
    det = a * d - b * c
    if not _negligible(det - 1, tol, lambda: abs(float(a * d)) + abs(float(b * c)), norm=abs):
        raise ConeError(f"matrix determinant must be 1, got {float(det)!r}")
    a21, a31 = a2 / a1, a3 / a1
    a23, a32 = a2 / a3, a3 / a2
    a12, a13 = a1 / a2, a1 / a3
    r1 = 8 * (a ** 2 * b ** 2 * a21 - c ** 2 * d ** 2 * a31) + 2 * (
        a ** 4 - d ** 4 + b ** 4 * a23 - c ** 4 * a32
    )
    r2 = (
        2 * (a * d + b * c) * (2 * a * b * a21 + c * d)
        + a * c * (c ** 2 * a12 + 2 * a ** 2)
        + b * d * (d ** 2 * a13 + 2 * b ** 2 * a23)
    )
    r3 = (
        2 * (a * d + b * c) * (a * b + 2 * c * d * a31)
        + a * c * (a ** 2 * a12 + 2 * c ** 2 * a32)
        + b * d * (b ** 2 * a13 + 2 * d ** 2)
    )
    return np.array([r1, r2, r3])             # object for Fractions, float64 for floats


# ---------------------------------------------------------------------------
# the harmonic cone
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeResult:
    """Linear hull of the harmonic cone of a metric.

    ``sym_basis`` spans the operators J = gram^{-1} S, S symmetric, satisfying
    the trace condition (in float mode the S are Frobenius-orthonormal); the
    cone itself is the positive-definite subset, whose interior contains
    ``sample_interior`` (always the identity operator).  Arrays are read-only.

    ``dimension`` is read off the kernel decision of the trace rows, and
    ``sym_basis`` is formed from that kernel's basis on its first read, so a
    caller of ``dimension`` alone forms no operator.  The identity operator
    must lie in the kernel: :func:`harmonic_cone` checks this on the kept
    rows (float) or on the exact basis, and the first read of ``sym_basis``
    checks it again on the basis it forms.
    """

    dimension: int
    sample_interior: np.ndarray
    _kernel: la.Kernel = field(repr=False)
    _gram: np.ndarray = field(repr=False)
    _gram_inv: np.ndarray = field(repr=False)
    _tol: Tolerance = field(repr=False)

    @functools.cached_property
    def sym_basis(self) -> Tuple[np.ndarray, ...]:
        basis = self._kernel.basis
        n = len(self._gram)
        _check_identity(la.kernel_residual(basis, _identity_coordinates(self._gram)),
                        self._gram, self._tol)
        _, _, u, pos = _sym_coordinates(n, la.is_exact(basis))
        sym, units = basis.T[:, pos], u[pos]
        np.multiply(sym, units, out=sym, where=units != 1)     # in exact mode no unit rescales
        ops, = la._frozen(la.matmul(self._gram_inv, sym.reshape(-1, n, n)))
        return tuple(ops)


@functools.lru_cache(maxsize=64)
def _sym_coordinates(n: int, exact: bool):
    """``(a, b, u, pos)``: the entries a <= b of a symmetric matrix, row-major,
    the value the unit of each coordinate takes at (a, b) and (b, a), and
    ``pos[x*n + y]``, the coordinate of the unordered pair {x, y}.  ``u`` is 1
    on the diagonal; off it, 1/sqrt(2) in float mode, so the coordinates are
    a Frobenius isometry, and 1 (an int in an object array) in exact mode,
    where 1/sqrt(2) is irrational: the one mode split of the cone."""
    a, b = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[a, b] = pos[b, a] = np.arange(len(a))
    u = np.ones(len(a), dtype=object) if exact else np.where(a == b, 1.0, np.sqrt(0.5))
    return la._frozen(a, b, u, pos.reshape(-1))


def _identity_coordinates(gram: np.ndarray) -> np.ndarray:
    """The identity operator J = 1, that is S = gram, in the coordinates of S."""
    a, b, u, _ = _sym_coordinates(len(gram), la.is_exact(gram))
    return np.divide(gram[a, b], u, out=gram[a, b], where=u != 1)


def _check_identity(residual, gram: np.ndarray, tol: Tolerance) -> None:
    """Raise :class:`~lieharm.core.CrossCheckError` unless the identity
    operator's ``residual`` against the cone's kernel vanishes: a metric
    always reaches itself, so a nonzero residual is a solver failure."""
    _check_cross("identity operator in the harmonic-cone span", residual, 0, tol,
                 lambda: la.norm(gram))


def _cone_constraints(ela: EuclideanLieAlgebra) -> np.ndarray:
    """The n trace rows on the coordinates of S: row k is tr(J ad_k) -
    tr(ad_{J b_k}) = <T_k, J> = <gram^{-1} T_k, S>, T_k[a, b] = c[k, a, b] -
    delta_bk tr(ad_a), of which only the symmetric part counts."""
    n = ela.dim
    (c, dc), (ginv, dg) = map(la.numerators, (ela.alg.c, ela.gram_inv))
    trace = c.copy()
    diag = np.arange(n)
    trace[diag, :, diag] -= np.trace(c, axis1=1, axis2=2)
    p = ginv @ trace
    a, b, u, _ = _sym_coordinates(n, ela.exact)
    return la.over((p[:, a, b] + np.where(a < b, p[:, b, a], 0)) * u, dc * dg)


def harmonic_cone(ela: EuclideanLieAlgebra, tol: Tolerance = DEFAULT_TOL) -> ConeResult:
    """The kernel of the trace rows on S, mapped to J = gram^{-1} S;
    memoized on ``ela`` per tolerance.

    The identity operator, S = gram, always solves them (a metric reaches
    itself); its absence from the kernel would mean a solver failure and
    raises :class:`~lieharm.core.CrossCheckError`.  It is checked here on the
    kept rows of the SVD (float) or on the exact basis, and again on the
    basis that the first read of ``sym_basis`` forms.
    """
    cached = ela._cones.get(tol)
    if cached is not None:
        return cached
    kern = la.kernel(_cone_constraints(ela), tol)
    _check_identity(kern.residual(_identity_coordinates(ela.gram)), ela.gram, tol)
    eye, = la._frozen(la.eye(ela.dim, ela.exact))
    result = ConeResult(dimension=kern.cols - kern.rank, sample_interior=eye, _kernel=kern,
                        _gram=ela.gram, _gram_inv=ela.gram_inv, _tol=tol)
    ela._cones[tol] = result
    return result


def harmonic_dimension_check(ela: EuclideanLieAlgebra,
                             tol: Tolerance = DEFAULT_TOL) -> Tuple[int, int]:
    """(measured, predicted) harmonic dimension of a unimodular algebra.

    ``predicted = n(n-1)/2 + dim Kill`` (the count of metric-symmetric
    operators vs. independent trace constraints).  Disagreement raises
    :class:`~lieharm.core.CrossCheckError`; non-unimodular input raises
    :class:`ConeError`.
    """
    if not ela.is_unimodular(tol):
        raise ConeError("the dimension formula applies to unimodular algebras")
    measured = harmonic_cone(ela, tol).dimension
    n = ela.dim
    predicted = n * (n - 1) // 2 + ela.killing_subalgebra(tol).shape[1]
    _check_cross(f"harmonic dimension mismatch: measured {measured}, formula gives {predicted}",
                 measured, predicted, tol)
    return measured, predicted


def cone_membership(ela: EuclideanLieAlgebra, j, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the metric ``h(u,v) = g(Ju,v)`` is harmonically reachable
    from ``g``: J must satisfy the trace identity and be positive definite.

    ``J`` must be symmetric w.r.t. the metric (``gram J = J^T gram``);
    otherwise ``h`` is not even a bilinear metric candidate and a
    :class:`ConeError` is raised.
    """
    jm = la.as_matrix(j, ela.exact) if not isinstance(j, np.ndarray) else j
    n = ela.dim
    if jm.shape != (n, n):
        raise ConeError(f"operator must be {n} x {n}")
    g = ela.gram
    gj = la.matmul(g, jm)
    skew = gj - gj.T
    if not _negligible(skew, tol, lambda: la.norm(g) * la.norm(jm)):
        raise ConeError(
            f"operator is not symmetric w.r.t. the metric (defect {la.norm(skew):.3e})"
        )
    # tr(J ad_k) against tr(ad_{J b_k}) for every k
    residual = ela.alg.trace_pairing(jm) - la.matmul(ela.alg.ad_traces(), jm)
    return (_negligible(residual, tol, lambda: la.norm(jm) * la.norm(ela.alg.c),
                        norm=lambda r: np.abs(r).max(initial=0.0))
            and la.is_positive_definite((gj + gj.T) / 2, tol))
