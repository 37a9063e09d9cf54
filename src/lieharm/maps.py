"""Linear maps between Euclidean Lie algebras and their harmonicity data.

A map is a matrix ``xi`` sending source coordinates to target coordinates.
The central quantities are the tension and bitension vectors built from the
Levi-Civita products of both sides:

* ``U_xi   = sum_i B_{xi b_i} xi b_i``                (orthonormal source basis)
* ``tau    = U_xi - xi(U_src)``
* ``tau2   = -sum_i (B_{xi b_i} B_{xi b_i} tau + K(tau, xi b_i) xi b_i)
             + B_{xi U_src} tau``

where ``B`` and ``K`` are the target Levi-Civita product and curvature and
``U_src`` is the source unimodularity vector.  A map is harmonic when
``tau = 0`` and biharmonic when ``tau2 = 0``.

Every first-class quantity is computed twice, by structurally different
formulas (a basis sum and a trace identity), and the two results must agree;
a disagreement raises :class:`~lieharm.core.CrossCheckError` instead of
returning a silently wrong vector.  The trace forms are

* ``<U_xi, u>    = tr(xi^* ad_u xi)``
* ``<tau2, u>    = tr(xi^* (ad_u + ad_u^*) ad_tau xi)
                   - <[u, tau], tau> - <[tau, U_xi], u>``

with ``xi^*`` the metric adjoint and all pairings in the target metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from . import _linalg as la
from ._linalg import DEFAULT_TOL, Tolerance
from .core import (
    EuclideanLieAlgebra,
    Subalgebra,
    _check_cross,
    quotient_metric,
    second_fundamental,
)


class MapError(ValueError):
    """The map data is unusable for the requested operation."""


@dataclass(frozen=True)
class LieAlgebraMap:
    """A linear map between Euclidean Lie algebras, stored as a matrix.

    ``matrix`` has shape (target.dim, source.dim) and acts on coordinate
    vectors.  Nothing about being a Lie-algebra homomorphism is assumed at
    construction; use :func:`validate_hom` / :meth:`hom_defect`.
    """

    source: EuclideanLieAlgebra
    target: EuclideanLieAlgebra
    matrix: np.ndarray
    name: str = ""

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape != (self.target.dim, self.source.dim):
            raise MapError(
                f"map matrix must be {self.target.dim} x {self.source.dim}, "
                f"got {m.shape}"
            )
        if la.is_exact(m) != (self.source.exact and self.target.exact):
            raise MapError("map matrix and algebras must use the same scalar mode")
        if self.source.exact != self.target.exact:
            raise MapError("source and target must use the same scalar mode")

    @property
    def exact(self) -> bool:
        return self.source.exact

    @staticmethod
    def identity(source: EuclideanLieAlgebra,
                 target: Optional[EuclideanLieAlgebra] = None,
                 name: str = "id") -> "LieAlgebraMap":
        """The identity matrix as a map; ``target`` may carry a second metric
        on the same underlying algebra (the main use case)."""
        tgt = source if target is None else target
        if tgt.dim != source.dim:
            raise MapError("identity map needs equal dimensions")
        return LieAlgebraMap(source, tgt, la.eye(source.dim, source.exact), name)

    def apply(self, u) -> np.ndarray:
        return self.matrix @ np.asarray(u)

    def adjoint_matrix(self) -> np.ndarray:
        """Matrix of the metric adjoint xi^*: target -> source, defined by
        <xi u, w>_target = <u, xi^* w>_source."""
        return la.matmul(self.source.gram_inv, self.matrix.T, self.target.gram)

    def hom_defect(self) -> float:
        """max_{i<j} | xi[b_i, b_j] - [xi b_i, xi b_j] | over basis pairs."""
        ns, nt = self.source.dim, self.target.dim
        if ns < 2:
            return 0.0
        xi = self.matrix
        image = la.matmul(self.source.alg.c, xi.T)                      # [i, j, m]
        half = la.matmul(xi.T, self.target.alg.c.reshape(nt, nt * nt)).reshape(ns, nt, nt)
        pushed = la.matmul(xi.T, half)                                  # [i, j, m]
        ii, jj = la.strict_pairs(ns)
        return la.max_row_norm((image - pushed)[ii, jj])

    def rank(self, tol: Tolerance = DEFAULT_TOL) -> int:
        return la.rank(la.to_float(self.matrix), tol)


def validate_hom(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the matrix respects the brackets within tolerance."""
    scale = _hom_scale(m)
    return m.hom_defect() <= tol.threshold(scale)


def _hom_scale(m: LieAlgebraMap) -> float:
    nxi = la.norm(m.matrix)
    return 1.0 + la.norm(m.source.alg.c) * nxi + la.norm(m.target.alg.c) * nxi ** 2


def require_hom(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL) -> None:
    """Raise :class:`MapError` (with the measured defect) unless a hom."""
    defect = m.hom_defect()
    if defect > tol.threshold(_hom_scale(m)):
        raise MapError(
            f"map {m.name or ''} is not a Lie algebra homomorphism "
            f"(max bracket defect {defect:.3e})"
        )


def compose(outer: LieAlgebraMap, inner: LieAlgebraMap,
            tol: Tolerance = DEFAULT_TOL) -> LieAlgebraMap:
    """outer o inner; the middle algebras must coincide (same structure
    constants and metric within tolerance)."""
    mid_a, mid_b = inner.target, outer.source
    if mid_a.dim != mid_b.dim:
        raise MapError("composition: middle dimensions differ")
    c_diff = la.norm(la.to_float(mid_a.alg.c) - la.to_float(mid_b.alg.c))
    g_diff = la.norm(la.to_float(mid_a.gram) - la.to_float(mid_b.gram))
    if c_diff > tol.threshold(1.0 + la.norm(mid_a.alg.c)) or g_diff > tol.threshold(
        1.0 + la.norm(mid_a.gram)
    ):
        raise MapError("composition: middle Euclidean algebras differ")
    return LieAlgebraMap(
        inner.source,
        outer.target,
        outer.matrix @ inner.matrix,
        name=f"{outer.name or 'outer'}.{inner.name or 'inner'}",
    )


# ---------------------------------------------------------------------------
# tension and bitension
# ---------------------------------------------------------------------------


def connection_trace(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """U_xi = sum_i B_{xi b_i} xi b_i over an orthonormal source basis.

    Cross-checked against the trace identity <U_xi, u> = tr(xi^* ad_u xi);
    the direct sum is returned.
    """
    tgt, xi = m.target, m.matrix
    direct = tgt.levi_civita().frame_sum(_frame_weights(m))
    # tr(xi^* ad_u xi) = tr(ad_u xi xi^*)
    dual = la.matmul(tgt.gram_inv, tgt.alg.trace_pairing(la.matmul(xi, m.adjoint_matrix())))
    _check_cross("connection trace", la.norm(la.to_float(direct) - la.to_float(dual)),
                 1.0 + la.norm(direct) + la.norm(dual), tol)
    return direct


def _frame_weights(m: LieAlgebraMap) -> np.ndarray:
    """xi G_src^-1 xi^T = sum_i (xi b_i)(xi b_i)^T over an orthonormal source
    basis: the weights of every frame sum over the image of the basis."""
    return la.matmul(m.matrix, m.source.gram_inv, m.matrix.T)


def _tension_terms(m: LieAlgebraMap, tol: Tolerance):
    """(U_src, U_xi, tau), each computed once."""
    u_src = m.source.unimodular_vector(tol)
    u_xi = connection_trace(m, tol)
    return u_src, u_xi, u_xi - m.apply(u_src)


def tension(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """tau = U_xi - xi(U_src); harmonic maps are its zeros."""
    return _tension_terms(m, tol)[2]


def bitension(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Second-order tension tau2; biharmonic maps are its zeros.

    Computed by the curvature formula (returned) and independently by the
    trace identity for every pairing <tau2, b_k>; the two must agree.
    """
    tau2, _ = _bitension_terms(m, tol, *_tension_terms(m, tol))
    return tau2


def _bitension_terms(m: LieAlgebraMap, tol: Tolerance, u_src, u_xi, tau):
    """tau2 and the norms of its three terms, given ``_tension_terms(m)``."""
    tgt = m.target
    lc = tgt.levi_civita()
    w = _frame_weights(m)
    # sum_i B_{xi b_i} B_{xi b_i} tau and sum_i K(tau, xi b_i) xi b_i
    t_second = lc.frame_sum(la.matmul(w, la.matmul(tau, lc.table)))
    t_curv = tgt.curvature_trace(tau, w)
    t_drift = lc.product(m.apply(u_src), tau)
    tau2 = -(t_second + t_curv) + t_drift

    # independent route: pairings through the adjoint trace identity, with
    # tr(xi^* (ad_u + ad_u^*) ad_tau xi) = tr(ad_u (N + (G N G^-1)^T)) for
    # N = ad_tau xi xi^*, and <[u, tau], tau> = tr(ad_u tau (G tau)^T)
    g = tgt.gram
    n_tau = la.matmul(tgt.ad(tau), m.matrix, m.adjoint_matrix())
    sym = n_tau + la.matmul(g, n_tau, tgt.gram_inv).T
    pairings = (tgt.alg.trace_pairing(sym - np.outer(tau, la.matmul(g, tau)))
                - la.matmul(tgt.bracket(tau, u_xi), g))
    dual = la.matmul(tgt.gram_inv, pairings)

    scale = 1.0 + la.norm(t_second) + la.norm(t_curv) + la.norm(t_drift)
    _check_cross("bitension (curvature formula vs trace identity)",
                 la.norm(la.to_float(tau2) - la.to_float(dual)), scale, tol)
    norms = {
        "second_order": la.norm(t_second),
        "curvature": la.norm(t_curv),
        "drift": la.norm(t_drift),
    }
    return tau2, norms


# ---------------------------------------------------------------------------
# metric behaviour: immersions and submersions
# ---------------------------------------------------------------------------


def riemannian_immersion_defect(m: LieAlgebraMap) -> float:
    """|| xi^T G2 xi - G1 ||: zero iff xi preserves inner products."""
    return la.norm(
        la.to_float(la.matmul(m.matrix.T, m.target.gram, m.matrix)) - la.to_float(m.source.gram)
    )


def is_riemannian_immersion(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    scale = 1.0 + la.norm(m.source.gram) + la.norm(m.matrix) ** 2 * la.norm(m.target.gram)
    return riemannian_immersion_defect(m) <= tol.threshold(scale)


def riemannian_submersion_defect(m: LieAlgebraMap) -> float:
    """|| xi G1^-1 xi^T - G2^-1 ||: zero iff xi is isometric on the
    orthogonal complement of its kernel (and onto)."""
    return la.norm(la.to_float(_frame_weights(m)) - la.to_float(m.target.gram_inv))


def is_riemannian_submersion(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL) -> bool:
    scale = 1.0 + la.norm(m.target.gram_inv) + la.norm(m.matrix) ** 2 * la.norm(
        m.source.gram_inv
    )
    return riemannian_submersion_defect(m) <= tol.threshold(scale)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapClassification:
    """Tension data plus boolean flags for one map."""

    tension: np.ndarray
    bitension: np.ndarray
    flags: Dict[str, bool]


def classify(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL,
             require_homomorphism: bool = True) -> MapClassification:
    """Compute tension/bitension and decide the standard flags.

    Thresholds are tolerance times a scale built from the ingredients of
    each quantity, so the verdict is stable under rescaling the data.  A
    harmonic map is always reported biharmonic as well.
    """
    if require_homomorphism:
        require_hom(m, tol)
    u_src, u_xi, tau = _tension_terms(m, tol)
    tau2, norms = _bitension_terms(m, tol, u_src, u_xi, tau)

    h_scale = 1.0 + la.norm(m.matrix) * la.norm(u_src) + la.norm(u_xi)
    harmonic = la.norm(tau) <= tol.threshold(h_scale)
    b_scale = 1.0 + norms["second_order"] + norms["curvature"] + norms["drift"]
    biharmonic = harmonic or la.norm(tau2) <= tol.threshold(b_scale)

    flags = {
        "harmonic": bool(harmonic),
        "biharmonic": bool(biharmonic),
        "riemannian_immersion": bool(is_riemannian_immersion(m, tol)),
        "riemannian_submersion": bool(is_riemannian_submersion(m, tol)),
    }
    return MapClassification(tension=tau, bitension=tau2, flags=flags)


# ---------------------------------------------------------------------------
# surjective maps: kernel, quotient, splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmersionSplit:
    """Kernel/quotient decomposition of a surjective map.

    ``quotient_map`` is the induced map on the metric quotient by the
    kernel; ``section`` columns embed quotient coordinates back into the
    source; ``mean_curvature`` is that of the kernel subalgebra (source
    coordinates).  ``defect`` measures the splitting identity
    tau(xi) = tau(quotient_map) - xi(mean_curvature).
    """

    kernel: Subalgebra
    mean_curvature: np.ndarray
    quotient: EuclideanLieAlgebra
    section: np.ndarray
    quotient_map: LieAlgebraMap
    defect: float


def submersion_split(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL) -> SubmersionSplit:
    """Split a surjective map through the metric quotient by its kernel.

    Raises MapError when the matrix is not onto, StructureError when the
    kernel fails to be an ideal (it always is for a homomorphism) and
    CrossCheckError if the splitting identity fails.
    """
    if m.rank(tol) != m.target.dim:
        raise MapError("kernel splitting needs a surjective map")
    ker = la.nullspace(m.matrix, tol)
    sub = Subalgebra(m.source, ker, tol)
    _, mean = second_fundamental(sub, tol)
    quotient, section = quotient_metric(m.source, sub, tol)
    qmap = LieAlgebraMap(quotient, m.target, m.matrix @ section,
                         name=f"{m.name or 'map'}.induced")

    tau_full = tension(m, tol)
    tau_bar = tension(qmap, tol)
    corr = m.apply(mean)
    defect = la.norm(la.to_float(tau_full) - (la.to_float(tau_bar) - la.to_float(corr)))
    scale = 1.0 + la.norm(tau_full) + la.norm(tau_bar) + la.norm(corr)
    _check_cross("submersion split tension", defect, scale, tol)
    return SubmersionSplit(
        kernel=sub,
        mean_curvature=mean,
        quotient=quotient,
        section=section,
        quotient_map=qmap,
        defect=float(defect),
    )


def check_composition(outer: LieAlgebraMap, inner: LieAlgebraMap,
                      tol: Tolerance = DEFAULT_TOL) -> float:
    """Defect of tau(outer o inner) = tau(outer) + outer(tau(inner)).

    Requires the inner map to be a Riemannian submersion (the identity is
    specific to that case).  Returns the measured defect; a violation
    beyond 10 x tolerance raises CrossCheckError.
    """
    if not is_riemannian_submersion(inner, tol):
        raise MapError("composition identity needs a Riemannian-submersion inner map")
    full = compose(outer, inner, tol)
    lhs = tension(full, tol)
    rhs = tension(outer, tol) + outer.apply(tension(inner, tol))
    defect = la.norm(la.to_float(lhs) - la.to_float(rhs))
    scale = 1.0 + la.norm(lhs) + la.norm(rhs)
    _check_cross("composition identity", defect, scale, tol)
    return float(defect)


# ---------------------------------------------------------------------------
# complex structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KahlerStructure:
    """An almost-complex operator J on a Euclidean Lie algebra."""

    base: EuclideanLieAlgebra
    operator: np.ndarray

    def __post_init__(self):
        j = self.operator
        if j.ndim != 2 or j.shape != (self.base.dim, self.base.dim):
            raise MapError("complex operator must be a dim x dim matrix")


def kahler_defects(ks: KahlerStructure) -> Dict[str, float]:
    """Defects of the three defining identities: J^2 = -Id, metric
    invariance <Ju, Jv> = <u, v>, and parallelism A_u(Jv) = J(A_u v)."""
    base, j = ks.base, ks.operator
    n = base.dim
    complex_defect = la.norm(la.to_float(j @ j) + np.eye(n))
    metric_defect = la.norm(la.to_float(j.T @ base.gram @ j) - la.to_float(base.gram))
    ops = base.levi_civita().table.transpose(0, 2, 1)      # ops[i] = A_{e_i}
    parallel = la.max_row_norm(
        (la.to_float(la.matmul(ops, j)) - la.to_float(la.matmul(j, ops))).reshape(n, n * n))
    return {
        "complex_defect": float(complex_defect),
        "metric_defect": float(metric_defect),
        "parallel_defect": float(parallel),
    }


def check_kahler(ks: KahlerStructure, tol: Tolerance = DEFAULT_TOL) -> bool:
    d = kahler_defects(ks)
    nj = la.norm(ks.operator)
    ng = la.norm(ks.base.gram)
    na = la.norm(ks.base.levi_civita().table)
    return (
        d["complex_defect"] <= tol.threshold(1.0 + nj ** 2)
        and d["metric_defect"] <= tol.threshold(1.0 + nj ** 2 * ng)
        and d["parallel_defect"] <= tol.threshold(1.0 + na * nj)
    )


def holomorphic_defect(m: LieAlgebraMap, j_source: np.ndarray,
                       j_target: np.ndarray) -> float:
    """|| xi J_source - J_target xi ||."""
    return la.norm(la.to_float(m.matrix @ j_source) - la.to_float(j_target @ m.matrix))


def is_holomorphic(m: LieAlgebraMap, j_source: np.ndarray, j_target: np.ndarray,
                   tol: Tolerance = DEFAULT_TOL) -> bool:
    scale = 1.0 + la.norm(m.matrix) * (la.norm(j_source) + la.norm(j_target))
    return holomorphic_defect(m, j_source, j_target) <= tol.threshold(scale)


# ---------------------------------------------------------------------------
# biharmonic submersion criteria
# ---------------------------------------------------------------------------


def submersion_defects(m: LieAlgebraMap, tol: Tolerance = DEFAULT_TOL) -> Dict[str, float]:
    """For a Riemannian submersion: how far its tension is from being a
    Killing direction and from being parallel.

    Returns ``killing_defect`` = ||ad_tau + ad_tau^*|| and
    ``parallel_defect`` = max_k ||B_{b_k} tau|| over the target basis.
    With a unimodular target, biharmonicity is equivalent to the first
    vanishing; with a unimodular kernel (or a flat-extension action) to
    the second.
    """
    if not is_riemannian_submersion(m, tol):
        raise MapError("criteria apply to Riemannian submersions only")
    tgt = m.target
    tau = tension(m, tol)
    killing = la.norm(la.to_float(tgt.ad(tau)) + la.to_float(tgt.ad_star(tau)))
    parallel = la.max_row_norm(la.matmul(tau, tgt.levi_civita().table))   # rows B_{b_k} tau
    return {"killing_defect": float(killing), "parallel_defect": float(parallel)}
