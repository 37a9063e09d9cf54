"""Building Euclidean Lie algebras fibered over a base, and submersion recipes.

The construction data is a quadruple: a kernel algebra ``n`` with its metric,
a base algebra ``h`` with two metrics (domain side and target side), a linear
action ``rho: h -> End(n)`` by derivations, and an antisymmetric twist
``omega: h x h -> n``.  When the compatibility equations

* ``rho([h1,h2]) = [rho(h1), rho(h2)] - ad_{omega(h1,h2)}``
* the cyclic sum of ``rho(h1)(omega(h2,h3)) - omega([h1,h2],h3)`` vanishes

hold, the direct sum ``n (+) h`` carries a Lie bracket

* ``[u,v]``                               for u, v in n,
* ``rho(u)(v)``                           for u in h, v in n,
* ``[u,v]_h + omega(u,v)``                for u, v in h,

with the block metric, and the coordinate projection onto ``(h, <,>_2)`` is
a surjective homomorphism (a Riemannian submersion when the two base metrics
agree).  Its tension obeys

    tau(proj) = tau(Id_h) - H_rho,       <H_rho, u>_1 = tr(rho(u)),

which is verified on every build as a mutual oracle against the direct
tension computation.

The ``build_*`` recipe functions search for actions meeting the linear trace
constraints that make the projection harmonic or biharmonic; every recipe
output is re-certified by the independent tension/bitension machinery and
never trusts its own construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import _linalg as la
from ._linalg import DEFAULT_TOL, Tolerance
from .core import (
    CrossCheckError,
    EuclideanLieAlgebra,
    InnerProduct,
    LieAlgebra,
    _check_cross,
    _float_gap,
    _negligible,
    _once,
)
from .maps import LieAlgebraMap, MapClassification, _hom_scale, classify, tension


class ConstructionError(ValueError):
    """The construction data is inconsistent or violates a precondition."""


class InfeasibleSearch(ConstructionError):
    """No admissible action was found within the sampling budget."""


# ---------------------------------------------------------------------------
# construction data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemidirectData:
    """Kernel, base-with-two-metrics, action and twist.

    ``rho[k]`` is the operator of the k-th base basis vector on the kernel;
    ``omega[i, j]`` is the kernel-valued twist of the (i, j) base pair.
    Each ``rho[k]`` must be a derivation of the kernel bracket; ``omega``
    must be antisymmetric.  Both are validated here.
    """

    kernel: EuclideanLieAlgebra
    base: LieAlgebra
    inner_domain: InnerProduct
    inner_target: InnerProduct
    rho: np.ndarray
    omega: np.ndarray
    tol: Tolerance = field(default=DEFAULT_TOL)

    def __post_init__(self):
        if isinstance(self.base, EuclideanLieAlgebra):
            raise ConstructionError(
                "base must be a bare LieAlgebra: its domain/target metrics "
                "are carried separately by inner_domain and inner_target"
            )
        if len({la.is_exact(x) for x in (self.kernel.alg.c, self.base.c, self.inner_domain.gram,
                                         self.inner_target.gram, self.rho, self.omega)}) > 1:
            raise ConstructionError("construction data must use one scalar mode")
        dn, dh = self.kernel.dim, self.base.dim
        if self.inner_domain.dim != dh or self.inner_target.dim != dh:
            raise ConstructionError("base metrics must match the base dimension")
        if self.rho.shape != (dh, dn, dn):
            raise ConstructionError(f"action tensor must be {dh} x {dn} x {dn}")
        if self.omega.shape != (dh, dh, dn):
            raise ConstructionError(f"twist tensor must be {dh} x {dh} x {dn}")
        skew = self.omega + self.omega.transpose(1, 0, 2)
        if not _negligible(skew, self.tol, lambda: la.norm(self.omega)):
            raise ConstructionError(f"twist is not antisymmetric (defect {la.norm(skew):.3e})")
        loose = self.tol.scaled(10.0)
        for k in range(dh):
            rows = _derivation_residual(self.kernel, self.rho[k])
            if not _negligible(rows, loose, lambda: la.norm(
                    self.rho[k]) * la.norm(self.kernel.alg.c), la.max_row_norm):
                raise ConstructionError(f"action of base vector {k} is not a derivation "
                                        f"(defect {la.max_row_norm(rows):.3e})")

    @property
    def dim_kernel(self) -> int:
        return self.kernel.dim

    @property
    def dim_base(self) -> int:
        return self.base.dim

    @property
    def exact(self) -> bool:
        return self.kernel.exact

    def base_domain(self) -> EuclideanLieAlgebra:
        """The base with the domain-side metric."""
        return EuclideanLieAlgebra(self.base, self.inner_domain)

    def base_target(self) -> EuclideanLieAlgebra:
        """The base with the target-side metric."""
        return EuclideanLieAlgebra(self.base, self.inner_target)


def derivation_defect(ela: EuclideanLieAlgebra, op) -> float:
    """max || D[u,v] - [Du,v] - [u,Dv] || over basis pairs."""
    return la.max_row_norm(_derivation_residual(ela, op))


def _derivation_residual(ela: EuclideanLieAlgebra, op) -> np.ndarray:
    """The rows D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j] over pairs i < j."""
    c = ela.alg.c
    op_t = np.asarray(op).T
    d = (la.matmul(c, op_t)                                         # D[e_i, e_j]
         - ela.alg.ad(op_t).swapaxes(-1, -2)                        # [D e_i, e_j]
         - la.matmul(op_t, c))                                      # [e_i, D e_j]
    ii, jj = la.strict_pairs(ela.dim)
    return d[ii, jj]


@dataclass(frozen=True)
class ConditionReport:
    """Defects of the two compatibility equations; truthy when both pass."""

    ok: bool
    action_defect: float
    cocycle_defect: float

    def __bool__(self) -> bool:
        return self.ok


def _compatibility_terms(kernel: EuclideanLieAlgebra, ch: np.ndarray, rho: np.ndarray,
                         omega: np.ndarray):
    """Both compatibility equations of ``rho`` and ``omega`` over the base tensor ``ch`` on
    all basis tuples, each with its scale (a callable): ``((lhs, rhs, scale), (cyclic, scale))``
    with the action equation's two sides ``rho([h_i, h_j])`` and ``[rho_i, rho_j] -
    ad_{omega(h_i, h_j)}`` as rows over the pairs i < j, and the cocycle equation's cyclic
    sums, which must vanish, as rows over the triples i < j < k."""
    dn, dh = kernel.dim, ch.shape[0]

    ii, jj = la.strict_pairs(dh)
    lhs = la.matmul(ch[ii, jj], rho.reshape(dh, dn * dn))
    rho_i, rho_j = rho[ii], rho[jj]
    rhs = la.matmul(rho_i, rho_j) - la.matmul(rho_j, rho_i) - kernel.alg.ad(omega[ii, jj])

    cyclic = la.zeros((0, dn), kernel.exact)
    if dh >= 3:
        # S[a,b,c] = rho_a omega(h_b, h_c) - omega([h_a, h_b], h_c); cyclic sums over i < j < k
        s = (la.matmul(omega.reshape(dh * dh, dn), rho.reshape(dh * dn, dn).T)
             .reshape(dh, dh, dh, dn).transpose(2, 0, 1, 3)
             - la.matmul(ch.reshape(dh * dh, dh), omega.reshape(dh, dh * dn))
             .reshape(dh, dh, dh, dn))
        ii, jj, kk = la.strict_triples(dh)
        cyclic = s[ii, jj, kk] + s[jj, kk, ii] + s[kk, ii, jj]

    nrho, nom, nch = _once(la.norm, rho), _once(la.norm, omega), _once(la.norm, ch)
    return ((lhs, rhs.reshape(-1, dn * dn),
             lambda: nch() * nrho() + nrho() ** 2 + la.norm(kernel.alg.c) * nom()),
            (cyclic, lambda: nrho() * nom() + nch() * nom()))


def check_condition(sd: SemidirectData, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Evaluate both compatibility equations on all basis tuples.

    Never raises on a violation: returns a report with the measured
    defects, truthy exactly when both equations hold, within tolerance for
    float data and exactly for exact data (the tolerance is not read).
    """
    (lhs, rhs, scale1), (cyclic, scale2) = _compatibility_terms(sd.kernel, sd.base.c, sd.rho,
                                                                sd.omega)
    action = lhs - rhs
    ok = (_negligible(action, tol.scaled(10.0), scale1, la.max_row_norm)
          and _negligible(cyclic, tol.scaled(10.0), scale2, la.max_row_norm))
    return ConditionReport(ok=ok, action_defect=_float_gap(lhs, rhs, la.max_row_norm),
                           cocycle_defect=la.max_row_norm(cyclic))


def action_trace_vector(sd: SemidirectData) -> np.ndarray:
    """The base vector H with <H, u>_1 = tr(rho(u)) (domain metric dual)."""
    return la.matmul(la.inv(sd.inner_domain.gram), np.trace(sd.rho, axis1=1, axis2=2))


def build_semidirect(sd: SemidirectData, tol: Tolerance = DEFAULT_TOL
                     ) -> Tuple[EuclideanLieAlgebra, LieAlgebraMap]:
    """Assemble the total algebra and the projection onto the base.

    The total bracket is validated (Jacobi), the projection is validated as
    a homomorphism, and the tension identity
    ``tau(proj) = tau(Id_base) - H_rho`` is verified; any failure raises.
    """
    report = check_condition(sd, tol)
    if not report:
        raise ConstructionError(
            f"compatibility equations violated (action defect "
            f"{report.action_defect:.3e}, cyclic defect {report.cocycle_defect:.3e})"
        )
    dn, dh = sd.dim_kernel, sd.dim_base
    dim = dn + dh
    exact = sd.exact
    c = la.zeros((dim, dim, dim), exact)
    c[:dn, :dn, :dn] = sd.kernel.alg.c
    c[dn:, :dn, :dn] = sd.rho.transpose(0, 2, 1)      # [h_i, n_j] = rho(h_i) n_j
    c[:dn, dn:, :dn] = -sd.rho.transpose(2, 0, 1)     # [n_j, h_i] = -rho(h_i) n_j
    c[dn:, dn:, :dn] = sd.omega
    c[dn:, dn:, dn:] = sd.base.c
    total_alg = LieAlgebra.from_tensor(c, name="total", exact=exact, tol=tol.scaled(10.0))
    gram = la.zeros((dim, dim), exact)
    gram[:dn, :dn] = sd.kernel.gram
    gram[dn:, dn:] = sd.inner_domain.gram
    total = EuclideanLieAlgebra(total_alg, InnerProduct(gram), name="total")

    proj_matrix = la.zeros((dh, dim), exact)
    proj_matrix[:, dn:] = la.eye(dh, exact)
    base_target = sd.base_target()
    proj = LieAlgebraMap(total, base_target, proj_matrix, name="projection")
    _check_cross("projection homomorphism", proj._hom_residual(), 0, tol,
                 lambda: _hom_scale(proj), norm=la.max_row_norm)

    tau_proj = tension(proj, tol)
    idm = LieAlgebraMap.identity(sd.base_domain(), base_target)
    expected = tension(idm, tol) - action_trace_vector(sd)
    _check_cross("projection tension vs splitting identity", tau_proj, expected, tol)
    return total, proj


# ---------------------------------------------------------------------------
# inner-action parametrization
# ---------------------------------------------------------------------------


def inner_action_data(kernel: EuclideanLieAlgebra, base: LieAlgebra,
                      inner_domain: InnerProduct, inner_target: InnerProduct,
                      f_matrix, omega0=None,
                      tol: Tolerance = DEFAULT_TOL) -> SemidirectData:
    """Action by inner derivations: ``rho(u) = ad_{F(u)}`` with the twist
    ``omega(u,v) = [F(u), F(v)] - F([u,v]) + omega0(u,v)`` (the orientation
    matching this module's base-acts-on-kernel bracket).

    ``omega0`` must be valued in the kernel's center and closed under the
    cyclic sum ``omega0([u,v], w)``; both are checked, exactly for exact
    input.  The resulting data always satisfies the compatibility equations
    (cross-checked).
    """
    dn, dh = kernel.dim, base.dim
    f = la.as_matrix(f_matrix, kernel.exact) if not isinstance(f_matrix, np.ndarray) else f_matrix
    if f.shape != (dn, dh):
        raise ConstructionError(f"embedding matrix must be {dn} x {dh}")
    ii, jj = la.strict_pairs(dh)
    if omega0 is None:
        om0 = la.zeros((dh, dh, dn), kernel.exact)
    else:
        om0 = omega0
        if om0.shape != (dh, dh, dn):
            raise ConstructionError(f"central twist must be {dh} x {dh} x {dn}")
        if not _negligible(om0 + om0.transpose(1, 0, 2), tol, lambda: la.norm(om0)):
            raise ConstructionError("central twist is not antisymmetric")
        # with no action: rows ad_{omega0(h_i, h_j)} and the cyclic sums of -omega0([h_a, h_b], h_c)
        (lhs, rhs, scale1), (cyclic, scale2) = _compatibility_terms(
            kernel, base.c, la.zeros((dh, dn, dn), kernel.exact), om0)
        off = [p for p, row in enumerate(lhs - rhs) if not _negligible(row, tol, scale1)]
        if off:
            raise ConstructionError(f"central twist value at base pair ({ii[off[0]]},{jj[off[0]]}) "
                                    f"is not in the kernel's center")
        if not _negligible(cyclic, tol, scale2, norm=la.max_row_norm):
            raise ConstructionError("central twist is not closed under the cyclic sum")

    rho = kernel.alg.ad(f.T)                  # rho[k] = ad_{F h_k}
    # [F h_i, F h_j] - F([h_i, h_j]) + omega0(h_i, h_j) for i < j
    val = la.matmul(rho, f)[ii, :, jj] - la.matmul(base.c[ii, jj], f.T) + om0[ii, jj]
    omega = la.zeros((dh, dh, dn), kernel.exact)
    omega[ii, jj] = val
    omega[jj, ii] = -val
    sd = SemidirectData(kernel=kernel, base=base, inner_domain=inner_domain,
                        inner_target=inner_target, rho=rho, omega=omega, tol=tol)
    (lhs, rhs, scale1), (cyclic, scale2) = _compatibility_terms(kernel, base.c, sd.rho, sd.omega)
    _check_cross("inner-action data: action equation", lhs, rhs, tol, scale1)
    _check_cross("inner-action data: cocycle equation", cyclic, 0, tol, scale2)
    return sd


def tangent_semidirect(base_ela: EuclideanLieAlgebra) -> SemidirectData:
    """Data whose total algebra models the tangent group of the base:
    kernel = abelian copy of the base with the same Gram, action = adjoint,
    twist = 0, equal domain/target metrics."""
    dh = base_ela.dim
    exact = base_ela.exact
    kernel = EuclideanLieAlgebra(
        LieAlgebra(la.zeros((dh, dh, dh), exact), name="abelian-copy"),
        InnerProduct(base_ela.gram.copy()),
    )
    rho = base_ela.alg.c.transpose(0, 2, 1).copy()     # rho[k] = ad_{e_k}
    omega = la.zeros((dh, dh, dh), exact)
    return SemidirectData(
        kernel=kernel,
        base=base_ela.alg,
        inner_domain=base_ela.inner,
        inner_target=base_ela.inner,
        rho=rho,
        omega=omega,
    )


# ---------------------------------------------------------------------------
# recipe searches
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionResult:
    """A certified construction: the data, the assembled total algebra, the
    projection, and its independently computed classification."""

    data: SemidirectData
    total: EuclideanLieAlgebra
    projection: LieAlgebraMap
    classification: MapClassification


def _require_float(*elas):
    for e in elas:
        if getattr(e, "exact", False):
            raise ConstructionError("recipe searches run in float mode only")


def tension_coordinate_system(base_domain: EuclideanLieAlgebra,
                              base_target: EuclideanLieAlgebra,
                              tol: Tolerance = DEFAULT_TOL
                              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear system ``A x = b`` determining the coordinates of
    tension(Id: domain -> target) in the base's own basis.

    ``A`` is the target Gram matrix and ``b_k`` pairs the tension with the
    k-th basis vector in the target metric, assembled from Koszul pairings
    only (never from the tension vector itself).  Returns ``(A, b, x)``
    with ``x`` the solution, cross-checked against the direct tension
    computation.  That check is not independent of the pairings: ``b``
    takes the frame sum of the target Levi-Civita table with the domain's
    G^-1, which is the sum :func:`~lieharm.maps.connection_trace` takes for
    the identity map, so the cross-check tests only the linear solve.
    """
    if base_domain.alg is not base_target.alg and not _negligible(
            base_domain.alg.c - base_target.alg.c, tol, lambda: la.norm(base_domain.alg.c)):
        raise ConstructionError("both sides must share the structure constants")
    g2 = base_target.gram
    # <B_u v, w>_2 via the Koszul polarization of the target metric
    u1 = base_domain.unimodular_vector(tol)
    conn = base_target.levi_civita().frame_sum(base_domain.gram_inv)
    b = la.matmul(conn, g2) - la.matmul(u1, g2)
    x = la.solve_linear(g2, b, tol)
    direct = tension(LieAlgebraMap.identity(base_domain, base_target), tol)
    _check_cross("tension coordinate system vs direct tension", x, direct, tol,
                 lambda: la.norm(direct))
    return g2, b, x


def _certify(sd: SemidirectData, tol: Tolerance) -> ConstructionResult:
    total, proj = build_semidirect(sd, tol)
    cls = classify(proj, tol.scaled(10.0))
    return ConstructionResult(data=sd, total=total, projection=proj,
                              classification=cls)


def _trace_rows(tvec: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows of ``t . F v = tr(ad_{F v}) = 0`` on the flattened embedding F,
    one per row v of ``values``."""
    return np.einsum("r,mk->mrk", tvec, values).reshape(len(values), -1)


def _derived_rows(base: LieAlgebra, dn: int) -> np.ndarray:
    """Rows of ``F([h_i, h_j]) = 0`` for i < j, one per kernel coordinate."""
    ii, jj = la.strict_pairs(base.dim)
    rows = np.einsum("rs,pk->prsk", np.eye(dn), base.c[ii, jj])
    return rows.reshape(-1, dn * base.dim)


def _traceless_space(tvec: np.ndarray, dh: int, tol: Tolerance) -> np.ndarray:
    """Flattened embeddings F with ``t . F = 0`` (all of them when t vanishes)."""
    hom_basis = np.eye(len(tvec)) if _negligible(tvec, tol) else la.nullspace(
        tvec.reshape(1, -1), tol)
    return np.kron(hom_basis, np.eye(dh))


def _search(kernel: EuclideanLieAlgebra, base: LieAlgebra, inner_domain: InnerProduct,
            inner_target: InnerProduct, f0: np.ndarray, f_space: np.ndarray, *, flag: str,
            first_scale: Optional[float], budget: int, seed: int, tol: Tolerance,
            twist_free: bool = False) -> ConstructionResult:
    """Certify inner actions of the flattened embeddings ``F = f0 + f_space @ x``,
    x normal (times ``first_scale`` on the first trial; ``None`` there means
    F = f0 without a draw), and return the first projection carrying ``flag``.
    With ``twist_free``, samples whose twist does not vanish are rejected.

    Trial 0 with ``first_scale`` ``None`` or 0.0 is ``f0`` itself, whatever
    the seed; ``seed`` only matters once that sample fails."""
    rng = np.random.default_rng(seed)
    last_error: Optional[Exception] = None
    for trial in range(max(1, budget)):
        scale = first_scale if trial == 0 else 1.0
        f = f0 if scale is None else f0 + f_space @ (rng.normal(size=f_space.shape[1]) * scale)
        f = f.reshape(kernel.dim, base.dim)
        try:
            sd = inner_action_data(kernel, base, inner_domain, inner_target, f, tol=tol)
            if twist_free and not _negligible(sd.omega, tol, lambda: la.norm(f) ** 2):
                raise ConstructionError("sampled embedding produced a twist")
            result = _certify(sd, tol)
        except (ConstructionError, CrossCheckError) as exc:
            last_error = exc
            continue
        if result.classification.flags[flag]:
            return result
    raise InfeasibleSearch(f"no {flag} action found within {budget} samples"
                           + (f" (last failure: {last_error})" if last_error else ""))


def build_harmonic_submersion(base: LieAlgebra, inner_domain: InnerProduct,
                              inner_target: InnerProduct,
                              kernel: EuclideanLieAlgebra,
                              budget: int = 50, seed: int = 0,
                              tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Find an inner action making the projection harmonic.

    The action must satisfy ``tr(rho(h)) = <h, tau(Id)>_domain`` for every
    base vector; with inner actions this is a linear constraint on the
    embedding matrix.  Trial 0 is its particular solution ``f0`` (least
    norm, no randomness); only if that sample fails certification are
    ``f0`` plus random null-space directions tried, up to ``budget``
    samples in all, so ``seed`` only matters once trial 0 fails.
    Infeasible when the kernel carries no trace (every inner derivation
    traceless) but the identity tension is nonzero.  The result is
    certified harmonic by the independent tension computation.
    """
    dom = EuclideanLieAlgebra(base, inner_domain)
    tgt = EuclideanLieAlgebra(base, inner_target)
    _require_float(dom, tgt, kernel)
    _, _, tau_id = tension_coordinate_system(dom, tgt, tol)
    rhs = inner_domain.gram @ tau_id    # <h_k, tau(Id)>_1
    tvec = kernel.alg.ad_traces()       # t_i = tr(ad_{b_i}), the trace of inner actions
    traced = not _negligible(tvec, tol)
    if not traced and not _negligible(rhs, tol, lambda: la.norm(tau_id)):
        raise InfeasibleSearch(
            "every inner derivation of the kernel is traceless but the "
            "identity tension is nonzero; no inner action can match it"
        )
    f0 = np.outer(tvec / (tvec @ tvec), rhs).reshape(-1) if traced else np.zeros(kernel.dim * base.dim)
    return _search(kernel, base, inner_domain, inner_target, f0,
                   _traceless_space(tvec, base.dim, tol), flag="harmonic", first_scale=None,
                   budget=budget, seed=seed, tol=tol)


def build_biharmonic_submersion(base: LieAlgebra, inner_domain: InnerProduct,
                                inner_target: InnerProduct,
                                kernel: EuclideanLieAlgebra,
                                budget: int = 50, seed: int = 0,
                                tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Find a traceless inner action; the projection is then biharmonic
    exactly when the identity map between the two base metrics is, which
    is a precondition (checked, error otherwise).  Certified by the
    independent bitension computation.

    Trial 0 is the zero embedding, i.e. the trivial action ``rho = 0`` (the
    direct product); random traceless embeddings are tried, up to
    ``budget`` samples in all, only if it fails, so ``seed`` only matters
    once trial 0 fails.
    """
    dom = EuclideanLieAlgebra(base, inner_domain)
    tgt = EuclideanLieAlgebra(base, inner_target)
    _require_float(dom, tgt, kernel)
    id_cls = classify(LieAlgebraMap.identity(dom, tgt), tol.scaled(10.0))
    if not id_cls.flags["biharmonic"]:
        raise ConstructionError(
            "identity map between the base metrics is not biharmonic; the "
            "traceless-action method does not apply"
        )
    return _search(kernel, base, inner_domain, inner_target, np.zeros(kernel.dim * base.dim),
                   _traceless_space(kernel.alg.ad_traces(), base.dim, tol),
                   flag="biharmonic", first_scale=0.0, budget=budget, seed=seed, tol=tol)


_RIEMANNIAN_VARIANTS = ("parallel_trace", "unimodular_kernel", "killing_trace")


def build_riemannian_biharmonic(base: LieAlgebra, inner: InnerProduct,
                                kernel: EuclideanLieAlgebra, variant: str,
                                budget: int = 50, seed: int = 0,
                                tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Riemannian case (equal base metrics): three sufficient conditions.

    * ``parallel_trace``: the trace form of the action kills every
      Levi-Civita product value, and the embedding is twist-free and kills
      derived base vectors (samples with a nonzero twist are rejected).
    * ``unimodular_kernel``: the kernel is unimodular (checked), so every
      inner action is traceless.
    * ``killing_trace``: the base is unimodular (checked) and the trace
      form is a Killing one-form, read symmetrically as
      ``tr(rho(ad_u^* v + ad_v^* u)) = 0`` for all u, v (the variable in
      the second slot is taken equal to the first pairing's, making the
      condition equivalent to the metric dual being a Killing direction).

    The projection is certified biharmonic independently.
    """
    if variant not in _RIEMANNIAN_VARIANTS:
        raise ConstructionError(
            f"unknown variant {variant!r}; expected one of {_RIEMANNIAN_VARIANTS}"
        )
    dom = EuclideanLieAlgebra(base, inner)
    _require_float(dom, kernel)
    dh, dn = base.dim, kernel.dim
    tvec = kernel.alg.ad_traces()
    if variant == "unimodular_kernel":
        if not kernel.is_unimodular(tol):
            raise ConstructionError("variant needs a unimodular kernel")
        rows = np.zeros((0, dn * dh))
    elif variant == "parallel_trace":
        products = dom.levi_civita().table.reshape(dh * dh, dh)   # A_{e_i} e_j
        rows = np.concatenate([_trace_rows(tvec, products), _derived_rows(base, dn)])
    else:  # killing_trace
        if not dom.is_unimodular(tol):
            raise ConstructionError("variant needs a unimodular base")
        s = la.matmul(dom.gram_inv, base.c, dom.gram)   # s[i] = ad*_{e_i}: c[i] = ad(e_i)^T
        ii, jj = np.triu_indices(dh)
        rows = _trace_rows(tvec, s[ii, :, jj] + s[jj, :, ii])   # ad*_{e_i} e_j + ad*_{e_j} e_i
    return _search(kernel, base, inner, inner, np.zeros(dn * dh), la.nullspace(rows, tol),
                   flag="biharmonic", first_scale=0.5, budget=budget, seed=seed, tol=tol,
                   twist_free=variant == "parallel_trace")


def build_flat_target_submersion(base_flat: EuclideanLieAlgebra,
                                 kernel: EuclideanLieAlgebra,
                                 budget: int = 50, seed: int = 0,
                                 tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Riemannian submersion onto a flat base, biharmonic by construction.

    The base metric must be flat (checked; error otherwise).  When the
    kernel is unimodular any inner action works; otherwise the embedding
    is constrained to produce a vanishing twist.  The output reports both
    the harmonic and biharmonic flags from independent certification.
    """
    _require_float(base_flat, kernel)
    worst = base_flat.max_curvature_norm()
    if not _negligible(worst, tol, lambda: la.norm(base_flat.alg.c) ** 2 * la.norm(
            base_flat.gram), norm=abs):
        raise ConstructionError(f"base metric is not flat (max curvature norm {worst:.3e})")
    dh, dn = base_flat.dim, kernel.dim
    unimodular = kernel.is_unimodular(tol)
    rows = np.zeros((0, dn * dh)) if unimodular else _derived_rows(base_flat.alg, dn)
    return _search(kernel, base_flat.alg, base_flat.inner, base_flat.inner,
                   np.zeros(dn * dh), la.nullspace(rows, tol), flag="biharmonic",
                   first_scale=0.5, budget=budget, seed=seed, tol=tol, twist_free=not unimodular)
