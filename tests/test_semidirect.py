"""Semidirect reconstructions and the (bi)harmonic submersion recipes."""
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest

from lieharm import (
    ConstructionError,
    EuclideanLieAlgebra,
    InfeasibleSearch,
    InnerProduct,
    LieAlgebra,
    action_trace_vector,
    build_biharmonic_submersion,
    build_flat_target_submersion,
    build_harmonic_submersion,
    build_riemannian_biharmonic,
    build_semidirect,
    check_condition,
    classify,
    get,
    inner_action_data,
    is_riemannian_submersion,
    tangent_semidirect,
    tension,
    tension_coordinate_system,
)
from lieharm import _linalg as la, maps, semidirect
from lieharm._linalg import DEFAULT_TOL, Tolerance
from lieharm.core import CrossCheckError
from lieharm.maps import LieAlgebraMap
from lieharm.semidirect import (
    ConstructionResult,
    _certify,
    _require_float,
)

from conftest import rand_pd, with_metric


def two_dim_solvable(a=1.0):
    return LieAlgebra.from_brackets(2, {(0, 1): [a, 0.0]}, name="aff")


def test_tangent_data_projection_tension_is_minus_drift(rng):
    for name in ("e1", "heis3", "so3"):
        base = with_metric(get(name).ela, rand_pd(rng, get(name).ela.dim))
        data = tangent_semidirect(base)
        total, proj = build_semidirect(data)
        assert total.dim == 2 * base.dim
        assert is_riemannian_submersion(proj)
        tau = np.asarray(tension(proj), float)
        drift = np.asarray(base.unimodular_vector(), float)
        assert np.allclose(tau, -drift, atol=1e-10)


def test_tangent_flags_track_unimodularity(rng):
    heis = with_metric(get("heis3").ela, rand_pd(rng, 3))
    _, proj = build_semidirect(tangent_semidirect(heis))
    flags = classify(proj).flags
    assert flags["harmonic"] and flags["biharmonic"]

    aff = with_metric(get("e1").ela, rand_pd(rng, 2))
    _, proj = build_semidirect(tangent_semidirect(aff))
    flags = classify(proj).flags
    assert not flags["harmonic"] and not flags["biharmonic"]


def test_tangent_exact_mode():
    base = get("e1", a=Fraction(2), exact=True).ela
    total, proj = build_semidirect(tangent_semidirect(base))
    assert total.exact
    tau = tension(proj)
    assert list(tau) == [Fraction(0), Fraction(2)]  # -U for [e,f]=2e


@pytest.mark.parametrize("factor,raises", [(1.0, False), (2.0, True)])
def test_projection_homomorphism_check_allows_ten_thresholds(factor, raises, monkeypatch):
    """The assembled projection's bracket defect may reach ten thresholds at
    the homomorphism scale of the projection, and no more."""
    monkeypatch.setattr(LieAlgebraMap, "_hom_residual", lambda m: np.array(
        [[factor * 10.0 * DEFAULT_TOL.threshold(1.0 + maps._hom_scale(m))]]))
    data = tangent_semidirect(get("e1").ela)
    if raises:
        with pytest.raises(CrossCheckError, match="projection homomorphism"):
            build_semidirect(data)
    else:
        build_semidirect(data)


def test_exact_projection_homomorphism_check_is_exact(monkeypatch):
    """An exact projection must be a homomorphism exactly: a residual row of
    norm 10**-30, far under any float threshold, is refused."""
    data = tangent_semidirect(get("e1", exact=True).ela)
    monkeypatch.setattr(LieAlgebraMap, "_hom_residual",
                        lambda m: np.array([[Fraction(1, 10 ** 30)]], dtype=object))
    with pytest.raises(CrossCheckError, match="projection homomorphism"):
        build_semidirect(data)


@pytest.mark.parametrize("direction, equation", [
    (1, "action equation"),     # ad of the nudge is nonzero
    (0, "cocycle equation"),    # a central nudge keeps ad_omega, not the cyclic sum
])
def test_inner_action_data_cross_checks_the_assembled_twist(direction, equation, monkeypatch, rng):
    """A nudge of omega(h_0, h_1) along the kernel's e_direction fails the
    named compatibility equation (heis3 in the order (z, f, g) over aff2solv,
    whose cyclic sum picks up 1 + beta times the nudge)."""
    real = semidirect.SemidirectData

    def nudged(**fields):
        delta = np.zeros((3, 3, 3))
        delta[0, 1, direction], delta[1, 0, direction] = 1e-3, -1e-3
        return real(**{**fields, "omega": fields["omega"] + delta})

    monkeypatch.setattr(semidirect, "SemidirectData", nudged)
    with pytest.raises(CrossCheckError, match=f"^inner-action data: {equation}: "):
        inner_action_data(get("heis3").ela, get("aff2solv").ela.alg, InnerProduct.identity(3),
                          InnerProduct.identity(3), rng.normal(size=(3, 3)))


def test_inner_action_condition_holds_by_construction(rng):
    kernel = with_metric(get("heis3").ela, rand_pd(rng, 3))
    base = two_dim_solvable(1.3)
    g = rand_pd(rng, 2)
    data = inner_action_data(
        kernel, base, InnerProduct.of(g), InnerProduct.of(g),
        rng.normal(size=(3, 2)),
    )
    report = check_condition(data)
    assert report.ok
    assert report.action_defect < 1e-10 and report.cocycle_defect < 1e-10
    total, proj = build_semidirect(data)
    assert total.dim == 5
    # with matching base metrics the projection is a Riemannian submersion
    assert is_riemannian_submersion(proj)


def test_projection_with_distinct_base_metrics_is_not_a_submersion(rng):
    kernel = get("heis3").ela
    data = inner_action_data(
        kernel, two_dim_solvable(1.0), InnerProduct.identity(2),
        InnerProduct.of(np.array([[2.0, 0.0], [0.0, 1.0]])),
        rng.normal(size=(3, 2)),
    )
    _, proj = build_semidirect(data)
    assert not is_riemannian_submersion(proj)


def test_semidirect_data_rejects_metric_equipped_base():
    from lieharm import ConstructionError, SemidirectData
    ela = get("e1").ela
    with pytest.raises(ConstructionError):
        SemidirectData(
            kernel=get("heis3").ela, base=ela,
            inner_domain=InnerProduct.identity(2),
            inner_target=InnerProduct.identity(2),
            rho=np.zeros((2, 3, 3)), omega=np.zeros((2, 2, 3)),
        )


def test_inner_action_with_central_twist(rng):
    kernel = with_metric(get("heis3").ela, rand_pd(rng, 3))
    base = two_dim_solvable(0.8)
    omega0 = np.zeros((2, 2, 3))
    omega0[0, 1, 0] = 0.9  # center-valued two-form
    omega0[1, 0, 0] = -0.9
    data = inner_action_data(
        kernel, base, InnerProduct.of(rand_pd(rng, 2)),
        InnerProduct.of(rand_pd(rng, 2)), rng.normal(size=(3, 2)),
        omega0=omega0,
    )
    total, proj = build_semidirect(data)
    assert total.dim == 5


def test_inner_action_rejects_noncentral_twist(rng):
    kernel = get("heis3").ela
    base = two_dim_solvable()
    omega0 = np.zeros((2, 2, 3))
    omega0[0, 1, 1] = 1.0  # not center-valued
    omega0[1, 0, 1] = -1.0
    with pytest.raises(ConstructionError):
        inner_action_data(kernel, base, InnerProduct.identity(2),
                          InnerProduct.identity(2), np.zeros((3, 2)),
                          omega0=omega0)


def test_condition_failure_is_reported_not_raised(rng):
    """Zeroing the curvature twist of a non-commuting embedding breaks the
    compatibility equations; the checker reports instead of raising."""
    from lieharm import SemidirectData
    kernel = get("heis3").ela
    base = two_dim_solvable(1.0)
    f = rng.normal(size=(3, 2))
    good = inner_action_data(kernel, base, InnerProduct.identity(2),
                             InnerProduct.identity(2), f)
    if np.linalg.norm(good.omega) < 1e-8:
        f[:, 0] = [0.0, 1.0, 0.0]
        f[:, 1] = [0.0, 0.0, 1.0]
        good = inner_action_data(kernel, base, InnerProduct.identity(2),
                                 InnerProduct.identity(2), f)
    stripped = SemidirectData(
        kernel=good.kernel, base=good.base,
        inner_domain=good.inner_domain, inner_target=good.inner_target,
        rho=good.rho, omega=np.zeros_like(good.omega),
    )
    report = check_condition(stripped)
    assert not report.ok
    with pytest.raises(ConstructionError):
        build_semidirect(stripped)


def test_action_trace_vector_matches_tension_identity(rng):
    """tau(projection) = tau(identity between the base metrics) - H_rho."""
    kernel = with_metric(get("aff2solv").ela, rand_pd(rng, 3))
    base = two_dim_solvable(1.1)
    g1, g2 = rand_pd(rng, 2), rand_pd(rng, 2)
    data = inner_action_data(kernel, base, InnerProduct.of(g1),
                             InnerProduct.of(g2), rng.normal(size=(3, 2)))
    total, proj = build_semidirect(data)
    from lieharm import LieAlgebraMap
    ident = LieAlgebraMap(data.base_domain(), data.base_target(), np.eye(2))
    expected = (np.asarray(tension(ident), float)
                - np.asarray(action_trace_vector(data), float))
    assert np.allclose(np.asarray(tension(proj), float), expected, atol=1e-10)


def test_tension_coordinate_system_solves_for_target_metric(rng):
    from lieharm import LieAlgebraMap
    for alpha in (1.0, 0.37, 2.6, rng.uniform(0.2, 4.0)):
        base = two_dim_solvable(alpha)
        dom = EuclideanLieAlgebra(base, InnerProduct.identity(2))
        tgt = EuclideanLieAlgebra(base, InnerProduct.of(rand_pd(rng, 2)))
        a, b, x = tension_coordinate_system(dom, tgt)
        assert np.allclose(a @ x, b, atol=1e-11)
        tau = tension(LieAlgebraMap(dom, tgt, np.eye(2)))
        assert np.allclose(x, np.asarray(tau, float), atol=1e-10)


def test_harmonic_recipe_certifies(rng):
    for k in range(4):
        res = build_harmonic_submersion(
            two_dim_solvable(rng.uniform(0.5, 2.0)),
            InnerProduct.identity(2), InnerProduct.of(rand_pd(rng, 2)),
            with_metric(get("aff2solv").ela, rand_pd(rng, 3)),
            budget=20, seed=int(rng.integers(1000)),
        )
        assert res.classification.flags["harmonic"]
        assert np.linalg.norm(np.asarray(tension(res.projection), float)) < 1e-9


def test_harmonic_recipe_reports_infeasible_kernels(rng):
    """A unimodular kernel cannot absorb a nonzero base tension."""
    with pytest.raises(InfeasibleSearch):
        build_harmonic_submersion(
            two_dim_solvable(1.0),
            InnerProduct.identity(2),
            InnerProduct.of(np.array([[2.0, 0.3], [0.3, 1.0]])),
            get("heis3").ela, budget=5, seed=0,
        )


def test_harmonic_recipe_feasible_when_base_tension_vanishes():
    res = build_harmonic_submersion(
        two_dim_solvable(1.0), InnerProduct.identity(2),
        InnerProduct.identity(2), get("heis3").ela, budget=5, seed=0,
    )
    assert res.classification.flags["harmonic"]


def test_biharmonic_recipe_requires_biharmonic_base_pair(rng):
    kernel = get("heis3").ela
    # identity metric pair: identity map is harmonic, precondition holds
    res = build_biharmonic_submersion(
        two_dim_solvable(1.0), InnerProduct.identity(2),
        InnerProduct.identity(2), kernel, budget=10, seed=1,
    )
    assert res.classification.flags["biharmonic"]


def test_riemannian_recipe_variants(rng):
    base = get("so3").ela.alg
    for variant in ("unimodular_kernel", "killing_trace"):
        res = build_riemannian_biharmonic(
            base, InnerProduct.identity(3), get("heis3").ela,
            variant=variant, budget=20, seed=3,
        )
        assert res.classification.flags["biharmonic"]
        assert res.classification.flags["riemannian_submersion"]
    with pytest.raises(ConstructionError):
        build_riemannian_biharmonic(
            base, InnerProduct.identity(3), get("heis3").ela,
            variant="nonsense", budget=5, seed=0,
        )


def test_riemannian_recipe_parallel_trace_finds_nontrivial_action():
    res = build_riemannian_biharmonic(
        two_dim_solvable(1.0), InnerProduct.identity(2),
        get("e1").ela, variant="parallel_trace", budget=30, seed=2,
    )
    assert res.classification.flags["biharmonic"]
    assert np.linalg.norm(res.data.rho) > 1e-6


def test_riemannian_recipe_preconditions():
    # unimodular_kernel needs a unimodular kernel
    with pytest.raises(ConstructionError):
        build_riemannian_biharmonic(
            two_dim_solvable(1.0), InnerProduct.identity(2),
            get("e1").ela, variant="unimodular_kernel", budget=5, seed=0,
        )
    # killing_trace needs a unimodular base
    with pytest.raises(ConstructionError):
        build_riemannian_biharmonic(
            two_dim_solvable(1.0), InnerProduct.identity(2),
            get("heis3").ela, variant="killing_trace", budget=5, seed=0,
        )


def killing_trace_stack_loop(dom):
    """The ad* operators of the killing_trace variant, one basis vector at a
    time, as the recipe stacked them before it used ``c[i] = ad(e_i)^T``."""
    return np.stack([la.to_float(dom.ad_star(dom.basis(i))) for i in range(dom.dim)])


def test_killing_trace_operators_equal_the_basis_loop(rng):
    """``G^-1 c[i] G`` is bit-identical to the per-basis ad* stack on 200
    random metrics over six catalog bases."""
    bases = [get(name).ela for name in ("so3", "sl2", "heis3", "nilp5", "e2flat", "aff2solv")]
    for k in range(200):
        dom = with_metric(bases[k % 6], rand_pd(rng, bases[k % 6].dim))
        assert np.array_equal(la.matmul(dom.gram_inv, dom.alg.c, dom.gram),
                              killing_trace_stack_loop(dom))


def test_flat_target_recipe(rng):
    flat = get("e2flat").ela
    res = build_flat_target_submersion(flat, get("aff2solv").ela,
                                       budget=20, seed=0)
    assert res.classification.flags["biharmonic"]
    curved = get("so3").ela
    with pytest.raises(ConstructionError):
        build_flat_target_submersion(curved, get("heis3").ela,
                                     budget=5, seed=0)


def test_recipes_refuse_exact_mode():
    base = LieAlgebra.from_brackets(
        2, {(0, 1): [Fraction(1), Fraction(0)]}, exact=True)
    with pytest.raises(ConstructionError):
        build_harmonic_submersion(
            base, InnerProduct.identity(2, exact=True),
            InnerProduct.identity(2, exact=True),
            get("heis3", exact=True).ela, budget=5, seed=0,
        )


# ---------------------------------------------------------------------------
# reference: the four recipe loops as they were written before the shared
# ``_search`` (kept verbatim, renamed) and the bracket-dict assembly of the
# total algebra; the library must reproduce both exactly
# ---------------------------------------------------------------------------


def ref_build_harmonic_submersion(base: LieAlgebra, inner_domain: InnerProduct,
                                  inner_target: InnerProduct,
                                  kernel: EuclideanLieAlgebra,
                                  budget: int = 50, seed: int = 0,
                                  tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Find an inner action making the projection harmonic.

    The action must satisfy ``tr(rho(h)) = <h, tau(Id)>_domain`` for every
    base vector; with inner actions this is a linear constraint on the
    embedding matrix, solved exactly, then randomized over its null space
    for up to ``budget`` samples.  Infeasible when the kernel carries no
    trace (every inner derivation traceless) but the identity tension is
    nonzero.  The result is certified harmonic by the independent tension
    computation.
    """
    dom = EuclideanLieAlgebra(base, inner_domain)
    tgt = EuclideanLieAlgebra(base, inner_target)
    _require_float(dom, tgt, kernel)
    _, _, tau_id = tension_coordinate_system(dom, tgt, tol)
    rhs = la.to_float(inner_domain.gram) @ la.to_float(tau_id)   # <h_k, tau(Id)>_1
    tvec = kernel.alg.ad_traces()
    tnorm2 = float(tvec @ tvec)
    if tnorm2 <= tol.threshold(1.0) ** 2:
        if la.norm(rhs) > tol.threshold(1.0 + la.norm(tau_id)):
            raise InfeasibleSearch(
                "every inner derivation of the kernel is traceless but the "
                "identity tension is nonzero; no inner action can match it"
            )
        f0 = np.zeros((kernel.dim, base.dim))
        hom_basis = np.eye(kernel.dim)
    else:
        f0 = np.outer(tvec / tnorm2, rhs)
        hom_basis = la.nullspace(tvec.reshape(1, -1), tol)
    rng = np.random.default_rng(seed)
    last_error: Optional[Exception] = None
    for trial in range(max(1, budget)):
        extra = 0.0
        if trial > 0 and hom_basis.shape[1] > 0:
            coeffs = rng.normal(size=(hom_basis.shape[1], base.dim))
            extra = hom_basis @ coeffs
        f = f0 + extra
        try:
            sd = inner_action_data(kernel, base, inner_domain, inner_target, f, tol=tol)
            result = _certify(sd, tol)
        except (ConstructionError, CrossCheckError) as exc:
            last_error = exc
            continue
        if result.classification.flags["harmonic"]:
            return result
    raise InfeasibleSearch(
        f"no harmonic action found within {budget} samples"
        + (f" (last failure: {last_error})" if last_error else "")
    )


def ref_build_biharmonic_submersion(base: LieAlgebra, inner_domain: InnerProduct,
                                    inner_target: InnerProduct,
                                    kernel: EuclideanLieAlgebra,
                                    budget: int = 50, seed: int = 0,
                                    tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Find a traceless inner action; the projection is then biharmonic
    exactly when the identity map between the two base metrics is, which
    is a precondition (checked, error otherwise).  Certified by the
    independent bitension computation.
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
    tvec = kernel.alg.ad_traces()
    if float(tvec @ tvec) <= tol.threshold(1.0) ** 2:
        hom_basis = np.eye(kernel.dim)
    else:
        hom_basis = la.nullspace(tvec.reshape(1, -1), tol)
    rng = np.random.default_rng(seed)
    last_error: Optional[Exception] = None
    for trial in range(max(1, budget)):
        if hom_basis.shape[1] == 0:
            f = np.zeros((kernel.dim, base.dim))
        else:
            coeffs = rng.normal(size=(hom_basis.shape[1], base.dim)) * (trial > 0)
            f = hom_basis @ coeffs
        try:
            sd = inner_action_data(kernel, base, inner_domain, inner_target, f, tol=tol)
            result = _certify(sd, tol)
        except (ConstructionError, CrossCheckError) as exc:
            last_error = exc
            continue
        if result.classification.flags["biharmonic"]:
            return result
    raise InfeasibleSearch(
        f"no biharmonic action found within {budget} samples"
        + (f" (last failure: {last_error})" if last_error else "")
    )


REF_RIEMANNIAN_VARIANTS = ("parallel_trace", "unimodular_kernel", "killing_trace")


def ref_build_riemannian_biharmonic(base: LieAlgebra, inner: InnerProduct,
                                    kernel: EuclideanLieAlgebra, variant: str,
                                    budget: int = 50, seed: int = 0,
                                    tol: Tolerance = DEFAULT_TOL) -> ConstructionResult:
    """Riemannian case (equal base metrics): three sufficient conditions.

    * ``parallel_trace``: the trace form of the action kills every
      Levi-Civita product value (and the twist vanishes: the embedding is
      constrained to have commuting image and to kill derived base
      vectors).
    * ``unimodular_kernel``: the kernel is unimodular (checked), so every
      inner action is traceless.
    * ``killing_trace``: the base is unimodular (checked) and the trace
      form is a Killing one-form, read symmetrically as
      ``tr(rho(ad_u^* v + ad_v^* u)) = 0`` for all u, v (the variable in
      the second slot is taken equal to the first pairing's, making the
      condition equivalent to the metric dual being a Killing direction).

    The projection is certified biharmonic independently.
    """
    if variant not in REF_RIEMANNIAN_VARIANTS:
        raise ConstructionError(
            f"unknown variant {variant!r}; expected one of {REF_RIEMANNIAN_VARIANTS}"
        )
    dom = EuclideanLieAlgebra(base, inner)
    _require_float(dom, kernel)
    dh, dn = base.dim, kernel.dim
    tvec = kernel.alg.ad_traces()
    rng = np.random.default_rng(seed)

    rows = []
    if variant == "unimodular_kernel":
        if not kernel.is_unimodular(tol):
            raise ConstructionError("variant needs a unimodular kernel")
    elif variant == "parallel_trace":
        lc = dom.levi_civita()
        for i in range(dh):
            for j in range(dh):
                a = la.to_float(lc.product(dom.basis(i), dom.basis(j)))
                row = np.zeros((dn, dh))
                for k in range(dh):
                    row[:, k] = tvec * a[k]
                rows.append(row.reshape(-1))
        for i in range(dh):
            for j in range(i + 1, dh):
                br = la.to_float(base.bracket(base.basis(i), base.basis(j)))
                for r in range(dn):
                    row = np.zeros((dn, dh))
                    row[r, :] = br
                    rows.append(row.reshape(-1))
    else:  # killing_trace
        if not dom.is_unimodular(tol):
            raise ConstructionError("variant needs a unimodular base")
        for i in range(dh):
            for j in range(i, dh):
                vec = (la.to_float(dom.ad_star(dom.basis(i))) @ la.to_float(dom.basis(j))
                       + la.to_float(dom.ad_star(dom.basis(j))) @ la.to_float(dom.basis(i)))
                row = np.zeros((dn, dh))
                for k in range(dh):
                    row[:, k] = tvec * vec[k]
                rows.append(row.reshape(-1))

    if rows:
        constraint = np.stack(rows, axis=0)
        f_space = la.nullspace(constraint, tol)
    else:
        f_space = np.eye(dn * dh)

    last_error: Optional[Exception] = None
    for trial in range(max(1, budget)):
        if f_space.shape[1] == 0:
            f = np.zeros((dn, dh))
        else:
            coeffs = rng.normal(size=f_space.shape[1]) * (1.0 if trial > 0 else 0.5)
            f = (f_space @ coeffs).reshape(dn, dh)
        if variant == "parallel_trace":
            commuting = all(
                la.norm(kernel.bracket(f[:, i], f[:, j])) <= tol.threshold(1.0 + la.norm(f) ** 2)
                for i in range(dh)
                for j in range(i + 1, dh)
            )
            if not commuting:
                last_error = ConstructionError("sampled embedding has non-commuting image")
                continue
        try:
            sd = inner_action_data(kernel, base, inner, inner, f, tol=tol)
            if variant == "parallel_trace" and la.norm(sd.omega) > tol.threshold(
                1.0 + la.norm(f) ** 2
            ):
                last_error = ConstructionError("sampled embedding produced a twist")
                continue
            result = _certify(sd, tol)
        except (ConstructionError, CrossCheckError) as exc:
            last_error = exc
            continue
        if result.classification.flags["biharmonic"]:
            return result
    raise InfeasibleSearch(
        f"no biharmonic action found within {budget} samples"
        + (f" (last failure: {last_error})" if last_error else "")
    )


def ref_build_flat_target_submersion(base_flat: EuclideanLieAlgebra,
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
    worst = 0.0
    for i in range(base_flat.dim):
        for j in range(i + 1, base_flat.dim):
            worst = max(
                worst,
                la.norm(base_flat.curvature(base_flat.basis(i), base_flat.basis(j))),
            )
    scale = 1.0 + la.norm(base_flat.alg.c) ** 2 * la.norm(base_flat.gram)
    if worst > tol.threshold(scale):
        raise ConstructionError(
            f"base metric is not flat (max curvature norm {worst:.3e})"
        )
    dh, dn = base_flat.dim, kernel.dim
    rng = np.random.default_rng(seed)
    unimodular = kernel.is_unimodular(tol)
    rows = []
    if not unimodular:
        for i in range(dh):
            for j in range(i + 1, dh):
                br = la.to_float(base_flat.bracket(base_flat.basis(i), base_flat.basis(j)))
                for r in range(dn):
                    row = np.zeros((dn, dh))
                    row[r, :] = br
                    rows.append(row.reshape(-1))
    f_space = la.nullspace(np.stack(rows, axis=0), tol) if rows else np.eye(dn * dh)

    last_error: Optional[Exception] = None
    for trial in range(max(1, budget)):
        if f_space.shape[1] == 0:
            f = np.zeros((dn, dh))
        else:
            coeffs = rng.normal(size=f_space.shape[1]) * (1.0 if trial > 0 else 0.5)
            f = (f_space @ coeffs).reshape(dn, dh)
        if not unimodular:
            commuting = all(
                la.norm(kernel.bracket(f[:, i], f[:, j])) <= tol.threshold(1.0 + la.norm(f) ** 2)
                for i in range(dh)
                for j in range(i + 1, dh)
            )
            if not commuting:
                last_error = ConstructionError("sampled embedding has non-commuting image")
                continue
        try:
            sd = inner_action_data(kernel, base_flat.alg, base_flat.inner,
                                   base_flat.inner, f, tol=tol)
            if not unimodular and la.norm(sd.omega) > tol.threshold(1.0 + la.norm(f) ** 2):
                last_error = ConstructionError("sampled embedding produced a twist")
                continue
            result = _certify(sd, tol)
        except (ConstructionError, CrossCheckError) as exc:
            last_error = exc
            continue
        if result.classification.flags["biharmonic"]:
            return result
    raise InfeasibleSearch(
        f"no biharmonic action found within {budget} samples"
        + (f" (last failure: {last_error})" if last_error else "")
    )


def _dict_assembled_tensor(sd, tol=DEFAULT_TOL):
    """The total structure tensor as a ``{(i, j): vector}`` bracket dict."""
    dn, dh = sd.dim_kernel, sd.dim_base
    dim = dn + dh
    exact = sd.exact
    brackets = {}
    cn, ch = sd.kernel.alg.c, sd.base.c
    for i in range(dn):
        for j in range(i + 1, dn):
            vec = la.zeros(dim, exact)
            vec[:dn] = cn[i, j, :]
            brackets[(i, j)] = vec
    for i in range(dh):
        for j in range(dn):
            # [kernel_j, base_i] = -rho(h_i) kernel_j
            vec = la.zeros(dim, exact)
            vec[:dn] = -sd.rho[i][:, j]
            brackets[(j, dn + i)] = vec
    for i in range(dh):
        for j in range(i + 1, dh):
            vec = la.zeros(dim, exact)
            vec[:dn] = sd.omega[i, j]
            vec[dn:] = ch[i, j, :]
            brackets[(dn + i, dn + j)] = vec
    return LieAlgebra.from_brackets(dim, brackets, name="total",
                                    exact=exact, tol=tol.scaled(10.0)).c


def _recipe_calls(rng, seed):
    """(recipe, arguments) pairs: the inputs of the recipe tests above plus
    random metrics, kernels with and without trace, bases whose embeddings
    meet the twist filter, and failing preconditions."""
    ident2, ident3 = InnerProduct.identity(2), InnerProduct.identity(3)
    a = rng.uniform(0.5, 2.0)
    g2 = InnerProduct.of(rand_pd(rng, 2))
    aff = with_metric(get("aff2solv").ela, rand_pd(rng, 3))
    heis = with_metric(get("heis3").ela, rand_pd(rng, 3))
    plane = get("abelian", n=2).ela
    so3 = get("so3").ela.alg
    return [
        ("harmonic", (two_dim_solvable(a), ident2, g2, aff, 20, seed)),
        ("harmonic", (two_dim_solvable(1.0), ident2,
                      InnerProduct.of(np.array([[2.0, 0.3], [0.3, 1.0]])),
                      get("heis3").ela, 5, seed)),
        ("harmonic", (two_dim_solvable(1.0), ident2, ident2, heis, 5, seed)),
        ("biharmonic", (two_dim_solvable(1.0), ident2, ident2, get("heis3").ela, 10, seed)),
        ("biharmonic", (two_dim_solvable(a), ident2, ident2, aff, 10, seed)),
        ("biharmonic", (two_dim_solvable(a), ident2, g2, heis, 5, seed)),
        ("riemannian", (so3, ident3, get("heis3").ela, "unimodular_kernel", 20, seed)),
        ("riemannian", (so3, ident3, heis, "killing_trace", 20, seed)),
        ("riemannian", (so3, ident3, aff, "killing_trace", 20, seed)),
        ("riemannian", (two_dim_solvable(1.0), ident2, get("e1").ela, "parallel_trace", 30, seed)),
        ("riemannian", (two_dim_solvable(a), g2, aff, "parallel_trace", 10, seed)),
        ("riemannian", (plane.alg, g2, heis, "parallel_trace", 3, seed)),
        ("riemannian", (two_dim_solvable(1.0), ident2, get("e1").ela, "unimodular_kernel", 5,
                        seed)),
        ("flat", (get("e2flat").ela, aff, 20, seed)),
        ("flat", (get("e2flat").ela, heis, 20, seed)),
        ("flat", (plane, aff, 3, seed)),
        ("flat", (get("so3").ela, get("heis3").ela, 5, seed)),
    ]


_RECIPES = {
    "harmonic": (build_harmonic_submersion, ref_build_harmonic_submersion),
    "biharmonic": (build_biharmonic_submersion, ref_build_biharmonic_submersion),
    "riemannian": (build_riemannian_biharmonic, ref_build_riemannian_biharmonic),
    "flat": (build_flat_target_submersion, ref_build_flat_target_submersion),
}


def _outcome(fn, args, monkeypatch, refused):
    """The result of ``fn(*args)`` or the type it raised, with certification
    refusing the first ``refused`` samples, so that later trials' samples
    decide the outcome too."""
    certify, seen = semidirect._certify, []

    def refusing(sd, tol):
        seen.append(sd)
        if len(seen) <= refused:
            raise ConstructionError("sample refused")
        return certify(sd, tol)

    with monkeypatch.context() as m:
        m.setattr(semidirect, "_certify", refusing)
        m.setitem(globals(), "_certify", refusing)
        try:
            return fn(*args)
        except Exception as exc:
            return type(exc)


@pytest.mark.parametrize("recipe", sorted(_RECIPES))
def test_search_reproduces_the_per_recipe_loops(recipe, monkeypatch):
    """Same outcome (a result or the exception type) and the same accepted
    action as the loops the shared search replaced."""
    new, ref = _RECIPES[recipe]
    results = 0
    for seed in range(20):
        calls = _recipe_calls(np.random.default_rng(seed), seed)
        for name, args in calls:
            if name != recipe:
                continue
            got = _outcome(new, args, monkeypatch, seed % 4)
            want = _outcome(ref, args, monkeypatch, seed % 4)
            if isinstance(want, type):
                assert got is want, (args, got)
                continue
            assert not isinstance(got, type), (args, got)
            ref_rho = np.asarray(want.data.rho, float)
            np.testing.assert_allclose(np.asarray(got.data.rho, float), ref_rho,
                                       rtol=1e-12, atol=1e-12 * np.linalg.norm(ref_rho))
            assert got.classification.flags == want.classification.flags
            results += 1
    assert results > 0


@pytest.mark.parametrize("recipe", ["harmonic", "biharmonic"])
def test_trial_zero_is_the_accepted_sample(recipe, monkeypatch):
    """On every successful call of the recipe tests' inputs, trial 0 (the
    particular solution f0, or the zero embedding) is the only sample drawn
    and the one certified, so the accepted action is the same for every
    seed; the biharmonic one is the trivial action rho = 0."""
    samples = []

    def recording(kernel, base, inner_domain, inner_target, f, *args, **kwargs):
        samples.append(np.array(f, dtype=float))
        return inner_action_data(kernel, base, inner_domain, inner_target, f, *args, **kwargs)

    monkeypatch.setattr(semidirect, "inner_action_data", recording)
    build = _RECIPES[recipe][0]
    accepted = 0
    for k in range(4):
        calls = [args for name, args in _recipe_calls(np.random.default_rng(k), 0)
                 if name == recipe]
        for args in calls:
            rhos, firsts = [], []
            for seed in range(5):
                samples.clear()
                try:
                    res = build(*args[:-1], seed)
                except (ConstructionError, InfeasibleSearch):
                    break
                assert len(samples) == 1
                firsts.append(samples[0])
                rhos.append(np.asarray(res.data.rho, float))
            for f, rho in zip(firsts[1:], rhos[1:]):
                assert np.array_equal(f, firsts[0]) and np.array_equal(rho, rhos[0])
            if recipe == "biharmonic":
                assert all(not rho.any() for rho in rhos)
            accepted += len(rhos)
    assert accepted >= 20


def _semidirect_samples(rng):
    heis = with_metric(get("heis3").ela, rand_pd(rng, 3))
    omega0 = np.zeros((2, 2, 3))
    omega0[0, 1, 0], omega0[1, 0, 0] = 0.7, -0.7
    data = [tangent_semidirect(with_metric(get(name).ela, rand_pd(rng, get(name).ela.dim)))
            for name in ("e1", "heis3", "so3")]
    data.append(inner_action_data(heis, two_dim_solvable(1.2), InnerProduct.of(rand_pd(rng, 2)),
                                  InnerProduct.of(rand_pd(rng, 2)), rng.normal(size=(3, 2)),
                                  omega0=omega0))
    data.append(inner_action_data(heis, get("so3").ela.alg, InnerProduct.identity(3),
                                  InnerProduct.identity(3), rng.normal(size=(3, 3))))
    return data


def test_block_assembly_matches_bracket_dict_assembly(rng):
    for sd in _semidirect_samples(rng):
        total, _ = build_semidirect(sd)
        np.testing.assert_allclose(total.alg.c, _dict_assembled_tensor(sd),
                                   rtol=1e-12, atol=1e-15)


def test_block_assembly_matches_bracket_dict_assembly_exact():
    f = Fraction
    heis = get("heis3", exact=True).ela
    base = LieAlgebra.from_brackets(2, {(0, 1): [f(3, 2), f(0)]}, exact=True)
    ident = InnerProduct.identity(2, exact=True)
    omega0 = la.zeros((2, 2, 3), exact=True)
    omega0[0, 1, 0], omega0[1, 0, 0] = f(1, 3), f(-1, 3)
    emb = la.as_matrix([[1, f(1, 2)], [f(-2, 3), 2], [0, f(5, 7)]], exact=True)
    data = [tangent_semidirect(get("e1", a=f(2), exact=True).ela),
            tangent_semidirect(get("heis3", exact=True).ela),
            inner_action_data(heis, base, ident, ident, emb, omega0=omega0)]
    for sd in data:
        total, _ = build_semidirect(sd)
        expected = _dict_assembled_tensor(sd)
        assert total.alg.c.dtype == object
        assert np.array_equal(total.alg.c, expected)


def test_inner_action_validates_an_exact_central_twist_exactly():
    """A twist 1e-12 off the center, or 1e-12 from closed, passes the float
    thresholds but is refused as input in exact mode (same base as below)."""
    f = Fraction
    base = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (0, 2): [0, 0, 1]}, exact=True)
    kernel = get("heis3", exact=True).ela
    ident = InnerProduct.identity(3, exact=True)
    for (i, j, k), message in (((0, 1, 1), "center"), ((1, 2, 0), "cyclic sum")):
        omega0 = la.zeros((3, 3, 3), exact=True)
        omega0[i, j, k], omega0[j, i, k] = f(1, 10**12), f(-1, 10**12)
        with pytest.raises(ConstructionError, match=message):
            inner_action_data(kernel, base, ident, ident, la.zeros((3, 3), exact=True),
                              omega0=omega0)


def test_inner_action_rejects_central_twist_not_closed():
    """On the base [h0, h1] = h1, [h0, h2] = h2 the cyclic sum of
    alpha([u, v], w) over (h0, h1, h2) is 2 alpha(h1, h2): the center-valued
    twist alpha = h1* ^ h2* is not closed, while h0* ^ h1* is."""
    base = LieAlgebra.from_brackets(3, {(0, 1): [0.0, 1.0, 0.0], (0, 2): [0.0, 0.0, 1.0]})
    kernel = get("heis3").ela                  # center spanned by e0
    ident = InnerProduct.identity(3)
    for (i, j), closed in (((1, 2), False), ((0, 1), True)):
        omega0 = np.zeros((3, 3, 3))
        omega0[i, j, 0], omega0[j, i, 0] = 1.0, -1.0
        if closed:
            data = inner_action_data(kernel, base, ident, ident, np.zeros((3, 3)), omega0=omega0)
            assert check_condition(data).ok
        else:
            with pytest.raises(ConstructionError, match="cyclic sum"):
                inner_action_data(kernel, base, ident, ident, np.zeros((3, 3)), omega0=omega0)


def test_data_of_mixed_scalar_modes_are_refused():
    """An exact kernel over a float base used to construct and then fail in
    ``build_semidirect`` with a bare AttributeError; a float action among
    exact data used to pass silently.  Both are refused at construction."""
    kernel, base = get("heis3", exact=True).ela, get("e1").ela
    exact_base = get("e1", exact=True).ela
    with pytest.raises(ConstructionError, match="one scalar mode"):
        semidirect.SemidirectData(kernel, base.alg, base.inner, base.inner,
                                  la.zeros((2, 3, 3), True), la.zeros((2, 2, 3), True))
    with pytest.raises(ConstructionError, match="one scalar mode"):
        semidirect.SemidirectData(kernel, exact_base.alg, exact_base.inner, exact_base.inner,
                                  np.zeros((2, 3, 3)), la.zeros((2, 2, 3), True))
    data = semidirect.SemidirectData(kernel, exact_base.alg, exact_base.inner, exact_base.inner,
                                     la.zeros((2, 3, 3), True), la.zeros((2, 2, 3), True))
    assert build_semidirect(data)[0].exact
